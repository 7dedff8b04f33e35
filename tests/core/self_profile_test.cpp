// pp::obs end-to-end: the observed pipeline produces stage spans covering
// the run, counters that agree with the result's own accounting, a
// Perfetto-loadable Chrome trace and a run manifest, and a self-profile
// report section that is stable across thread counts (the determinism
// suite covers the cross-thread byte-identity; this file covers content).
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "gtest/gtest.h"
#include "obs/obs.hpp"
#include "workloads/workloads.hpp"

namespace pp {
namespace {

core::ProfileResult observed_run(const ir::Module& m, unsigned threads) {
  core::Pipeline pipe(m);
  core::PipelineOptions opts;
  opts.observe = true;
  opts.threads = threads;
  return pipe.run(opts);
}

TEST(SelfProfile, SessionPresentOnlyWhenObserved) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  core::Pipeline pipe(wl.module);
  EXPECT_EQ(pipe.run({}).obs, nullptr);
  core::ProfileResult r = observed_run(wl.module, 2);
  ASSERT_NE(r.obs, nullptr);
  EXPECT_TRUE(r.obs->enabled());
}

TEST(SelfProfile, StageSpansCoverEveryPipelineStage) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  core::ProfileResult r = observed_run(wl.module, 2);
  core::full_report(r);  // runs + closes the feedback stage
  std::vector<std::string> names;
  for (const obs::SpanRec& s : r.obs->stage_spans()) names.push_back(s.name);
  EXPECT_EQ(names, (std::vector<std::string>{"stage:verify", "stage:control",
                                             "stage:ddg", "stage:fold",
                                             "stage:feedback"}));
}

TEST(SelfProfile, CountersAgreeWithResultAccounting) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  core::ProfileResult r = observed_run(wl.module, 4);
  auto cs = r.obs->counters();
  EXPECT_EQ(cs.at("ddg.dependences").value,
            static_cast<i64>(r.ddg_dependences));
  EXPECT_EQ(cs.at("ddg.shadow_pages").value,
            static_cast<i64>(r.shadow_pages));
  EXPECT_EQ(cs.at("ddg.coord_pool_words").value,
            static_cast<i64>(r.coord_pool_words));
  EXPECT_EQ(cs.at("vm.instructions").value,
            static_cast<i64>(r.stats.instructions));
  EXPECT_GT(cs.at("fold.pieces").value, 0);
  // The threaded replay streams both stages through the ring.
  EXPECT_GT(cs.at("ring.events_consumed").value, 0);
  EXPECT_GT(cs.at("ring.batches").value, 0);
}

TEST(SelfProfile, SerialRunHasNoRingCounters) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  core::ProfileResult r = observed_run(wl.module, 1);
  auto cs = r.obs->counters();
  EXPECT_EQ(cs.count("ring.events_consumed"), 0u);
  EXPECT_GT(cs.at("vm.instructions").value, 0);
}

TEST(SelfProfile, ChromeTraceAndManifestExport) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  core::ProfileResult r = observed_run(wl.module, 2);
  std::string report = core::full_report(r);

  std::string trace = r.obs->chrome_trace_json();
  EXPECT_EQ(trace.find("{\"traceEvents\":"), 0u);
  for (const char* stage :
       {"stage:verify", "stage:control", "stage:ddg", "stage:fold",
        "stage:feedback"})
    EXPECT_NE(trace.find(stage), std::string::npos) << stage;

  obs::Session::ManifestExtra extra;
  extra.workload = "backprop";
  extra.threads = 2;
  extra.truncated = r.truncated;
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(obs::fnv1a(report)));
  extra.report_fingerprint = fp;
  std::string manifest = r.obs->manifest_json(extra);
  EXPECT_NE(manifest.find("\"workload\": \"backprop\""), std::string::npos);
  EXPECT_NE(manifest.find("{\"name\": \"ddg\", \"wall_ms\": "),
            std::string::npos);
  EXPECT_NE(manifest.find("\"report_fingerprint\": \""), std::string::npos);
  EXPECT_NE(manifest.find("\"ddg.dependences\": "), std::string::npos);
}

TEST(SelfProfile, StageSpanSumIsSaneAgainstWallTime) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  const u64 t0 = obs::now_ns();
  core::ProfileResult r = observed_run(wl.module, 2);
  core::full_report(r);
  const u64 wall = obs::now_ns() - t0;
  u64 sum = 0;
  for (const obs::SpanRec& s : r.obs->stage_spans()) sum += s.dur_ns;
  EXPECT_GT(sum, 0u);
  // Stage spans are non-overlapping main-thread intervals inside [t0, t1]:
  // their sum can never exceed the enclosing wall time, and the pipeline
  // spends the bulk of the run inside its stages.
  EXPECT_LE(sum, wall);
  EXPECT_GE(static_cast<double>(sum), 0.5 * static_cast<double>(wall));
}

TEST(SelfProfile, StableSectionElidesTimesButTimedSectionHasThem) {
  workloads::Workload wl = workloads::make_rodinia("backprop");
  core::ProfileResult r = observed_run(wl.module, 4);
  core::ReportOptions stable;
  std::string s = core::full_report(r, stable);
  EXPECT_NE(s.find("-- self profile --"), std::string::npos);
  EXPECT_NE(s.find("stage ddg: wall - cpu -"), std::string::npos);
  EXPECT_EQ(s.find("pool.steals"), std::string::npos);

  core::ReportOptions timed;
  timed.stable_self_profile = false;
  std::string t = core::full_report(r, timed);
  EXPECT_NE(t.find("stage ddg: wall "), std::string::npos);
  EXPECT_NE(t.find("pool.tasks"), std::string::npos);
}

// The folder-work counters are stable: the fold is one streaming path, so
// threads 1 and 4 count the same work.
TEST(SelfProfile, FolderWorkCountersMatchAcrossThreadCounts) {
  workloads::Workload wl = workloads::make_rodinia("cfd");
  auto serial = observed_run(wl.module, 1).obs->counters();
  auto threaded = observed_run(wl.module, 4).obs->counters();
  for (const char* c : {"fold.points", "fold.chain_defers", "fold.refits",
                        "fold.hull_extends", "fold.int_fallbacks"}) {
    EXPECT_EQ(serial.at(c).stability, obs::Stability::kStable) << c;
    EXPECT_EQ(serial.at(c).value, threaded.at(c).value) << c;
  }
  EXPECT_GT(serial.at("fold.points").value, 0);
  EXPECT_GT(serial.at("fold.refits").value, 0);
  EXPECT_GT(serial.at("fold.chain_defers").value, 0);
}

// The i128 refit/hull tier answers every fold of the suite: a silent
// fallback to rationals would only show as lost speed.
TEST(SelfProfile, FoldNeverFallsBackToRationalsOnTheSuite) {
  for (const std::string& name : workloads::rodinia_names()) {
    workloads::Workload wl = workloads::make_rodinia(name);
    auto cs = observed_run(wl.module, 1).obs->counters();
    EXPECT_EQ(cs.at("fold.int_fallbacks").value, 0) << name;
    EXPECT_GT(cs.at("fold.hull_extends").value, 0) << name;
  }
}

// Legality LP counters are stable, and each tier is exercised: every
// piece hotspot3D's scheduler queries is a box (closed form, no simplex),
// while particlefilter's 3-D octagon pieces still need the simplex.
TEST(SelfProfile, SchedulerLpCountersSplitClosedFormFromSimplex) {
  auto counters_after_report = [](const char* name) {
    workloads::Workload wl = workloads::make_rodinia(name);
    core::ProfileResult r = observed_run(wl.module, 2);
    core::full_report(r);
    return r.obs->counters();
  };
  auto hot = counters_after_report("hotspot3D");
  for (const char* c : {"sched.lp_solves", "sched.closed_form_hits",
                        "sched.verdict_cache_hits"})
    EXPECT_EQ(hot.at(c).stability, obs::Stability::kStable) << c;
  EXPECT_GT(hot.at("sched.closed_form_hits").value, 0);
  EXPECT_EQ(hot.at("sched.lp_solves").value, 0);
  EXPECT_GT(hot.at("sched.verdict_cache_hits").value, 0);

  auto pf = counters_after_report("particlefilter");
  EXPECT_GT(pf.at("sched.lp_solves").value, 0);
  EXPECT_GT(pf.at("sched.closed_form_hits").value, 0);
}

// The per-group LP memo answers the repeats of the simplex tier:
// particlefilter poses 371 simplex-tier LPs over 4 distinct systems and
// heartwall 22 over 11, so only the distinct ones run the simplex. The
// memo and the oracle's walk are per-task, so their counters (and the
// changed lp_solves) are the same at any thread count.
TEST(SelfProfile, LpMemoAndOracleCountersAreStableAcrossThreads) {
  auto counters_after_report = [](const char* name, unsigned threads) {
    workloads::Workload wl = workloads::make_rodinia(name);
    core::ProfileResult r = observed_run(wl.module, threads);
    core::full_report(r);
    return r.obs->counters();
  };
  const char* kCounters[] = {
      "sched.lp_solves",     "sched.lp_memo_hits",  "sched.simplex_pivots",
      "oracle.instances",    "oracle.enum_pieces",  "oracle.exact_pieces",
      "oracle.lp_fallbacks"};
  for (const char* name : {"particlefilter", "heartwall"}) {
    auto serial = counters_after_report(name, 1);
    auto threaded = counters_after_report(name, 4);
    for (const char* c : kCounters) {
      EXPECT_EQ(serial.at(c).stability, obs::Stability::kStable) << c;
      EXPECT_EQ(serial.at(c).value, threaded.at(c).value) << name << " " << c;
    }
    EXPECT_GT(serial.at("sched.lp_solves").value, 0) << name;
    EXPECT_GT(serial.at("sched.simplex_pivots").value, 0) << name;
    EXPECT_GT(serial.at("oracle.instances").value, 0) << name;
    EXPECT_GT(serial.at("oracle.enum_pieces").value, 0) << name;
  }
  auto pf = counters_after_report("particlefilter", 1);
  EXPECT_GT(pf.at("sched.lp_memo_hits").value, 300);
  EXPECT_LE(pf.at("sched.lp_solves").value, 8);
  auto hw = counters_after_report("heartwall", 1);
  EXPECT_LE(hw.at("sched.lp_solves").value, 11);
}

}  // namespace
}  // namespace pp
