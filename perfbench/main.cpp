// perfbench: the repository benchmark. Profiles fixed sets of mini-Rodinia
// programs through the public API (core::Pipeline::run, then
// core::full_report), one program at a time in a closed loop from this one
// client process, and checks every profile's output.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--fingerprints FILE] [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics, with times scaled to the
// reference host speed (hostspeed.hpp); --trace 1 re-issues each profile
// layer by layer (layers.cpp) and prints the per-layer metrics.
// The last stdout line is one JSON object; lines before it are
// information (fingerprints, failures, layer shares).
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/pipeline.hpp"
#include "hostspeed.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "vm/vm.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using namespace pp;

// Why each workload, and which layer it bypasses, is recorded in
// perfbench/baseline.json next to its measured layer shares.
struct Spec {
  const char* name;
  unsigned threads;
  bool transforms;
  std::vector<std::string> programs;  ///< empty = all 19
};

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = {
      {"feedback_heavy", 1, false,
       {"hotspot3D", "heartwall", "particlefilter", "srad_v1", "srad_v2",
        "hotspot", "pathfinder", "myocyte", "backprop"}},
      // Timed at 2 lanes, fixed so the workload means the same on any
      // machine. At 4 lanes, what threads=0 resolves to on the 4-vCPU
      // reference box, the run occupies every vCPU of a shared host and its
      // Pipeline::run time spread 17% of the median over runs of the same
      // code; the threads=4 report is still checked once per program.
      {"parallel_suite", 2, false, {}},
      // The programs where the engine applies at least one plan.
      {"transform_loop", 1, true,
       {"backprop", "kmeans", "streamcluster", "b+tree", "leukocyte", "nw",
        "srad_v1", "srad_v2"}},
  };
  return all;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// The seed permutes program order within each pass (Fisher-Yates).
std::vector<std::string> pass_order(std::vector<std::string> programs,
                                    std::uint64_t seed, std::size_t pass) {
  std::uint64_t state = seed * 0x100000001b3ull + pass;
  for (std::size_t i = programs.size(); i > 1; --i)
    std::swap(programs[i - 1], programs[splitmix(state) % i]);
  return programs;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string fingerprints;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--fingerprints FILE] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds takes a positive number");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--fingerprints") {
      a.fingerprints = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::string num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// Everything one run learns about its programs besides the timings.
struct Run {
  const Spec& spec;
  std::vector<std::string> programs;
  std::map<std::string, std::uint64_t> recorded;  ///< fingerprints on file
  std::map<std::string, std::int64_t> ref_exit;
  std::map<std::string, std::string> ref_report;  ///< threads=1 or first report
  std::map<std::string, double> pct_affine;
  std::map<std::string, double> speedup;
  /// Last untraced profile's shape, for cross-checking the decomposition.
  std::map<std::string, std::vector<double>> shape;
  Tally tally;
  std::vector<std::string> self_test_problems;
  bool self_tested = false;

  std::string config() const { return spec.transforms ? "transform" : "default"; }

  core::PipelineOptions options(unsigned threads) const {
    core::PipelineOptions o;
    o.threads = threads;
    o.apply_transforms = spec.transforms;
    return o;
  }

  // References the timed profiles are checked against: the interpreter's
  // exit value and, for a threaded workload, the threads=1 report.
  void make_references() {
    for (const auto& name : programs) {
      workloads::Workload w = workloads::make_rodinia(name);
      vm::Machine machine(w.module);
      ref_exit[name] = machine.run("main").exit_value;
      if (spec.threads > 1) {
        core::ProfileResult r = core::Pipeline(w.module).run(options(1));
        ref_report[name] = core::full_report(r);
      }
    }
  }

  // A threaded workload's threads=4 report must also reproduce the
  // threads=1 report: one untimed profile per program, made after the
  // timed passes so that it does not raise their peak resident set.
  void check_four_lanes() {
    if (spec.threads <= 1) return;
    for (const auto& name : programs) {
      workloads::Workload w = workloads::make_rodinia(name);
      core::ProfileResult r = core::Pipeline(w.module).run(options(4));
      Expectation want;
      want.exit_value = ref_exit.at(name);
      want.same_report_as = &ref_report.at(name);
      Verdict v = check_profile(Outcome::of(r, core::full_report(r)), want);
      tally.add(v);
      for (const auto& f : v.failures)
        std::printf("FAIL %s threads=4: %s\n", name.c_str(), f.c_str());
    }
  }

  void check(const std::string& name, const core::ProfileResult& r,
             std::string report, std::size_t pass) {
    Outcome got = Outcome::of(r, std::move(report));
    Expectation want;
    want.exit_value = ref_exit.at(name);
    want.transforms = spec.transforms;
    auto ref = ref_report.find(name);
    if (ref != ref_report.end()) want.same_report_as = &ref->second;
    std::string key = config() + "/" + name;
    auto rec = recorded.find(key);
    if (rec != recorded.end()) want.fingerprint = rec->second;

    Verdict v = check_profile(got, want);
    tally.add(v);
    for (const auto& f : v.failures)
      std::printf("FAIL %s pass %zu: %s\n", name.c_str(), pass, f.c_str());
    if (pass == 0) {
      std::string status = !want.fingerprint ? "none recorded"
                           : v.fingerprint_mismatch
                               ? "MISMATCH, recorded " + hex(*want.fingerprint)
                               : "matches recorded";
      std::printf("fingerprint %s %s (%s)\n", key.c_str(),
                  hex(v.fingerprint).c_str(), status.c_str());
    }
    // A serial workload holds later passes to the program's first report.
    if (ref == ref_report.end()) ref_report[name] = got.report;
    if (!self_tested && v.ok()) {
      self_tested = true;
      self_test_problems = self_test(got, want);
      std::printf("checker self-test on %s: %s\n", name.c_str(),
                  self_test_problems.empty() ? "passed" : "FAILED");
      for (const auto& p : self_test_problems) std::printf("  %s\n", p.c_str());
    }
  }

  /// Per-program seconds, one entry per pass: Pipeline::run alone, and run
  /// plus full_report. `raw` holds wall time, `ref` the same scaled to the
  /// reference host speed (hostspeed.hpp).
  struct Times {
    std::map<std::string, std::vector<double>> run_s, report_s;
    /// Seconds to build each pass's fresh modules (the set-up).
    std::vector<double> setup_s;
  } raw, ref;
  std::vector<double> speed_factor;  ///< one per pass

  // One closed-loop pass: every program once, fresh module and Pipeline
  // (with its own pool) per profile, the host-speed probe before the
  // set-up and before each profile. Returns the pass's wall seconds.
  double pass(std::uint64_t seed, std::size_t index) {
    HostSpeed speed;
    speed.sample();
    std::uint64_t t_setup = now_ns();
    std::map<std::string, workloads::Workload> fresh;
    for (const auto& name : programs)
      fresh.emplace(name, workloads::make_rodinia(name));
    double setup = ms_since(t_setup) / 1e3;

    double pass_s = 0;
    std::vector<std::pair<std::string, std::pair<double, double>>> timed;
    for (const auto& name : pass_order(programs, seed, index)) {
      core::PipelineOptions opts = options(spec.threads);
      speed.sample();
      std::uint64_t t0 = now_ns();
      core::ProfileResult r = core::Pipeline(fresh.at(name).module).run(opts);
      double run_ms = ms_since(t0);
      std::string report = core::full_report(r);
      double total_ms = ms_since(t0);
      timed.push_back({name, {run_ms / 1e3, total_ms / 1e3}});
      pass_s += total_ms / 1e3;
      pct_affine[name] = r.percent_affine();
      speedup[name] = r.transform.ran ? r.transform.combined_speedup : 1.0;
      shape[name] = {static_cast<double>(r.program.statements.size()),
                     static_cast<double>(r.program.deps.size()),
                     static_cast<double>(r.ddg_dependences),
                     static_cast<double>(r.stats.instructions)};
      check(name, r, std::move(report), index);
    }

    double f = speed.factor();
    speed_factor.push_back(f);
    raw.setup_s.push_back(setup);
    ref.setup_s.push_back(setup * f);
    for (const auto& [name, t] : timed) {
      raw.run_s[name].push_back(t.first);
      raw.report_s[name].push_back(t.second);
      ref.run_s[name].push_back(t.first * f);
      ref.report_s[name].push_back(t.second * f);
    }
    return pass_s;
  }
};

// Peak resident set of this process image. VmHWM starts afresh at exec;
// getrusage's ru_maxrss would also count the parent's pages from before
// the exec, so it is only the fallback.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Run& run, const std::vector<Metric>& metrics) {
  bool correct = run.tally.failed == 0 && run.self_tested &&
                 run.self_test_problems.empty();
  std::printf("fingerprint mismatches: %llu (information, not failures)\n",
              static_cast<unsigned long long>(run.tally.fingerprint_mismatches));
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.tally.attempted);
  out += ", \"failed\": " + std::to_string(run.tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run_end_to_end(Run& run, const Args& args) {
  run.make_references();

  std::vector<double> passes;
  std::uint64_t start = now_ns();
  for (std::size_t p = 0; p < 3 || ms_since(start) < args.seconds * 1e3; ++p)
    passes.push_back(run.pass(args.seed, p));

  // A pass's time is estimated program by program: the sum of each
  // program's median over passes, which a slow moment in one pass moves
  // less than the median of pass totals. The metrics use reference-speed
  // times; the wall times are printed for information.
  struct Summary {
    double total = 0, profile = 0, slowest = 0;
  };
  auto summarize = [&](const Run::Times& t, bool print) {
    Summary s;
    for (const auto& name : run.programs) {
      double all = median(t.report_s.at(name));
      double r = median(t.run_s.at(name));
      if (print)
        std::printf("program %s: median run %.4f s, run+report %.4f s "
                    "(reference speed)\n",
                    name.c_str(), r, all);
      s.total += all;
      s.profile += r;
      s.slowest = std::max(s.slowest, all);
    }
    return s;
  };
  Summary ref = summarize(run.ref, true), wall = summarize(run.raw, false);
  std::printf("wall time (not scaled): time_to_report %.4f s, profile %.4f s, "
              "max_program %.4f s, setup %.6f s\n",
              wall.total, wall.profile, wall.slowest, median(run.raw.setup_s));
  std::printf("host speed factor per pass: median %.3f, min %.3f, max %.3f\n",
              median(run.speed_factor),
              *std::min_element(run.speed_factor.begin(), run.speed_factor.end()),
              *std::max_element(run.speed_factor.begin(), run.speed_factor.end()));

  double aff = 0, log_speedup = 0;
  for (const auto& name : run.programs) {
    aff += run.pct_affine.at(name);
    log_speedup += std::log(run.speedup.at(name));
  }
  double n = static_cast<double>(run.programs.size());
  std::printf("passes: %zu of %zu programs; wall seconds per pass:",
              passes.size(), run.programs.size());
  for (double t : passes) std::printf(" %.3f", t);
  std::printf("\n");
  double rss = peak_rss_mb();
  run.check_four_lanes();
  double passed = static_cast<double>(run.tally.attempted - run.tally.failed);
  print_result(run, {{"time_to_report_s", ref.total, "s"},
                     {"profile_s", ref.profile, "s"},
                     {"max_program_s", ref.slowest, "s"},
                     {"peak_rss_mb", rss, "MB"},
                     {"setup_s", median(run.ref.setup_s), "s"},
                     {"pass_share",
                      passed / static_cast<double>(run.tally.attempted), "share"},
                     {"pct_affine", aff / n, "%"},
                     {"transform_speedup", std::exp(log_speedup / n), "x"}});
  return 0;
}

// Per-layer metrics in the order BENCHMARK.json lists them.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"verify.module_ms", "ms"},        {"verify.precision_ms", "ms"},
    {"verify.oracle_ms", "ms"},        {"verify.oracle_claims", "count"},
    {"verify.oracle_capped_pieces", "count"},
    {"verify.oracle_downgrades", "count"},
    {"vm.run_ms", "ms"},               {"vm.instructions", "count"},
    {"cfg.observe_ms", "ms"},          {"cfg.build_ms", "ms"},
    {"ddg.replay_ms", "ms"},           {"ddg.dependences", "count"},
    {"ddg.shadow_pages", "count"},     {"ddg.coord_pool_words", "count"},
    {"ddg.path_bailouts", "count"},    {"ddg.compressed_share", "share"},
    {"fold.stream_ms", "ms"},          {"fold.finalize_ms", "ms"},
    {"fold.statements", "count"},      {"fold.dep_edges", "count"},
    {"fold.degraded_statements", "count"},
    {"feedback.regions", "count"},     {"feedback.analyze_ms", "ms"},
    {"feedback.render_ms", "ms"},      {"scheduler.schedule_ms", "ms"},
    {"scheduler.groups", "count"},     {"scheduler.problem_statements", "count"},
    {"statican.baseline_ms", "ms"},    {"transform.plan_ms", "ms"},
    {"transform.apply_measure_ms", "ms"},
    {"transform.plans", "count"},      {"transform.applied", "count"},
    {"transform.refused", "count"},    {"transform.violations", "count"},
    {"pool.tasks", "count"},           {"pool.steals", "count"},
    {"pool.idle_waits", "count"},      {"manifest.stage_verify_ms", "ms"},
    {"manifest.stage_control_ms", "ms"}, {"manifest.stage_ddg_ms", "ms"},
    {"manifest.stage_fold_ms", "ms"},  {"manifest.stage_transform_ms", "ms"},
    {"manifest.stage_feedback_ms", "ms"},
    {"core.report_share", "share"},    {"core.unattributed_ms", "ms"},
    {"core.unattributed_share", "share"}, {"trace.overhead_ms", "ms"},
};

// Layers of the feedback stage (full_report); the rest is Pipeline::run.
const char* const kReportLayers[] = {"statican.baseline_ms",
                                     "verify.precision_ms",
                                     "feedback.analyze_ms", "verify.oracle_ms",
                                     "feedback.render_ms"};

int run_traced(Run& run, const Args& args) {
  run.make_references();
  Tracer tracer;
  int profile_id = 0;
  std::map<std::string, std::vector<double>> series;  // metric -> per pass
  std::map<std::string, double> once;  // one observed run per program

  std::uint64_t start = now_ns();
  for (std::size_t p = 0; p < 2 || ms_since(start) < args.seconds * 1e3; ++p) {
    double untraced_ms = run.pass(args.seed, p) * 1e3;
    LayerSample sum;
    for (const auto& name : pass_order(run.programs, args.seed, p)) {
      workloads::Workload w = workloads::make_rodinia(name);
      int id = profile_id++;
      Tracer::Scope root(tracer, "profile:" + name, id);
      LayerSample s = decompose(w.module, run.spec.transforms, tracer, id);
      root.end();
      // The decomposition must profile what the pipeline profiled.
      std::vector<double> shape = {s["fold.statements"], s["fold.dep_edges"],
                                   s["ddg.dependences"], s["vm.instructions"]};
      Verdict v;
      if (shape != run.shape.at(name))
        v.failures.push_back("layer-by-layer profile differs from Pipeline::run");
      run.tally.add(v);
      for (const auto& f : v.failures)
        std::printf("FAIL %s traced pass %zu: %s\n", name.c_str(), p, f.c_str());
      for (const auto& [k, val] : s) sum[k] += val;
    }
    double layers_ms = 0, report_ms = 0;
    for (const char* k : kLayerTimes) layers_ms += sum[k];
    for (const char* k : kReportLayers) report_ms += sum[k];
    sum["ddg.compressed_share"] = sum["ddg.events_compressed"] / sum["vm.instructions"];
    sum["core.report_share"] = report_ms / layers_ms;
    sum["core.unattributed_ms"] = untraced_ms - layers_ms;
    sum["core.unattributed_share"] = (untraced_ms - layers_ms) / untraced_ms;
    sum["trace.overhead_ms"] = sum["pipeline_ms"] - untraced_ms;
    for (const auto& [k, val] : sum) series[k].push_back(val);

    if (p == 0) {
      // Cross-check: the pipeline's own stage spans and pool counters, from
      // one observed run per program at the workload's thread count.
      for (const auto& name : run.programs) {
        workloads::Workload w = workloads::make_rodinia(name);
        core::PipelineOptions opts = run.options(run.spec.threads);
        opts.observe = true;
        core::ProfileResult r = core::Pipeline(w.module).run(opts);
        core::full_report(r);
        for (const auto& sp : r.obs->stage_spans()) {
          std::string stage = std::string(sp.name).substr(6);  // "stage:"
          once["manifest.stage_" + stage + "_ms"] +=
              static_cast<double>(sp.dur_ns) / 1e6;
        }
        support::ThreadPool::LaneStats ls = r.pool->total_stats();
        once["pool.tasks"] += static_cast<double>(ls.tasks);
        once["pool.steals"] += static_cast<double>(ls.steals);
        once["pool.idle_waits"] += static_cast<double>(ls.idle_waits);
      }
    }
  }

  run.check_four_lanes();
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kPerLayer) {
    auto it = series.find(name);
    metrics.push_back(
        {name, it != series.end() ? median(it->second) : once[name], unit});
  }
  double share = median(series["core.unattributed_share"]);
  std::printf("traced passes: %zu; report share of layer time %.1f%%; "
              "unattributed %.1f%% of time_to_report\n",
              series["pipeline_ms"].size(),
              100 * median(series["core.report_share"]), 100 * share);
  if (std::fabs(share) > 0.10)
    std::printf("FLAG %s: outside layer timings leave %.1f%% of time_to_report "
                "unexplained%s\n",
                run.spec.name, 100 * share,
                run.spec.threads > 1 ? " (serial decomposition of a threaded run)"
                                     : "");
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << tracer.chrome_json();
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }
  print_result(run, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = parse_args(argc, argv);
  const Spec* spec = nullptr;
  for (const auto& s : specs())
    if (args.workload == s.name) spec = &s;
  if (spec == nullptr) usage(("unknown workload " + args.workload).c_str());

  Run run{*spec, spec->programs.empty() ? pp::workloads::rodinia_names()
                                        : spec->programs};
  if (!args.fingerprints.empty())
    run.recorded = read_fingerprints(args.fingerprints);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d threads=%u\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, spec->threads);
  return args.trace ? run_traced(run, args) : run_end_to_end(run, args);
}
