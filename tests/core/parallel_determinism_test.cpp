// The parallel pipeline's central contract (DESIGN.md, "Concurrency
// architecture"): `full_report` is BYTE-identical for every thread count.
// threads=1 is the serial reference path (no ring, no fan-out), so
// diffing it against threaded runs covers every merge-order decision at
// once — diagnostics sequencing, scheduler group order, oracle witness
// order, budget-degradation points.
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "gtest/gtest.h"
#include "workloads/workloads.hpp"

namespace pp {
namespace {

std::string report_with_threads(const ir::Module& m, unsigned threads,
                                const core::PipelineOptions& base = {}) {
  core::Pipeline pipe(m);
  core::PipelineOptions opts = base;
  opts.threads = threads;
  core::ProfileResult r = pipe.run(opts);
  return core::full_report(r);
}

class ParallelDeterminism : public testing::TestWithParam<std::string> {};

TEST_P(ParallelDeterminism, ReportIsByteIdenticalAcrossThreadCounts) {
  workloads::Workload wl = workloads::make_rodinia(GetParam());
  const std::string serial = report_with_threads(wl.module, 1);
  for (unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(serial, report_with_threads(wl.module, threads));
  }
}

// Observability must not break the contract: with observe on, the report
// grows a "-- self profile --" section whose stable rendering (times
// elided, kStable counters only) is still byte-identical across thread
// counts — and except for that section, matches the unobserved report.
TEST_P(ParallelDeterminism, ObservedStableReportIsByteIdenticalToo) {
  workloads::Workload wl = workloads::make_rodinia(GetParam());
  core::PipelineOptions base;
  base.observe = true;
  const std::string serial = report_with_threads(wl.module, 1, base);
  EXPECT_NE(serial.find("-- self profile --"), std::string::npos);
  for (unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(serial, report_with_threads(wl.module, threads, base));
  }
  // The observed report is the unobserved one plus the self profile.
  const std::string plain = report_with_threads(wl.module, 1);
  EXPECT_EQ(serial.substr(0, plain.size()), plain);
}

// Hot-path trace compaction is a pure optimization: the report with
// path_compaction off (the reference interpretation) must be byte-equal
// to the compacted one at EVERY thread count — compressed runs replay
// through the same ring/fold machinery as per-event streams.
TEST_P(ParallelDeterminism, CompactionIsByteIdenticalOnOffAcrossThreads) {
  workloads::Workload wl = workloads::make_rodinia(GetParam());
  core::PipelineOptions off;
  off.path_compaction = false;
  const std::string reference = report_with_threads(wl.module, 1, off);
  core::PipelineOptions on;
  on.path_compaction = true;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(reference, report_with_threads(wl.module, threads, on));
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ParallelDeterminism,
                         testing::ValuesIn(workloads::rodinia_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '+') c = 'p';
                           return n;
                         });

// Degraded runs must stay deterministic too: the chaos trigger is
// event-count-seeded and interposed on the producer thread, so the same
// fault lands on the same event at any thread count, and the diagnosed
// partial report matches the serial one byte for byte.
TEST(ParallelDeterminismChaos, DegradedRunsMatchSerialReference) {
  workloads::Workload wl = workloads::make_rodinia("pathfinder");
  for (vm::FaultKind kind :
       {vm::FaultKind::kTruncate, vm::FaultKind::kUnmatchedReturn,
        vm::FaultKind::kMisalign, vm::FaultKind::kBadBlock}) {
    core::PipelineOptions base;
    base.chaos.kind = kind;
    base.chaos.seed = 7;
    SCOPED_TRACE(std::string("fault=") + vm::fault_kind_name(kind));
    const std::string serial = report_with_threads(wl.module, 1, base);
    for (unsigned threads : {2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EXPECT_EQ(serial, report_with_threads(wl.module, threads, base));
    }
  }
}

// An injected fault landing INSIDE a compressed run must degrade exactly
// like the reference: the chaos interposer sits upstream of the
// compactor, so the fault fires on the same event ordinal either way and
// the armed run flushes at the same point. Reference = compaction off,
// serial; compared against compaction on at several thread counts.
TEST(ParallelDeterminismChaos, FaultInsideCompressedRunMatchesReference) {
  workloads::Workload wl = workloads::make_rodinia("pathfinder");
  for (vm::FaultKind kind :
       {vm::FaultKind::kTruncate, vm::FaultKind::kUnmatchedReturn,
        vm::FaultKind::kMisalign, vm::FaultKind::kBadBlock}) {
    SCOPED_TRACE(std::string("fault=") + vm::fault_kind_name(kind));
    core::PipelineOptions off;
    off.chaos.kind = kind;
    off.chaos.seed = 7;
    off.path_compaction = false;
    const std::string reference = report_with_threads(wl.module, 1, off);
    core::PipelineOptions on = off;
    on.path_compaction = true;
    for (unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EXPECT_EQ(reference, report_with_threads(wl.module, threads, on));
    }
  }
}

// A folder-piece budget degrades statements; the charge is atomic but
// enforcement happens in merge order, so the SAME statement degrades at
// every thread count and the report (including the degradations section)
// stays identical.
TEST(ParallelDeterminismBudget, PieceBudgetDegradesIdentically) {
  workloads::Workload wl = workloads::make_rodinia("srad_v1");
  core::PipelineOptions base;
  base.budget.folder_pieces = 24;
  const std::string serial = report_with_threads(wl.module, 1, base);
  for (unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(serial, report_with_threads(wl.module, threads, base));
  }
}

// Determinism under cancellation: a job cancelled at a structural point —
// stage boundary or fold merge position — produces a byte-identical
// partial report at ANY thread count. The chaos service faults fire the
// token at exactly those points, so the whole cancellation surface is
// coverable without wall-clock races. Each run gets a FRESH token (tokens
// are one-shot) and the token outlives full_report (which consults it).
TEST(ParallelDeterminismCancel, CancelledRunsMatchSerialReference) {
  workloads::Workload wl = workloads::make_rodinia("pathfinder");
  auto report_with = [&](vm::ServiceFault fault, u64 seed, unsigned threads) {
    support::CancelToken token;
    core::PipelineOptions opts;
    opts.chaos.service = fault;
    opts.chaos.seed = seed;
    opts.cancel = &token;
    opts.threads = threads;
    core::ProfileResult r = core::Pipeline(wl.module).run(opts);
    return core::full_report(r);
  };
  for (vm::ServiceFault fault :
       {vm::ServiceFault::kCancelAtControl, vm::ServiceFault::kCancelAtDdg,
        vm::ServiceFault::kCancelAtFold, vm::ServiceFault::kCancelAtFeedback,
        vm::ServiceFault::kDeadlineMidFold}) {
    SCOPED_TRACE(std::string("fault=") + vm::service_fault_name(fault));
    const std::string serial = report_with(fault, 3, 1);
    EXPECT_NE(serial.find("PARTIAL PROFILE"), std::string::npos);
    for (unsigned threads : {2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EXPECT_EQ(serial, report_with(fault, 3, threads));
    }
  }
}

// The seeded mid-fold deadline lands on different merge positions for
// different seeds; every one of them must stay thread-count-invariant.
TEST(ParallelDeterminismCancel, MidFoldDeadlineSeedSweep) {
  workloads::Workload wl = workloads::make_rodinia("srad_v1");
  auto report_with = [&](u64 seed, unsigned threads) {
    support::CancelToken token;
    core::PipelineOptions opts;
    opts.chaos.service = vm::ServiceFault::kDeadlineMidFold;
    opts.chaos.seed = seed;
    opts.cancel = &token;
    opts.threads = threads;
    core::ProfileResult r = core::Pipeline(wl.module).run(opts);
    return core::full_report(r);
  };
  for (u64 seed : {u64{0}, u64{1}, u64{2}, u64{3}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string serial = report_with(seed, 1);
    for (unsigned threads : {2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EXPECT_EQ(serial, report_with(seed, threads));
    }
  }
}

}  // namespace
}  // namespace pp
