// Per-layer decomposition of one profile: the calls core::Pipeline::run
// and core::full_report make, re-issued one layer at a time through each
// module's public functions and timed from here, in pipeline order.
#pragma once

#include <map>
#include <string>

#include "ir/ir.hpp"
#include "trace.hpp"

namespace perfbench {

/// Metric name -> value for one program. Times are milliseconds; counts are
/// exact. Summed over a pass's programs by the caller; a metric a program
/// does not produce (transform.* without the engine) is absent and reads 0.
using LayerSample = std::map<std::string, double>;

/// Profile `m` serially (threads=1, default options, plus the
/// transformation engine when `transforms`) layer by layer, recording one
/// span per call under `profile`. Besides the per-layer metrics the sample
/// carries "pipeline_ms": the time of the calls that mirror the pipeline
/// (everything but the measurement-only reference runs), for the tracing
/// overhead.
LayerSample decompose(const pp::ir::Module& m, bool transforms, Tracer& tracer,
                      int profile);

/// Layer times that add up to a profile's time to report. vm.run_ms covers
/// both interpretations (one per instrumentation stage); scheduler time is
/// excluded because it is a part of feedback.analyze_ms.
inline const char* const kLayerTimes[] = {
    "verify.module_ms",    "vm.run_ms",           "cfg.observe_ms",
    "cfg.build_ms",        "ddg.replay_ms",       "fold.stream_ms",
    "fold.finalize_ms",    "transform.plan_ms",   "transform.apply_measure_ms",
    "statican.baseline_ms", "verify.precision_ms", "feedback.analyze_ms",
    "verify.oracle_ms",    "feedback.render_ms"};

}  // namespace perfbench
