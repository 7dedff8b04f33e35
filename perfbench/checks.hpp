// Output checks for every timed profile. A profile fails when any check
// fails; `failed` in the benchmark result counts such profiles. Report
// fingerprint mismatches are information only: reports may change by
// design, and the fingerprint lets a later change's "byte-identical
// report" claim be checked from benchmark output alone.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace perfbench {

/// What one profile produced, reduced to what the checks read.
struct Outcome {
  std::int64_t exit_value = 0;
  bool truncated = false;
  std::size_t diagnostics = 0;
  std::uint64_t degraded_statements = 0;
  std::string report;  ///< full_report text
  bool transform_ran = false;
  bool transform_ok = false;
  bool combined_identical = false;
  std::size_t transforms_applied = 0;

  static Outcome of(const pp::core::ProfileResult& r, std::string report);
};

/// What the profile must match.
struct Expectation {
  /// Exit value of an uninstrumented vm::Machine::run of the same module.
  std::int64_t exit_value = 0;
  /// The engine must have run, stayed sound and applied at least one plan.
  bool transforms = false;
  /// Report the profile must reproduce byte for byte (the threads=1
  /// report of a threaded workload, or the program's first report in the
  /// run); null checks nothing.
  const std::string* same_report_as = nullptr;
  /// Recorded FNV-1a fingerprint of the report, when one is recorded.
  std::optional<std::uint64_t> fingerprint;
};

struct Verdict {
  std::vector<std::string> failures;
  std::uint64_t fingerprint = 0;
  bool fingerprint_mismatch = false;
  bool ok() const { return failures.empty(); }
};

Verdict check_profile(const Outcome& got, const Expectation& want);

/// FNV-1a of a report, as printed and recorded.
std::uint64_t fingerprint(const std::string& report);
std::string hex(std::uint64_t v);

/// Running totals over every checked profile.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint_mismatches = 0;
  void add(const Verdict& v);
};

/// Non-vacuity self-test of check_profile on a real, passing profile:
/// injects a wrong reference exit value, a mismatched fingerprint, a
/// threaded-report diff and an oracle violation, and asserts that each is
/// detected and counted. Returns the problems found (empty = passed).
std::vector<std::string> self_test(const Outcome& good,
                                   const Expectation& want);

/// Recorded fingerprints, keyed "<config>/<program>", read from a text
/// file of "<key> <hex>" lines ('#' starts a comment).
std::map<std::string, std::uint64_t> read_fingerprints(const std::string& path);

}  // namespace perfbench
