#include "checks.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/obs.hpp"

namespace perfbench {

namespace {

// The verdict line follows the section header; a clean one reads
// "soundness oracle: OK -- ... exact precision ok (...)".
bool oracle_clean(const std::string& report) {
  const std::string header = "-- soundness oracle --\n";
  std::size_t at = report.find(header);
  if (at == std::string::npos) return false;
  std::size_t begin = at + header.size();
  std::string line = report.substr(begin, report.find('\n', begin) - begin);
  return line.rfind("soundness oracle: OK", 0) == 0 &&
         line.find("exact precision ok") != std::string::npos;
}

}  // namespace

Outcome Outcome::of(const pp::core::ProfileResult& r, std::string report) {
  Outcome o;
  o.exit_value = r.exit_value;
  o.truncated = r.truncated;
  o.diagnostics = r.diagnostics.size();
  o.degraded_statements = r.program.degraded_statements;
  o.report = std::move(report);
  o.transform_ran = r.transform.ran;
  o.transform_ok = r.transform.ok();
  o.combined_identical = r.transform.combined_identical;
  o.transforms_applied = r.transform.applied.size();
  return o;
}

std::uint64_t fingerprint(const std::string& report) {
  return pp::obs::fnv1a(report);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Verdict check_profile(const Outcome& got, const Expectation& want) {
  Verdict v;
  auto fail = [&](std::string what) { v.failures.push_back(std::move(what)); };
  if (got.exit_value != want.exit_value)
    fail("exit value " + std::to_string(got.exit_value) +
         " != uninstrumented run " + std::to_string(want.exit_value));
  if (got.truncated) fail("profile truncated");
  if (got.diagnostics != 0)
    fail(std::to_string(got.diagnostics) + " diagnostic(s)");
  if (got.degraded_statements != 0)
    fail(std::to_string(got.degraded_statements) + " degraded statement(s)");
  if (!oracle_clean(got.report)) fail("soundness oracle reports a violation");
  if (want.transforms) {
    if (!got.transform_ran) fail("transformation engine did not run");
    if (!got.transform_ok) fail("transformation output-identity violation");
    if (!got.combined_identical) fail("combined transformation not identical");
    if (got.transforms_applied == 0) fail("no transformation applied");
  }
  if (want.same_report_as != nullptr && got.report != *want.same_report_as)
    fail("report differs from the reference report");
  v.fingerprint = fingerprint(got.report);
  v.fingerprint_mismatch = want.fingerprint && *want.fingerprint != v.fingerprint;
  return v;
}

void Tally::add(const Verdict& v) {
  ++attempted;
  if (!v.ok()) ++failed;
  if (v.fingerprint_mismatch) ++fingerprint_mismatches;
}

std::vector<std::string> self_test(const Outcome& good,
                                   const Expectation& want) {
  std::vector<std::string> problems;
  Tally tally;
  Verdict base = check_profile(good, want);
  tally.add(base);
  if (!base.ok() || base.fingerprint_mismatch) {
    problems.push_back("self-test needs a clean profile to start from");
    return problems;
  }
  const std::string reference = good.report;
  // Each injection must be detected by check_profile AND counted by Tally.
  auto expect = [&](const char* what, const Outcome& o, const Expectation& e,
                    bool as_mismatch) {
    Tally before = tally;
    Verdict v = check_profile(o, e);
    tally.add(v);
    bool detected = as_mismatch ? v.fingerprint_mismatch : !v.ok();
    bool counted = as_mismatch
                       ? tally.fingerprint_mismatches ==
                             before.fingerprint_mismatches + 1
                       : tally.failed == before.failed + 1;
    if (!detected || !counted)
      problems.push_back(std::string("injected ") + what + " went unnoticed");
  };

  Expectation wrong_exit = want;
  wrong_exit.exit_value = want.exit_value + 1;
  expect("wrong reference exit value", good, wrong_exit, false);

  Expectation wrong_fp = want;
  wrong_fp.fingerprint = base.fingerprint ^ 1;
  expect("mismatched fingerprint", good, wrong_fp, true);

  std::string diffed = reference;
  diffed.back() = diffed.back() == 'x' ? 'y' : 'x';
  Expectation threaded = want;
  threaded.same_report_as = &diffed;
  expect("threads-4 report diff", good, threaded, false);

  Outcome violated = good;
  std::size_t at = violated.report.find("soundness oracle: OK");
  if (at == std::string::npos) {
    problems.push_back("clean report lacks the oracle verdict line");
  } else {
    violated.report.replace(at, 20, "soundness oracle: VIOLATED");
    expect("oracle violation", violated, want, false);
  }
  return problems;
}

std::map<std::string, std::uint64_t> read_fingerprints(
    const std::string& path) {
  std::map<std::string, std::uint64_t> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, value;
    if (fields >> key >> value) out[key] = std::stoull(value, nullptr, 16);
  }
  return out;
}

}  // namespace perfbench
