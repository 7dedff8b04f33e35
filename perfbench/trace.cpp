#include "trace.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Scope::Scope(Tracer& t, std::string name, int profile)
    : t_(t), idx_(t.spans_.size()) {
  Rec r;
  r.name = std::move(name);
  r.profile = profile;
  r.parent = t.open_.empty() ? -1 : static_cast<int>(t.open_.back());
  t.spans_.push_back(std::move(r));
  t.open_.push_back(idx_);
  t.spans_[idx_].start_ns = now_ns();
}

double Tracer::Scope::end() {
  Rec& r = t_.spans_[idx_];
  if (open_) {
    r.end_ns = now_ns();
    open_ = false;
    t_.open_.pop_back();
  }
  return static_cast<double>(r.end_ns - r.start_ns) / 1e6;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"profile\":%d},"
                  "\"name\":\"",
                  r.profile,
                  static_cast<double>(r.start_ns - epoch_ns_) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3, i,
                  r.parent, r.profile);
    out += buf;
    out += r.name;  // span names are plain identifiers, no escaping needed
    out += i + 1 < spans_.size() ? "\"},\n" : "\"}\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
