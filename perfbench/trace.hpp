// In-memory span recorder for the traced benchmark run. Spans are recorded
// from the benchmark's own files around calls into the profiler's public
// functions; nothing inside the profiler is instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
std::uint64_t now_ns();

class Tracer {
 public:
  struct Rec {
    std::string name;
    int profile = -1;  ///< one id per program profile
    int parent = -1;   ///< index of the enclosing span, -1 at the root
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  /// RAII span: opens on construction, closes (once) on end() or
  /// destruction. The benchmark is single-threaded, so nesting follows the
  /// open-span stack.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, int profile);
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close the span; returns its duration in milliseconds.
    double end();

   private:
    Tracer& t_;
    std::size_t idx_;
    bool open_ = true;
  };

  const std::vector<Rec>& spans() const { return spans_; }
  /// Chrome trace_event JSON: one complete ("X") event per span on the
  /// profile's track, with the parent index in args.
  std::string chrome_json() const;

 private:
  std::vector<Rec> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t epoch_ns_ = now_ns();
};

}  // namespace perfbench
