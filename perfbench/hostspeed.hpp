// Host-speed probe. The benchmark's reference box is a virtual machine on
// a shared host whose speed for allocation- and pointer-heavy code swings
// by a third or more over minutes (other tenants' cache and memory
// traffic), while the profiler's own work does not change. A short fixed
// kernel of the same kind, timed next to every profile, measures that
// speed; the end-to-end times are scaled by it to seconds at the
// reference speed. Raw wall times are printed alongside.
#pragma once

#include <vector>

namespace perfbench {

/// Probe milliseconds that define the reference speed: about the probe's
/// median on the reference box, where run medians lay between 6 and 8.6 ms.
/// A profile measured while the probe takes this long keeps its wall time.
inline constexpr double kProbeReferenceMs = 7.0;

/// Times one run of the fixed probe kernel (std::map and
/// std::unordered_map inserts, small-vector growth, a sort): milliseconds.
double probe_ms();

/// The probe samples of one pass; factor() turns that pass's wall times
/// into reference-speed times.
class HostSpeed {
 public:
  void sample() { samples_.push_back(probe_ms()); }
  /// kProbeReferenceMs over the median sample (1 with no samples).
  double factor() const;

 private:
  std::vector<double> samples_;
};

}  // namespace perfbench
