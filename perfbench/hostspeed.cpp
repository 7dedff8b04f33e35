#include "hostspeed.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>

#include "trace.hpp"

namespace perfbench {
namespace {

std::uint64_t next(std::uint64_t& x) {
  x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x >> 17;
}

// Keeps the probe's result observable so the kernel is not optimised away.
volatile std::uint64_t g_sink = 0;

}  // namespace

double probe_ms() {
  std::uint64_t t0 = now_ns();
  std::uint64_t x = 0x2545f4914f6cdd1dull, acc = 0;
  for (int round = 0; round < 8; ++round) {
    std::map<std::uint64_t, std::vector<int>> tree;
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    for (int i = 0; i < 2000; ++i) {
      tree[next(x) % 1500].push_back(i);
      table[next(x) % 5000] += static_cast<std::uint64_t>(i);
    }
    for (const auto& [key, v] : tree) acc += key * v.size();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> rows(table.begin(),
                                                              table.end());
    std::sort(rows.begin(), rows.end());
    acc += rows[rows.size() / 2].second;
  }
  g_sink = g_sink + acc;
  return static_cast<double>(now_ns() - t0) / 1e6;
}

double HostSpeed::factor() const {
  if (samples_.empty()) return 1.0;
  std::vector<double> v = samples_;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return kProbeReferenceMs / v[v.size() / 2];
}

}  // namespace perfbench
