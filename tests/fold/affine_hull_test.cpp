// The folder's label refit and affine-hull membership run fraction-free in
// checked i128 and fall back to exact rationals on overflow. These tests
// pin the i128 tier to the rational reference on randomized inputs — same
// fit coefficients, same membership verdicts — and check which tier
// answered, so an input that silently fell back cannot pass as an i128
// test. Coordinates and labels near the int64 limits force the fallback.
#include <gtest/gtest.h>

#include <random>

#include "fold/folder.hpp"

namespace pp::fold {
namespace {

constexpr int kSeeds = 600;

i64 pick(std::mt19937_64& rng, i64 lo, i64 hi) {
  return std::uniform_int_distribution<i64>(lo, hi)(rng);
}

// Small values (the i128 tier's home ground) or values near the int64
// limits (which overflow i128 products within a few eliminations).
i64 value(std::mt19937_64& rng, bool huge) {
  if (!huge) return pick(rng, -12, 12);
  const i64 near = std::numeric_limits<i64>::max() - pick(rng, 0, 1 << 20);
  return pick(rng, 0, 1) ? near : -near;
}

std::vector<i64> random_point(std::mt19937_64& rng, std::size_t dim,
                              bool huge) {
  std::vector<i64> p(dim);
  for (auto& x : p) x = pick(rng, 0, 3) == 0 ? 0 : value(rng, huge);
  return p;
}

// Membership by rank: `p` lies in the affine hull of `basis` iff adding
// the row [p 1] keeps the rank of the [x 1] rows.
bool rational_contains(const std::vector<std::vector<i64>>& basis,
                       const std::vector<i64>& p) {
  auto rows = [&](bool with_p) {
    RatMatrix m;
    auto push = [&m](const std::vector<i64>& x) {
      RatVec r;
      for (i64 v : x) r.push_back(Rat(v));
      r.push_back(Rat(1));
      m.push_row(r);
    };
    for (const auto& b : basis) push(b);
    if (with_p) push(p);
    return m;
  };
  if (basis.empty()) return false;
  return rows(true).rank() == rows(false).rank();
}

// A point of the hull when one is representable: b_i + b_j - b_k.
std::optional<std::vector<i64>> hull_point(
    std::mt19937_64& rng, const std::vector<std::vector<i64>>& basis) {
  const auto& a = basis[static_cast<std::size_t>(pick(rng, 0, static_cast<i64>(basis.size()) - 1))];
  const auto& b = basis[static_cast<std::size_t>(pick(rng, 0, static_cast<i64>(basis.size()) - 1))];
  const auto& c = basis[static_cast<std::size_t>(pick(rng, 0, static_cast<i64>(basis.size()) - 1))];
  std::vector<i64> p(a.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    const i128 v = static_cast<i128>(a[i]) + b[i] - c[i];
    if (v < INT64_MIN || v > INT64_MAX) return std::nullopt;
    p[i] = static_cast<i64>(v);
  }
  return p;
}

TEST(IntTier, HullMembershipMatchesRational) {
  int int_hulls = 0, rational_hulls = 0, inside = 0, outside = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng(static_cast<u64>(seed));
    const std::size_t dim = static_cast<std::size_t>(seed % 6);
    const bool huge = seed % 4 == 3;
    AffineHull hull(dim);
    std::vector<std::vector<i64>> basis;
    for (int step = 0; step < 24 && !hull.full(); ++step) {
      std::vector<i64> p = random_point(rng, dim, huge);
      if (!basis.empty() && pick(rng, 0, 1) == 0)
        if (auto q = hull_point(rng, basis)) p = *q;
      bool want = false, got = false;
      try {
        want = rational_contains(basis, p);
      } catch (const Error&) {
        continue;  // no exact reference for this point
      }
      try {
        got = hull.contains(p);
      } catch (const Error&) {
        // The rational tier's RREF can overflow where a rank computation
        // from scratch does not; the hull is unusable from here on.
        EXPECT_TRUE(hull.rational()) << "seed " << seed;
        break;
      }
      EXPECT_EQ(got, want) << "seed " << seed << " step " << step;
      if (want) {
        ++inside;
        continue;
      }
      ++outside;
      hull.extend(p);
      basis.push_back(p);
      EXPECT_EQ(hull.rank(), basis.size());
    }
    if (!huge) {
      EXPECT_FALSE(hull.rational()) << "seed " << seed;
    }
    (hull.rational() ? rational_hulls : int_hulls)++;
  }
  // Both tiers really ran, on both verdicts.
  EXPECT_GT(int_hulls, kSeeds / 2);
  EXPECT_GT(rational_hulls, 30);
  EXPECT_GT(inside, 100);
  EXPECT_GT(outside, 100);
}

TEST(IntTier, LabelFitMatchesRational) {
  int compared = 0, fallbacks = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng(static_cast<u64>(seed) + 7919);
    const std::size_t dim = static_cast<std::size_t>(seed % 6);
    const std::size_t label_dim = static_cast<std::size_t>((seed / 6) % 6);
    const bool huge = seed % 4 == 3;
    AffineHull hull(dim);
    std::vector<i64> labels;
    // Refit after every extension, as the folder does: basis sizes 1 to
    // dim + 1, so under-determined fits (free coefficients 0) are covered.
    for (int step = 0; step < 20 && !hull.full(); ++step) {
      const std::vector<i64> p = random_point(rng, dim, huge);
      try {
        if (hull.contains(p)) continue;
        hull.extend(p);
      } catch (const Error&) {
        break;  // the rational tier overflowed too
      }
      for (std::size_t j = 0; j < label_dim; ++j)
        labels.push_back(value(rng, huge));
      std::vector<Rat> want, got;
      if (!fit_labels_int(hull, labels, label_dim, got)) {
        EXPECT_TRUE(huge) << "seed " << seed << ": small input overflowed";
        ++fallbacks;
        continue;
      }
      try {
        fit_labels_rat(hull, labels, label_dim, want);
      } catch (const Error&) {
        continue;  // no exact reference
      }
      ++compared;
      EXPECT_EQ(got, want) << "seed " << seed << " rank " << hull.rank();
    }
  }
  EXPECT_GT(compared, kSeeds);
  EXPECT_GT(fallbacks, 30);
}

}  // namespace
}  // namespace pp::fold
