// Polyhedron::minimize / maximize / is_rational_empty answer separable
// systems and bounded 2-D systems in closed form and hand everything else
// to the simplex. These tests pin the closed-form tiers to lp_minimize on
// randomized systems: same status, same exact value, for min and max —
// and check which tier answered, so a shape that silently fell back to
// the simplex cannot pass as a closed-form test. The LpMemo tests pin the
// memoized simplex tier the same way: every recalled answer equals a
// fresh lp_minimize, and recalls demonstrably happen.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "poly/polyhedron.hpp"
#include "poly/simplex.hpp"

namespace pp::poly {
namespace {

constexpr int kSeeds = 500;

std::vector<LpConstraint> as_lp(const Polyhedron& p) {
  std::vector<LpConstraint> out;
  for (const auto& c : p.constraints())
    out.push_back({c.expr.as_rat_vec(), Rat(-c.expr.const_term()),
                   c.equality});
  return out;
}

// Compares min and max of `obj` over `p` with a direct simplex solve.
// Returns whether the dispatch answered both in closed form.
bool expect_matches_simplex(const Polyhedron& p, const AffineExpr& obj) {
  const std::vector<LpConstraint> cs = as_lp(p);
  const Rat k(obj.const_term());
  const LpResult lmin = lp_minimize(p.dim(), cs, obj.as_rat_vec());
  const LpResult lmax = lp_maximize(p.dim(), cs, obj.as_rat_vec());
  const BoundResult bmin = p.minimize(obj);
  const BoundResult bmax = p.maximize(obj);
  EXPECT_EQ(bmin.status, lmin.status) << p.str() << " min " << obj.str();
  EXPECT_EQ(bmax.status, lmax.status) << p.str() << " max " << obj.str();
  if (bmin.status == LpStatus::kOptimal && lmin.status == LpStatus::kOptimal) {
    EXPECT_EQ(bmin.value, lmin.objective + k) << p.str() << " min " << obj.str();
  }
  if (bmax.status == LpStatus::kOptimal && lmax.status == LpStatus::kOptimal) {
    EXPECT_EQ(bmax.value, lmax.objective + k) << p.str() << " max " << obj.str();
  }
  EXPECT_EQ(p.is_rational_empty(), lmin.status == LpStatus::kInfeasible)
      << p.str();
  return bmin.closed_form && bmax.closed_form;
}

i64 pick(std::mt19937_64& rng, i64 lo, i64 hi) {
  return std::uniform_int_distribution<i64>(lo, hi)(rng);
}

AffineExpr random_objective(std::mt19937_64& rng, std::size_t dim) {
  AffineExpr obj(dim);
  for (std::size_t j = 0; j < dim; ++j) obj.coeff(j) = pick(rng, -3, 3);
  obj.const_term() = pick(rng, -5, 5);
  return obj;
}

// a·x_j + k over `dim` variables.
AffineExpr single(std::size_t dim, std::size_t j, i64 a, i64 k) {
  return AffineExpr::var(dim, j) * a + k;
}

// A box of dimension 0–5: ±1/±2/±3 coefficients (rational bounds), some
// half-open or free variables, some pinned by an equality, and constant
// rows that may be violated.
Polyhedron random_box(std::mt19937_64& rng, std::size_t dim) {
  Polyhedron p(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    const i64 a = pick(rng, 1, 3);
    switch (pick(rng, 0, 9)) {
      case 0:  // pinned: a·x == v
        p.add_eq0(single(dim, j, a, -pick(rng, -6, 6)));
        break;
      case 1:  // lower bound only
        p.add_ge0(single(dim, j, a, -pick(rng, -6, 6)));
        break;
      case 2:  // upper bound only
        p.add_ge0(single(dim, j, -a, pick(rng, -6, 6)));
        break;
      case 3:  // free
        break;
      default: {  // both bounds; empty when lo > hi
        const i64 lo = pick(rng, -6, 6);
        p.add_ge0(single(dim, j, a, -lo));
        p.add_ge0(single(dim, j, -pick(rng, 1, 3), lo + pick(rng, -2, 8)));
      }
    }
  }
  if (pick(rng, 0, 4) == 0) {  // a constant row, violated ~1/3 of the time
    const i64 k = pick(rng, -1, 1);
    if (pick(rng, 0, 1) == 0)
      p.add_ge0(AffineExpr::constant(dim, k));
    else
      p.add_eq0(AffineExpr::constant(dim, k));
  }
  return p;
}

// Octagon rows ±x ± y + k >= 0 over a 2-D space.
void add_octagon_rows(std::mt19937_64& rng, Polyhedron& p, int rows) {
  for (int i = 0; i < rows; ++i) {
    AffineExpr e(2);
    e.coeff(0) = pick(rng, 0, 1) ? 1 : -1;
    e.coeff(1) = pick(rng, 0, 1) ? pick(rng, 1, 2) : -pick(rng, 1, 2);
    e.const_term() = pick(rng, -6, 10);
    if (pick(rng, 0, 7) == 0)
      p.add_eq0(e);
    else
      p.add_ge0(e);
  }
}

TEST(LpDispatch, RandomBoxesMatchSimplex) {
  int closed = 0, empty = 0, unbounded = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng(static_cast<u64>(seed));
    const std::size_t dim = static_cast<std::size_t>(seed % 6);
    const Polyhedron p = random_box(rng, dim);
    const AffineExpr obj = random_objective(rng, dim);
    closed += expect_matches_simplex(p, obj);
    empty += p.is_rational_empty();
    unbounded += p.minimize(obj).status == LpStatus::kUnbounded;
  }
  EXPECT_EQ(closed, kSeeds);  // every box is separable
  // The generator reaches every outcome.
  EXPECT_GT(empty, 0);
  EXPECT_GT(unbounded, 0);
}

TEST(LpDispatch, RandomBounded2dOctagonsMatchSimplex) {
  int closed = 0, empty = 0, optimal = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng(static_cast<u64>(seed) + 1000);
    Polyhedron p(2);
    for (std::size_t j = 0; j < 2; ++j) {
      const i64 lo = pick(rng, -4, 4);
      p.add_ge0(single(2, j, pick(rng, 1, 3), -lo));
      p.add_ge0(single(2, j, -pick(rng, 1, 3), lo + pick(rng, 0, 8)));
    }
    add_octagon_rows(rng, p, static_cast<int>(pick(rng, 1, 4)));
    const AffineExpr obj = random_objective(rng, 2);
    closed += expect_matches_simplex(p, obj);
    empty += p.is_rational_empty();
    optimal += p.minimize(obj).status == LpStatus::kOptimal;
  }
  EXPECT_EQ(closed, kSeeds);  // every system is boxed: the vertex walk
  EXPECT_GT(empty, 0);
  EXPECT_GT(optimal, 0);
}

TEST(LpDispatch, DegenerateOctagonsMatchSimplex) {
  const AffineExpr x = AffineExpr::var(2, 0), y = AffineExpr::var(2, 1);
  Polyhedron box(2);
  box.bound_var(0, 0, 2);
  box.bound_var(1, 0, 2);
  // Single point (2, 2): x + y >= 4 on the box.
  Polyhedron point = box;
  point.add_ge0(x + y - 4);
  // Segment x + y == 3.
  Polyhedron segment = box;
  segment.add_eq0(x + y - 3);
  // Infeasible: x + y >= 5.
  Polyhedron empty = box;
  empty.add_ge0(x + y - 5);
  for (const Polyhedron* p : {&point, &segment, &empty}) {
    for (const AffineExpr& obj : {x, y, x - y, x * 2 + y * 3 - 1})
      EXPECT_TRUE(expect_matches_simplex(*p, obj)) << p->str();
  }
  EXPECT_EQ(point.minimize(x + y).value, Rat(4));
  EXPECT_EQ(segment.maximize(x - y).value, Rat(1));
  EXPECT_TRUE(empty.is_rational_empty());
}

TEST(LpDispatch, OctagonWithMissingBoundFallsBackToSimplex) {
  const AffineExpr x = AffineExpr::var(2, 0), y = AffineExpr::var(2, 1);
  // x >= 0, y >= 0, x - y <= 3: no upper bound on either variable.
  Polyhedron p(2);
  p.add_ge0(x);
  p.add_ge0(y);
  p.add_ge0(y - x + 3);
  EXPECT_FALSE(expect_matches_simplex(p, x + y));
  EXPECT_EQ(p.maximize(x + y).status, LpStatus::kUnbounded);
  EXPECT_EQ(p.minimize(x + y).status, LpStatus::kOptimal);
  // Randomized: drop one of the four box rows from a boxed octagon.
  int fallbacks = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng(static_cast<u64>(seed) + 2000);
    const int missing = static_cast<int>(pick(rng, 0, 3));
    Polyhedron q(2);
    for (int r = 0; r < 4; ++r) {
      if (r == missing) continue;
      const std::size_t j = static_cast<std::size_t>(r / 2);
      const i64 a = r % 2 == 0 ? pick(rng, 1, 3) : -pick(rng, 1, 3);
      q.add_ge0(single(2, j, a, pick(rng, -2, 6)));
    }
    add_octagon_rows(rng, q, static_cast<int>(pick(rng, 1, 3)));
    const AffineExpr obj = random_objective(rng, 2);
    fallbacks += !expect_matches_simplex(q, obj);
  }
  // Only contradictory box rows are caught before the simplex.
  EXPECT_GT(fallbacks, kSeeds / 2);
}

TEST(LpDispatch, HigherDimensionalCouplingUsesSimplex) {
  Polyhedron p = Polyhedron::box({{0, 4}, {0, 4}, {0, 4}});
  p.add_ge0(AffineExpr::var(3, 0) - AffineExpr::var(3, 2));  // x0 >= x2
  const AffineExpr obj = AffineExpr::var(3, 2) - AffineExpr::var(3, 0);
  EXPECT_FALSE(expect_matches_simplex(p, obj));
  EXPECT_EQ(p.maximize(obj).value, Rat(0));
}

// A 3-D system the closed-form tiers decline: each variable boxed, half-
// open or free, plus one to three rows coupling two or three variables
// (some of them equalities). Empty and unbounded systems both occur.
Polyhedron random_coupled(std::mt19937_64& rng) {
  constexpr std::size_t kDim = 3;
  Polyhedron p(kDim);
  for (std::size_t j = 0; j < kDim; ++j) {
    const i64 lo = pick(rng, -4, 4);
    switch (pick(rng, 0, 5)) {
      case 0:
        p.add_ge0(single(kDim, j, 1, -lo));
        break;
      case 1:
        p.add_ge0(single(kDim, j, -1, lo));
        break;
      case 2:
        break;
      default:
        p.add_ge0(single(kDim, j, pick(rng, 1, 2), -lo));
        p.add_ge0(single(kDim, j, -1, lo + pick(rng, 0, 6)));
    }
  }
  const i64 rows = pick(rng, 1, 3);
  for (i64 r = 0; r < rows; ++r) {
    AffineExpr e(kDim);
    const std::size_t a = static_cast<std::size_t>(pick(rng, 0, 2));
    const std::size_t b = (a + static_cast<std::size_t>(pick(rng, 1, 2))) % 3;
    e.coeff(a) = pick(rng, 0, 1) ? pick(rng, 1, 2) : -pick(rng, 1, 2);
    e.coeff(b) = pick(rng, 0, 1) ? pick(rng, 1, 2) : -pick(rng, 1, 2);
    e.coeff(3 - a - b) = pick(rng, -1, 1);
    e.const_term() = pick(rng, -6, 8);
    if (pick(rng, 0, 5) == 0)
      p.add_eq0(e);
    else
      p.add_ge0(e);
  }
  return p;
}

// Checks one memoized answer against a fresh simplex solve.
void expect_fresh(const Polyhedron& p, const AffineExpr& obj, bool max,
                  const BoundResult& b) {
  const std::vector<LpConstraint> cs = as_lp(p);
  const LpResult fresh = max ? lp_maximize(p.dim(), cs, obj.as_rat_vec())
                             : lp_minimize(p.dim(), cs, obj.as_rat_vec());
  EXPECT_EQ(b.status, fresh.status)
      << p.str() << (max ? " max " : " min ") << obj.str();
  if (b.status == LpStatus::kOptimal && fresh.status == LpStatus::kOptimal) {
    EXPECT_EQ(b.value, fresh.objective + Rat(obj.const_term()))
        << p.str() << (max ? " max " : " min ") << obj.str();
  }
}

TEST(LpMemo, RepeatedQueriesMatchFreshSimplex) {
  int hits = 0, solves = 0, infeasible = 0, unbounded = 0, optimal = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng(static_cast<u64>(seed) + 3000);
    const Polyhedron p = random_coupled(rng);
    const AffineExpr obj = random_objective(rng, 3);
    // The same objective, its negation, a permutation of its coefficients
    // and a zero objective (a feasibility test) — each asked three times
    // as a min and as a max, in a seed-shuffled order, through one memo.
    AffineExpr permuted(3);
    for (std::size_t j = 0; j < 3; ++j)
      permuted.coeff(j) = obj.coeff((j + 1) % 3);
    permuted.const_term() = obj.const_term();
    const std::vector<AffineExpr> objs = {
        obj, -obj, permuted, AffineExpr::constant(3, pick(rng, -3, 3))};
    std::vector<std::pair<std::size_t, bool>> queries;
    for (int rep = 0; rep < 3; ++rep)
      for (std::size_t i = 0; i < objs.size(); ++i)
        for (bool max : {false, true}) queries.emplace_back(i, max);
    std::shuffle(queries.begin(), queries.end(), rng);
    LpMemo memo;
    for (const auto& [i, max] : queries) {
      const BoundResult b =
          max ? p.maximize(objs[i], &memo) : p.minimize(objs[i], &memo);
      expect_fresh(p, objs[i], max, b);
      if (b.closed_form) continue;  // contradictory box rows: no simplex
      if (b.memo_hit) {
        ++hits;
        EXPECT_EQ(b.pivots, 0u);
      } else {
        ++solves;
      }
      infeasible += b.status == LpStatus::kInfeasible;
      unbounded += b.status == LpStatus::kUnbounded;
      optimal += b.status == LpStatus::kOptimal;
    }
    // At most one entry per distinct linear objective: obj / -obj and
    // their max/min twins share, the zero objective is one entry.
    EXPECT_LE(memo.size(), 5u) << p.str();
  }
  // Each (objective, direction) is solved at most once, so at least two
  // of every three repeats are recalls; every outcome occurs.
  EXPECT_GT(solves, 0);
  EXPECT_GE(hits, 2 * solves);
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(unbounded, 0);
  EXPECT_GT(optimal, 0);
}

TEST(LpMemo, ZeroAndNegatedObjectivesShareEntries) {
  Polyhedron p = Polyhedron::box({{0, 4}, {0, 4}, {0, 4}});
  p.add_ge0(AffineExpr::var(3, 0) - AffineExpr::var(3, 2));  // x0 >= x2
  LpMemo memo;
  const AffineExpr zero = AffineExpr::constant(3, 5);
  const BoundResult lo = p.minimize(zero, &memo);
  EXPECT_FALSE(lo.closed_form);
  EXPECT_FALSE(lo.memo_hit);
  const BoundResult hi = p.maximize(zero, &memo);
  EXPECT_TRUE(hi.memo_hit);
  EXPECT_EQ(lo.value, Rat(5));
  EXPECT_EQ(hi.value, Rat(5));
  EXPECT_EQ(memo.size(), 1u);
  // min(obj) and max(-obj) pose the same LP.
  const AffineExpr obj = AffineExpr::var(3, 2) - AffineExpr::var(3, 0) + 1;
  const BoundResult mn = p.minimize(obj, &memo);
  const BoundResult mx = p.maximize(-obj, &memo);
  EXPECT_FALSE(mn.memo_hit);
  EXPECT_TRUE(mx.memo_hit);
  EXPECT_EQ(mx.value, -mn.value);
  EXPECT_EQ(memo.size(), 2u);
}

TEST(LpMemo, KeysCompareEveryRowInFull) {
  // Three systems that differ only in one row's equality flag or constant
  // must not share an answer.
  const AffineExpr x = AffineExpr::var(3, 0), y = AffineExpr::var(3, 1),
                   z = AffineExpr::var(3, 2);
  Polyhedron base = Polyhedron::box({{0, 6}, {0, 6}, {0, 6}});
  Polyhedron ge = base, eq = base, shifted = base;
  ge.add_ge0(x + y + z - 12);       // x + y + z >= 12
  eq.add_eq0(x + y + z - 12);       // x + y + z == 12
  shifted.add_ge0(x + y + z - 13);  // x + y + z >= 13
  LpMemo memo;
  const AffineExpr obj = x + y * 2 + z;
  for (const Polyhedron* p : {&ge, &eq, &shifted}) {
    for (bool max : {false, true}) {
      const BoundResult b =
          max ? p->maximize(obj, &memo) : p->minimize(obj, &memo);
      EXPECT_FALSE(b.closed_form);
      EXPECT_FALSE(b.memo_hit) << p->str();
      expect_fresh(*p, obj, max, b);
    }
  }
  EXPECT_EQ(memo.size(), 6u);
  // The three systems really have different answers.
  EXPECT_EQ(ge.maximize(obj).value, Rat(24));
  EXPECT_EQ(eq.maximize(obj).value, Rat(18));
  EXPECT_EQ(ge.minimize(obj).value, Rat(12));
  EXPECT_EQ(shifted.minimize(obj).value, Rat(14));
}

}  // namespace
}  // namespace pp::poly
