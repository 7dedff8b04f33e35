// Differential soundness oracle tests: the dynamic-⊆-static containment
// and the parallel-claim race detector, on hand-built modules (with
// deliberate corruption to prove the oracle actually fires) and across the
// whole mini-Rodinia suite (the acceptance bar: the oracle passes on every
// workload).
#include "verify/oracle.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <set>
#include <sstream>
#include <tuple>

#include "core/pipeline.hpp"
#include "ir/builder.hpp"
#include "workloads/workloads.hpp"

namespace pp::verify {
namespace {

using ir::Builder;
using ir::Function;
using ir::Module;
using ir::Op;
using ir::Reg;

/// for (i = 0..10) { a[2i] = i; x = a[2i]; y = a[2i+1]; b[i] = x + y; }
/// Even/odd accesses are GCD-disjoint — the raw material for the
/// corruption tests below.
Module even_odd_module() {
  Module m;
  i64 ga = m.add_global("a", 400);
  i64 gb = m.add_global("b", 400);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg abase = b.const_(ga);
  Reg bbase = b.const_(gb);
  Reg n = b.const_(10);
  b.counted_loop(0, n, 1, [&](Reg iv) {
    Reg p = b.add(abase, b.muli(iv, 16));
    b.store(p, iv);
    Reg x = b.load(p);
    Reg y = b.load(p, 8);
    Reg q = b.add(bbase, b.muli(iv, 8));
    b.store(q, b.add(x, y));
  });
  b.ret();
  return m;
}

/// Statement id of the first statement matching `pred`, or -1.
template <typename Pred>
int find_stmt(const fold::FoldedProgram& prog, Pred pred) {
  for (const auto& s : prog.statements)
    if (pred(s.meta)) return s.meta.id;
  return -1;
}

TEST(Oracle, CleanProgramIsCovered) {
  Module m = even_odd_module();
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run();
  ASSERT_FALSE(r.truncated);
  CoverageReport rep = check_dynamic_coverage(m, r.program);
  EXPECT_TRUE(rep.ok()) << rep.str();
  EXPECT_GT(rep.checked, 0u);
  // The a[2i] store -> a[2i] load mem-flow edge is may-covered, so the
  // exact tier re-examined it (and agreed).
  EXPECT_GT(rep.exact_checked, 0u);
}

TEST(Oracle, PrecisionTierRefinesEvenOdd) {
  // may_alias is GCD/Banerjee-only: the a[2i] store vs a[2i+1] load pair is
  // proven disjoint by GCD, so refinement isn't guaranteed there — but the
  // exact tier must at least agree with every may verdict (zero mismatches)
  // and examine every modeled store-involved pair.
  Module m = even_odd_module();
  PrecisionReport rep = check_precision_tier(m);
  EXPECT_TRUE(rep.ok()) << rep.str();
  EXPECT_GT(rep.pairs_checked, 0u);
}

TEST(Oracle, DetectsStaticallyImpossibleMemoryEdge) {
  Module m = even_odd_module();
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run();
  // Find the statements for the a[2i] store and the a[2i+1] load (the
  // load with imm 8 on the a-array address).
  const Function& f = m.functions[0];
  auto instr_at = [&](const vm::CodeRef& c) -> const ir::Instr& {
    return f.blocks[static_cast<std::size_t>(c.block)]
        .instrs[static_cast<std::size_t>(c.instr)];
  };
  int odd_load = find_stmt(r.program, [&](const ddg::Statement& s) {
    return s.op == Op::kLoad && instr_at(s.code).imm == 8;
  });
  ASSERT_GE(odd_load, 0);
  // Reroute a store->load mem-flow edge onto the odd load: a dependence
  // the GCD test proves impossible.
  fold::FoldedProgram tampered = r.program;
  bool rerouted = false;
  for (auto& d : tampered.deps) {
    if (d.kind != ddg::DepKind::kMemFlow) continue;
    const auto& src = tampered.stmt(d.src).meta;
    if (src.op != Op::kStore || instr_at(src.code).op != Op::kStore) continue;
    d.dst = odd_load;
    rerouted = true;
    break;
  }
  ASSERT_TRUE(rerouted);
  CoverageReport rep = check_dynamic_coverage(m, tampered);
  EXPECT_FALSE(rep.ok());
  ASSERT_FALSE(rep.violations.empty());
  EXPECT_EQ(rep.violations[0].dst_stmt, odd_load);
}

TEST(Oracle, DetectsImpossibleRegisterFlow) {
  Module m = even_odd_module();
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run();
  // Retarget a reg-flow edge's producer to a store (which defines no
  // register at all): statically impossible.
  int store_stmt = find_stmt(r.program, [&](const ddg::Statement& s) {
    return s.op == Op::kStore;
  });
  ASSERT_GE(store_stmt, 0);
  fold::FoldedProgram tampered = r.program;
  bool rerouted = false;
  for (auto& d : tampered.deps) {
    if (d.kind != ddg::DepKind::kRegFlow || d.src == store_stmt) continue;
    d.src = store_stmt;
    rerouted = true;
    break;
  }
  ASSERT_TRUE(rerouted);
  CoverageReport rep = check_dynamic_coverage(m, tampered);
  EXPECT_FALSE(rep.ok()) << rep.str();
}

TEST(Oracle, ForcedParallelClaimIsContradictedAndDowngraded) {
  // sum += a[i]: the loop level carries the accumulator dependence, so a
  // parallel claim on it must be contradicted by the folded DDG.
  Module m;
  i64 g = m.add_global("a", 400);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg n = b.const_(20);
  b.counted_loop(0, n, 1, [&](Reg iv) {  // a[i] = i
    Reg p = b.add(base, b.muli(iv, 8));
    b.store(p, iv);
  });
  Reg acc = b.const_(0);
  b.counted_loop(0, n, 1, [&](Reg iv) {  // acc += a[i]
    Reg p = b.add(base, b.muli(iv, 8));
    Reg v = b.load(p);
    b.add(acc, v, acc);
  });
  b.ret(acc);

  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run();
  ASSERT_FALSE(r.truncated);
  feedback::RegionMetrics mx = r.analyze(r.whole_program());
  ASSERT_TRUE(mx.analyzable);

  // Baseline: the honest schedule raises no witness.
  {
    ClaimReport rep = check_parallel_claims(r.program, mx, /*downgrade=*/false);
    EXPECT_TRUE(rep.ok()) << rep.str();
  }

  // Force a parallel claim onto a carried level, then let the oracle
  // downgrade it again.
  int forced_group = -1, forced_level = -1;
  for (std::size_t gi = 0;
       gi < mx.sched.groups.size() && forced_group < 0; ++gi) {
    auto& grp = mx.sched.groups[gi];
    if (!grp.schedulable) continue;
    for (std::size_t li = 0; li < grp.levels.size(); ++li) {
      if (grp.levels[li].carries && !grp.levels[li].parallel) {
        grp.levels[li].parallel = true;
        forced_group = static_cast<int>(gi);
        forced_level = static_cast<int>(li);
        break;
      }
    }
  }
  ASSERT_GE(forced_group, 0) << "no carried level to corrupt";

  ClaimReport rep = check_parallel_claims(r.program, mx, /*downgrade=*/true);
  EXPECT_FALSE(rep.ok());
  EXPECT_GT(rep.instances_checked, 0u);
  EXPECT_GE(rep.downgraded_levels, 1);
  bool hit = false;
  for (const auto& w : rep.witnesses)
    if (w.kind == ClaimWitness::Kind::kParallelContradicted &&
        w.group == forced_group && w.level == forced_level)
      hit = true;
  EXPECT_TRUE(hit) << rep.str();
  // The downgrade restored the truthful flag.
  EXPECT_FALSE(mx.sched.groups[static_cast<std::size_t>(forced_group)]
                   .levels[static_cast<std::size_t>(forced_level)]
                   .parallel);
}

/// acc += a[i] over `n` iterations: the accumulator chain is a genuine
/// loop-carried dependence whose must-piece has `n` instances.
Module reduction_module(i64 n) {
  Module m;
  i64 g = m.add_global("a", (n + 1) * 8);
  Function& f = m.add_function("main", 0);
  Builder b(m, f);
  b.set_block(b.make_block());
  Reg base = b.const_(g);
  Reg nn = b.const_(n);
  b.counted_loop(0, nn, 1, [&](Reg iv) {  // a[i] = i
    Reg p = b.add(base, b.muli(iv, 8));
    b.store(p, iv);
  });
  Reg acc = b.const_(0);
  b.counted_loop(0, nn, 1, [&](Reg iv) {  // acc += a[i]
    Reg p = b.add(base, b.muli(iv, 8));
    Reg v = b.load(p);
    b.add(acc, v, acc);
  });
  b.ret(acc);
  return m;
}

TEST(Oracle, CappedPiecesAreDecidedExactly) {
  // 6000 iterations blow the 4096-instance enumeration cap: the oracle
  // must route those pieces through the exact integer walk (counted as
  // capped) and still accept the honest schedule with zero witnesses.
  Module m = reduction_module(6000);
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run();
  ASSERT_FALSE(r.truncated);
  feedback::RegionMetrics mx = r.analyze(r.whole_program());
  ASSERT_TRUE(mx.analyzable);
  ClaimReport rep = check_parallel_claims(r.program, mx, /*downgrade=*/false);
  EXPECT_TRUE(rep.ok()) << rep.str();
  EXPECT_GE(rep.capped_pieces, 1u);
}

TEST(Oracle, CappedForcedClaimYieldsIntegerWitness) {
  // Same module, but with a parallel claim forced onto a carried level:
  // the exact walk over the capped piece must contradict it (the witness
  // comes from the Omega test, not from enumeration).
  Module m = reduction_module(6000);
  core::Pipeline pipe(m);
  core::ProfileResult r = pipe.run();
  feedback::RegionMetrics mx = r.analyze(r.whole_program());
  ASSERT_TRUE(mx.analyzable);
  bool forced = false;
  for (auto& grp : mx.sched.groups) {
    if (!grp.schedulable || forced) continue;
    for (auto& lv : grp.levels) {
      if (lv.carries && !lv.parallel) {
        lv.parallel = true;
        forced = true;
        break;
      }
    }
  }
  ASSERT_TRUE(forced) << "no carried level to corrupt";
  ClaimReport rep = check_parallel_claims(r.program, mx, /*downgrade=*/true);
  EXPECT_FALSE(rep.ok());
  EXPECT_GE(rep.capped_pieces, 1u);
  bool integer_witness = false;
  for (const auto& w : rep.witnesses)
    if (w.kind == ClaimWitness::Kind::kParallelContradicted &&
        w.message.find("integer instance") != std::string::npos)
      integer_witness = true;
  EXPECT_TRUE(integer_witness) << rep.str();
}

// ---------------------------------------------------------------------------
// The claims walk visits enumerable pieces in place: row by row from the
// piece's bounds, each level's distance stepped along the innermost
// coordinate. These tests pin it to the walk it replaced — every lattice
// point in lexicographic order (here: a brute-force scan of a bounding
// box), the source instance evaluated per point — on random box and
// octagon pieces, including pieces at, just under and just over the
// enumeration cap.

i64 pick(std::mt19937_64& rng, i64 lo, i64 hi) {
  return std::uniform_int_distribution<i64>(lo, hi)(rng);
}

// A coordinate index in [from, dim).
std::size_t pick_dim(std::mt19937_64& rng, std::size_t from,
                     std::size_t dim) {
  return static_cast<std::size_t>(
      pick(rng, static_cast<i64>(from), static_cast<i64>(dim) - 1));
}

struct BoxedPiece {
  poly::Piece piece;
  std::vector<std::pair<i64, i64>> bbox;  ///< a bounding box of the domain
};

// A random label function (source instance) over `dim` coordinates: mostly
// the identity shifted by a small constant, sometimes scaled or coupled to
// another coordinate, so distances vary along every dimension.
poly::AffineMap random_label_fn(std::mt19937_64& rng, std::size_t dim) {
  std::vector<poly::AffineExpr> outs;
  for (std::size_t j = 0; j < dim; ++j) {
    poly::AffineExpr e(dim);
    e.coeff(j) = pick(rng, 0, 3) == 0 ? pick(rng, 0, 2) : 1;
    if (pick(rng, 0, 2) == 0)
      e.coeff(pick_dim(rng, 0, dim)) += pick(rng, -1, 1);
    e.const_term() = pick(rng, -2, 2);
    outs.push_back(std::move(e));
  }
  return poly::AffineMap(dim, std::move(outs));
}

// A box with the given extents; `octagon` adds one or two ±x ± y + k rows
// that cut it (the box stays a bounding box).
BoxedPiece random_piece(std::mt19937_64& rng, const std::vector<i64>& extents,
                        bool octagon) {
  const std::size_t dim = extents.size();
  BoxedPiece bp;
  for (i64 e : extents) {
    const i64 lo = pick(rng, -3, 3);
    bp.bbox.emplace_back(lo, lo + e - 1);
  }
  bp.piece.domain = poly::Polyhedron::box(bp.bbox);
  if (octagon && dim >= 2) {
    for (i64 r = pick(rng, 1, 2); r > 0; --r) {
      poly::AffineExpr e(dim);
      const std::size_t a = pick_dim(rng, 0, dim - 1);
      const std::size_t b = pick_dim(rng, a + 1, dim);
      e.coeff(a) = pick(rng, 0, 1) ? 1 : -1;
      e.coeff(b) = pick(rng, 0, 1) ? 1 : -1;
      e.const_term() = pick(rng, 0, 8);
      bp.piece.domain.add_ge0(std::move(e));
    }
  }
  bp.piece.label_fn = random_label_fn(rng, dim);
  return bp;
}

// The parallelogram {lo <= i < lo + a, i + c <= j < i + c + b}: an octagon
// with exactly a·b points.
BoxedPiece parallelogram(std::mt19937_64& rng, i64 a, i64 b) {
  const i64 lo = pick(rng, -3, 3), c = pick(rng, -2, 2);
  const poly::AffineExpr i = poly::AffineExpr::var(2, 0);
  const poly::AffineExpr j = poly::AffineExpr::var(2, 1);
  BoxedPiece bp;
  bp.bbox = {{lo, lo + a - 1}, {lo + c, lo + a - 1 + c + b - 1}};
  bp.piece.domain = poly::Polyhedron(2);
  bp.piece.domain.bound_var(0, lo, lo + a - 1);
  bp.piece.domain.add_ge0(j - i - c);
  bp.piece.domain.add_ge0(i - j + (c + b - 1));
  bp.piece.label_fn = random_label_fn(rng, 2);
  return bp;
}

scheduler::GroupSchedule random_schedule(std::mt19937_64& rng,
                                         std::size_t dim) {
  scheduler::GroupSchedule g;
  g.stmts = {0};
  for (std::size_t li = 0; li < dim; ++li) {
    scheduler::Level lv;
    lv.row.assign(dim, 0);
    lv.row[pick_dim(rng, 0, dim)] = 1;
    if (dim >= 2 && pick(rng, 0, 2) == 0)
      lv.row[pick_dim(rng, 0, dim)] += pick(rng, -1, 1);
    lv.parallel = pick(rng, 0, 1) == 1;
    lv.new_band = li == 0 || pick(rng, 0, 2) == 0;
    g.levels.push_back(std::move(lv));
  }
  return g;
}

// One statement at loop depth dim() with a self-dependence made of `piece`.
fold::FoldedProgram self_dep_program(const poly::Piece& piece) {
  const std::size_t dim = piece.domain.dim();
  fold::FoldedProgram prog;
  fold::FoldedStatement st{};
  st.meta.id = 0;
  st.meta.depth = dim;
  st.meta.context.parts.assign(dim + 1, {});
  prog.statements.push_back(std::move(st));
  fold::FoldedDep d;
  d.src = d.dst = 0;
  d.kind = ddg::DepKind::kMemFlow;
  d.relation = poly::PolySet(dim);
  d.relation.add_piece(piece);
  prog.deps.push_back(std::move(d));
  return prog;
}

struct RefWalk {
  bool capped = false;
  u64 instances = 0;
  std::vector<std::tuple<ClaimWitness::Kind, int, std::string>> witnesses;
};

// The materialized walk: all points first, then per point the source
// instance and every level's distance from scratch.
RefWalk reference_walk(const BoxedPiece& bp,
                       const scheduler::GroupSchedule& g) {
  const poly::Piece& piece = bp.piece;
  const std::size_t dim = piece.domain.dim();
  std::vector<std::vector<i64>> pts;
  std::vector<i64> t(dim);
  std::function<void(std::size_t)> scan = [&](std::size_t k) {
    if (k == dim) {
      if (piece.domain.contains(t)) pts.push_back(t);
      return;
    }
    for (i64 v = bp.bbox[k].first; v <= bp.bbox[k].second; ++v) {
      t[k] = v;
      scan(k + 1);
    }
  };
  scan(0);
  RefWalk ref;
  ref.capped = pts.size() > kClaimEnumCap;
  if (ref.capped) return ref;
  std::set<std::pair<std::size_t, ClaimWitness::Kind>> seen;
  for (const auto& p : pts) {
    ++ref.instances;
    const std::vector<i128> src = piece.label_fn.eval(p);
    bool satisfied = false, band_satisfied = false;
    for (std::size_t li = 0; li < g.levels.size(); ++li) {
      const scheduler::Level& lv = g.levels[li];
      if (li == 0 || lv.new_band) band_satisfied = satisfied;
      i128 dist = 0;
      for (std::size_t j = 0; j < dim; ++j)  // shared depth == dim
        dist += static_cast<i128>(lv.row[j]) * (p[j] - src[j]);
      auto add = [&](ClaimWitness::Kind kind) {
        if (!seen.insert({li, kind}).second) return;
        std::ostringstream det;
        det << "distance " << static_cast<long long>(dist) << " at instance (";
        for (std::size_t j = 0; j < dim; ++j) det << (j ? "," : "") << p[j];
        det << ")";
        ref.witnesses.emplace_back(kind, static_cast<int>(li), det.str());
      };
      if (!satisfied && dist < 0)
        add(ClaimWitness::Kind::kIllegalLevel);
      else if (!band_satisfied && dist < 0)
        add(ClaimWitness::Kind::kBandViolation);
      if (lv.parallel && !satisfied && dist != 0)
        add(ClaimWitness::Kind::kParallelContradicted);
      if (dist > 0) satisfied = true;
    }
  }
  return ref;
}

struct WalkTally {
  int enumerated = 0, capped = 0, with_witnesses = 0, clean = 0;
};

void expect_walks_match(const BoxedPiece& bp, std::mt19937_64& rng,
                        WalkTally& tally) {
  const scheduler::GroupSchedule g = random_schedule(rng, bp.bbox.size());
  const fold::FoldedProgram prog = self_dep_program(bp.piece);
  feedback::RegionMetrics m;
  m.sched.groups = {g};
  const ClaimReport rep = check_parallel_claims(prog, m, /*downgrade=*/false);
  const RefWalk ref = reference_walk(bp, g);
  const std::string ctx = bp.piece.domain.str() + " labels " +
                          bp.piece.label_fn.str();
  EXPECT_EQ(rep.capped_pieces, ref.capped ? 1u : 0u) << ctx;
  EXPECT_EQ(rep.enum_pieces, ref.capped ? 0u : 1u) << ctx;
  EXPECT_EQ(rep.instances_checked, ref.instances) << ctx;
  if (ref.capped) {
    ++tally.capped;
    return;  // decided per level by the exact tier, not walked
  }
  ++tally.enumerated;
  ++(ref.witnesses.empty() ? tally.clean : tally.with_witnesses);
  ASSERT_EQ(rep.witnesses.size(), ref.witnesses.size()) << ctx << rep.str();
  for (std::size_t i = 0; i < ref.witnesses.size(); ++i) {
    const ClaimWitness& w = rep.witnesses[i];
    const auto& [kind, level, detail] = ref.witnesses[i];
    EXPECT_EQ(w.kind, kind) << ctx << rep.str();
    EXPECT_EQ(w.level, level) << ctx << rep.str();
    const std::size_t at = w.message.find("s0 -> s0: ");
    ASSERT_NE(at, std::string::npos) << w.message;
    EXPECT_EQ(w.message.substr(at + 10), detail) << ctx;
  }
}

TEST(ClaimsWalk, InPlaceWalkMatchesMaterializedWalkOnRandomPieces) {
  WalkTally tally;
  for (int seed = 0; seed < 400; ++seed) {
    std::mt19937_64 rng(static_cast<u64>(seed) + 7000);
    const std::size_t dim = static_cast<std::size_t>(pick(rng, 1, 3));
    std::vector<i64> extents;
    for (std::size_t j = 0; j < dim; ++j) extents.push_back(pick(rng, 1, 9));
    expect_walks_match(random_piece(rng, extents, pick(rng, 0, 1) == 1), rng,
                       tally);
  }
  EXPECT_EQ(tally.enumerated, 400);
  EXPECT_GT(tally.with_witnesses, 0);
  EXPECT_GT(tally.clean, 0);
}

TEST(ClaimsWalk, InPlaceWalkMatchesMaterializedWalkAroundTheCap) {
  static_assert(kClaimEnumCap == 4096, "shapes below are sized for 4096");
  WalkTally tally;
  for (int seed = 0; seed < 8; ++seed) {
    std::mt19937_64 rng(static_cast<u64>(seed) + 9000);
    // Just under, at, and just over the cap: 4095, 4096 and 4097 points.
    expect_walks_match(random_piece(rng, {63, 65}, false), rng, tally);
    expect_walks_match(random_piece(rng, {64, 64}, false), rng, tally);
    expect_walks_match(random_piece(rng, {17, 241}, false), rng, tally);
    expect_walks_match(random_piece(rng, {5, 9, 91}, false), rng, tally);
    expect_walks_match(random_piece(rng, {16, 16, 16}, false), rng, tally);
    expect_walks_match(random_piece(rng, {17, 241, 1}, false), rng, tally);
    expect_walks_match(parallelogram(rng, 63, 65), rng, tally);
    expect_walks_match(parallelogram(rng, 64, 64), rng, tally);
    expect_walks_match(parallelogram(rng, 17, 241), rng, tally);
  }
  EXPECT_EQ(tally.enumerated, 8 * 6);
  EXPECT_EQ(tally.capped, 8 * 3);
  EXPECT_GT(tally.with_witnesses, 0);
}

// The acceptance bar: on every mini-Rodinia workload, every dynamic
// dependence is covered by the static may-dependence set, every
// parallelism claim of the scheduler survives re-validation against the
// folded DDG, and the two static analyses nest (exact ⊆ may-dep, zero
// precision mismatches).
class RodiniaOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(RodiniaOracle, DynamicSubsetOfStaticAndClaimsHold) {
  workloads::Workload w = workloads::make_rodinia(GetParam());
  core::Pipeline pipe(w.module);
  core::ProfileResult r = pipe.run();

  std::vector<feedback::RegionMetrics> metrics;
  for (const auto& region : r.hot_regions())
    metrics.push_back(r.analyze(region));
  std::vector<feedback::RegionMetrics*> ptrs;
  for (auto& mx : metrics) ptrs.push_back(&mx);

  OracleReport rep = run_oracle(w.module, r.program, ptrs);
  EXPECT_TRUE(rep.coverage.ok()) << rep.coverage.str();
  EXPECT_GT(rep.coverage.checked, 0u);
  EXPECT_TRUE(rep.precision.ok()) << rep.precision.str();
  for (const auto& c : rep.claims) EXPECT_TRUE(c.ok()) << c.str();
  EXPECT_TRUE(rep.ok());
  EXPECT_NE(rep.verdict_line().find("OK"), std::string::npos);
  EXPECT_NE(rep.verdict_line().find("exact precision ok"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RodiniaOracle,
                         ::testing::ValuesIn(workloads::rodinia_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '+') c = 'p';
                           return n;
                         });

}  // namespace
}  // namespace pp::verify
