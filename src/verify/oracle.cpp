#include "verify/oracle.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <type_traits>
#include <unordered_map>

#include "verify/dataflow.hpp"
#include "verify/exact.hpp"

namespace pp::verify {

using poly::AffineExpr;
using poly::LpStatus;
using poly::Polyhedron;

// ---------------------------------------------------------------------------
// Part (a): dynamic ⊆ static.

namespace {

/// Per-function machinery for the containment check, built lazily: most
/// modules execute only a few of their functions.
struct FuncOracle {
  BlockGraph graph;
  ReachingDefs reaching;
  exact::ExactDeps ex;  ///< carries the MayDepSet (ex.may()) and the tier above
  std::set<ir::Reg> call_results;  ///< dsts of kCall (value pass-through)

  FuncOracle(const ir::Module& m, const ir::Function& f)
      : graph(f), reaching(f, graph), ex(m, f) {
    for (const auto& bb : f.blocks)
      for (const auto& in : bb.instrs)
        if (in.op == ir::Op::kCall && instr_writes(in))
          call_results.insert(in.dst);
  }
};

bool in_range(const ir::Function& f, const vm::CodeRef& r) {
  if (r.block < 0 || static_cast<std::size_t>(r.block) >= f.blocks.size())
    return false;
  const auto& bb = f.blocks[static_cast<std::size_t>(r.block)];
  return r.instr >= 0 && static_cast<std::size_t>(r.instr) < bb.instrs.size();
}

/// Can the register value `dst_ref` read have been produced by `src_ref`,
/// as far as the static CFG can tell? The DDG routes values through calls
/// (callee params inherit caller producers, returns flow into the call
/// dst), so parameter registers and call-result registers are wildcards —
/// their producer may legitimately be any same-function instruction.
bool reg_flow_plausible(const ir::Function& f, const FuncOracle& fo,
                        const vm::CodeRef& src_ref, const ir::Instr& src,
                        const vm::CodeRef& dst_ref, const ir::Instr& dst) {
  for (ir::Reg r : instr_uses(dst)) {
    if (r < f.num_args) return true;            // param pass-through
    if (fo.call_results.count(r)) return true;  // value through a call
    if (instr_writes(src) && src.dst == r &&
        fo.reaching.def_reaches(src_ref.block, src_ref.instr, dst_ref.block,
                                dst_ref.instr))
      return true;
  }
  return false;
}

}  // namespace

CoverageReport check_dynamic_coverage(const ir::Module& m,
                                      const fold::FoldedProgram& prog,
                                      support::ThreadPool* pool) {
  CoverageReport rep;
  std::map<int, std::unique_ptr<FuncOracle>> cache;
  if (pool != nullptr && !pool->serial()) {
    // Prefetch: collect every function the sweep below will consult (same
    // filters as the sweep) and build their dataflow oracles in parallel —
    // construction (CFG + reaching defs + may-dep set) dominates the cost.
    // The sweep itself stays serial, so violation order is unchanged.
    for (const fold::FoldedDep& d : prog.deps) {
      const vm::CodeRef s = prog.stmt(d.src).meta.code;
      const vm::CodeRef t = prog.stmt(d.dst).meta.code;
      if (s.func != t.func || s.func < 0 ||
          static_cast<std::size_t>(s.func) >= m.functions.size())
        continue;
      const ir::Function& f = m.functions[static_cast<std::size_t>(s.func)];
      if (in_range(f, s) && in_range(f, t)) cache.emplace(s.func, nullptr);
    }
    std::vector<std::pair<const int, std::unique_ptr<FuncOracle>>*> slots;
    slots.reserve(cache.size());
    for (auto& entry : cache) slots.push_back(&entry);
    pool->parallel_for(slots.size(), [&](std::size_t i) {
      slots[i]->second = std::make_unique<FuncOracle>(
          m, m.functions[static_cast<std::size_t>(slots[i]->first)]);
    });
  }
  auto oracle_for = [&](int func) -> FuncOracle& {
    auto& slot = cache[func];
    if (!slot)
      slot = std::make_unique<FuncOracle>(
          m, m.functions[static_cast<std::size_t>(func)]);
    return *slot;
  };

  for (std::size_t i = 0; i < prog.deps.size(); ++i) {
    const fold::FoldedDep& d = prog.deps[i];
    const vm::CodeRef s = prog.stmt(d.src).meta.code;
    const vm::CodeRef t = prog.stmt(d.dst).meta.code;
    // Interprocedural edges (value plumbing through calls, cross-function
    // memory reuse) have no intraprocedural static counterpart.
    if (s.func != t.func || s.func < 0 ||
        static_cast<std::size_t>(s.func) >= m.functions.size()) {
      ++rep.skipped;
      continue;
    }
    const ir::Function& f = m.functions[static_cast<std::size_t>(s.func)];
    if (!in_range(f, s) || !in_range(f, t)) {
      ++rep.skipped;
      continue;
    }
    FuncOracle& fo = oracle_for(s.func);
    const ir::Instr& si =
        f.blocks[static_cast<std::size_t>(s.block)]
            .instrs[static_cast<std::size_t>(s.instr)];
    const ir::Instr& ti =
        f.blocks[static_cast<std::size_t>(t.block)]
            .instrs[static_cast<std::size_t>(t.instr)];

    bool covered = true;
    bool exact_refuted = false;
    if (d.kind == ddg::DepKind::kRegFlow) {
      covered = reg_flow_plausible(f, fo, s, si, t, ti);
      ++rep.checked;
    } else {
      // Memory kinds: only pairs statican fully models carry a verdict.
      const MayDepSet& may = fo.ex.may();
      if (!may.modeled(s.block, s.instr) || !may.modeled(t.block, t.instr)) {
        ++rep.skipped;
        continue;
      }
      covered = may.may_depend(s.block, s.instr, t.block, t.instr);
      ++rep.checked;
      if (covered) {
        // Precision tier (dynamic ⊆ exact): a may-covered edge can still
        // be refuted by the Omega test — kIndependent is a theorem that no
        // two instances of the sites share an address, so an observed edge
        // means one of the two analyses is wrong.
        ++rep.exact_checked;
        if (fo.ex.pair_verdict(s.block, s.instr, t.block, t.instr) ==
            exact::PairVerdict::kIndependent) {
          covered = false;
          exact_refuted = true;
        }
      }
    }
    if (!covered) {
      CoverageViolation v;
      v.dep_index = static_cast<int>(i);
      v.src_stmt = d.src;
      v.dst_stmt = d.dst;
      v.kind = d.kind;
      std::ostringstream os;
      os << ddg::dep_kind_name(d.kind) << " edge s" << d.src << " -> s"
         << d.dst << " (" << f.name << " b" << s.block << ":i" << s.instr
         << " -> b" << t.block << ":i" << t.instr
         << ") observed dynamically but "
         << (exact_refuted ? "proven independent by the exact test"
                           : "statically impossible");
      v.message = os.str();
      rep.violations.push_back(std::move(v));
    }
  }
  return rep;
}

std::string CoverageReport::str() const {
  std::ostringstream os;
  os << "coverage: " << (ok() ? "ok" : "VIOLATED") << " (" << checked
     << " edges checked, " << exact_checked << " exact-re-checked, "
     << skipped << " skipped";
  if (!ok()) os << ", " << violations.size() << " uncovered";
  os << ")";
  for (const auto& v : violations) os << "\n  " << v.message;
  return os.str();
}

// ---------------------------------------------------------------------------
// Part (c): exact ⊆ may-dep — the static precision tier.

PrecisionReport check_precision_tier(const ir::Module& m,
                                     support::ThreadPool* pool) {
  PrecisionReport rep;
  std::vector<const ir::Function*> funcs;
  for (const ir::Function& f : m.functions)
    if (!f.blocks.empty()) funcs.push_back(&f);

  // The per-function analyses (statican model + memoized Omega verdicts)
  // dominate the cost and are independent: build them into ordered slots.
  std::vector<std::unique_ptr<exact::ExactDeps>> deps(funcs.size());
  auto build = [&](std::size_t i) {
    deps[i] = std::make_unique<exact::ExactDeps>(m, *funcs[i]);
  };
  if (pool != nullptr && !pool->serial()) {
    pool->parallel_for(funcs.size(), build);
  } else {
    for (std::size_t i = 0; i < funcs.size(); ++i) build(i);
  }

  // Serial sweep in program order: violation order is deterministic.
  for (std::size_t fi = 0; fi < funcs.size(); ++fi) {
    const exact::ExactDeps& ex = *deps[fi];
    const auto& acc = ex.model().accesses;
    for (std::size_t i = 0; i < acc.size(); ++i) {
      for (std::size_t j = i + 1; j < acc.size(); ++j) {
        const statican::AccessInfo& x = acc[i];
        const statican::AccessInfo& y = acc[j];
        if (!x.is_store && !y.is_store) continue;
        if (!ex.may().modeled(x.block, x.instr) ||
            !ex.may().modeled(y.block, y.instr))
          continue;
        ++rep.pairs_checked;
        const bool may = ex.may().may_alias(x, y);
        const exact::PairVerdict v =
            ex.pair_verdict(x.block, x.instr, y.block, y.instr);
        if (!may && v == exact::PairVerdict::kDependent) {
          PrecisionViolation pv;
          pv.func = funcs[fi]->id;
          pv.src_block = x.block;
          pv.src_instr = x.instr;
          pv.dst_block = y.block;
          pv.dst_instr = y.instr;
          std::ostringstream os;
          os << funcs[fi]->name << " b" << x.block << ":i" << x.instr
             << " vs b" << y.block << ":i" << y.instr
             << ": may-tester proves the addresses disjoint but the exact "
                "test finds an integer instance pair touching the same word";
          pv.message = os.str();
          rep.violations.push_back(std::move(pv));
        } else if (may && v == exact::PairVerdict::kIndependent) {
          ++rep.refined;
        }
      }
    }
  }
  return rep;
}

std::string PrecisionReport::str() const {
  std::ostringstream os;
  os << "precision: " << (ok() ? "ok" : "VIOLATED") << " (" << pairs_checked
     << " pairs checked, " << refined << " refined by the exact tier";
  if (!ok()) os << ", " << violations.size() << " mismatches";
  os << ")";
  for (const auto& v : violations) os << "\n  " << v.message;
  return os.str();
}

// ---------------------------------------------------------------------------
// Part (b): parallel / permutable claims vs. the must-dependences.

namespace {

/// Loop depth shared by two statements: matching context-part prefix,
/// capped by both depths. Dependences are only enforced on the shared
/// prefix (beyond it, statement order satisfies them).
std::size_t shared_depth(const ddg::Statement& a, const ddg::Statement& b) {
  std::size_t n = std::min(a.context.parts.size(), b.context.parts.size());
  std::size_t k = 0;
  while (k < n && a.context.parts[k] == b.context.parts[k]) ++k;
  return std::min({k, a.depth, b.depth});
}

struct ClaimChecker {
  ClaimReport& rep;
  std::vector<std::set<int>>& contradicted;  ///< per group: level indices
  std::set<std::tuple<int, int, int, int>> seen;  ///< (grp,lvl,dep,kind) dedup
  // Buffers of the enumerated walk, reused across rows and pieces.
  std::vector<i64> t;      ///< current target instance
  std::vector<i128> s;     ///< its source instance (first `shared` coords)
  std::vector<i128> dist;  ///< per level: distance at the current instance
  std::vector<i128> step;  ///< per level: distance change per innermost step

  /// Records a witness unless (grp, lvl, dep, kind) already has one.
  /// `detail` is the evidence text, or a callable rendering it — called
  /// only for a new witness, so repeated violations cost no string.
  template <typename Detail>
  void witness(ClaimWitness::Kind kind, int grp, int lvl, int dep_idx,
               const fold::FoldedDep& d, const Detail& detail) {
    if (!seen.insert({grp, lvl, dep_idx, static_cast<int>(kind)}).second)
      return;
    ClaimWitness w;
    w.kind = kind;
    w.group = grp;
    w.level = lvl;
    w.src_stmt = d.src;
    w.dst_stmt = d.dst;
    std::ostringstream os;
    switch (kind) {
      case ClaimWitness::Kind::kParallelContradicted:
        os << "parallel claim contradicted";
        break;
      case ClaimWitness::Kind::kIllegalLevel:
        os << "negative dependence distance";
        break;
      case ClaimWitness::Kind::kBandViolation:
        os << "permutable band violated";
        break;
    }
    os << " at group " << grp << " level " << lvl << " by "
       << ddg::dep_kind_name(d.kind) << " s" << d.src << " -> s" << d.dst
       << ": ";
    if constexpr (std::is_invocable_v<const Detail&>)
      os << detail();
    else
      os << detail;
    w.message = os.str();
    rep.witnesses.push_back(std::move(w));
    if (kind == ClaimWitness::Kind::kParallelContradicted)
      contradicted[static_cast<std::size_t>(grp)].insert(lvl);
  }

  /// Instance-exact walk over an enumerable piece, in place: the piece's
  /// points come row by row from its own bounds, and along a row only the
  /// innermost coordinate moves, so each level's distance
  ///   sum_j row_j * (t_j - s_j),  s = label_fn(t),  j < shared
  /// changes by a constant step per instance. The source instance is
  /// evaluated once per row; nothing is allocated per instance.
  void check_enumerated(const poly::Piece& piece,
                        const scheduler::GroupSchedule& g, int grp,
                        std::size_t shared, int dep_idx,
                        const fold::FoldedDep& d) {
    const std::size_t dim = piece.domain.dim();
    const std::size_t inner = dim - 1;
    const std::size_t nlev = g.levels.size();
    t.resize(dim);
    s.resize(shared);
    dist.resize(nlev);
    step.resize(nlev);
    for (std::size_t li = 0; li < nlev; ++li) {
      const std::vector<i64>& row = g.levels[li].row;
      step[li] = 0;
      for (std::size_t j = 0; j < std::min(shared, row.size()); ++j)
        step[li] += static_cast<i128>(row[j]) *
                    ((j == inner ? 1 : 0) -
                     static_cast<i128>(piece.label_fn.output(j).coeff(inner)));
    }
    auto walk_row = [&](std::span<const i64> prefix, i64 lo, i64 hi) {
      std::copy(prefix.begin(), prefix.end(), t.begin());
      t[inner] = lo;
      for (std::size_t j = 0; j < shared; ++j)
        s[j] = piece.label_fn.output(j).eval(t);
      for (std::size_t li = 0; li < nlev; ++li) {
        const std::vector<i64>& row = g.levels[li].row;
        dist[li] = 0;
        for (std::size_t j = 0; j < std::min(shared, row.size()); ++j)
          dist[li] += static_cast<i128>(row[j]) * (t[j] - s[j]);
      }
      for (i64 v = lo;; ++v) {
        t[inner] = v;
        check_instance(g, grp, dep_idx, d);
        if (v == hi) break;
        for (std::size_t li = 0; li < nlev; ++li) dist[li] += step[li];
      }
    };
    piece.domain.for_each_row(kClaimEnumCap, walk_row);
  }

  /// The level walk of one instance `t` with per-level distances `dist`.
  void check_instance(const scheduler::GroupSchedule& g, int grp,
                      int dep_idx, const fold::FoldedDep& d) {
    ++rep.instances_checked;
    bool satisfied = false;
    bool band_satisfied = false;
    for (std::size_t li = 0; li < g.levels.size(); ++li) {
      const scheduler::Level& lv = g.levels[li];
      if (li == 0 || lv.new_band) band_satisfied = satisfied;
      const i128 dl = dist[li];
      auto detail = [&]() {
        std::ostringstream det;
        det << "distance " << static_cast<long long>(dl) << " at instance (";
        for (std::size_t j = 0; j < t.size(); ++j)
          det << (j ? "," : "") << t[j];
        det << ")";
        return det.str();
      };
      if (!satisfied && dl < 0)
        witness(ClaimWitness::Kind::kIllegalLevel, grp, static_cast<int>(li),
                dep_idx, d, detail);
      else if (!band_satisfied && dl < 0)
        witness(ClaimWitness::Kind::kBandViolation, grp,
                static_cast<int>(li), dep_idx, d, detail);
      if (lv.parallel && !satisfied && dl != 0)
        witness(ClaimWitness::Kind::kParallelContradicted, grp,
                static_cast<int>(li), dep_idx, d, detail);
      if (dl > 0) satisfied = true;
    }
  }

  /// The schedule distance of `level` as an affine form over the piece
  /// domain (source instance = label_fn image of the target instance).
  static AffineExpr distance_expr(const poly::Piece& piece,
                                  const scheduler::Level& lv,
                                  std::size_t shared) {
    std::size_t dim = piece.domain.dim();
    AffineExpr dist(dim);
    std::size_t n = std::min(shared, lv.row.size());
    for (std::size_t j = 0; j < n; ++j) {
      if (lv.row[j] == 0) continue;
      dist = dist + (AffineExpr::var(dim, j) - piece.label_fn.output(j)) *
                        lv.row[j];
    }
    return dist;
  }

  /// Exact walk for pieces too large to enumerate: at each level, the
  /// Omega core decides whether any still-unsatisfied INTEGER instance has
  /// a negative (or, for a parallel claim, nonzero) distance — the same
  /// instances the enumerated walk would have visited, so every witness is
  /// real and every pass is a theorem. Returns false as soon as a query
  /// hits the effort cap; the caller then re-walks with the rational LP
  /// bounds (the (grp,lvl,dep,kind) dedup makes the double walk safe).
  bool check_exact(const poly::Piece& piece,
                   const scheduler::GroupSchedule& g, int grp,
                   std::size_t shared, int dep_idx,
                   const fold::FoldedDep& d) {
    Polyhedron region = piece.domain;       // unsatisfied instances
    Polyhedron band_region = piece.domain;  // unsatisfied at band start
    for (std::size_t li = 0; li < g.levels.size(); ++li) {
      const scheduler::Level& lv = g.levels[li];
      AffineExpr dist = distance_expr(piece, lv, shared);
      if (li == 0 || lv.new_band) band_region = region;
      auto test = [&](const Polyhedron& base, bool negative) {
        Polyhedron q = base;
        q.add_ge0(negative ? dist * -1 + (-1) : dist + (-1));
        return poly::integer_feasible(q);
      };
      const poly::Feas neg = test(region, /*negative=*/true);
      if (neg == poly::Feas::kUnknown) return false;
      if (neg == poly::Feas::kFeasible) {
        witness(ClaimWitness::Kind::kIllegalLevel, grp, static_cast<int>(li),
                dep_idx, d, "integer instance with negative distance");
      } else {
        const poly::Feas bneg = test(band_region, /*negative=*/true);
        if (bneg == poly::Feas::kUnknown) return false;
        if (bneg == poly::Feas::kFeasible)
          witness(ClaimWitness::Kind::kBandViolation, grp,
                  static_cast<int>(li), dep_idx, d,
                  "integer in-band instance with negative distance");
      }
      if (lv.parallel) {
        const poly::Feas pos = test(region, /*negative=*/false);
        if (pos == poly::Feas::kUnknown) return false;
        if (pos == poly::Feas::kFeasible || neg == poly::Feas::kFeasible)
          witness(ClaimWitness::Kind::kParallelContradicted, grp,
                  static_cast<int>(li), dep_idx, d,
                  "integer instance with nonzero distance");
      }
      region.add_eq0(dist);
    }
    return true;
  }

  /// LP fallback: walk the levels keeping the polyhedron of
  /// still-unsatisfied instances (distance pinned to zero at every earlier
  /// level) and bound each level's distance over it. Rational bounds are
  /// conservative: a claim is only accepted when the relaxation proves the
  /// distance identically zero.
  void check_lp(const poly::Piece& piece, const scheduler::GroupSchedule& g,
                int grp, std::size_t shared, int dep_idx,
                const fold::FoldedDep& d) {
    Polyhedron region = piece.domain;       // unsatisfied instances
    Polyhedron band_region = piece.domain;  // unsatisfied at band start
    for (std::size_t li = 0; li < g.levels.size(); ++li) {
      const scheduler::Level& lv = g.levels[li];
      AffineExpr dist = distance_expr(piece, lv, shared);
      if (li == 0 || lv.new_band) band_region = region;
      auto mn = region.minimize(dist);
      if (mn.status == LpStatus::kInfeasible) break;  // all satisfied
      bool can_neg = mn.status == LpStatus::kUnbounded ||
                     (mn.status == LpStatus::kOptimal && mn.value.sign() < 0);
      if (can_neg) {
        witness(ClaimWitness::Kind::kIllegalLevel, grp, static_cast<int>(li),
                dep_idx, d, "rational minimum below zero");
      } else {
        auto bmn = band_region.minimize(dist);
        if (bmn.status == LpStatus::kUnbounded ||
            (bmn.status == LpStatus::kOptimal && bmn.value.sign() < 0))
          witness(ClaimWitness::Kind::kBandViolation, grp,
                  static_cast<int>(li), dep_idx, d,
                  "rational in-band minimum below zero");
      }
      if (lv.parallel) {
        auto mx = region.maximize(dist);
        bool nonzero =
            can_neg || mx.status == LpStatus::kUnbounded ||
            (mx.status == LpStatus::kOptimal && mx.value.sign() > 0);
        if (nonzero)
          witness(ClaimWitness::Kind::kParallelContradicted, grp,
                  static_cast<int>(li), dep_idx, d,
                  "distance not provably zero over the piece");
      }
      region.add_eq0(dist);
    }
  }

  /// A piece over the enumeration cap: decide it exactly when the Omega
  /// core can, fall back to the rational relaxation when it cannot.
  void check_capped(const poly::Piece& piece,
                    const scheduler::GroupSchedule& g, int grp,
                    std::size_t shared, int dep_idx,
                    const fold::FoldedDep& d) {
    ++rep.capped_pieces;
    if (check_exact(piece, g, grp, shared, dep_idx, d)) {
      ++rep.exact_pieces;
    } else {
      ++rep.lp_fallbacks;
      check_lp(piece, g, grp, shared, dep_idx, d);
    }
  }
};

// Adds `part`'s counters (not its witnesses or downgrades) to `total`.
void add_counts(ClaimReport& total, const ClaimReport& part) {
  total.parallel_levels += part.parallel_levels;
  total.instances_checked += part.instances_checked;
  total.capped_pieces += part.capped_pieces;
  total.enum_pieces += part.enum_pieces;
  total.exact_pieces += part.exact_pieces;
  total.lp_fallbacks += part.lp_fallbacks;
}

}  // namespace

ClaimReport check_parallel_claims(const fold::FoldedProgram& prog,
                                  feedback::RegionMetrics& m, bool downgrade,
                                  support::ThreadPool* pool) {
  auto& groups = m.sched.groups;
  std::vector<std::set<int>> contradicted(groups.size());
  // Groups re-validate independently: each task owns its own part report,
  // dedup set and contradicted[gi] slot. Parts merge in group order below,
  // so counters and witness order match the serial sweep exactly.
  std::vector<ClaimReport> parts(groups.size());

  // The dependences each checked group re-validates — those with both
  // endpoints in it — indexed once, in program order.
  std::unordered_map<int, std::vector<std::size_t>> groups_of;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    if (!groups[gi].schedulable || groups[gi].levels.empty()) continue;
    for (int id : groups[gi].stmts) {
      std::vector<std::size_t>& of = groups_of[id];
      if (of.empty() || of.back() != gi) of.push_back(gi);
    }
  }
  std::vector<std::vector<std::size_t>> group_deps(groups.size());
  for (std::size_t di = 0; di < prog.deps.size(); ++di) {
    auto src = groups_of.find(prog.deps[di].src);
    auto dst = groups_of.find(prog.deps[di].dst);
    if (src == groups_of.end() || dst == groups_of.end()) continue;
    for (std::size_t gi : src->second)
      if (std::find(dst->second.begin(), dst->second.end(), gi) !=
          dst->second.end())
        group_deps[gi].push_back(di);
  }

  auto check_group = [&](std::size_t gi) {
    const scheduler::GroupSchedule& g = groups[gi];
    if (!g.schedulable || g.levels.empty()) return;
    ClaimReport& part = parts[gi];
    ClaimChecker checker{part, contradicted, {}, {}, {}, {}, {}};
    for (const auto& lv : g.levels)
      if (lv.parallel) ++part.parallel_levels;

    for (std::size_t di : group_deps[gi]) {
      const fold::FoldedDep& d = prog.deps[di];
      std::size_t shared =
          shared_depth(prog.stmt(d.src).meta, prog.stmt(d.dst).meta);
      if (shared == 0) continue;  // no common loop: order satisfies it

      // Must-pieces only (the exact pieces must_relation() keeps, read in
      // place): every instance they describe provably occurred, so a
      // contradiction is a real one (over-approximate pieces would
      // manufacture false alarms).
      for (const poly::Piece& piece : d.relation.pieces()) {
        if (!piece.exact) continue;
        if (piece.domain.dim() < shared ||
            piece.label_fn.out_dim() < shared)
          continue;  // malformed piece: nothing checkable
        if (piece.domain.count_points(kClaimEnumCap)) {
          ++part.enum_pieces;
          checker.check_enumerated(piece, g, static_cast<int>(gi), shared,
                                   static_cast<int>(di), d);
        } else {
          checker.check_capped(piece, g, static_cast<int>(gi), shared,
                               static_cast<int>(di), d);
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(groups.size(), check_group);
  } else {
    for (std::size_t gi = 0; gi < groups.size(); ++gi) check_group(gi);
  }

  ClaimReport rep;
  for (ClaimReport& part : parts) {
    add_counts(rep, part);
    for (ClaimWitness& w : part.witnesses)
      rep.witnesses.push_back(std::move(w));
  }

  if (downgrade) {
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      for (int li : contradicted[gi]) {
        scheduler::Level& lv = groups[gi].levels[static_cast<std::size_t>(li)];
        if (lv.parallel) {
          lv.parallel = false;
          ++rep.downgraded_levels;
        }
      }
    }
    if (rep.downgraded_levels > 0) feedback::refresh_schedule_metrics(m);
  }
  return rep;
}

std::string ClaimReport::str() const {
  std::ostringstream os;
  os << "claims: " << (ok() ? "ok" : "CONTRADICTED") << " ("
     << parallel_levels << " parallel levels, " << instances_checked
     << " instances";
  if (capped_pieces > 0) os << ", " << capped_pieces << " capped pieces";
  if (downgraded_levels > 0) os << ", " << downgraded_levels << " downgraded";
  os << ")";
  for (const auto& w : witnesses) os << "\n  " << w.message;
  return os.str();
}

// ---------------------------------------------------------------------------

bool OracleReport::ok() const {
  if (!coverage.ok() || !precision.ok()) return false;
  for (const auto& c : claims)
    if (!c.ok()) return false;
  return true;
}

std::string OracleReport::verdict_line() const {
  u64 instances = 0, parallel = 0, contradictions = 0;
  int downgraded = 0;
  for (const auto& c : claims) {
    instances += c.instances_checked;
    parallel += c.parallel_levels;
    contradictions += c.witnesses.size();
    downgraded += c.downgraded_levels;
  }
  std::ostringstream os;
  os << "soundness oracle: " << (ok() ? "OK" : "VIOLATED") << " -- "
     << coverage.checked << " dynamic edges vs static may-deps ("
     << coverage.violations.size() << " uncovered, " << coverage.skipped
     << " skipped), " << parallel << " parallel claims over " << instances
     << " instances (" << contradictions << " contradictions";
  if (downgraded > 0) os << ", " << downgraded << " downgraded";
  os << "), exact precision " << (precision.ok() ? "ok" : "VIOLATED") << " ("
     << precision.pairs_checked << " pairs, " << precision.refined
     << " refined)";
  return os.str();
}

OracleReport run_oracle(const ir::Module& m, const fold::FoldedProgram& prog,
                        const std::vector<feedback::RegionMetrics*>& regions,
                        bool downgrade, support::ThreadPool* pool,
                        obs::Session* obs, support::CancelToken* cancel) {
  obs::Span oracle_span(obs, "oracle:run");
  OracleReport r;
  if (cancel != nullptr && cancel->poll()) return r;
  r.coverage = check_dynamic_coverage(m, prog, pool);
  r.precision = check_precision_tier(m, pool);
  // Each region's claim check touches only that region's metrics, so the
  // checks fan out; reports land in pre-indexed slots preserving the
  // serial (filtered) region order.
  std::vector<std::size_t> picked;
  for (std::size_t i = 0; i < regions.size(); ++i)
    if (regions[i] != nullptr && regions[i]->analyzable) picked.push_back(i);
  r.claims.resize(picked.size());
  auto check_region = [&](std::size_t k) {
    // Cancelled mid-oracle: leave this region's ClaimReport empty rather
    // than half-examined (cancelled() only — tasks never fire the token).
    if (cancel != nullptr && cancel->cancelled()) return;
    r.claims[k] =
        check_parallel_claims(prog, *regions[picked[k]], downgrade, pool);
  };
  if (pool != nullptr) {
    pool->parallel_for(picked.size(), check_region);
  } else {
    for (std::size_t k = 0; k < picked.size(); ++k) check_region(k);
  }
  if (obs != nullptr && obs->enabled()) {
    obs->add("oracle.regions_checked", static_cast<i64>(picked.size()));
    ClaimReport total;
    for (const auto& c : r.claims) add_counts(total, c);
    obs->add("oracle.parallel_levels_checked",
             static_cast<i64>(total.parallel_levels));
    obs->add("verify.cap_hits", static_cast<i64>(total.capped_pieces));
    obs->add("oracle.instances", static_cast<i64>(total.instances_checked));
    obs->add("oracle.enum_pieces", static_cast<i64>(total.enum_pieces));
    obs->add("oracle.exact_pieces", static_cast<i64>(total.exact_pieces));
    obs->add("oracle.lp_fallbacks", static_cast<i64>(total.lp_fallbacks));
  }
  return r;
}

}  // namespace pp::verify
