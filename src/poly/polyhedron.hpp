// Rational polyhedra over integer points. A Polyhedron is a conjunction of
// affine constraints over a fixed-dimension space; polyprof's folding stage
// produces bounded polyhedra describing iteration domains, and the
// scheduler asks LP questions about (products of) them.
//
// Integer questions (membership, point counting/enumeration) are exact for
// bounded polyhedra via LP-guided recursive enumeration. Rational questions
// (emptiness, min/max of an affine form) are exact LPs, answered in closed
// form for the two shapes folding emits almost exclusively and by the
// exact simplex otherwise:
//  1. separable systems (every row has at most one nonzero coefficient:
//     boxes, pinned variables, constant rows) are solved per variable;
//  2. bounded 2-D systems (both variables boxed by single-variable rows)
//     are solved by walking the vertices;
//  3. everything else goes to lp_minimize, through an LpMemo when the
//     caller passes one.
// The status and value are the simplex's by construction: an LP over a
// box separates by variable, and a bounded 2-D LP attains its optimum at
// a vertex.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "poly/affine.hpp"
#include "poly/simplex.hpp"

namespace pp::poly {

/// Result of optimizing an affine form over a polyhedron.
struct BoundResult {
  LpStatus status = LpStatus::kInfeasible;
  Rat value;  ///< valid when status == kOptimal
  bool closed_form = false;  ///< answered without the simplex
  bool memo_hit = false;     ///< simplex tier answered from an LpMemo
  u64 pivots = 0;            ///< simplex pivots actually run for it
};

/// Exact answers of the simplex tier, for callers that ask the same LP
/// many times. The key is the whole integer system (every row's
/// coefficients, constant and equality flag) plus the objective's linear
/// coefficients; the objective's constant stays out because minimize()
/// adds it back, and maximize() is minimize(-objective), so a zero
/// objective shares one entry between both. Keys are compared in full —
/// the hash only picks the bucket — so a recalled answer is the answer
/// lp_minimize would give. Not thread-safe: one memo per task.
class LpMemo {
 public:
  std::size_t size() const { return answers_.size(); }

 private:
  friend class Polyhedron;
  struct Answer {
    LpStatus status;
    Rat value;
  };
  struct KeyHash {
    std::size_t operator()(const std::vector<i64>& key) const;
  };
  std::unordered_map<std::vector<i64>, Answer, KeyHash> answers_;
};

class Polyhedron {
 public:
  Polyhedron() = default;
  explicit Polyhedron(std::size_t dim) : dim_(dim) {}

  /// The unconstrained space Z^dim.
  static Polyhedron universe(std::size_t dim) { return Polyhedron(dim); }

  /// Axis-aligned box {x : lo_i <= x_i <= hi_i}.
  static Polyhedron box(const std::vector<std::pair<i64, i64>>& bounds);

  std::size_t dim() const { return dim_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  std::size_t num_constraints() const { return constraints_.size(); }

  void add(Constraint c);
  /// expr >= 0
  void add_ge0(AffineExpr e) { add(Constraint::ge0(std::move(e))); }
  /// expr == 0
  void add_eq0(AffineExpr e) { add(Constraint::eq0(std::move(e))); }
  /// lo <= x_i <= hi
  void bound_var(std::size_t i, i64 lo, i64 hi);

  bool contains(std::span<const i64> point) const;

  /// Rational emptiness (sound for integer emptiness one way: rationally
  /// empty => integer empty).
  bool is_rational_empty() const;

  /// Exact integer emptiness for bounded polyhedra: falls back to lattice
  /// enumeration when a rational point exists but may not be integral.
  bool is_integer_empty(u64 enumeration_cap = 1u << 20) const;

  /// Minimize / maximize an affine form over the rational relaxation.
  /// `memo` (optional) recalls and records the simplex tier's answers.
  BoundResult minimize(const AffineExpr& objective,
                       LpMemo* memo = nullptr) const;
  BoundResult maximize(const AffineExpr& objective,
                       LpMemo* memo = nullptr) const;

  /// Integer bounds of variable i: [ceil(rational min), floor(rational
  /// max)]; nullopt when the polyhedron is empty or the variable unbounded.
  std::optional<std::pair<i128, i128>> var_bounds(std::size_t i) const;

  /// Lexicographically smallest integer point (dimension 0 most
  /// significant); nullopt when integer-empty or unbounded towards
  /// lexicographic minus infinity.
  std::optional<std::vector<i64>> lexmin() const;

  /// All integer points, in lexicographic order; nullopt when unbounded or
  /// more than `cap` points.
  std::optional<std::vector<std::vector<i64>>> enumerate(
      u64 cap = 1u << 20) const;

  /// The same points row by row, without materializing them: calls
  /// `row(prefix, lo, hi)` once per innermost run, in lexicographic order,
  /// for the points prefix ++ (v) with lo <= v <= hi (prefix has dim() - 1
  /// entries; runs are never empty). Returns false, possibly after some
  /// calls, when unbounded or above `cap` points; check count_points()
  /// first to walk only bounded, capped polyhedra. Requires dim() >= 1.
  using RowFn = std::function<void(std::span<const i64>, i64, i64)>;
  bool for_each_row(u64 cap, const RowFn& row) const;

  /// Number of integer points; nullopt when unbounded or above `cap`.
  std::optional<u64> count_points(u64 cap = 1u << 20) const;

  /// Conjunction of both constraint systems (dimensions must match).
  Polyhedron intersect(const Polyhedron& other) const;

  /// Remove constraints implied by the others (rational redundancy test).
  void remove_redundant();

  /// Rational Fourier–Motzkin elimination of variable `i`; the result is a
  /// (possibly over-approximate, w.r.t. the integer shadow) projection.
  Polyhedron project_out(std::size_t i) const;

  std::string str(std::span<const std::string> names = {}) const;

 private:
  std::vector<LpConstraint> lp_constraints() const;
  /// Minimum of the linear part of `objective` (constant term ignored).
  BoundResult solve(const AffineExpr& objective, LpMemo* memo) const;
  void enumerate_rec(std::vector<i64>& prefix, u64 cap, u64& count,
                     const RowFn* row, bool& overflow) const;

  std::size_t dim_ = 0;
  std::vector<Constraint> constraints_;
};

}  // namespace pp::poly
