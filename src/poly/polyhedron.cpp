#include "poly/polyhedron.hpp"

#include <optional>
#include <sstream>

namespace pp::poly {

Polyhedron Polyhedron::box(const std::vector<std::pair<i64, i64>>& bounds) {
  Polyhedron p(bounds.size());
  for (std::size_t i = 0; i < bounds.size(); ++i)
    p.bound_var(i, bounds[i].first, bounds[i].second);
  return p;
}

void Polyhedron::add(Constraint c) {
  PP_CHECK(c.expr.dim() == dim_, "constraint dimension mismatch");
  constraints_.push_back(std::move(c));
}

void Polyhedron::bound_var(std::size_t i, i64 lo, i64 hi) {
  add_ge0(AffineExpr::var(dim_, i) - lo);           // x_i - lo >= 0
  add_ge0(-(AffineExpr::var(dim_, i)) + hi);        // hi - x_i >= 0
}

bool Polyhedron::contains(std::span<const i64> point) const {
  for (const auto& c : constraints_)
    if (!c.holds(point)) return false;
  return true;
}

std::vector<LpConstraint> Polyhedron::lp_constraints() const {
  std::vector<LpConstraint> out;
  out.reserve(constraints_.size());
  for (const auto& c : constraints_) {
    // expr >= 0  <=>  coeffs·x >= -const
    out.push_back({c.expr.as_rat_vec(), Rat(-c.expr.const_term()),
                   c.equality});
  }
  return out;
}

namespace {

BoundResult closed(LpStatus status, Rat value = Rat(0)) {
  return {status, value, true};
}

// Bounded 2-D LP: the optimum sits on a vertex, and every vertex is the
// intersection of two independent rows. Candidates are kept exactly as
// (X, Y) / det with det > 0, so a row a·x + k >= 0 holds at a candidate iff
// a0·X + a1·Y + k·det >= 0. Checked i128 arithmetic throws on overflow.
BoundResult vertex_walk_min(const std::vector<Constraint>& cs,
                            const AffineExpr& obj) {
  std::optional<Rat> best;
  for (std::size_t r = 0; r < cs.size(); ++r) {
    const AffineExpr& er = cs[r].expr;
    for (std::size_t s = r + 1; s < cs.size(); ++s) {
      const AffineExpr& es = cs[s].expr;
      i128 det = sub_checked(mul_checked(er.coeff(0), es.coeff(1)),
                             mul_checked(er.coeff(1), es.coeff(0)));
      if (det == 0) continue;
      // Cramer's rule on a_r·x = -k_r, a_s·x = -k_s.
      i128 x = sub_checked(mul_checked(es.const_term(), er.coeff(1)),
                           mul_checked(er.const_term(), es.coeff(1)));
      i128 y = sub_checked(mul_checked(er.const_term(), es.coeff(0)),
                           mul_checked(es.const_term(), er.coeff(0)));
      if (det < 0) {
        det = -det;
        x = -x;
        y = -y;
      }
      bool feasible = true;
      for (const auto& c : cs) {
        i128 v = add_checked(
            add_checked(mul_checked(c.expr.coeff(0), x),
                        mul_checked(c.expr.coeff(1), y)),
            mul_checked(c.expr.const_term(), det));
        if (c.equality ? v != 0 : v < 0) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      Rat value(add_checked(mul_checked(obj.coeff(0), x),
                            mul_checked(obj.coeff(1), y)),
                det);
      if (!best || value < *best) best = value;
    }
  }
  return best ? closed(LpStatus::kOptimal, *best)
              : closed(LpStatus::kInfeasible);
}

// The closed-form tiers; nullopt hands the LP to the simplex.
std::optional<BoundResult> closed_form_min(std::size_t dim,
                                           const std::vector<Constraint>& cs,
                                           const AffineExpr& obj) {
  // Bounds each variable gets from the rows that mention only it.
  std::vector<std::optional<Rat>> lo(dim), hi(dim);
  bool separable = true;
  for (const auto& c : cs) {
    std::size_t var = dim, nonzeros = 0;
    for (std::size_t j = 0; j < dim; ++j) {
      if (c.expr.coeff(j) != 0) {
        var = j;
        ++nonzeros;
      }
    }
    if (nonzeros > 1) {
      separable = false;
      continue;
    }
    i64 k = c.expr.const_term();
    if (nonzeros == 0) {
      // A violated constant row empties the whole system.
      if (c.equality ? k != 0 : k < 0) return closed(LpStatus::kInfeasible);
      continue;
    }
    // a·x + k >= 0 (== 0)  <=>  x >= -k/a for a > 0, x <= -k/a for a < 0.
    i64 a = c.expr.coeff(var);
    Rat bound(-static_cast<i128>(k), a);
    if ((c.equality || a > 0) && (!lo[var] || bound > *lo[var]))
      lo[var] = bound;
    if ((c.equality || a < 0) && (!hi[var] || bound < *hi[var]))
      hi[var] = bound;
  }
  // Contradictory single-variable rows empty the whole system too.
  for (std::size_t j = 0; j < dim; ++j)
    if (lo[j] && hi[j] && *lo[j] > *hi[j]) return closed(LpStatus::kInfeasible);
  if (separable) {
    // Feasible box: each variable sits at the bound its coefficient
    // pushes it to; a missing bound there makes the objective unbounded.
    Rat value(0);
    for (std::size_t j = 0; j < dim; ++j) {
      i64 o = obj.coeff(j);
      if (o == 0) continue;
      const std::optional<Rat>& at = o > 0 ? lo[j] : hi[j];
      if (!at) return closed(LpStatus::kUnbounded);
      value += Rat(o) * *at;
    }
    return closed(LpStatus::kOptimal, value);
  }
  if (dim == 2 && lo[0] && hi[0] && lo[1] && hi[1])
    return vertex_walk_min(cs, obj);
  return std::nullopt;
}

// The LpMemo key of minimizing the linear part of `obj` over `cs`: the
// dimension, then per row its coefficients, constant and equality flag,
// then the objective's coefficients.
std::vector<i64> memo_key(std::size_t dim, const std::vector<Constraint>& cs,
                          const AffineExpr& obj) {
  std::vector<i64> key;
  key.reserve(1 + cs.size() * (dim + 2) + dim);
  key.push_back(static_cast<i64>(dim));
  for (const auto& c : cs) {
    key.insert(key.end(), c.expr.coeffs().begin(), c.expr.coeffs().end());
    key.push_back(c.expr.const_term());
    key.push_back(c.equality ? 1 : 0);
  }
  key.insert(key.end(), obj.coeffs().begin(), obj.coeffs().end());
  return key;
}

}  // namespace

std::size_t LpMemo::KeyHash::operator()(const std::vector<i64>& key) const {
  u64 h = 14695981039346656037ull;  // FNV-1a over the words
  for (i64 w : key) {
    h ^= static_cast<u64>(w);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

BoundResult Polyhedron::solve(const AffineExpr& objective,
                              LpMemo* memo) const {
  try {
    if (std::optional<BoundResult> b =
            closed_form_min(dim_, constraints_, objective))
      return *b;
  } catch (const Error&) {
    // An intermediate overflowed i128: leave the problem to the simplex.
  }
  std::vector<i64> key;
  if (memo != nullptr) {
    key = memo_key(dim_, constraints_, objective);
    auto it = memo->answers_.find(key);
    if (it != memo->answers_.end())
      return {it->second.status, it->second.value, false, true, 0};
  }
  LpResult r = lp_minimize(dim_, lp_constraints(), objective.as_rat_vec());
  if (memo != nullptr)
    memo->answers_.emplace(std::move(key),
                           LpMemo::Answer{r.status, r.objective});
  return {r.status, r.objective, false, false, r.pivots};
}

bool Polyhedron::is_rational_empty() const {
  return solve(AffineExpr(dim_), nullptr).status == LpStatus::kInfeasible;
}

bool Polyhedron::is_integer_empty(u64 enumeration_cap) const {
  if (is_rational_empty()) return true;
  std::optional<u64> n = count_points(enumeration_cap);
  // Unbounded or too large: a rational point in a full-dimensional large
  // region virtually always witnesses an integer point; be conservative
  // and report non-empty.
  if (!n) return false;
  return *n == 0;
}

BoundResult Polyhedron::minimize(const AffineExpr& objective,
                                 LpMemo* memo) const {
  PP_CHECK(objective.dim() == dim_, "objective dimension mismatch");
  BoundResult b = solve(objective, memo);
  if (b.status == LpStatus::kOptimal)
    b.value += Rat(objective.const_term());
  return b;
}

BoundResult Polyhedron::maximize(const AffineExpr& objective,
                                 LpMemo* memo) const {
  BoundResult b = minimize(-objective, memo);
  if (b.status == LpStatus::kOptimal) b.value = -b.value;
  return b;
}

std::optional<std::pair<i128, i128>> Polyhedron::var_bounds(
    std::size_t i) const {
  BoundResult lo = minimize(AffineExpr::var(dim_, i));
  BoundResult hi = maximize(AffineExpr::var(dim_, i));
  if (lo.status != LpStatus::kOptimal || hi.status != LpStatus::kOptimal)
    return std::nullopt;
  return std::make_pair(lo.value.ceil(), hi.value.floor());
}

void Polyhedron::enumerate_rec(std::vector<i64>& prefix, u64 cap, u64& count,
                               const RowFn* row, bool& overflow) const {
  if (overflow) return;
  std::size_t k = prefix.size();
  // Bounds of dimension k given the fixed prefix. Fast path: constraints
  // whose only unfixed variable is x_k yield direct bounds (exact for the
  // box/octagon templates folding emits, where inner dimensions are bounded
  // by outer ones). Missing direction falls back to an LP on the prefix-
  // restricted polyhedron. Loose direct bounds are harmless for
  // correctness: deeper levels re-check every constraint.
  bool have_lo = false, have_hi = false;
  i128 from = 0, to = 0;
  for (const auto& c : constraints_) {
    i64 ck = c.expr.coeff(k);
    bool only_k = true;
    for (std::size_t j = k + 1; j < dim_ && only_k; ++j)
      if (c.expr.coeff(j) != 0) only_k = false;
    if (!only_k) continue;
    // Residual value of the constraint with prefix substituted, minus the
    // x_k term: r + ck*x_k >= 0 (or == 0).
    i128 r = c.expr.const_term();
    for (std::size_t j = 0; j < k; ++j)
      r = add_checked(r, mul_checked(c.expr.coeff(j), prefix[j]));
    if (ck == 0) {
      bool sat = c.equality ? (r == 0) : (r >= 0);
      if (!sat) return;  // prefix already infeasible
      continue;
    }
    auto tighten_lo = [&](i128 v) {
      if (!have_lo || v > from) from = v;
      have_lo = true;
    };
    auto tighten_hi = [&](i128 v) {
      if (!have_hi || v < to) to = v;
      have_hi = true;
    };
    if (c.equality) {
      // ck*x_k == -r: empty range when -r is not divisible by ck.
      tighten_lo(ceil_div(-r, ck));
      tighten_hi(floor_div(-r, ck));
    } else if (ck > 0) {
      tighten_lo(ceil_div(-r, ck));  // x_k >= -r/ck
    } else {
      tighten_hi(floor_div(r, -ck));  // x_k <= r/(-ck)
    }
  }
  if (!have_lo || !have_hi) {
    Polyhedron fixed = *this;
    for (std::size_t j = 0; j < k; ++j)
      fixed.add_eq0(AffineExpr::var(dim_, j) - prefix[j]);
    if (!have_lo) {
      BoundResult lo = fixed.minimize(AffineExpr::var(dim_, k));
      if (lo.status == LpStatus::kInfeasible) return;
      if (lo.status != LpStatus::kOptimal) {
        overflow = true;  // unbounded direction
        return;
      }
      from = lo.value.ceil();
    }
    if (!have_hi) {
      BoundResult hi = fixed.maximize(AffineExpr::var(dim_, k));
      if (hi.status == LpStatus::kInfeasible) return;
      if (hi.status != LpStatus::kOptimal) {
        overflow = true;
        return;
      }
      to = hi.value.floor();
    }
  }
  // Innermost level: every constraint has been folded into [from, to] (no
  // constraint can involve a deeper variable here, and with one free
  // variable the feasible set is an interval), so the whole range is one
  // run of points, counted at once.
  if (k + 1 == dim_) {
    if (to >= from) {
      i128 total = static_cast<i128>(count) + (to - from + 1);
      if (total > static_cast<i128>(cap)) {
        overflow = true;
        return;
      }
      count = static_cast<u64>(total);
      if (row != nullptr) (*row)(prefix, narrow_i64(from), narrow_i64(to));
    }
    return;
  }
  for (i128 v = from; v <= to && !overflow; ++v) {
    prefix.push_back(narrow_i64(v));
    enumerate_rec(prefix, cap, count, row, overflow);
    prefix.pop_back();
  }
}

bool Polyhedron::for_each_row(u64 cap, const RowFn& row) const {
  PP_CHECK(dim_ >= 1, "for_each_row: zero-dimensional polyhedron");
  std::vector<i64> prefix;
  prefix.reserve(dim_);
  u64 count = 0;
  bool overflow = false;
  enumerate_rec(prefix, cap, count, &row, overflow);
  return !overflow;
}

std::optional<std::vector<std::vector<i64>>> Polyhedron::enumerate(
    u64 cap) const {
  std::vector<std::vector<i64>> pts;
  if (dim_ == 0) {
    // Zero-dimensional: the single point () if consistent.
    if (!is_rational_empty()) pts.push_back({});
    return pts;
  }
  bool ok = for_each_row(cap, [&](std::span<const i64> prefix, i64 lo,
                                  i64 hi) {
    for (i64 v = lo;; ++v) {
      std::vector<i64>& p = pts.emplace_back(prefix.begin(), prefix.end());
      p.push_back(v);
      if (v == hi) break;
    }
  });
  if (!ok) return std::nullopt;
  return pts;
}

std::optional<u64> Polyhedron::count_points(u64 cap) const {
  if (dim_ == 0) return is_rational_empty() ? 0u : 1u;
  std::vector<i64> prefix;
  u64 count = 0;
  bool overflow = false;
  enumerate_rec(prefix, cap, count, nullptr, overflow);
  if (overflow) return std::nullopt;
  return count;
}

std::optional<std::vector<i64>> Polyhedron::lexmin() const {
  // Greedy dimension-by-dimension: fix each variable to the smallest
  // integer value that keeps an integer point reachable in the remaining
  // dimensions. Rational minima are lower bounds; scan upward from them
  // (the scan is short for the near-integral polyhedra folding produces,
  // and bounded by the variable's upper bound).
  std::vector<i64> point;
  Polyhedron cur = *this;
  for (std::size_t d = 0; d < dim_; ++d) {
    BoundResult lo = cur.minimize(AffineExpr::var(dim_, d));
    if (lo.status == LpStatus::kInfeasible) return std::nullopt;
    if (lo.status != LpStatus::kOptimal) return std::nullopt;  // unbounded
    BoundResult hi = cur.maximize(AffineExpr::var(dim_, d));
    if (hi.status != LpStatus::kOptimal) return std::nullopt;
    bool fixed = false;
    for (i128 v = lo.value.ceil(); v <= hi.value.floor(); ++v) {
      Polyhedron trial = cur;
      trial.add_eq0(AffineExpr::var(dim_, d) - narrow_i64(v));
      if (!trial.is_integer_empty()) {
        point.push_back(narrow_i64(v));
        cur = std::move(trial);
        fixed = true;
        break;
      }
    }
    if (!fixed) return std::nullopt;  // no integer point at all
  }
  return point;
}

Polyhedron Polyhedron::intersect(const Polyhedron& other) const {
  PP_CHECK(dim_ == other.dim_, "intersect: dimension mismatch");
  Polyhedron p = *this;
  for (const auto& c : other.constraints_) p.add(c);
  return p;
}

void Polyhedron::remove_redundant() {
  for (std::size_t i = 0; i < constraints_.size();) {
    if (constraints_[i].equality) {
      ++i;  // keep equalities; the cheap test below only covers inequalities
      continue;
    }
    Polyhedron rest(dim_);
    for (std::size_t j = 0; j < constraints_.size(); ++j)
      if (j != i) rest.add(constraints_[j]);
    BoundResult b = rest.minimize(constraints_[i].expr);
    bool redundant = b.status == LpStatus::kOptimal && b.value >= Rat(0);
    if (redundant)
      constraints_.erase(constraints_.begin() +
                         static_cast<std::ptrdiff_t>(i));
    else
      ++i;
  }
}

Polyhedron Polyhedron::project_out(std::size_t v) const {
  PP_CHECK(v < dim_, "project_out: bad variable");
  // Split constraints by the sign of the coefficient of x_v. Equalities are
  // rewritten as two inequalities first.
  std::vector<AffineExpr> lower;  // c_v > 0 : gives lower bounds on x_v
  std::vector<AffineExpr> upper;  // c_v < 0 : gives upper bounds on x_v
  std::vector<AffineExpr> free;   // c_v == 0
  auto classify = [&](const AffineExpr& e) {
    i64 cv = e.coeff(v);
    if (cv > 0)
      lower.push_back(e);
    else if (cv < 0)
      upper.push_back(e);
    else
      free.push_back(e);
  };
  for (const auto& c : constraints_) {
    classify(c.expr);
    if (c.equality) classify(-c.expr);
  }
  // New space drops variable v.
  auto drop = [&](const AffineExpr& e) {
    std::vector<i64> coeffs;
    coeffs.reserve(dim_ - 1);
    for (std::size_t i = 0; i < dim_; ++i)
      if (i != v) coeffs.push_back(e.coeff(i));
    return AffineExpr(std::move(coeffs), e.const_term());
  };
  Polyhedron out(dim_ - 1);
  for (const auto& e : free) out.add_ge0(drop(e));
  // For l with coeff a>0 (x_v >= -l'/a) and u with coeff -b<0
  // (x_v <= u'/b): combine b·l + a·u >= 0.
  for (const auto& l : lower) {
    for (const auto& u : upper) {
      i64 a = l.coeff(v);
      i64 b = -u.coeff(v);
      AffineExpr combined = l * b + u * a;  // coefficient of x_v is zero
      out.add_ge0(drop(combined));
    }
  }
  out.remove_redundant();
  return out;
}

std::string Polyhedron::str(std::span<const std::string> names) const {
  std::ostringstream os;
  os << "{ ";
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    if (i) os << " and ";
    os << constraints_[i].str(names);
  }
  if (constraints_.empty()) os << "true";
  os << " }";
  return os.str();
}

}  // namespace pp::poly
