// Integer affine expressions, affine maps and linear constraints — the
// vocabulary of the whole polyhedral layer. Coefficients are 64-bit
// integers (folding always produces integer affine functions); evaluation
// uses 128-bit intermediates with overflow checks.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "support/matrix.hpp"

namespace pp::poly {

/// An affine expression  c₀·x₀ + … + c_{n-1}·x_{n-1} + k  over n variables.
class AffineExpr {
 public:
  AffineExpr() = default;
  explicit AffineExpr(std::size_t dim) : coeffs_(dim, 0) {}
  AffineExpr(std::vector<i64> coeffs, i64 constant)
      : coeffs_(std::move(coeffs)), constant_(constant) {}

  /// Expression selecting variable `i` of a `dim`-dimensional space.
  static AffineExpr var(std::size_t dim, std::size_t i) {
    AffineExpr e(dim);
    e.coeffs_[i] = 1;
    return e;
  }
  /// Constant expression in a `dim`-dimensional space.
  static AffineExpr constant(std::size_t dim, i64 k) {
    AffineExpr e(dim);
    e.constant_ = k;
    return e;
  }

  std::size_t dim() const { return coeffs_.size(); }
  i64 coeff(std::size_t i) const { return coeffs_[i]; }
  const std::vector<i64>& coeffs() const { return coeffs_; }
  i64& coeff(std::size_t i) { return coeffs_[i]; }
  i64 const_term() const { return constant_; }
  i64& const_term() { return constant_; }

  bool is_constant() const {
    for (i64 c : coeffs_)
      if (c != 0) return false;
    return true;
  }

  /// Exact evaluation at an integer point.
  i128 eval(std::span<const i64> point) const;

  AffineExpr operator+(const AffineExpr& o) const;
  AffineExpr operator-(const AffineExpr& o) const;
  AffineExpr operator*(i64 s) const;
  AffineExpr operator-() const { return *this * -1; }
  AffineExpr operator+(i64 k) const;
  AffineExpr operator-(i64 k) const { return *this + (-k); }

  bool operator==(const AffineExpr& o) const {
    return coeffs_ == o.coeffs_ && constant_ == o.constant_;
  }

  /// Coefficients as rationals (with the constant appended when
  /// `with_const`), for handing to the LP solver.
  RatVec as_rat_vec(bool with_const = false) const;

  /// Human-readable rendering, e.g. "2*i - j + 3"; `names` may be empty in
  /// which case x0, x1, ... are used.
  std::string str(std::span<const std::string> names = {}) const;

 private:
  std::vector<i64> coeffs_;
  i64 constant_ = 0;
};

/// One linear condition: expr >= 0 (inequality) or expr == 0 (equality).
struct Constraint {
  AffineExpr expr;
  bool equality = false;

  static Constraint ge0(AffineExpr e) { return {std::move(e), false}; }
  static Constraint eq0(AffineExpr e) { return {std::move(e), true}; }

  bool holds(std::span<const i64> point) const {
    i128 v = expr.eval(point);
    return equality ? v == 0 : v >= 0;
  }
  std::string str(std::span<const std::string> names = {}) const {
    return expr.str(names) + (equality ? " == 0" : " >= 0");
  }
};

/// An affine map Z^n -> Z^m given by m affine expressions over n inputs.
class AffineMap {
 public:
  AffineMap() = default;
  AffineMap(std::size_t in_dim, std::vector<AffineExpr> outputs)
      : in_dim_(in_dim), outputs_(std::move(outputs)) {
    for (const auto& e : outputs_)
      PP_CHECK(e.dim() == in_dim_, "affine map output dimension mismatch");
  }

  /// The identity map on Z^n.
  static AffineMap identity(std::size_t n);

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return outputs_.size(); }
  const AffineExpr& output(std::size_t i) const { return outputs_[i]; }
  const std::vector<AffineExpr>& outputs() const { return outputs_; }

  std::vector<i128> eval(std::span<const i64> point) const;

  bool operator==(const AffineMap& o) const {
    return in_dim_ == o.in_dim_ && outputs_ == o.outputs_;
  }

  std::string str(std::span<const std::string> in_names = {}) const;

 private:
  std::size_t in_dim_ = 0;
  std::vector<AffineExpr> outputs_;
};

}  // namespace pp::poly
