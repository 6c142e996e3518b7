// Templated column-HNF implementation shared by the BigInt substrate and
// the CheckedInt machine-word fast path.
//
// Both scalars expose the same observer/arithmetic interface (is_zero, abs,
// static gcd/div_mod/floor_div, trapping or exact operators), so a single
// template body guarantees the two instantiations perform bit-identical
// elimination sequences -- the fast path can never change a verdict, only
// the wall-clock.  CheckedInt overflow surfaces as exact::OverflowError and
// is handled by the dispatchers in hnf.cpp / the verdict pipeline.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <utility>

#include "lattice/hnf.hpp"
#include "linalg/matrix.hpp"

namespace sysmap::lattice::detail {

// Tracks the triple (H, U, V) under elementary unimodular column operations
// on H and U; V = U^{-1} is maintained by the corresponding inverse row
// operations.
template <typename T>
class ColumnOps {
 public:
  using Mat = linalg::Matrix<T>;

  ColumnOps(Mat h, std::size_t n)
      : h_(std::move(h)), u_(Mat::identity(n)), v_(Mat::identity(n)) {}

  /// Resumes from a previously saved (H, U, V) state (warm start).
  ColumnOps(Mat h, Mat u, Mat v)
      : h_(std::move(h)), u_(std::move(u)), v_(std::move(v)) {}

  Mat& h() { return h_; }
  const Mat& h() const { return h_; }

  // col_a <-> col_b
  void swap(std::size_t a, std::size_t b) {
    if (a == b) return;
    h_.swap_columns(a, b);
    u_.swap_columns(a, b);
    v_.swap_rows(a, b);
  }

  // col_j += q * col_i  (inverse on V: row_i -= q * row_j)
  void add_multiple(std::size_t j, const T& q, std::size_t i) {
    if (q.is_zero()) return;
    for (std::size_t r = 0; r < h_.rows(); ++r) {
      h_(r, j) += q * h_(r, i);
    }
    for (std::size_t r = 0; r < u_.rows(); ++r) {
      u_(r, j) += q * u_(r, i);
    }
    for (std::size_t c = 0; c < v_.cols(); ++c) {
      v_(i, c) -= q * v_(j, c);
    }
  }

  // col_a = -col_a  (inverse on V: row_a = -row_a)
  void negate(std::size_t a) {
    for (std::size_t r = 0; r < h_.rows(); ++r) h_(r, a) = -h_(r, a);
    for (std::size_t r = 0; r < u_.rows(); ++r) u_(r, a) = -u_(r, a);
    for (std::size_t c = 0; c < v_.cols(); ++c) v_(a, c) = -v_(a, c);
  }

  // General 2x2 unimodular transform on columns (a, b):
  //   [col_a, col_b] <- [col_a, col_b] * [[x, p], [y, q]]
  // with determinant x*q - y*p required to be +-1 by the caller.
  // Inverse on V rows (for det = +1):
  //   [row_a; row_b] <- [[q, -p], [-y, x]] * [row_a; row_b]
  void transform2(std::size_t a, std::size_t b, const T& x, const T& y,
                  const T& p, const T& q) {
    for (std::size_t r = 0; r < h_.rows(); ++r) {
      T ha = h_(r, a), hb = h_(r, b);
      h_(r, a) = ha * x + hb * y;
      h_(r, b) = ha * p + hb * q;
    }
    for (std::size_t r = 0; r < u_.rows(); ++r) {
      T ua = u_(r, a), ub = u_(r, b);
      u_(r, a) = ua * x + ub * y;
      u_(r, b) = ua * p + ub * q;
    }
    for (std::size_t c = 0; c < v_.cols(); ++c) {
      T va = v_(a, c), vb = v_(b, c);
      v_(a, c) = q * va - p * vb;
      v_(b, c) = x * vb - y * va;
    }
  }

  BasicHnfResult<T> take() && {
    return {std::move(h_), std::move(u_), std::move(v_)};
  }

 private:
  Mat h_;
  Mat u_;
  Mat v_;
};

// Extended gcd: g = x*a + y*b, g >= 0.
template <typename T>
struct XGcdT {
  T g, x, y;
};

template <typename T>
XGcdT<T> xgcd(const T& a, const T& b) {
  T r0 = a, r1 = b;
  T x0(1), x1(0), y0(0), y1(1);
  while (!r1.is_zero()) {
    T q, r2;
    T::div_mod(r0, r1, q, r2);
    T x2 = x0 - q * x1;
    T y2 = y0 - q * y1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    x0 = std::move(x1);
    x1 = std::move(x2);
    y0 = std::move(y1);
    y1 = std::move(y2);
  }
  if (r0.is_negative()) {
    r0 = -r0;
    x0 = -x0;
    y0 = -y0;
  }
  return {std::move(r0), std::move(x0), std::move(y0)};
}

template <typename T>
void eliminate_row_xgcd(ColumnOps<T>& ops, std::size_t row, std::size_t pivot,
                        std::size_t n) {
  for (std::size_t j = pivot + 1; j < n; ++j) {
    const T& a = ops.h()(row, pivot);
    const T& b = ops.h()(row, j);
    if (b.is_zero()) continue;
    if (a.is_zero()) {
      ops.swap(pivot, j);
      continue;
    }
    XGcdT<T> e = xgcd(a, b);
    // [col_pivot, col_j] * [[x, -b/g], [y, a/g]]; det = (x*a + y*b)/g = 1.
    ops.transform2(pivot, j, e.x, e.y, -(b / e.g), a / e.g);
  }
}

// One full HNF step for row i: eliminate to the right of the pivot, enforce
// a positive pivot, and reduce the columns left of it.  The
// chosen column operations depend ONLY on row i of H, which is what makes
// the fixed-prefix warm start below bit-identical to a from-scratch run.
template <typename T>
void hnf_process_row(ColumnOps<T>& ops, std::size_t i, std::size_t n) {
  eliminate_row_xgcd(ops, i, i, n);
  if (ops.h()(i, i).is_zero()) {
    throw std::domain_error("hnf: matrix does not have full row rank");
  }
  if (ops.h()(i, i).is_negative()) ops.negate(i);
  // Reduce columns left of the pivot modulo the pivot column.  Column i is
  // zero above row i, so this cannot disturb already-triangular rows.
  for (std::size_t j = 0; j < i; ++j) {
    T q = T::floor_div(ops.h()(i, j), ops.h()(i, i));
    ops.add_multiple(j, -q, i);
  }
}

template <typename T>
BasicHnfResult<T> hermite_normal_form_t(const linalg::Matrix<T>& t) {
  const std::size_t k = t.rows();
  const std::size_t n = t.cols();
  if (k > n) {
    throw std::domain_error(
        "hnf: more rows than columns cannot be full row rank [L, 0]");
  }
  ColumnOps<T> ops(t, n);
  for (std::size_t i = 0; i < k; ++i) hnf_process_row(ops, i, n);
  return std::move(ops).take();
}

// -- fixed-prefix warm start -------------------------------------------------
//
// The HNF of T = [S; pi] shares all reduction work for rows of S with the
// HNF of S itself: the column operations chosen while eliminating row i
// depend only on row i of the working matrix, and rows of S never see pi.
// hermite_prefix_t eliminates the rows of S once; hermite_extend_row_t
// replays the accumulated multiplier onto a candidate last row and performs
// only the final elimination step.  The (h, u, v) triple it returns is
// bit-identical to hermite_normal_form_t on the stacked matrix (asserted in
// tests/fixed_space_test.cpp).

/// Saved elimination state after processing every row of a fixed prefix.
template <typename T>
struct HnfPrefix {
  linalg::Matrix<T> h;  ///< rows(s) x n, the eliminated prefix s * u
  linalg::Matrix<T> u;  ///< n x n accumulated unimodular multiplier
  linalg::Matrix<T> v;  ///< n x n, inverse of u
};

/// Eliminates every row of s (throws std::domain_error when s does not have
/// full row rank).  s may have zero rows.
template <typename T>
HnfPrefix<T> hermite_prefix_t(const linalg::Matrix<T>& s) {
  const std::size_t rows = s.rows();
  const std::size_t n = s.cols();
  if (rows >= n) {
    throw std::domain_error("hnf prefix: need at least one free row below");
  }
  ColumnOps<T> ops(s, n);
  for (std::size_t i = 0; i < rows; ++i) hnf_process_row(ops, i, n);
  BasicHnfResult<T> r = std::move(ops).take();
  return {std::move(r.h), std::move(r.u), std::move(r.v)};
}

/// Completes the HNF of [prefix rows; last] from the saved state: transforms
/// `last` by the accumulated multiplier and eliminates the one new row.
template <typename T>
BasicHnfResult<T> hermite_extend_row_t(const HnfPrefix<T>& prefix,
                                       const linalg::Vector<T>& last) {
  const std::size_t rows = prefix.h.rows();
  const std::size_t n = prefix.h.cols();
  if (last.size() != n) {
    throw std::invalid_argument("hnf extend: row width mismatch");
  }
  linalg::Matrix<T> h(rows + 1, n);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < n; ++j) h(i, j) = prefix.h(i, j);
  }
  for (std::size_t j = 0; j < n; ++j) {
    T sum(0);
    for (std::size_t r = 0; r < n; ++r) sum += last[r] * prefix.u(r, j);
    h(rows, j) = std::move(sum);
  }
  ColumnOps<T> ops(std::move(h), prefix.u, prefix.v);
  hnf_process_row(ops, rows, n);
  return std::move(ops).take();
}

}  // namespace sysmap::lattice::detail
