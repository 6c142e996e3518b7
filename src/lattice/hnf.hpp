// Column-style Hermite normal form with unimodular multiplier.
//
// Theorem 4.1 of the paper: for T in Z^{k x n} with rank(T) = k there is a
// unimodular U with T * U = H = [L, 0], L lower triangular and nonsingular.
// Everything in Section 4 hinges on U: the conflict vectors of T are exactly
// the primitive integral combinations of the last n-k columns of U
// (Theorem 4.2), and V = U^{-1} carries the necessary condition of
// Theorem 4.3.  This module computes H, U and V simultaneously and exactly
// (BigInt entries; intermediate growth is why bignum is non-negotiable --
// see DESIGN.md substitution table).
#pragma once

#include "linalg/types.hpp"

namespace sysmap::lattice {

/// Result of the decomposition T * U = H, with V = U^{-1}, over any exact
/// scalar (BigInt, or CheckedInt on the machine-word fast path).
template <typename T>
struct BasicHnfResult {
  linalg::Matrix<T> h;  ///< k x n, [L, 0], L lower triangular, pos. diagonal
  linalg::Matrix<T> u;  ///< n x n unimodular multiplier
  linalg::Matrix<T> v;  ///< n x n, inverse of u (also unimodular)
};

using HnfResult = BasicHnfResult<exact::BigInt>;

/// Computes the column HNF of a full-row-rank matrix by extended-gcd column
/// elimination, reducing the columns left of each pivot modulo the pivot to
/// curb entry growth.  Throws std::domain_error when rank(T) < rows(T).
HnfResult hermite_normal_form(const MatZ& t);

/// Convenience overload for machine-integer matrices.  This entry point
/// carries the machine-word fast path: the reduction first runs over
/// CheckedInt and transparently restarts over BigInt if any intermediate
/// overflows int64 (see exact/fastpath.hpp).
HnfResult hermite_normal_form(const MatI& t);

/// True when m is square, integral and |det m| == 1.
bool is_unimodular(const MatZ& m);

}  // namespace sysmap::lattice
