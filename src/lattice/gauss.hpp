// Shortest vector of a rank-2 lattice in the index-box norm.
//
// Generalized Gauss reduction (Kaib and Schnorr, "The generalized Gauss
// reduction algorithm", J. Algorithms 21, 1996) works for any norm: reduce
// b against a by the integer t minimizing ||b - t a||, swap while that
// shortens b, and stop once ||a|| <= ||b||.  The first vector of the
// resulting basis is a shortest nonzero lattice vector.  Here the norm is
// ||v|| = max_i |v_i| / mu_i, whose unit ball is the difference box of the
// index set: a lattice vector of norm <= 1 is a conflict vector.
//
// The search for k = n-2 conflicts uses this on the two-column kernel
// lattice of T = [S; Pi].  Only one direction is ever trusted: a returned
// witness is a nonzero integer combination of the two columns with
// |v_i| <= mu_i, whatever the reduction's optimality.  Arithmetic is exact
// int64 with overflow checks; overflow, an iteration cap or a shortest
// vector outside the box all return false (undecided).
#pragma once

#include "linalg/types.hpp"
#include "model/index_set.hpp"

namespace sysmap::lattice {

/// Reduces the lattice spanned by the linearly independent columns a and b
/// (n = set.dimension() entries each) in the box norm.  Returns true and
/// fills `witness` (resized to n) with a shortest vector when it satisfies
/// |witness_i| <= mu_i for every i; false otherwise, and always for
/// n > 16.
bool box_short_vector(const Int* a, const Int* b, const model::IndexSet& set,
                      VecI& witness);

}  // namespace sysmap::lattice
