// Candidate enumeration core of Procedure 5.1: every integral Pi with
// sum |pi_i| mu_i == f, in deterministic lexicographic order (coordinate 0
// outermost; magnitude 0 first, then +a before -a).
//
// The visitor is a template parameter so the per-candidate dispatch
// inlines into the search's hot loop; the std::function overload in
// procedure51.hpp (enumerate_schedules_at) delegates here and visits the
// exact same sequence.  The search and the public overload must agree
// candidate-for-candidate -- the bit-identical statistics
// (candidates_tested / candidates_passed_dependence) of the context and
// seed paths depend on it.
#pragma once

#include <cstddef>

#include "exact/checked.hpp"
#include "linalg/types.hpp"
#include "model/index_set.hpp"

namespace sysmap::search {

namespace detail {

template <typename Visit>
bool enumerate_rec(const model::IndexSet& set, Int remaining, std::size_t i,
                   VecI& pi, Visit& visit) {
  const std::size_t n = set.dimension();
  if (i == n) {
    if (remaining != 0) return true;
    return visit(static_cast<const VecI&>(pi));
  }
  const Int mu = set.mu(i);
  if (mu <= 0) {
    // IndexSet enforces mu_i >= 1, so this is unreachable through the
    // public API; guard the division anyway and pin the weightless
    // coordinate to 0 (any other value would enumerate forever).
    pi[i] = 0;
    return enumerate_rec(set, remaining, i + 1, pi, visit);
  }
  const Int max_abs = remaining / mu;
  if (i + 1 == n) {
    // Last coordinate: the only magnitude landing exactly on f is
    // remaining / mu, and only when the division is exact -- compute it
    // directly instead of scanning every a and skipping the mismatches.
    if (remaining % mu != 0) {
      pi[i] = 0;
      return true;
    }
    if (max_abs == 0) {
      pi[i] = 0;
      if (!enumerate_rec(set, 0, i + 1, pi, visit)) return false;
    } else {
      pi[i] = max_abs;
      if (!enumerate_rec(set, 0, i + 1, pi, visit)) return false;
      pi[i] = -max_abs;
      if (!enumerate_rec(set, 0, i + 1, pi, visit)) return false;
    }
    pi[i] = 0;
    return true;
  }
  // Tail feasibility: the remaining weight must be expressible by later
  // coordinates; with arbitrary magnitudes any nonnegative remainder works
  // as long as some later coordinate exists.
  for (Int a = 0; a <= max_abs; ++a) {
    Int rest = remaining - a * mu;
    if (a == 0) {
      pi[i] = 0;
      if (!enumerate_rec(set, rest, i + 1, pi, visit)) return false;
    } else {
      pi[i] = a;
      if (!enumerate_rec(set, rest, i + 1, pi, visit)) return false;
      pi[i] = -a;
      if (!enumerate_rec(set, rest, i + 1, pi, visit)) return false;
    }
  }
  pi[i] = 0;
  return true;
}

}  // namespace detail

/// Level-occupancy filter for the sweep: every reachable objective
/// f = sum |pi_i| mu_i is a nonnegative integer combination of the mu_i,
/// hence a multiple of g = gcd_i mu_i -- so levels with f % g != 0 are
/// provably empty and the sweep skips them without walking the
/// enumeration tree.  Sparse index sets make most levels empty (a cube
/// with mu = 16 populates only every 16th level) and the fruitless tree
/// walks otherwise rival the live levels' cost.  The filter is necessary
/// but not sufficient in general (a coin-problem DP would be exact); for
/// the cube-shaped and divisor-chain sets of the gallery it is exact, and
/// it costs one gcd per search instead of a table.  Skipping provably
/// empty levels is unobservable in results and statistics.  Returns 1
/// when no filtering is possible.
inline Int objective_level_stride(const model::IndexSet& set) {
  Int g = 0;
  for (std::size_t i = 0; i < set.dimension(); ++i) {
    // mu <= 0 coordinates are pinned to 0 by enumerate_rec: no contribution.
    if (set.mu(i) > 0) g = exact::gcd_i64(g, set.mu(i));
  }
  return g > 0 ? g : 1;
}

/// Statically-dispatched enumeration of the objective level f; `visit`
/// returns false to abort the scan (mirrored in the return value).
template <typename Visit>
bool for_each_schedule_at(const model::IndexSet& set, Int f, Visit&& visit) {
  if (f < 0) return true;
  VecI pi(set.dimension(), 0);
  return detail::enumerate_rec(set, f, 0, pi, visit);
}

}  // namespace sysmap::search
