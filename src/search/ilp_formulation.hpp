// Integer-programming formulations of Problem 2.2 (Section 5).
//
// For T in Z^{(n-1) x n} the unique conflict vector is linear in Pi when S
// is fixed (Proposition 3.2): gamma(Pi) = F Pi with F an integer matrix
// computed from minors of S.  The disjunctive conflict-freedom constraint
// "exists i: |F_i Pi| >= mu_i + 1" splits the ILP (5.1)-(5.2) into 2n
// convex branches, each solved exactly.
//
// The appendix's caveat applies: the branch optimum's conflict vector can
// have a non-unit gcd (e.g. Pi = [1, mu, 1] for odd mu in Example 5.1), in
// which case the scaled-down conflict vector may be non-feasible.  Every
// branch candidate is therefore *verified* with the exact conflict oracle;
// solve_k_equals_n_minus_1 returns the best verified candidate plus the
// unverified LP lower bound so callers (core::Mapper) can certify global
// optimality with a bounded Procedure-5.1 sweep.
//
// The branch ILPs run on exact rationals, first on machine words
// (exact::CheckedRational); if any step of the route overflows int64 the
// whole call restarts over BigInt Rational (exact::with_fallback), so the
// answer is always the Rational one.
#pragma once

#include <optional>
#include <vector>

#include "model/algorithm.hpp"
#include "opt/ilp.hpp"

namespace sysmap::search {

/// gamma(Pi) = F Pi for T = [S; Pi] in Z^{(n-1) x n}: F(i, c) is the signed
/// minor of S with columns i and c removed (0 on the diagonal).
/// Requires S in Z^{(n-2) x n}.
MatZ conflict_coefficients(const MatI& space);

/// How Pi sign patterns are handled when linearizing |pi_i|.
enum class SignMode {
  kPositive,  ///< constrain pi_i >= 1 (valid when Pi D > 0 forces it)
  kOrthants,  ///< enumerate all 2^n sign orthants (general)
};

struct IlpMappingResult {
  bool found = false;
  VecI pi;              ///< best verified schedule
  Int objective = 0;    ///< its f value
  /// Smallest branch ILP optimum (valid lower bound on Problem 2.2 for this
  /// S even when the candidate achieving it failed verification); 0 when a
  /// branch stopped at its node limit, since that branch may hold less.
  Int lower_bound = 0;
  /// Candidates that solved a branch but failed the gcd/conflict check.
  std::vector<VecI> rejected;
  std::uint64_t ilp_nodes = 0;
};

/// Solves formulation (5.1)-(5.2) for k = n-1 by branch splitting +
/// exact ILP + verification.
IlpMappingResult solve_k_equals_n_minus_1(
    const model::UniformDependenceAlgorithm& algo, const MatI& space,
    SignMode sign_mode = SignMode::kPositive);

/// Builds one branch ILP: minimize sum mu_i |pi_i| subject to Pi D >= 1,
/// sign handling per mode, and the chosen disjunct
/// (side = +1: F_row Pi >= mu_row + 1; side = -1: -F_row Pi >= mu_row + 1).
/// Exposed for tests and the extreme-point reproduction of the appendix.
opt::LinearProgram build_branch(const model::UniformDependenceAlgorithm& algo,
                                const MatZ& f_coeffs, std::size_t row,
                                int side);

}  // namespace sysmap::search
