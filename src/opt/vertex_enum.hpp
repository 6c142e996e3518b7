// Extreme-point enumeration for small polyhedra.
//
// The appendix of the paper solves the convex subproblems of Examples
// 5.1/5.2 by listing the extreme points of each solution set ("each extreme
// point is the solution of three of the following ... equations") and
// evaluating the objective on them.  This module reproduces that method:
// every n-subset of the constraint set is solved as an equality system and
// kept when it satisfies all constraints.  Exponential in general, exact
// and fast for the paper's n = 3..5.  Like the simplex, it runs on either
// rational scalar from one template body (opt/lp_impl.hpp).
#pragma once

#include <optional>
#include <vector>

#include "opt/simplex.hpp"

namespace sysmap::opt {

/// All vertices of {x : constraints hold} (kEq rows are always active).
/// Deduplicated, in the order the active sets are enumerated.  Intended for
/// n <= 6 and tens of constraints.  The checked overload throws
/// exact::OverflowError when an entry leaves int64.
std::vector<VecQ> enumerate_vertices(const LinearProgram& lp);
std::vector<linalg::Vector<exact::CheckedRational>> enumerate_vertices(
    const CheckedLinearProgram& lp);

/// The appendix's method: enumerate vertices, keep integral ones, return
/// the minimizer of lp.objective (nullopt when no integral vertex exists).
/// When `require_integral` is false the best rational vertex is returned.
std::optional<VecQ> best_vertex(const LinearProgram& lp,
                                bool require_integral = true);

}  // namespace sysmap::opt
