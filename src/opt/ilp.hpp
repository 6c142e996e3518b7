// Exact integer linear programming by branch and bound.
//
// The formulations of Section 5 ((5.1)-(5.2) and (5.5)-(5.6)) are small
// ILPs; the paper notes that for fixed dimension they are polynomial and in
// the 0/+-1 cases reduce to LPs with integral vertices.  This solver runs
// depth-first branch and bound over the exact simplex of opt/simplex.hpp,
// on either rational scalar: no tolerances, deterministic branching (first
// fractional variable), bound pruning against the incumbent.
#pragma once

#include <cstdint>

#include "opt/simplex.hpp"

namespace sysmap::opt {

/// Minimize objective . x, x integral, subject to constraints.
template <typename Q>
struct BasicIntegerProgram {
  BasicLinearProgram<Q> relaxation;
};

using IntegerProgram = BasicIntegerProgram<exact::Rational>;

enum class IlpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,     ///< LP relaxation unbounded at the root
  kNodeLimit,     ///< search truncated; solution (if any) is incumbent-best
};

template <typename Q>
struct BasicIlpSolution {
  IlpStatus status = IlpStatus::kInfeasible;
  linalg::Vector<exact::IntegerOf<Q>> x;  ///< integral optimum
  Q objective;
  std::uint64_t nodes = 0;  ///< branch-and-bound nodes explored
};

using IlpSolution = BasicIlpSolution<exact::Rational>;

/// Solves the ILP; `node_limit` bounds the search tree size.  The checked
/// overload throws exact::OverflowError when an entry leaves int64.
IlpSolution solve_ilp(const IntegerProgram& ip,
                      std::uint64_t node_limit = 1'000'000);
BasicIlpSolution<exact::CheckedRational> solve_ilp(
    const BasicIntegerProgram<exact::CheckedRational>& ip,
    std::uint64_t node_limit = 1'000'000);

}  // namespace sysmap::opt
