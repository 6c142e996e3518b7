// Exact linear programming (two-phase primal simplex).
//
// Section 5 of the paper converts the time-optimal conflict-free mapping
// problem into (integer) linear programs whose "extreme points ... are all
// integral"; the appendix solves them by inspecting vertices.  An exact
// simplex reproduces that reasoning with no tolerance artifacts: Bland's
// rule guarantees termination, and every reported vertex is an exact
// rational point.  Problem sizes here are tiny (n <= 6 original variables,
// tens of constraints), so a dense tableau is the right tool.
//
// The program types are templates over the rational scalar Q.  Two
// instantiations share one body (opt/lp_impl.hpp): exact::Rational (BigInt
// numerator and denominator, the oracle) and exact::CheckedRational (int64
// parts that throw exact::OverflowError instead of wrapping, so a caller
// can restart over Rational; see search/ilp_formulation.cpp).  Every
// comparison is exact on both, so Bland's rule picks the same pivots and
// the answers are bit-identical.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exact/checked_rational.hpp"
#include "linalg/types.hpp"

namespace sysmap::opt {

enum class Relation { kLe, kGe, kEq };

/// coeffs . x  (rel)  rhs
template <typename Q>
struct BasicConstraint {
  linalg::Vector<Q> coeffs;
  Relation rel = Relation::kLe;
  Q rhs;
};

/// Minimize objective . x subject to the constraints; variables are FREE
/// (the conversion to standard form splits them internally).  Use
/// Relation::kGe rows to express lower bounds.
template <typename Q>
struct BasicLinearProgram {
  std::size_t num_vars = 0;
  linalg::Vector<Q> objective;
  std::vector<BasicConstraint<Q>> constraints;

  /// Convenience: adds coeffs . x (rel) rhs.
  void add(linalg::Vector<Q> coeffs, Relation rel, Q rhs) {
    if (coeffs.size() != num_vars) {
      throw std::invalid_argument("LinearProgram::add: coefficient width");
    }
    constraints.push_back({std::move(coeffs), rel, std::move(rhs)});
  }
  /// Convenience: adds the single-variable bound x_i (rel) value.
  void add_bound(std::size_t var, Relation rel, Q value) {
    linalg::Vector<Q> coeffs(num_vars, Q(0));
    coeffs.at(var) = Q(1);
    add(std::move(coeffs), rel, std::move(value));
  }
};

using Constraint = BasicConstraint<exact::Rational>;
using LinearProgram = BasicLinearProgram<exact::Rational>;
using CheckedLinearProgram = BasicLinearProgram<exact::CheckedRational>;

enum class LpStatus { kOptimal, kInfeasible, kUnbounded };

template <typename Q>
struct BasicLpSolution {
  LpStatus status = LpStatus::kInfeasible;
  linalg::Vector<Q> x;  ///< optimal point (original variables)
  Q objective;          ///< objective . x at the optimum
};

using LpSolution = BasicLpSolution<exact::Rational>;

/// Exact two-phase simplex.  Deterministic (Bland's rule).  The checked
/// overload throws exact::OverflowError when an entry leaves int64.
LpSolution solve_lp(const LinearProgram& lp);
BasicLpSolution<exact::CheckedRational> solve_lp(
    const CheckedLinearProgram& lp);

}  // namespace sysmap::opt
