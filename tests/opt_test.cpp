// Tests for the exact optimization substrate: rational simplex, branch &
// bound ILP, vertex enumeration.
#include <gtest/gtest.h>

#include <random>

#include "opt/ilp.hpp"
#include "opt/simplex.hpp"
#include "opt/vertex_enum.hpp"

namespace sysmap::opt {
namespace {

using exact::BigInt;
using exact::Rational;

Rational q(Int n) { return Rational(n); }
Rational q(Int n, Int d) { return Rational(BigInt(n), BigInt(d)); }

// ---------------------------------------------------------------------------
// Simplex
// ---------------------------------------------------------------------------

TEST(Simplex, TwoVariableKnownOptimum) {
  // min -x - 2y  s.t.  x + y <= 4, x <= 2, x,y >= 0.
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {q(-1), q(-2)};
  lp.add({q(1), q(1)}, Relation::kLe, q(4));
  lp.add_bound(0, Relation::kLe, q(2));
  lp.add_bound(0, Relation::kGe, q(0));
  lp.add_bound(1, Relation::kGe, q(0));
  LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.x[0], q(0));
  EXPECT_EQ(s.x[1], q(4));
  EXPECT_EQ(s.objective, q(-8));
}

TEST(Simplex, EqualityConstraints) {
  // min x + y  s.t.  x + 2y == 6, x >= 0, y >= 0.
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {q(1), q(1)};
  lp.add({q(1), q(2)}, Relation::kEq, q(6));
  lp.add_bound(0, Relation::kGe, q(0));
  lp.add_bound(1, Relation::kGe, q(0));
  LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.objective, q(3));  // x = 0, y = 3
}

TEST(Simplex, FreeVariablesHandled) {
  // min x  s.t.  x >= -5 (x free otherwise): optimum -5.
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {q(1)};
  lp.add_bound(0, Relation::kGe, q(-5));
  LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.x[0], q(-5));
}

TEST(Simplex, InfeasibleDetected) {
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {q(1)};
  lp.add_bound(0, Relation::kGe, q(3));
  lp.add_bound(0, Relation::kLe, q(2));
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {q(-1)};
  lp.add_bound(0, Relation::kGe, q(0));
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
}

TEST(Simplex, ExactRationalOptimum) {
  // min -x - y  s.t.  2x + y <= 3, x + 3y <= 4, x,y >= 0:
  // vertex intersection at x = 1, y = 1: objective -2.
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {q(-1), q(-1)};
  lp.add({q(2), q(1)}, Relation::kLe, q(3));
  lp.add({q(1), q(3)}, Relation::kLe, q(4));
  lp.add_bound(0, Relation::kGe, q(0));
  lp.add_bound(1, Relation::kGe, q(0));
  LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.objective, q(-2));
  EXPECT_EQ(s.x[0], q(1));
  EXPECT_EQ(s.x[1], q(1));
}

TEST(Simplex, FractionalVertex) {
  // min -y  s.t.  2y <= 5, y >= 0: optimum y = 5/2 exactly.
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {q(-1)};
  lp.add({q(2)}, Relation::kLe, q(5));
  lp.add_bound(0, Relation::kGe, q(0));
  LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.x[0], q(5, 2));
}

TEST(Simplex, NegativeRhsRowsOriented) {
  // Constraint with negative rhs exercises the row-flip path:
  // min x s.t. -x <= -3  (i.e. x >= 3).
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {q(1)};
  lp.add({q(-1)}, Relation::kLe, q(-3));
  LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.x[0], q(3));
}

TEST(Simplex, DegenerateDoesNotCycle) {
  // Classic degeneracy: multiple constraints active at the optimum.
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {q(-1), q(0)};
  lp.add({q(1), q(1)}, Relation::kLe, q(1));
  lp.add({q(1), q(-1)}, Relation::kLe, q(1));
  lp.add({q(1), q(0)}, Relation::kLe, q(1));
  lp.add_bound(0, Relation::kGe, q(0));
  lp.add_bound(1, Relation::kGe, q(0));
  LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.objective, q(-1));
}

TEST(Simplex, ValidatesWidths) {
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {q(1)};
  EXPECT_THROW(solve_lp(lp), std::invalid_argument);
  lp.objective = {q(1), q(1)};
  EXPECT_THROW(lp.add({q(1)}, Relation::kLe, q(0)), std::invalid_argument);
}

// Random LPs: simplex optimum must match vertex-enumeration optimum on
// bounded feasible polytopes.
class SimplexVsVertexProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplexVsVertexProperty, Agree) {
  std::mt19937_64 rng(static_cast<unsigned>(GetParam()) * 271u);
  std::uniform_int_distribution<Int> coef(-4, 4);
  for (int iter = 0; iter < 20; ++iter) {
    LinearProgram lp;
    lp.num_vars = 2;
    lp.objective = {q(coef(rng)), q(coef(rng))};
    // Box to guarantee boundedness.
    lp.add_bound(0, Relation::kGe, q(-5));
    lp.add_bound(0, Relation::kLe, q(5));
    lp.add_bound(1, Relation::kGe, q(-5));
    lp.add_bound(1, Relation::kLe, q(5));
    for (int c = 0; c < 3; ++c) {
      lp.add({q(coef(rng)), q(coef(rng))}, Relation::kLe, q(coef(rng) + 5));
    }
    LpSolution s = solve_lp(lp);
    std::optional<VecQ> v = best_vertex(lp, /*require_integral=*/false);
    if (s.status != LpStatus::kOptimal) {
      EXPECT_FALSE(v.has_value());
      continue;
    }
    ASSERT_TRUE(v.has_value());
    Rational vertex_obj(0);
    for (std::size_t i = 0; i < 2; ++i) {
      vertex_obj += lp.objective[i] * (*v)[i];
    }
    EXPECT_EQ(s.objective, vertex_obj);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexVsVertexProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// ILP
// ---------------------------------------------------------------------------

TEST(Ilp, IntegralityForcesWorseObjective) {
  // min -y  s.t.  2y <= 5, y >= 0, y integer: LP gives 5/2, ILP gives 2.
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {q(-1)};
  lp.add({q(2)}, Relation::kLe, q(5));
  lp.add_bound(0, Relation::kGe, q(0));
  IlpSolution s = solve_ilp({lp});
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_EQ(s.x[0].to_int64(), 2);
  EXPECT_EQ(s.objective, q(-2));
}

TEST(Ilp, KnapsackStyle) {
  // max 5x + 4y (min negative) s.t. 6x + 4y <= 24, x + 2y <= 6, x,y >= 0.
  // Integer optimum: (4, 0) with value 20.
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {q(-5), q(-4)};
  lp.add({q(6), q(4)}, Relation::kLe, q(24));
  lp.add({q(1), q(2)}, Relation::kLe, q(6));
  lp.add_bound(0, Relation::kGe, q(0));
  lp.add_bound(1, Relation::kGe, q(0));
  IlpSolution s = solve_ilp({lp});
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_EQ(s.objective, q(-20));
  EXPECT_EQ(s.x[0].to_int64(), 4);
  EXPECT_EQ(s.x[1].to_int64(), 0);
}

TEST(Ilp, InfeasibleIntegerHole) {
  // 1/3 <= x <= 2/3 has rational points but no integer.
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {q(1)};
  lp.add({q(3)}, Relation::kGe, q(1));
  lp.add({q(3)}, Relation::kLe, q(2));
  EXPECT_EQ(solve_ilp({lp}).status, IlpStatus::kInfeasible);
}

TEST(Ilp, UnboundedRoot) {
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {q(-1)};
  lp.add_bound(0, Relation::kGe, q(0));
  EXPECT_EQ(solve_ilp({lp}).status, IlpStatus::kUnbounded);
}

// max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6, x, y >= 0: the root
// relaxation's optimum (3, 3/2) is fractional, so it must branch.
template <typename Q>
BasicLinearProgram<Q> fractional_root() {
  BasicLinearProgram<Q> lp;
  lp.num_vars = 2;
  lp.objective = {Q(-5), Q(-4)};
  lp.add({Q(6), Q(4)}, Relation::kLe, Q(24));
  lp.add({Q(1), Q(2)}, Relation::kLe, Q(6));
  lp.add_bound(0, Relation::kGe, Q(0));
  lp.add_bound(1, Relation::kGe, Q(0));
  return lp;
}

TEST(Ilp, NodeLimitTruncates) {
  const LinearProgram lp = fractional_root<Rational>();
  ASSERT_FALSE(solve_lp(lp).x[1].is_integer());
  IlpSolution s = solve_ilp({lp}, /*node_limit=*/1);
  EXPECT_EQ(s.status, IlpStatus::kNodeLimit);
  EXPECT_EQ(s.nodes, 1u);
  EXPECT_EQ(solve_ilp({lp}).status, IlpStatus::kOptimal);
}

TEST(Ilp, NodeLimitTruncatesOnCheckedScalar) {
  using exact::CheckedRational;
  BasicIlpSolution<CheckedRational> s =
      solve_ilp(BasicIntegerProgram<CheckedRational>{
                    fractional_root<CheckedRational>()},
                /*node_limit=*/1);
  EXPECT_EQ(s.status, IlpStatus::kNodeLimit);
  EXPECT_EQ(s.nodes, 1u);
}

TEST(Ilp, NegativeVariablesSupported) {
  // min x s.t. x >= -7/2, x integer: optimum -3.
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {q(1)};
  lp.add({q(2)}, Relation::kGe, q(-7));
  IlpSolution s = solve_ilp({lp});
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_EQ(s.x[0].to_int64(), -3);
}

// ---------------------------------------------------------------------------
// Vertex enumeration
// ---------------------------------------------------------------------------

TEST(VertexEnum, UnitSquare) {
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {q(1), q(1)};
  lp.add_bound(0, Relation::kGe, q(0));
  lp.add_bound(0, Relation::kLe, q(1));
  lp.add_bound(1, Relation::kGe, q(0));
  lp.add_bound(1, Relation::kLe, q(1));
  std::vector<VecQ> v = enumerate_vertices(lp);
  EXPECT_EQ(v.size(), 4u);
}

TEST(VertexEnum, EqualityRestrictsToSegment) {
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {q(1), q(0)};
  lp.add({q(1), q(1)}, Relation::kEq, q(1));
  lp.add_bound(0, Relation::kGe, q(0));
  lp.add_bound(1, Relation::kGe, q(0));
  std::vector<VecQ> v = enumerate_vertices(lp);
  EXPECT_EQ(v.size(), 2u);  // (0,1) and (1,0)
}

TEST(VertexEnum, BestVertexIntegralFilter) {
  // Triangle with one fractional vertex: integral-best must skip it.
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {q(-1), q(0)};  // maximize x alone: (5/2, 0) wins rationally
  lp.add({q(2), q(1)}, Relation::kLe, q(5));  // fractional corner (5/2, 0)
  lp.add_bound(0, Relation::kGe, q(0));
  lp.add_bound(1, Relation::kGe, q(0));
  lp.add_bound(1, Relation::kLe, q(1));
  std::optional<VecQ> best_rational = best_vertex(lp, false);
  std::optional<VecQ> best_integral = best_vertex(lp, true);
  ASSERT_TRUE(best_rational.has_value());
  ASSERT_TRUE(best_integral.has_value());
  EXPECT_FALSE((*best_rational)[0].is_integer());
  EXPECT_TRUE((*best_integral)[0].is_integer());
}

TEST(VertexEnum, EmptyWhenInfeasible) {
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {q(1)};
  lp.add_bound(0, Relation::kGe, q(2));
  lp.add_bound(0, Relation::kLe, q(1));
  EXPECT_TRUE(enumerate_vertices(lp).empty());
  EXPECT_FALSE(best_vertex(lp).has_value());
}

}  // namespace
}  // namespace sysmap::opt
