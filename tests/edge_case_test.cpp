// Final edge-case batch: empty/degenerate shapes, throw paths, and
// boundary behaviours across modules.
#include <gtest/gtest.h>

#include "core/spec.hpp"
#include "lattice/hnf.hpp"
#include "lattice/kernel.hpp"
#include "linalg/ops.hpp"
#include "model/gallery.hpp"
#include "opt/simplex.hpp"
#include "opt/vertex_enum.hpp"
#include "schedule/interconnect.hpp"
#include "exact/checked.hpp"
#include "search/pipeline.hpp"
#include "search/procedure51.hpp"
#include "systolic/io_schedule.hpp"

namespace sysmap {
namespace {

using exact::BigInt;
using exact::Rational;

TEST(Edge, MatrixBlockThrows) {
  MatI m{{1, 2}, {3, 4}};
  EXPECT_THROW(m.block(0, 3, 0, 1), std::out_of_range);
  EXPECT_THROW(m.block(1, 0, 0, 1), std::out_of_range);
  EXPECT_NO_THROW(m.block(1, 1, 0, 2));  // empty block is fine
  EXPECT_EQ(m.block(1, 1, 0, 2).rows(), 0u);
}

TEST(Edge, HnfOneByOne) {
  MatI t{{-6}};
  lattice::HnfResult r = lattice::hermite_normal_form(t);
  EXPECT_EQ(r.h(0, 0).to_int64(), 6);  // positive diagonal
  EXPECT_TRUE(lattice::is_unimodular(r.u));
  MatZ kernel = lattice::kernel_basis(to_bigint(t));
  EXPECT_EQ(kernel.cols(), 0u);
}

TEST(Edge, HnfSingleRowNegative) {
  MatI t{{0, -4, 6}};
  lattice::HnfResult r = lattice::hermite_normal_form(t);
  EXPECT_EQ(r.h(0, 0).to_int64(), 2);
  EXPECT_TRUE(r.h(0, 1).is_zero());
  EXPECT_TRUE(r.h(0, 2).is_zero());
}

TEST(Edge, SimplexRedundantEqualities) {
  // Two identical equality rows: phase 1 must leave one artificial basic
  // at zero in a redundant row and still solve phase 2.
  opt::LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {Rational(1), Rational(1)};
  lp.add({Rational(1), Rational(1)}, opt::Relation::kEq, Rational(2));
  lp.add({Rational(1), Rational(1)}, opt::Relation::kEq, Rational(2));
  lp.add_bound(0, opt::Relation::kGe, Rational(0));
  lp.add_bound(1, opt::Relation::kGe, Rational(0));
  opt::LpSolution s = opt::solve_lp(lp);
  ASSERT_EQ(s.status, opt::LpStatus::kOptimal);
  EXPECT_EQ(s.objective, Rational(2));
}

TEST(Edge, SimplexConflictingEqualities) {
  opt::LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {Rational(0)};
  lp.add({Rational(1)}, opt::Relation::kEq, Rational(1));
  lp.add({Rational(1)}, opt::Relation::kEq, Rational(2));
  EXPECT_EQ(opt::solve_lp(lp).status, opt::LpStatus::kInfeasible);
}

TEST(Edge, VertexEnumTooManyEqualities) {
  opt::LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {Rational(0)};
  lp.add({Rational(1)}, opt::Relation::kEq, Rational(1));
  lp.add({Rational(2)}, opt::Relation::kEq, Rational(2));
  // eq rows (2) > n (1): the enumerator bails out empty.
  EXPECT_TRUE(opt::enumerate_vertices(lp).empty());
}

TEST(Edge, RouteDimensionMismatchThrows) {
  MatI space{{1, 0}, {0, 1}};  // 2-D space
  MatI d{{1}, {1}};
  schedule::LinearSchedule pi(VecI{1, 1});
  EXPECT_THROW(schedule::route(space, d,
                               schedule::Interconnect::nearest_neighbor(1),
                               pi),
               std::invalid_argument);
}

TEST(Edge, EnumerateSchedulesLevelZeroAndNegative) {
  model::IndexSet set({2, 2});
  int count = 0;
  search::enumerate_schedules_at(set, 0, [&](const VecI&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);  // only the zero vector has objective 0
  count = 0;
  search::enumerate_schedules_at(set, -3, [&](const VecI&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0);
}

TEST(Edge, IoScheduleLocalDependence) {
  // matvec's x-reuse (1,0) flows along i: inputs on the i=0 edge only.
  model::UniformDependenceAlgorithm algo = model::matvec(3);
  mapping::MappingMatrix t(MatI{{1, 0}}, VecI{1, 1});
  systolic::ArrayDesign design = systolic::design_dedicated_array(algo, t);
  systolic::IoSchedule io = systolic::io_schedule(algo, design);
  // d_1 = (0,1): boundary at j=0 column -> 4 inputs; d_2 = (1,0): i=0 row.
  EXPECT_EQ(io.classes[0].inputs.size(), 4u);
  EXPECT_EQ(io.classes[1].inputs.size(), 4u);
}

TEST(Edge, SpecWhitespaceOnlyMatrix) {
  EXPECT_THROW(core::parse_matrix("   "), std::invalid_argument);
  EXPECT_THROW(core::parse_matrix(";;"), std::invalid_argument);
}

TEST(Edge, RationalHugeReduction) {
  BigInt big = BigInt::from_string("123456789012345678901234567890");
  Rational r(big * BigInt(6), big * BigInt(4));
  EXPECT_EQ(r.to_string(), "3/2");
}

TEST(Edge, UnitCubeNdSearch) {
  // 5-D unit-bound cube onto a 1-D array: kernel dimension 3 with tiny
  // bounds -- the deep-dispatch path at minimal size.
  model::UniformDependenceAlgorithm algo = model::unit_cube_algorithm(5, 1);
  MatI space(1, 5);
  for (std::size_t c = 0; c < 5; ++c) space(0, c) = 1;
  search::SearchResult r = search::procedure_5_1(algo, space);
  ASSERT_TRUE(r.found);
  // Validate against the brute-force oracle.
  search::SearchOptions brute;
  brute.oracle = search::ConflictOracle::kBruteForce;
  search::SearchResult rb = search::procedure_5_1(algo, space, brute);
  EXPECT_EQ(r.objective, rb.objective);
}

// mu_i = INT64_MAX is a legal bound (Equation 2.5 only asks mu_i >= 1),
// but the default objective bound 4 (max mu + 1) sum mu does not fit
// int64: both search entry points must refuse cleanly, not wrap.
model::UniformDependenceAlgorithm huge_mu_algorithm() {
  return {"huge_mu", model::IndexSet({INT64_MAX, 1, 1}),
          MatI::identity(3)};
}

TEST(Edge, HugeMuDefaultBoundOverflowsCleanly) {
  const model::UniformDependenceAlgorithm algo = huge_mu_algorithm();
  EXPECT_THROW(search::default_max_objective(algo.index_set()),
               exact::OverflowError);
  EXPECT_THROW(search::procedure_5_1(algo, MatI{{1, 1, 1}}),
               exact::OverflowError);
  search::MappingPipeline pipeline;
  EXPECT_THROW(pipeline.find_time_optimal(algo, MatI{{1, 1, 1}}),
               exact::OverflowError);
  // k = n - 2 goes to Procedure 5.1 directly; same refusal.
  EXPECT_THROW(pipeline.find_time_optimal(algo, MatI(0, 3)),
               exact::OverflowError);
}

TEST(Edge, HugeMuSearchWithExplicitBound) {
  // An explicit bound sidesteps the default: the search runs, and the
  // huge coordinate simply never fits below the bound.
  const model::UniformDependenceAlgorithm algo = huge_mu_algorithm();
  search::SearchOptions options;
  options.max_objective = 6;
  const search::SearchResult r =
      search::procedure_5_1(algo, MatI{{1, 1, 1}}, options);
  EXPECT_FALSE(r.found);
  EXPECT_GT(r.candidates_tested, 0u);
}

TEST(Edge, HugeMuIndexSetSizeIsExact) {
  // (INT64_MAX + 1) * 2 * 3 = 2^63 * 6.
  const model::IndexSet set({INT64_MAX, 1, 2});
  EXPECT_EQ(set.size().to_string(), "55340232221128654848");
  EXPECT_THROW(set.size_u64(), exact::OverflowError);
}

}  // namespace
}  // namespace sysmap
