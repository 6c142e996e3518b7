// Tests for Section 5: Procedure 5.1, the ILP formulation (5.1)-(5.2), the
// appendix's extreme-point method, and Proposition 8.1 -- with the paper's
// Examples 5.1 and 5.2 as golden results.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "baseline/brute_force.hpp"
#include "baseline/prior_work.hpp"
#include "lattice/hnf.hpp"
#include "linalg/ops.hpp"
#include "lattice/kernel.hpp"
#include "model/gallery.hpp"
#include "schedule/linear_schedule.hpp"
#include "search/extreme_points.hpp"
#include "search/ilp_formulation.hpp"
#include "search/procedure51.hpp"
#include "search/prop81.hpp"

namespace sysmap::search {
namespace {

using exact::BigInt;

// ---------------------------------------------------------------------------
// Candidate enumeration
// ---------------------------------------------------------------------------

TEST(Enumerate, CountsAndOrder) {
  model::IndexSet set({1, 1});  // weights (1, 1)
  std::vector<VecI> at2;
  enumerate_schedules_at(set, 2, [&](const VecI& pi) {
    at2.push_back(pi);
    return true;
  });
  // |pi1| + |pi2| = 2: (0,±2), (±1,±1), (±2,0) -> 2 + 4 + 2 = 8.
  EXPECT_EQ(at2.size(), 8u);
  // Deterministic: repeated runs give identical order.
  std::vector<VecI> again;
  enumerate_schedules_at(set, 2, [&](const VecI& pi) {
    again.push_back(pi);
    return true;
  });
  EXPECT_EQ(at2, again);
}

TEST(Enumerate, WeightsScaleByMu) {
  model::IndexSet set({2, 3});
  std::vector<VecI> found;
  enumerate_schedules_at(set, 6, [&](const VecI& pi) {
    found.push_back(pi);
    schedule::LinearSchedule s(pi);
    EXPECT_EQ(s.objective(set), 6);
    return true;
  });
  // 2|a| + 3|b| = 6: (0,±2), (±3,0) -> 4 candidates.
  EXPECT_EQ(found.size(), 4u);
}

TEST(Enumerate, AbortPropagates) {
  model::IndexSet set({1, 1});
  int count = 0;
  bool completed = enumerate_schedules_at(set, 2, [&](const VecI&) {
    return ++count < 3;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3);
}

// ---------------------------------------------------------------------------
// Example 5.1: matrix multiplication onto a linear array
// ---------------------------------------------------------------------------

TEST(Example51, OptimalScheduleEvenMu) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  MatI s{{1, 1, -1}};
  SearchResult r = procedure_5_1(algo, s);
  ASSERT_TRUE(r.found);
  // f = mu(mu+2) = 24.  The paper reports the extreme points [1,mu,1] /
  // [mu,1,1]; interior optima like [1,2,3] share the same objective, and
  // the enumeration returns the lexicographically first of them.
  EXPECT_EQ(r.objective, mu * (mu + 2));
  EXPECT_EQ(r.makespan, mu * (mu + 2) + 1);  // t = 25
  // The paper's Pi_2 = [1, mu, 1] is indeed conflict-free at even mu, and
  // no strictly better objective exists (r.objective is the certified
  // minimum).
  mapping::MappingMatrix pi2(s, VecI{1, mu, 1});
  EXPECT_TRUE(
      mapping::decide_conflict_free(pi2, algo.index_set()).conflict_free());
  schedule::LinearSchedule found_sched(r.pi);
  EXPECT_EQ(found_sched.objective(algo.index_set()), r.objective);
}

TEST(Example51, BeatsRef23Schedule) {
  const Int mu = 4;
  baseline::PriorMapping prior = baseline::ref23_matmul(mu);
  schedule::LinearSchedule prior_sched(prior.pi);
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  EXPECT_EQ(prior_sched.makespan(algo.index_set()), prior.published_makespan);
  SearchResult r = procedure_5_1(algo, prior.space);
  ASSERT_TRUE(r.found);
  EXPECT_LT(r.makespan, prior.published_makespan);  // 25 < 29
}

TEST(Example51, Mu3BeatsThePaperSideRemark) {
  // The paper remarks that [23]'s Pi' = [2,1,mu] is optimal when mu = 3
  // (t = 19).  Under the paper's own Problem 2.2, however, Pi = [2,1,2] is
  // conflict-free -- gamma = (-3, 4, 1) has |4| > mu -- with t = 16.
  // ([23] additionally required data to arrive exactly at use time, i.e.
  // equality in (2.3), which excludes [2,1,2]; see EXPERIMENTS.md.)
  const Int mu = 3;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  SearchResult r = procedure_5_1(algo, MatI{{1, 1, -1}});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.objective, 15);
  EXPECT_EQ(r.makespan, 16);
  // Cross-check with the theory-free brute-force oracle.
  SearchOptions brute;
  brute.oracle = ConflictOracle::kBruteForce;
  SearchResult b = procedure_5_1(algo, MatI{{1, 1, -1}}, brute);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(b.objective, 15);
}

TEST(Example51, OddMuGcdCaveat) {
  // For odd mu, Pi = [1, mu, 1] is NOT conflict-free (its raw conflict
  // vector has gcd 2 and scales down to a non-feasible one), but the
  // optimal objective is still mu(mu+2): Pi = [2, 1, mu-1] achieves it
  // with gamma = (-mu, mu+1, 1), feasible for every mu.
  const Int mu = 5;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  SearchResult r = procedure_5_1(algo, MatI{{1, 1, -1}});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.objective, mu * (mu + 2));
  EXPECT_NE(r.pi, (VecI{1, mu, 1}));
  EXPECT_NE(r.pi, (VecI{mu, 1, 1}));
  // The [2, 1, mu-1] family is valid at every mu.
  mapping::MappingMatrix t(MatI{{1, 1, -1}}, VecI{2, 1, mu - 1});
  EXPECT_TRUE(mapping::decide_conflict_free(t, algo.index_set())
                  .conflict_free());
}

TEST(Example51, PaperTheoremOracleAgrees) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  SearchOptions opts;
  opts.oracle = ConflictOracle::kPaperTheorems;
  SearchResult paper = procedure_5_1(algo, MatI{{1, 1, -1}}, opts);
  opts.oracle = ConflictOracle::kBruteForce;
  SearchResult brute = procedure_5_1(algo, MatI{{1, 1, -1}}, opts);
  ASSERT_TRUE(paper.found);
  ASSERT_TRUE(brute.found);
  EXPECT_EQ(paper.objective, brute.objective);
  EXPECT_EQ(paper.pi, brute.pi);
}

TEST(PaperTheoremOracle, AcceptsAConflictAtKEqualsNMinus3) {
  // The published theorems are not certified at k <= n-3: with S empty
  // (k = 1, n = 4) the Theorem 4.8 dispatch accepts Pi = (3, 9, 9, 1),
  // although v = (0, 1, -1, 0) lies in the difference box and Pi v = 0.
  const model::UniformDependenceAlgorithm algo =
      model::unit_cube_algorithm(4, 2);
  const MatI no_space(0, 4);
  SearchOptions opts;
  opts.oracle = ConflictOracle::kPaperTheorems;
  const SearchResult paper = procedure_5_1(algo, no_space, opts);
  ASSERT_TRUE(paper.found);
  EXPECT_EQ(paper.pi, (VecI{3, 9, 9, 1}));
  EXPECT_EQ(paper.objective, 44);

  const mapping::MappingMatrix t(no_space, paper.pi);
  const mapping::ConflictVerdict brute =
      baseline::brute_force_conflicts(t, algo.index_set());
  EXPECT_EQ(brute.status, mapping::ConflictVerdict::Status::kHasConflict);
  EXPECT_EQ(t.matrix() * VecI({0, 1, -1, 0}), VecI({0}));

  opts.oracle = ConflictOracle::kExact;
  const SearchResult exact = procedure_5_1(algo, no_space, opts);
  ASSERT_TRUE(exact.found);
  EXPECT_EQ(exact.pi, (VecI{1, 3, 9, 27}));
  EXPECT_EQ(exact.objective, 80);
}

TEST(Example51, FixedInterconnectAddsRoutingCheck) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  SearchOptions opts;
  opts.target = schedule::Interconnect::nearest_neighbor(1);
  SearchResult r = procedure_5_1(algo, MatI{{1, 1, -1}}, opts);
  ASSERT_TRUE(r.found);
  ASSERT_TRUE(r.routing.has_value());
  EXPECT_EQ(r.objective, mu * (mu + 2));
  EXPECT_EQ(r.routing->total_buffers(), 3);
}

// ---------------------------------------------------------------------------
// Example 5.2: transitive closure
// ---------------------------------------------------------------------------

TEST(Example52, OptimalSchedule) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::transitive_closure(mu);
  SearchResult r = procedure_5_1(algo, MatI{{0, 0, 1}});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.pi, (VecI{mu + 1, 1, 1}));
  EXPECT_EQ(r.makespan, mu * (mu + 3) + 1);
}

TEST(Example52, ImprovesOnRef22) {
  for (Int mu : {2, 3, 4, 6}) {
    model::UniformDependenceAlgorithm algo = model::transitive_closure(mu);
    baseline::PriorMapping prior = baseline::ref22_transitive_closure(mu);
    schedule::LinearSchedule prior_sched(prior.pi);
    EXPECT_EQ(prior_sched.makespan(algo.index_set()),
              prior.published_makespan);
    EXPECT_TRUE(prior_sched.respects_dependences(algo.dependence_matrix()));
    SearchResult r = procedure_5_1(algo, prior.space);
    ASSERT_TRUE(r.found) << "mu=" << mu;
    EXPECT_EQ(r.makespan, mu * (mu + 3) + 1) << "mu=" << mu;
    EXPECT_LT(r.makespan, prior.published_makespan) << "mu=" << mu;
  }
}

// ---------------------------------------------------------------------------
// Procedure 5.1 edge cases: oracle agreement, not-found statistics and
// shape validation, asserted on both the FixedSpaceContext engine and the
// from-scratch engine (SearchOptions::use_fixed_space_context).
// ---------------------------------------------------------------------------

void expect_bit_identical(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.found, b.found);
  EXPECT_EQ(a.candidates_tested, b.candidates_tested);
  EXPECT_EQ(a.candidates_passed_dependence, b.candidates_passed_dependence);
  if (!a.found) return;
  EXPECT_EQ(a.pi, b.pi);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.verdict.status, b.verdict.status);
  EXPECT_EQ(a.verdict.rule, b.verdict.rule);
  ASSERT_EQ(a.verdict.witness.has_value(), b.verdict.witness.has_value());
  if (a.verdict.witness) {
    ASSERT_EQ(a.verdict.witness->size(), b.verdict.witness->size());
    for (std::size_t i = 0; i < a.verdict.witness->size(); ++i) {
      EXPECT_TRUE((*a.verdict.witness)[i] == (*b.verdict.witness)[i]);
    }
  }
  ASSERT_EQ(a.routing.has_value(), b.routing.has_value());
  if (a.routing) {
    EXPECT_EQ(a.routing->total_buffers(), b.routing->total_buffers());
  }
}

SearchResult run_engine(const model::UniformDependenceAlgorithm& algo,
                        const MatI& space, SearchOptions opts,
                        bool use_context) {
  opts.use_fixed_space_context = use_context;
  return procedure_5_1(algo, space, opts);
}

// For k = n-1 every oracle is exact, so all three pick the same Pi.
TEST(ParallelSearch, OraclesAgree) {
  for (Int mu : {3, 4}) {
    SCOPED_TRACE("mu=" + std::to_string(mu));
    model::UniformDependenceAlgorithm algo = model::matmul(mu);
    SearchOptions opts;
    opts.oracle = ConflictOracle::kBruteForce;
    const SearchResult brute = procedure_5_1(algo, MatI{{1, 1, -1}}, opts);
    ASSERT_TRUE(brute.found);
    for (ConflictOracle oracle :
         {ConflictOracle::kPaperTheorems, ConflictOracle::kExact}) {
      opts.oracle = oracle;
      const SearchResult r = procedure_5_1(algo, MatI{{1, 1, -1}}, opts);
      ASSERT_TRUE(r.found);
      EXPECT_EQ(r.objective, brute.objective);
      EXPECT_EQ(r.pi, brute.pi);
    }
  }
}

// Per oracle, the context engine returns the from-scratch engine's result
// bit for bit: winner, rule, witness and statistics.
TEST(StreamingSearch, OraclesBitIdenticalAcrossChunks) {
  model::UniformDependenceAlgorithm algo = model::matmul(3);
  const MatI space{{1, 1, -1}};
  for (ConflictOracle oracle :
       {ConflictOracle::kExact, ConflictOracle::kPaperTheorems,
        ConflictOracle::kBruteForce}) {
    SCOPED_TRACE("oracle=" + std::to_string(static_cast<int>(oracle)));
    SearchOptions opts;
    opts.oracle = oracle;
    expect_bit_identical(run_engine(algo, space, opts, false),
                         run_engine(algo, space, opts, true));
  }
}

TEST(ParallelSearch, NotFoundStatsMatchSerial) {
  model::UniformDependenceAlgorithm algo = model::matmul(4);
  SearchOptions opts;
  opts.max_objective = 10;
  const SearchResult seed = run_engine(algo, MatI{{1, 1, -1}}, opts, false);
  const SearchResult ctx = run_engine(algo, MatI{{1, 1, -1}}, opts, true);
  EXPECT_FALSE(seed.found);
  expect_bit_identical(seed, ctx);
}

TEST(ParallelSearch, NotFoundMatchesSerial) {
  // The optimum for mu = 4 is mu(mu+2) = 24; a cap of 5 finds nothing.
  model::UniformDependenceAlgorithm algo = model::matmul(4);
  SearchOptions opts;
  opts.max_objective = 5;
  for (bool use_context : {true, false}) {
    SCOPED_TRACE("context=" + std::to_string(use_context));
    EXPECT_FALSE(run_engine(algo, MatI{{1, 1, -1}}, opts, use_context).found);
  }
}

// With no hit, candidates_tested must equal the full candidate stream of
// levels 1..cap and the dependence tally its independently counted share.
TEST(StreamingSearch, NotFoundStatsExactAcrossChunks) {
  model::UniformDependenceAlgorithm algo = model::matmul(4);
  for (Int cap : {5, 10}) {
    std::uint64_t tested = 0;
    std::uint64_t passed = 0;
    for (Int f = 1; f <= cap; ++f) {
      enumerate_schedules_at(algo.index_set(), f, [&](const VecI& pi) {
        ++tested;
        if (schedule::respects_dependences(pi, algo.dependence_matrix())) {
          ++passed;
        }
        return true;
      });
    }
    SearchOptions opts;
    opts.max_objective = cap;
    for (bool use_context : {true, false}) {
      SCOPED_TRACE("cap=" + std::to_string(cap) +
                   " context=" + std::to_string(use_context));
      const SearchResult miss =
          run_engine(algo, MatI{{1, 1, -1}}, opts, use_context);
      EXPECT_FALSE(miss.found);
      EXPECT_EQ(miss.candidates_tested, tested);
      EXPECT_EQ(miss.candidates_passed_dependence, passed);
    }
  }
}

// S must have n columns.
TEST(ParallelSearch, ValidatesShapes) {
  for (bool use_context : {true, false}) {
    SCOPED_TRACE("context=" + std::to_string(use_context));
    EXPECT_THROW(run_engine(model::matmul(3), MatI{{1, 1}}, {}, use_context),
                 std::invalid_argument);
    EXPECT_THROW(
        run_engine(model::matmul(3), MatI{{1, 1, -1, 0}}, {}, use_context),
        std::invalid_argument);
  }
}

// S must have n columns and fewer than n rows.
TEST(StreamingSearch, ValidatesShapes) {
  for (bool use_context : {true, false}) {
    SCOPED_TRACE("context=" + std::to_string(use_context));
    EXPECT_THROW(run_engine(model::matmul(3), MatI{{1, 1}}, {}, use_context),
                 std::invalid_argument);
    EXPECT_THROW(
        run_engine(model::matmul(3), MatI{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
                   {}, use_context),
        std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// ILP formulation (5.1)-(5.2)
// ---------------------------------------------------------------------------

TEST(IlpFormulation, ConflictCoefficientsMatmul) {
  // S = [1,1,-1]: gamma(Pi) = (pi2+pi3, -(pi1+pi3), -(pi1-pi2)) up to the
  // global cross-product sign; check F rows against Equation 3.5.
  MatZ f = conflict_coefficients(MatI{{1, 1, -1}});
  // Row 0: coefficient of pi2 and pi3 must be equal (pi2 + pi3 pattern).
  EXPECT_TRUE(f(0, 0).is_zero());
  EXPECT_EQ(f(0, 1), f(0, 2));
  EXPECT_FALSE(f(0, 1).is_zero());
  // gamma(Pi) for Pi = [1,4,1] must be parallel to (5, -2, 3).
  VecZ pi = to_bigint(VecI{1, 4, 1});
  VecZ gamma = f * pi;
  EXPECT_TRUE((gamma[0] * BigInt(-2) == gamma[1] * BigInt(5)));
  EXPECT_TRUE((gamma[1] * BigInt(3) == gamma[2] * BigInt(-2)));
}

TEST(IlpFormulation, RejectsWrongShape) {
  EXPECT_THROW(conflict_coefficients(MatI{{1, 0, 0}, {0, 1, 0}}),
               std::invalid_argument);
}

TEST(IlpFormulation, MatmulEvenMuBoundTight) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  IlpMappingResult r =
      solve_k_equals_n_minus_1(algo, MatI{{1, 1, -1}});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.objective, mu * (mu + 2));
  EXPECT_EQ(r.lower_bound, mu * (mu + 2));
}

TEST(IlpFormulation, MatmulOddMuRejectsGcdCandidates) {
  const Int mu = 5;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  IlpMappingResult r =
      solve_k_equals_n_minus_1(algo, MatI{{1, 1, -1}});
  // At least one branch optimum (the [1,5,1]-type gcd trap) must fail
  // verification and be recorded; whatever survives can be no better than
  // the true optimum mu(mu+2) = 35.
  EXPECT_FALSE(r.rejected.empty());
  EXPECT_LE(r.lower_bound, mu * (mu + 2));
  if (r.found) {
    EXPECT_GE(r.objective, mu * (mu + 2));
  }
}

TEST(IlpFormulation, TransitiveClosure) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::transitive_closure(mu);
  IlpMappingResult r = solve_k_equals_n_minus_1(algo, MatI{{0, 0, 1}});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.objective, mu * (mu + 3));
  EXPECT_EQ(r.pi, (VecI{mu + 1, 1, 1}));
}

TEST(IlpFormulation, AgreesWithProcedure51) {
  // Even mu: the ILP route finds the optimum outright (bound-tight).
  // Odd mu: every branch vertex hits the gcd trap, so the ILP route finds
  // NOTHING verified -- the true optima (e.g. [2,1,mu-1]) are interior
  // points of the branch polytopes.  The lower bound remains valid and the
  // Mapper's Procedure-5.1 certification sweep recovers the optimum (see
  // integration tests and EXPERIMENTS.md).
  for (Int mu : {2, 3, 4, 5, 6}) {
    model::UniformDependenceAlgorithm algo = model::matmul(mu);
    SearchResult proc = procedure_5_1(algo, MatI{{1, 1, -1}});
    IlpMappingResult ilp = solve_k_equals_n_minus_1(algo, MatI{{1, 1, -1}});
    ASSERT_TRUE(proc.found);
    EXPECT_LE(ilp.lower_bound, proc.objective) << "mu=" << mu;
    if (mu % 2 == 0) {
      ASSERT_TRUE(ilp.found) << "mu=" << mu;
      EXPECT_EQ(ilp.objective, proc.objective) << "mu=" << mu;
    } else {
      EXPECT_FALSE(ilp.found) << "mu=" << mu;
      EXPECT_FALSE(ilp.rejected.empty()) << "mu=" << mu;
    }
  }
}

// ---------------------------------------------------------------------------
// Appendix extreme-point method
// ---------------------------------------------------------------------------

TEST(ExtremePoints, ReproducesAppendixExample51) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  ExtremePointResult r = appendix_extreme_point_method(algo, MatI{{1, 1, -1}});
  ASSERT_TRUE(r.best.has_value());
  EXPECT_EQ(r.best_objective, mu * (mu + 2));
  // The appendix's extreme points Pi_1, Pi_2, Pi_4 of formulation I must
  // all be examined.
  auto examined = [&](const VecI& pi) {
    for (const auto& e : r.examined) {
      if (e.pi == pi) return true;
    }
    return false;
  };
  EXPECT_TRUE(examined(VecI{1, 1, mu}));      // Pi_1 (rejected)
  EXPECT_TRUE(examined(VecI{1, mu, 1}));      // Pi_2 (accepted, mu even)
  EXPECT_TRUE(examined(VecI{mu, 1, 1}));      // Pi_3
  EXPECT_TRUE(examined(VecI{1, mu + 2, 1}));  // Pi_4
  EXPECT_TRUE(examined(VecI{mu + 2, 1, 1}));  // Pi_5
  // Pi_1's rejection reason: conflict vector [1,1,0]-direction non-feasible.
  for (const auto& e : r.examined) {
    if (e.pi == VecI{1, 1, mu}) {
      EXPECT_FALSE(e.conflict_free);
    }
    if (e.pi == VecI{1, mu, 1}) {
      EXPECT_TRUE(e.conflict_free);
    }
  }
}

TEST(ExtremePoints, Example52Vertices) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::transitive_closure(mu);
  ExtremePointResult r = appendix_extreme_point_method(algo, MatI{{0, 0, 1}});
  ASSERT_TRUE(r.best.has_value());
  EXPECT_EQ(*r.best, (VecI{mu + 1, 1, 1}));
  EXPECT_EQ(r.best_objective, mu * (mu + 3));
}

// ---------------------------------------------------------------------------
// Proposition 8.1
// ---------------------------------------------------------------------------

TEST(Prop81, KernelColumnsAnnihilateT) {
  MatI s{{1, 0, 1, -1, 0}, {0, 1, -1, 0, 1}};  // s11=1, s22-s21*s12=1
  VecI pi{1, 2, 3, 4, 5};
  std::optional<Prop81Result> r = proposition_8_1(s, pi);
  ASSERT_TRUE(r.has_value());
  MatZ t = to_bigint(MatI::vstack(s, MatI::row(pi)));
  EXPECT_TRUE(linalg::is_zero_vector(t * r->u4));
  EXPECT_TRUE(linalg::is_zero_vector(t * r->u5));
  // u4, u5 must be linearly independent.
  MatZ pair(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    pair(i, 0) = r->u4[i];
    pair(i, 1) = r->u5[i];
  }
  EXPECT_EQ(linalg::rank(pair), 2u);
}

TEST(Prop81, SpansTheFullKernelLattice) {
  // The columns must form a *basis* of ker(T) (not a proper sublattice):
  // every HNF kernel column must be an integral combination of u4, u5 and
  // vice versa.
  MatI s{{1, 2, 0, 1, 1}, {1, 3, 1, 0, 2}};  // s22 - s21 s12 = 3-2 = 1
  VecI pi{2, 1, 4, 1, 3};
  std::optional<Prop81Result> r = proposition_8_1(s, pi);
  ASSERT_TRUE(r.has_value());
  MatI t = MatI::vstack(s, MatI::row(pi));
  MatZ hnf_kernel = lattice::kernel_basis(to_bigint(t));
  MatZ prop_kernel(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    prop_kernel(i, 0) = r->u4[i];
    prop_kernel(i, 1) = r->u5[i];
  }
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_TRUE(lattice::lattice_contains(hnf_kernel,
                                          prop_kernel.column_vector(c)));
    EXPECT_TRUE(lattice::lattice_contains(prop_kernel,
                                          hnf_kernel.column_vector(c)));
  }
}

TEST(Prop81, ValidatesPreconditions) {
  MatI bad{{2, 0, 1, -1, 0}, {0, 1, -1, 0, 1}};  // s11 != 1
  EXPECT_THROW(proposition_8_1(bad, VecI{1, 1, 1, 1, 1}),
               std::invalid_argument);
  MatI wrong_shape{{1, 0, 0}, {0, 1, 0}};
  EXPECT_THROW(proposition_8_1(wrong_shape, VecI{1, 1, 1}),
               std::invalid_argument);
}

TEST(Prop81, DegenerateHChain) {
  // Pi orthogonal to w3 and w4 (h33 = h34 = 0) but not w5.
  MatI s{{1, 0, 0, 0, 0}, {0, 1, 0, 0, 0}};
  // w3 = e3, w4 = e4, w5 = e5 here (c constants vanish).
  VecI pi{1, 1, 0, 0, 7};
  std::optional<Prop81Result> r = proposition_8_1(s, pi);
  ASSERT_TRUE(r.has_value());
  MatZ t = to_bigint(MatI::vstack(s, MatI::row(pi)));
  EXPECT_TRUE(linalg::is_zero_vector(t * r->u4));
  EXPECT_TRUE(linalg::is_zero_vector(t * r->u5));
  // Fully degenerate: rank(T) < 3.
  VecI pi0{1, 1, 0, 0, 0};
  EXPECT_FALSE(proposition_8_1(s, pi0).has_value());
}

}  // namespace
}  // namespace sysmap::search
