// Parity suite for search::MappingPipeline (search/pipeline.cpp): the
// fused scoring path must be BIT-IDENTICAL to per-space cold calls --
// per solution field, per candidate space, warm or cold caches -- and the
// fused sweeps built on it (explore_design_space, the joint single-winner
// query) must reproduce their seed oracles field for field across every
// thread count and verdict-cache setting.  Runs under TSan in CI (the parallel joint
// cases exercise the shared fusion state, the schedule-orbit map, the
// level memo and the cross-space incumbent cap concurrently).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/mapper.hpp"
#include "model/gallery.hpp"
#include "search/pipeline.hpp"
#include "search/space_optimal.hpp"
#include "search/verdict_cache.hpp"

namespace sysmap::search {
namespace {

std::vector<std::size_t> parity_thread_counts() {
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return {1, 2, 7, hw};
}

// Every non-advisory MappingSolution field.  `truncated_by_cap` and the
// fusion counters are advisory by contract and deliberately not compared.
void expect_same_solution(const MappingSolution& cold,
                          const MappingSolution& fused,
                          const std::string& label) {
  EXPECT_EQ(cold.found, fused.found) << label;
  EXPECT_EQ(cold.candidates_tested, fused.candidates_tested) << label;
  EXPECT_EQ(cold.ilp_nodes, fused.ilp_nodes) << label;
  EXPECT_EQ(cold.method_used, fused.method_used) << label;
  if (!cold.found || !fused.found) return;
  EXPECT_EQ(cold.pi, fused.pi) << label;
  EXPECT_EQ(cold.objective, fused.objective) << label;
  EXPECT_EQ(cold.makespan, fused.makespan) << label;
  EXPECT_EQ(cold.verdict.status, fused.verdict.status) << label;
  EXPECT_EQ(cold.verdict.rule, fused.verdict.rule) << label;
  EXPECT_EQ(cold.verdict.witness.has_value(),
            fused.verdict.witness.has_value())
      << label;
  if (cold.verdict.witness && fused.verdict.witness) {
    EXPECT_EQ(*cold.verdict.witness, *fused.verdict.witness) << label;
  }
  ASSERT_EQ(cold.array.has_value(), fused.array.has_value()) << label;
  if (cold.array && fused.array) {
    EXPECT_EQ(cold.array->p, fused.array->p) << label;
    EXPECT_EQ(cold.array->k, fused.array->k) << label;
    EXPECT_EQ(cold.array->delays, fused.array->delays) << label;
    EXPECT_EQ(cold.array->hops, fused.array->hops) << label;
    EXPECT_EQ(cold.array->buffers, fused.array->buffers) << label;
    EXPECT_EQ(cold.array->processors, fused.array->processors) << label;
  }
}

// score() with fusion armed and no cap vs the stateless cold path, space
// by space over the whole candidate pool -- then a SECOND pass over the
// same pool, where the schedule-orbit entries and the shared verdict
// cache are warm and every hit must still reproduce the cold result bit
// for bit.
void run_score_parity(const model::UniformDependenceAlgorithm& algo,
                      Int max_entry, std::size_t dims) {
  SpaceSearchOptions pool_options;
  pool_options.max_entry = max_entry;
  pool_options.array_dims = dims;
  const std::vector<MatI> spaces =
      candidate_spaces(algo.dimension(), pool_options);
  ASSERT_FALSE(spaces.empty());

  PipelineOptions options;
  options.design_array = false;
  const MappingPipeline cold(options);
  MappingPipeline fused(options);
  fused.enable_fusion({});

  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < spaces.size(); ++i) {
      MappingSolution cold_solution;
      MappingSolution fused_solution;
      bool cold_threw = false;
      bool fused_threw = false;
      try {
        cold_solution = cold.find_time_optimal(algo, spaces[i]);
      } catch (const std::exception&) {
        cold_threw = true;
      }
      try {
        fused_solution = fused.score(algo, spaces[i]);
      } catch (const std::exception&) {
        fused_threw = true;
      }
      const std::string label =
          std::string(algo.name()) + "/space" + std::to_string(i) +
          "/pass" + std::to_string(pass);
      EXPECT_EQ(cold_threw, fused_threw) << label;
      if (cold_threw || fused_threw) continue;
      expect_same_solution(cold_solution, fused_solution, label);
    }
  }
  // The second pass re-visits every space, so at least the exact-repeat
  // schedule-orbit keys must have hit.
  const MappingPipeline::FusionStats stats = fused.fusion_stats();
  EXPECT_GT(stats.schedule_orbit_hits, 0u) << algo.name();
}

TEST(PipelineParity, ScoreMatchesColdMatmulIlpRoute) {
  // dims = n-2: every space takes the ILP + certification route.
  run_score_parity(model::matmul(4), 1, 1);
}

TEST(PipelineParity, ScoreMatchesColdMatmulProcedureRoute) {
  // dims = n-1: square T, pure Procedure 5.1 route, orbit cache live.
  run_score_parity(model::matmul(3), 1, 2);
}

TEST(PipelineParity, ScoreMatchesColdUnitCube) {
  // n = 4, dims = 1: k + 1 < n keeps ILP out; the equal-mu cube has the
  // richest schedule-orbit structure (full symmetric column group).
  run_score_parity(model::unit_cube_algorithm(4, 2), 1, 1);
}

TEST(PipelineParity, MapperFacadeDelegatesToPipeline) {
  // The core facade is a thin wrapper now; its end-to-end result (array
  // design included) must match the pipeline's cold path exactly.
  const model::UniformDependenceAlgorithm algo = model::matmul(4);
  const MatI space{{1, 1, 1}};
  const core::Mapper mapper;
  const MappingPipeline pipeline;
  expect_same_solution(pipeline.find_time_optimal(algo, space),
                       mapper.find_time_optimal(algo, space), "facade");
}

TEST(PipelineParity, InclusiveCapKeepsTiesAndTruncatesLosers) {
  const model::UniformDependenceAlgorithm algo = model::matmul(4);
  const MatI space{{1, 0, 0}, {0, 1, 0}};  // square T: Procedure route
  PipelineOptions options;
  options.design_array = false;
  MappingPipeline pipeline(options);
  pipeline.enable_fusion({});
  const MappingSolution cold = pipeline.find_time_optimal(algo, space);
  ASSERT_TRUE(cold.found);

  // cap == optimum (a tie): scored exactly as the cold path.
  expect_same_solution(cold, pipeline.score(algo, space, cold.objective),
                       "cap-tie");
  // cap < optimum: provably cannot beat the incumbent -- not found, and
  // the advisory flag reports the truncation.
  MappingPipeline fresh(options);  // fresh fusion state: no orbit entry
  fresh.enable_fusion({});
  const MappingSolution truncated =
      fresh.score(algo, space, cold.objective - 1);
  EXPECT_FALSE(truncated.found);
  EXPECT_TRUE(truncated.truncated_by_cap);
}

void expect_same_design(const DesignSpaceResult& seed,
                        const DesignSpaceResult& fast,
                        const std::string& label) {
  EXPECT_EQ(seed.spaces_tested, fast.spaces_tested) << label;
  EXPECT_EQ(seed.feasible_spaces, fast.feasible_spaces) << label;
  ASSERT_EQ(seed.pareto.size(), fast.pareto.size()) << label;
  for (std::size_t i = 0; i < seed.pareto.size(); ++i) {
    EXPECT_EQ(seed.pareto[i].space, fast.pareto[i].space) << label << i;
    EXPECT_EQ(seed.pareto[i].pi, fast.pareto[i].pi) << label << i;
    EXPECT_EQ(seed.pareto[i].makespan, fast.pareto[i].makespan) << label << i;
    EXPECT_EQ(seed.pareto[i].cost.processors, fast.pareto[i].cost.processors)
        << label << i;
    EXPECT_EQ(seed.pareto[i].cost.wire_length, fast.pareto[i].cost.wire_length)
        << label << i;
  }
}

void run_explore_parity(const model::UniformDependenceAlgorithm& algo,
                        Int max_entry, std::size_t dims) {
  SpaceSearchOptions base;
  base.max_entry = max_entry;
  base.array_dims = dims;
  const DesignSpaceResult seed = explore_design_space_seed(algo, base);
  for (bool with_cache : {false, true}) {
    for (std::size_t threads : parity_thread_counts()) {
      VerdictCache cache;
      SpaceSearchOptions options = base;
      if (with_cache) options.verdict_cache = &cache;
      options.num_threads = threads;
      expect_same_design(seed, explore_design_space(algo, options),
                         std::string(algo.name()) + "/t" +
                             std::to_string(threads) +
                             (with_cache ? "/cache" : "/nocache"));
    }
  }
}

TEST(PipelineParity, ExploreDesignSpaceMatmul) {
  run_explore_parity(model::matmul(4), 1, 1);
}

TEST(PipelineParity, ExploreDesignSpaceUnitCube) {
  run_explore_parity(model::unit_cube_algorithm(4, 2), 1, 1);
}

void expect_same_joint(const JointMappingResult& seed,
                       const JointMappingResult& fast,
                       const std::string& label) {
  EXPECT_EQ(seed.found, fast.found) << label;
  EXPECT_EQ(seed.spaces_tested, fast.spaces_tested) << label;
  if (!seed.found || !fast.found) return;
  EXPECT_EQ(seed.space, fast.space) << label;
  EXPECT_EQ(seed.pi, fast.pi) << label;
  EXPECT_EQ(seed.objective, fast.objective) << label;
  EXPECT_EQ(seed.makespan, fast.makespan) << label;
  EXPECT_EQ(seed.verdict.status, fast.verdict.status) << label;
  EXPECT_EQ(seed.verdict.rule, fast.verdict.rule) << label;
  EXPECT_EQ(seed.cost.processors, fast.cost.processors) << label;
  EXPECT_EQ(seed.cost.wire_length, fast.cost.wire_length) << label;
}

void run_joint_parity(
    const model::UniformDependenceAlgorithm& algo, Int max_entry,
    std::size_t dims,
    const std::vector<std::size_t>& thread_counts = parity_thread_counts()) {
  SpaceSearchOptions base;
  base.max_entry = max_entry;
  base.array_dims = dims;
  const JointMappingResult seed = joint_time_optimal_mapping_seed(algo, base);
  for (bool with_cache : {false, true}) {
    for (std::size_t threads : thread_counts) {
      VerdictCache cache;
      SpaceSearchOptions options = base;
      if (with_cache) options.verdict_cache = &cache;
      options.num_threads = threads;
      expect_same_joint(seed, joint_time_optimal_mapping(algo, options),
                        std::string(algo.name()) + "/t" +
                            std::to_string(threads) +
                            (with_cache ? "/cache" : "/nocache"));
    }
  }
}

TEST(PipelineParity, JointMatmulIlpRoute) {
  run_joint_parity(model::matmul(4), 1, 1);
}

TEST(PipelineParity, JointMatmulProcedureRoute) {
  run_joint_parity(model::matmul(3), 1, 2);
}

TEST(PipelineParity, JointUnitCube) {
  run_joint_parity(model::unit_cube_algorithm(4, 2), 1, 1);
}

TEST(PipelineParity, JointTransitiveClosure) {
  run_joint_parity(model::transitive_closure(3), 1, 1);
}

TEST(PipelineParity, JointLevelMemoAtOneTwoFourThreads) {
  // Larger pools, where the pipeline's level memo lists most levels after
  // the first spaces and the workers replay them concurrently: the ILP
  // route's certification sweeps, the Procedure 5.1 route and a 4-D
  // k = n-1 pool.
  const std::vector<std::size_t> threads = {1, 2, 4};
  run_joint_parity(model::matmul(6), 2, 1, threads);
  run_joint_parity(model::lu_decomposition(5), 1, 2, threads);
  run_joint_parity(model::unit_cube_algorithm(4, 2), 1, 2, threads);
}

}  // namespace
}  // namespace sysmap::search
