// Parity and correctness suite for the fast Problem 6.1/6.2 engine
// (search/space_optimal.cpp): the fast sweep must be BIT-IDENTICAL to the
// preserved seed engine in (found, space, cost, verdict,
// candidates_tested) for every thread count and verdict-cache setting,
// the image-bitset counter must agree with the std::set reference on
// random space/box pairs, the candidate enumerator must stay lazy, and the
// enumeration-budget check must behave exactly at the boundary.  Runs
// under TSan in CI (the parallel cases exercise the shared feed,
// incumbent bound and verdict cache).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "model/gallery.hpp"
#include "search/space_optimal.hpp"
#include "search/verdict_cache.hpp"
#include "support/packed_coord.hpp"

namespace sysmap::search {
namespace {

std::vector<std::size_t> parity_thread_counts() {
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return {1, 2, 7, hw};
}

void expect_same_result(const SpaceSearchResult& seed,
                        const SpaceSearchResult& fast,
                        const std::string& label) {
  EXPECT_EQ(seed.found, fast.found) << label;
  EXPECT_EQ(seed.candidates_tested, fast.candidates_tested) << label;
  if (!seed.found || !fast.found) return;
  EXPECT_EQ(seed.space, fast.space) << label;
  EXPECT_EQ(seed.cost.processors, fast.cost.processors) << label;
  EXPECT_EQ(seed.cost.wire_length, fast.cost.wire_length) << label;
  EXPECT_EQ(seed.verdict.status, fast.verdict.status) << label;
  EXPECT_EQ(seed.verdict.rule, fast.verdict.rule) << label;
  EXPECT_EQ(seed.verdict.witness.has_value(),
            fast.verdict.witness.has_value())
      << label;
  if (seed.verdict.witness && fast.verdict.witness) {
    EXPECT_EQ(*seed.verdict.witness, *fast.verdict.witness) << label;
  }
}

// Runs the seed engine once and the fast engine across every thread
// count, asserting bit-identical results, with and without a shared
// verdict cache.
void run_parity_case(const model::UniformDependenceAlgorithm& algo,
                     const VecI& pi, Int max_entry, std::size_t dims) {
  SpaceSearchOptions base;
  base.max_entry = max_entry;
  base.array_dims = dims;

  for (bool with_cache : {false, true}) {
    VerdictCache seed_cache;
    SpaceSearchOptions seed_options = base;
    if (with_cache) seed_options.verdict_cache = &seed_cache;
    const SpaceSearchResult seed =
        space_optimal_mapping_seed(algo, pi, seed_options);

    for (std::size_t threads : parity_thread_counts()) {
      VerdictCache fast_cache;
      SpaceSearchOptions options = base;
      if (with_cache) options.verdict_cache = &fast_cache;
      options.num_threads = threads;
      const SpaceSearchResult fast = space_optimal_mapping(algo, pi, options);
      expect_same_result(seed, fast,
                         std::string(algo.name()) + "/t" +
                             std::to_string(threads) +
                             (with_cache ? "/cache" : "/nocache"));
    }
  }
}

TEST(SpaceSearchParity, MatmulFixedSchedule) {
  run_parity_case(model::matmul(4), VecI{1, 4, 1}, 1, 1);
}

TEST(SpaceSearchParity, MatmulWiderPool) {
  run_parity_case(model::matmul(3), VecI{1, 3, 1}, 2, 1);
}

TEST(SpaceSearchParity, MatmulInfeasibleSchedule) {
  // Pi = [1,1,1] admits no conflict-free max_entry=1 space: the infeasible
  // sweep must agree candidate-for-candidate too.
  run_parity_case(model::matmul(4), VecI{1, 1, 1}, 1, 1);
}

TEST(SpaceSearchParity, TransitiveClosure) {
  run_parity_case(model::transitive_closure(3), VecI{5, 1, 1}, 1, 1);
}

TEST(SpaceSearchParity, LuDecomposition) {
  run_parity_case(model::lu_decomposition(3), VecI{1, 3, 1}, 2, 1);
}

TEST(SpaceSearchParity, ConvolutionTwoDimensional) {
  run_parity_case(model::convolution(5, 3), VecI{1, 1}, 2, 1);
}

TEST(SpaceSearchParity, TwoDimensionalArray) {
  run_parity_case(model::matmul(3), VecI{1, 3, 1}, 1, 2);
}

TEST(SpaceSearchParity, DesignSpaceAcrossThreads) {
  for (const auto& algo :
       {model::matmul(3), model::transitive_closure(2)}) {
    SpaceSearchOptions options;
    options.max_entry = 1;
    const DesignSpaceResult seed = explore_design_space_seed(algo, options);
    for (std::size_t threads : parity_thread_counts()) {
      SpaceSearchOptions fast_options = options;
      fast_options.num_threads = threads;
      const DesignSpaceResult fast =
          explore_design_space(algo, fast_options);
      const std::string label =
          std::string(algo.name()) + "/t" + std::to_string(threads);
      EXPECT_EQ(seed.spaces_tested, fast.spaces_tested) << label;
      EXPECT_EQ(seed.feasible_spaces, fast.feasible_spaces) << label;
      ASSERT_EQ(seed.pareto.size(), fast.pareto.size()) << label;
      for (std::size_t i = 0; i < seed.pareto.size(); ++i) {
        EXPECT_EQ(seed.pareto[i].space, fast.pareto[i].space) << label;
        EXPECT_EQ(seed.pareto[i].pi, fast.pareto[i].pi) << label;
        EXPECT_EQ(seed.pareto[i].makespan, fast.pareto[i].makespan) << label;
        EXPECT_EQ(seed.pareto[i].cost.processors,
                  fast.pareto[i].cost.processors)
            << label;
        EXPECT_EQ(seed.pareto[i].cost.wire_length,
                  fast.pareto[i].cost.wire_length)
            << label;
      }
    }
  }
}

TEST(SpaceSearchParity, ParetoFrontAliasesExplore) {
  const model::UniformDependenceAlgorithm algo = model::matmul(2);
  const DesignSpaceResult a = explore_design_space(algo);
  const DesignSpaceResult b = pareto_front(algo);
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (std::size_t i = 0; i < a.pareto.size(); ++i) {
    EXPECT_EQ(a.pareto[i].space, b.pareto[i].space);
    EXPECT_EQ(a.pareto[i].makespan, b.pareto[i].makespan);
  }
}

// ---- image counting oracle -------------------------------------------------

// |{S j : j in J}| by evaluate_array_cost's std::set walk -- the reference
// every count is held to.
Int set_walk_count(const model::IndexSet& set, const MatI& space) {
  const model::UniformDependenceAlgorithm box(
      "box", set, MatI::identity(set.dimension()));
  return evaluate_array_cost(box, space).processors;
}

TEST(ImageCountOracle, RandomSpacesMatchSetReference) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<Int> entry(-3, 3);
  std::uniform_int_distribution<Int> extent(1, 6);
  std::uniform_int_distribution<int> dim_n(2, 4);
  std::uniform_int_distribution<int> dim_m(1, 3);
  std::uniform_int_distribution<int> coin(0, 3);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = static_cast<std::size_t>(dim_n(rng));
    const std::size_t m =
        std::min<std::size_t>(static_cast<std::size_t>(dim_m(rng)), n);
    VecI mu(n);
    for (std::size_t i = 0; i < n; ++i) mu[i] = extent(rng);
    const model::IndexSet set{mu};
    MatI space(m, n);
    for (std::size_t r = 0; r < m; ++r) {
      bool nonzero = false;
      while (!nonzero) {
        for (std::size_t c = 0; c < n; ++c) {
          space(r, c) = entry(rng);
          nonzero = nonzero || space(r, c) != 0;
        }
      }
    }
    // A zero column s_i = 0 (the axis adds nothing to the image).
    if (coin(rng) == 0) {
      const std::size_t c = static_cast<std::size_t>(rng() % n);
      for (std::size_t r = 0; r < m; ++r) space(r, c) = 0;
    }
    const Int reference = set_walk_count(set, space);
    EXPECT_EQ(count_processor_images(set, space), reference)
        << "trial " << trial;

    // A mu_i = 0 axis, which IndexSet cannot hold: the box prod [0, mu_i]
    // with an extra zero-extent axis has the same image as the box
    // without it, whatever that axis's column is.
    const std::size_t at = static_cast<std::size_t>(rng() % (n + 1));
    VecI flat_mu = mu;
    flat_mu.insert(flat_mu.begin() + static_cast<std::ptrdiff_t>(at), 0);
    MatI widened(m, n + 1);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0, src = 0; c <= n; ++c) {
        widened(r, c) = c == at ? entry(rng) * 1000 : space(r, src++);
      }
    }
    const std::optional<support::ImageBitset> image =
        support::ImageBitset::build(widened, flat_mu);
    ASSERT_TRUE(image.has_value()) << "trial " << trial;
    EXPECT_EQ(static_cast<Int>(image->count()), reference)
        << "trial " << trial;
  }

  // Image boxes past the bitset's bound (large entries, tiny boxes) and
  // boxes that do not pack into uint64 take the std::set walk.
  const model::IndexSet tiny{VecI{1, 2, 1}};
  const MatI wide{{1, 100000, -3}, {7, 0, 100000}};
  ASSERT_TRUE(support::ImagePacking::build(wide, tiny.bounds()).has_value());
  EXPECT_FALSE(support::ImageBitset::build(wide, tiny.bounds()).has_value());
  EXPECT_EQ(count_processor_images(tiny, wide), set_walk_count(tiny, wide));
  const Int huge = Int{1} << 40;
  const MatI unpackable{{huge, 1, -huge}, {1, huge, huge}};
  EXPECT_FALSE(
      support::ImagePacking::build(unpackable, tiny.bounds()).has_value());
  EXPECT_EQ(count_processor_images(tiny, unpackable),
            set_walk_count(tiny, unpackable));
}

TEST(ImageCountOracle, PackingRejectsOverflowingBoxes) {
  // A row of huge entries overflows the image bounds; the builder must
  // decline instead of wrapping.
  const model::IndexSet set{VecI{std::numeric_limits<Int>::max() / 2, 4}};
  const MatI space{{3, 1}};
  EXPECT_FALSE(support::ImagePacking::build(space, set.bounds()).has_value());
}

// ---- lazy enumeration ------------------------------------------------------

TEST(SpaceEnumeratorTest, MatchesMaterializedOrder) {
  SpaceSearchOptions options;
  options.max_entry = 1;
  options.array_dims = 2;
  const std::vector<MatI> all = candidate_spaces(3, options);
  SpaceEnumerator enumerator(3, options);
  MatI next;
  for (const MatI& expected : all) {
    ASSERT_TRUE(enumerator.next(next));
    EXPECT_EQ(expected, next);
  }
  EXPECT_FALSE(enumerator.next(next));
  EXPECT_EQ(enumerator.produced(), all.size());
}

TEST(SpaceEnumeratorTest, LazyDrawFromAstronomicalCandidateSet) {
  // n = 8, max_entry = 1: the row pool has (3^8 - 1) / 2 = 3280 rows, so
  // 4-row candidates number C(3280, 4) ~ 4.8e12 -- materializing them
  // up-front (the seed behavior) would exhaust memory long before the
  // first draw.  The enumerator must hold ONLY the pool and serve draws
  // immediately.
  SpaceSearchOptions options;
  options.max_entry = 1;
  options.array_dims = 4;
  SpaceEnumerator enumerator(8, options);
  EXPECT_EQ(enumerator.pool_size(), 3280u);
  MatI candidate;
  for (int draws = 0; draws < 50; ++draws) {
    ASSERT_TRUE(enumerator.next(candidate));
    EXPECT_EQ(candidate.rows(), 4u);
    EXPECT_EQ(candidate.cols(), 8u);
  }
  EXPECT_EQ(enumerator.produced(), 50u);
}

// ---- enumeration budget boundary -------------------------------------------

TEST(EnumerationBudget, ExactBoundary) {
  const model::UniformDependenceAlgorithm algo = model::matmul(2);
  const std::uint64_t points = algo.index_set().size_u64();  // 27
  const VecI pi{1, 2, 1};
  for (auto* engine : {&space_optimal_mapping, &space_optimal_mapping_seed}) {
    SpaceSearchOptions options;
    options.enumeration_budget = points;
    EXPECT_NO_THROW((*engine)(algo, pi, options));
    options.enumeration_budget = points + 1;
    EXPECT_NO_THROW((*engine)(algo, pi, options));
    options.enumeration_budget = points - 1;
    EXPECT_THROW((*engine)(algo, pi, options), std::invalid_argument);
  }
}

TEST(EnumerationBudget, HugeBudgetDoesNotOverflow) {
  // The seed converted the budget through Int then BigInt, so UINT64_MAX
  // became -1 and EVERY index set was rejected.  The unsigned comparison
  // must accept instead.
  const model::UniformDependenceAlgorithm algo = model::matmul(2);
  SpaceSearchOptions options;
  options.enumeration_budget = std::numeric_limits<std::uint64_t>::max();
  for (auto* engine : {&space_optimal_mapping, &space_optimal_mapping_seed}) {
    const SpaceSearchResult r = (*engine)(algo, VecI{1, 2, 1}, options);
    EXPECT_TRUE(r.found);
  }
}

}  // namespace
}  // namespace sysmap::search
