// Canonical-form verdict cache: key canonicalization, cache mechanics,
// cached-vs-uncached screen parity and (the point of the exercise) verdict
// reuse across Pi and S candidates without perturbing a single result bit.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "mapping/canonical_key.hpp"
#include "model/gallery.hpp"
#include "search/enumerate.hpp"
#include "search/fixed_space.hpp"
#include "search/procedure51.hpp"
#include "search/space_optimal.hpp"
#include "search/verdict_cache.hpp"

namespace sysmap::search {
namespace {

using mapping::ConflictKey;

TEST(CanonicalKey, GammaKeyInvariantUnderSignAndScale) {
  model::IndexSet set(VecI{4, 5, 6});
  const VecI gamma{2, -4, 6};
  const ConflictKey base = mapping::canonical_gamma_key(gamma, set, 1);
  // Same ray: negation and (positive or negative) scaling.
  EXPECT_EQ(base, mapping::canonical_gamma_key(VecI{-2, 4, -6}, set, 1));
  EXPECT_EQ(base, mapping::canonical_gamma_key(VecI{1, -2, 3}, set, 1));
  EXPECT_EQ(base, mapping::canonical_gamma_key(VecI{6, -12, 18}, set, 1));
  EXPECT_EQ(base.hash(),
            mapping::canonical_gamma_key(VecI{-2, 4, -6}, set, 1).hash());
  // Different ray, different oracle, different extents: all distinct.
  EXPECT_FALSE(base == mapping::canonical_gamma_key(VecI{1, 2, 3}, set, 1));
  EXPECT_FALSE(base == mapping::canonical_gamma_key(gamma, set, 2));
  model::IndexSet other(VecI{4, 5, 7});
  EXPECT_FALSE(base == mapping::canonical_gamma_key(gamma, other, 1));
}

TEST(CanonicalKey, WideGammaKeyAgreesWithNarrow) {
  model::IndexSet set(VecI{4, 5, 6});
  VecZ wide{exact::BigInt(2), exact::BigInt(-4), exact::BigInt(6)};
  std::optional<ConflictKey> key = mapping::canonical_gamma_key(wide, set, 1);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, mapping::canonical_gamma_key(VecI{1, -2, 3}, set, 1));
}

TEST(CanonicalKey, KernelKeyInvariantUnderBasisPresentation) {
  model::IndexSet set(VecI{3, 3, 3, 3});
  // A fake HNF transform whose kernel basis is columns 2..3.
  MatZ u(4, 4);
  const Int cols[4][4] = {{1, 0, 2, 0},
                          {0, 1, -1, 3},
                          {0, 0, 1, 1},
                          {0, 0, 0, 2}};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) u(i, j) = exact::BigInt(cols[i][j]);
  }
  std::optional<ConflictKey> base =
      mapping::canonical_kernel_key(u, 2, set, 2, 1);
  ASSERT_TRUE(base.has_value());
  // Negate one basis column and swap the two: same lattice, same key.
  MatZ v(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    v(i, 2) = u(i, 3);
    v(i, 3) = exact::BigInt(0) - u(i, 2);
  }
  std::optional<ConflictKey> same =
      mapping::canonical_kernel_key(v, 2, set, 2, 1);
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(*base, *same);
  // A column scaled by 2 is normalized back to the same primitive ray --
  // by construction the keys only ever see primitive columns (kernel
  // bases come from unimodular transforms), so this is the safe side of
  // the canonicalization.
  MatZ w = u;
  for (std::size_t i = 0; i < 4; ++i) w(i, 2) = u(i, 2) * exact::BigInt(2);
  std::optional<ConflictKey> scaled =
      mapping::canonical_kernel_key(w, 2, set, 2, 1);
  ASSERT_TRUE(scaled.has_value());
  EXPECT_EQ(*base, *scaled);
  // A genuinely different basis vector must produce a different key.
  MatZ x = u;
  x(0, 2) = exact::BigInt(5);
  std::optional<ConflictKey> different =
      mapping::canonical_kernel_key(x, 2, set, 2, 1);
  ASSERT_TRUE(different.has_value());
  EXPECT_FALSE(*base == *different);
}

TEST(VerdictCache, FirstWriterWinsAndCountersTrack) {
  model::IndexSet set(VecI{4, 5, 6});
  const ConflictKey key = mapping::canonical_gamma_key(VecI{1, -2, 3}, set, 1);
  VerdictCache cache(4);
  EXPECT_FALSE(cache.lookup(key).has_value());  // miss
  cache.insert(key, true, "rule A");
  cache.insert(key, false, "rule B");  // dropped: first writer wins
  std::optional<VerdictCache::Outcome> out = cache.lookup(key);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->conflict_free);
  EXPECT_EQ(out->rule, "rule A");
  const VerdictCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.lookup(key).has_value());
}

TEST(VerdictCache, ExactAcceptAdmissionIsRestrictedToSignPattern) {
  EXPECT_TRUE(exact_accept_rule_cacheable(
      "sign-pattern: every beta sign class certified"));
  EXPECT_FALSE(exact_accept_rule_cacheable(
      "sign-pattern: every beta sign class certified (LLL-reduced basis)"));
  EXPECT_FALSE(
      exact_accept_rule_cacheable("Theorem 4.5: gcd rows with nonsingular "
                                  "minor"));
}

struct GalleryCase {
  model::UniformDependenceAlgorithm algo;
  MatI space;
};

std::vector<GalleryCase> gallery_cases() {
  std::vector<GalleryCase> cases;
  cases.push_back({model::matmul(3), MatI{{1, 1, -1}}});
  cases.push_back({model::transitive_closure(3), MatI{{0, 0, 1}}});
  cases.push_back({model::convolution(4, 3), MatI(0, 2)});
  cases.push_back({model::unit_cube_algorithm(4, 2), MatI{{1, 0, 0, 0}}});
  cases.push_back({model::unit_cube_algorithm(4, 2), MatI(0, 4)});
  return cases;
}

void expect_same_result(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.found, b.found);
  EXPECT_EQ(a.candidates_tested, b.candidates_tested);
  EXPECT_EQ(a.candidates_passed_dependence, b.candidates_passed_dependence);
  if (!a.found) return;
  EXPECT_EQ(a.pi, b.pi);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.verdict.status, b.verdict.status);
  EXPECT_EQ(a.verdict.rule, b.verdict.rule);
}

// The cache must be invisible in every result bit, under both oracles it
// serves, serial and repeated.
TEST(VerdictCache, SerialSearchBitIdenticalWithAndWithoutCache) {
  for (const GalleryCase& c : gallery_cases()) {
    for (ConflictOracle oracle :
         {ConflictOracle::kExact, ConflictOracle::kPaperTheorems}) {
      SCOPED_TRACE(c.algo.name());
      SearchOptions plain;
      plain.oracle = oracle;
      const SearchResult uncached = procedure_5_1(c.algo, c.space, plain);
      VerdictCache cache;
      SearchOptions with_cache = plain;
      with_cache.verdict_cache = &cache;
      const SearchResult cold = procedure_5_1(c.algo, c.space, with_cache);
      expect_same_result(uncached, cold);
      // A miss alone need not be admitted (the k <= n-2 accepts the exact
      // ladder decides past the sign-pattern rung are not), so the warm
      // run must hit only when the cold run stored an entry.
      const bool admitted = cache.stats().insertions > 0;
      const SearchResult warm = procedure_5_1(c.algo, c.space, with_cache);
      expect_same_result(uncached, warm);
      if (admitted) {
        EXPECT_GT(warm.cache_hits, 0u) << c.algo.name();
      }
    }
  }
}

// Cross-S reuse -- the multi-S sweep the ISSUE targets: a scaled space
// part yields the same primitive conflict rays, so the second search must
// run hot (and still answer identically to its own uncached run).
TEST(VerdictCache, HitsAccumulateAcrossScaledSpaces) {
  model::UniformDependenceAlgorithm algo = model::matmul(3);
  const MatI s1{{1, 1, -1}};
  const MatI s2{{2, 2, -2}};
  VerdictCache cache;
  SearchOptions opts;
  opts.verdict_cache = &cache;
  const SearchResult first = procedure_5_1(algo, s1, opts);
  const SearchResult second = procedure_5_1(algo, s2, opts);
  EXPECT_GT(first.cache_misses, 0u);
  EXPECT_GT(second.cache_hits, 0u);
  expect_same_result(procedure_5_1(algo, s2, {}), second);
}

// Cached screen parity, per candidate: with a shared cache, cold and
// then warm, the screen must return the uncached screen's verdict (status
// and rule) on every candidate of several levels.
TEST(VerdictCache, BatchScreenMatchesScalarScreen) {
  model::UniformDependenceAlgorithm algo = model::matmul(4);
  FixedSpaceContext ctx(algo.index_set(), MatI{{1, 1, -1}});
  VerdictCache cache;
  for (Int f : {4, 8, 12}) {
    std::vector<VecI> pis;
    for_each_schedule_at(algo.index_set(), f, [&](const VecI& pi) {
      pis.push_back(pi);
      return true;
    });
    ASSERT_FALSE(pis.empty());
    for (ConflictOracle oracle :
         {ConflictOracle::kExact, ConflictOracle::kPaperTheorems}) {
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t j = 0; j < pis.size(); ++j) {
          const std::optional<mapping::ConflictVerdict> scalar =
              ctx.screen(oracle, pis[j]);
          const std::optional<mapping::ConflictVerdict> cached =
              ctx.screen(oracle, pis[j], &cache);
          ASSERT_EQ(cached.has_value(), scalar.has_value())
              << "f " << f << " pass " << pass << " col " << j;
          if (scalar) {
            EXPECT_EQ(cached->status, scalar->status);
            EXPECT_EQ(cached->rule, scalar->rule);
          }
        }
      }
    }
  }
  EXPECT_GT(cache.stats().entries, 0u);
  EXPECT_GT(cache.stats().hits, 0u);
}

// Problem 6.1 sweep: the cached path must pick the same optimum and the
// sweep's mirrored/scaled S candidates must actually share entries.
TEST(VerdictCache, SpaceOptimalSweepBitIdenticalAndHot) {
  model::UniformDependenceAlgorithm algo = model::matmul(3);
  const VecI pi{1, 1, 1};
  const SpaceSearchResult plain = space_optimal_mapping(algo, pi);
  VerdictCache cache;
  SpaceSearchOptions opts;
  opts.verdict_cache = &cache;
  const SpaceSearchResult cached = space_optimal_mapping(algo, pi, opts);
  ASSERT_EQ(plain.found, cached.found);
  EXPECT_EQ(plain.candidates_tested, cached.candidates_tested);
  if (plain.found) {
    EXPECT_EQ(plain.space, cached.space);
    EXPECT_EQ(plain.cost.processors, cached.cost.processors);
    EXPECT_EQ(plain.cost.wire_length, cached.cost.wire_length);
    EXPECT_EQ(plain.verdict.rule, cached.verdict.rule);
  }
  EXPECT_GT(cached.cache_misses, 0u);
  const SpaceSearchResult warm = space_optimal_mapping(algo, pi, opts);
  EXPECT_GT(warm.cache_hits, 0u);
}

}  // namespace
}  // namespace sysmap::search
