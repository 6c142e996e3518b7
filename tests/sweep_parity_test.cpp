// Parity of Procedure 5.1's pruned sweep and of the k <= n-2 screen with
// their unpruned, from-scratch references:
//   - LevelCounts against enumeration, row by row;
//   - DependenceSweep against for_each_schedule_at + respects_dependences,
//     level by level (visit order and candidates_tested);
//   - procedure_5_1 against a test-local unpruned Procedure 5.1 (the plain
//     walk, the dependence test and run_conflict_oracle on T = [S; Pi]):
//     found, Pi, objective, verdict and both candidate counts, over the
//     gallery and random algorithms, every oracle, resumed scans and a
//     target interconnect;
//   - FixedSpaceContext::kernel_image against the HNF of [S; Pi]: rank,
//     kernel block and cache key, and the box-norm reject's witnesses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exact/bigint.hpp"
#include "exact/checked.hpp"
#include "lattice/hnf_impl.hpp"
#include "mapping/canonical_key.hpp"
#include "mapping/conflict.hpp"
#include "mapping/mapping_matrix.hpp"
#include "mapping/verdicts_impl.hpp"
#include "model/gallery.hpp"
#include "schedule/interconnect.hpp"
#include "schedule/linear_schedule.hpp"
#include "search/enumerate.hpp"
#include "search/fixed_space.hpp"
#include "search/procedure51.hpp"
#include "search/verdict_cache.hpp"

namespace sysmap::search {
namespace {

using exact::BigInt;
using mapping::ConflictVerdict;

// Deterministic LCG so every run draws the same cases.
struct Lcg {
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  Int next(Int lo, Int hi) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return lo + static_cast<Int>((state >> 33) % static_cast<std::uint64_t>(
                                                     hi - lo + 1));
  }
};

// ---------------------------------------------------------------------------
// The unpruned reference
// ---------------------------------------------------------------------------

// Procedure 5.1 as the paper states it: every candidate of every level, the
// dependence test, the rank test and the oracle on T = [S; Pi] from
// scratch, and the routing check on a target.
SearchResult unpruned_reference(const model::UniformDependenceAlgorithm& algo,
                                const MatI& space,
                                const SearchOptions& options) {
  const model::IndexSet& set = algo.index_set();
  const MatI& d = algo.dependence_matrix();
  const Int max_objective = options.max_objective > 0
                                ? options.max_objective
                                : default_max_objective(set);
  SearchResult r;
  for (Int f = std::max<Int>(options.min_objective, 1);
       f <= max_objective && !r.found; ++f) {
    for_each_schedule_at(set, f, [&](const VecI& pi) {
      ++r.candidates_tested;
      if (!schedule::respects_dependences(pi, d)) return true;
      ++r.candidates_passed_dependence;
      const mapping::MappingMatrix t(space, pi);
      if (!t.has_full_rank()) return true;
      ConflictVerdict v = run_conflict_oracle(options.oracle, t, set);
      if (v.status != ConflictVerdict::Status::kConflictFree) return true;
      std::optional<schedule::Routing> routing;
      if (options.target) {
        routing = schedule::route(space, d, *options.target,
                                  schedule::LinearSchedule(pi));
        if (!routing) return true;
      }
      r.found = true;
      r.pi = pi;
      r.objective = f;
      r.makespan = f + 1;
      r.verdict = std::move(v);
      r.routing = std::move(routing);
      return false;
    });
  }
  return r;
}

void expect_same_search(const SearchResult& want, const SearchResult& got) {
  EXPECT_EQ(want.found, got.found);
  EXPECT_EQ(want.candidates_tested, got.candidates_tested);
  EXPECT_EQ(want.candidates_passed_dependence,
            got.candidates_passed_dependence);
  if (!want.found || !got.found) return;
  EXPECT_EQ(want.pi, got.pi);
  EXPECT_EQ(want.objective, got.objective);
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.verdict.status, got.verdict.status);
  EXPECT_EQ(want.verdict.rule, got.verdict.rule);
  ASSERT_EQ(want.verdict.witness.has_value(), got.verdict.witness.has_value());
  if (want.verdict.witness) {
    ASSERT_EQ(want.verdict.witness->size(), got.verdict.witness->size());
    for (std::size_t i = 0; i < want.verdict.witness->size(); ++i) {
      EXPECT_TRUE((*want.verdict.witness)[i] == (*got.verdict.witness)[i]);
    }
  }
  ASSERT_EQ(want.routing.has_value(), got.routing.has_value());
  if (want.routing) {
    EXPECT_EQ(want.routing->total_buffers(), got.routing->total_buffers());
  }
}

// procedure_5_1 with the context and a fresh verdict cache, without the
// context, and with the cache alone: each must match the reference.
void expect_matches_reference(const model::UniformDependenceAlgorithm& algo,
                              const MatI& space, const SearchOptions& base) {
  const SearchResult want = unpruned_reference(algo, space, base);
  {
    SCOPED_TRACE("context, no cache");
    expect_same_search(want, procedure_5_1(algo, space, base));
  }
  {
    SCOPED_TRACE("context and cache");
    VerdictCache cache;
    SearchOptions o = base;
    o.verdict_cache = &cache;
    expect_same_search(want, procedure_5_1(algo, space, o));
  }
  {
    SCOPED_TRACE("from scratch");
    SearchOptions o = base;
    o.use_fixed_space_context = false;
    expect_same_search(want, procedure_5_1(algo, space, o));
  }
}

std::vector<ConflictOracle> oracles_for(const model::IndexSet& set) {
  std::vector<ConflictOracle> out = {ConflictOracle::kPaperTheorems,
                                     ConflictOracle::kExact};
  if (set.size() <= BigInt(400)) out.push_back(ConflictOracle::kBruteForce);
  return out;
}

// ---------------------------------------------------------------------------
// LevelCounts
// ---------------------------------------------------------------------------

std::uint64_t enumerated(const model::IndexSet& set, Int r) {
  std::uint64_t count = 0;
  for_each_schedule_at(set, r, [&](const VecI&) {
    ++count;
    return true;
  });
  return count;
}

TEST(LevelCounts, SuffixRowsMatchEnumeration) {
  Lcg rng;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.next(1, 4));
    VecI mu(n);
    for (Int& m : mu) m = rng.next(1, 5);
    const model::IndexSet set(mu);
    LevelCounts counts(set);
    const Int top = 18;
    ASSERT_TRUE(counts.extend_to(top));
    std::uint64_t cumulative = 0;
    for (Int r = 0; r <= top; ++r) {
      const std::size_t level = static_cast<std::size_t>(r);
      for (std::size_t i = 0; i < n; ++i) {
        const model::IndexSet suffix(VecI(mu.begin() + static_cast<long>(i),
                                          mu.end()));
        EXPECT_EQ(counts.suffix(i, level), enumerated(suffix, r))
            << "i=" << i << " r=" << r;
      }
      EXPECT_EQ(counts.suffix(n, level), r == 0 ? 1u : 0u);
      if (r > 0) cumulative += enumerated(set, r);
      EXPECT_EQ(counts.through(level), cumulative);
    }
  }
}

TEST(LevelCounts, StandsDownOnOverflowAndOversizedBounds) {
  LevelCounts small(model::IndexSet(VecI{1, 2}));
  EXPECT_FALSE(small.extend_to(-1));
  EXPECT_FALSE(small.extend_to(static_cast<Int>(kMaxCountedLevel) + 1));
  EXPECT_TRUE(small.extend_to(40));
  // 64 unit coordinates: N_0(r) >= 2^r * C(64, r) passes 2^64 quickly.
  LevelCounts wide(model::IndexSet(VecI(64, 1)));
  EXPECT_TRUE(wide.extend_to(3));
  EXPECT_FALSE(wide.extend_to(200));
  EXPECT_FALSE(wide.extend_to(201));
  // The levels tabulated before the overflow stay exact.
  EXPECT_TRUE(wide.extend_to(3));
  EXPECT_EQ(wide.suffix(0, 1), 128u);
}

// ---------------------------------------------------------------------------
// DependenceSweep, level by level
// ---------------------------------------------------------------------------

model::UniformDependenceAlgorithm random_algorithm(Lcg& rng, std::size_t n) {
  VecI mu(n);
  for (Int& m : mu) m = rng.next(1, 6);
  const std::size_t m = static_cast<std::size_t>(rng.next(1, 4));
  MatI d(n, m);
  for (;;) {
    for (std::size_t r = 0; r < n; ++r) {
      const bool zero_row = rng.next(0, 3) == 0;
      for (std::size_t c = 0; c < m; ++c) {
        d(r, c) = zero_row ? 0 : rng.next(-2, 2);
      }
    }
    bool zero_column = false;
    for (std::size_t c = 0; c < m; ++c) {
      bool all_zero = true;
      for (std::size_t r = 0; r < n; ++r) all_zero = all_zero && d(r, c) == 0;
      zero_column = zero_column || all_zero;
    }
    if (!zero_column) break;
  }
  return {"random", model::IndexSet(mu), d};
}

TEST(DependenceSweep, VisitsExactlyTheDependenceRespectingCandidates) {
  Lcg rng;
  for (int trial = 0; trial < 40; ++trial) {
    const model::UniformDependenceAlgorithm algo =
        random_algorithm(rng, static_cast<std::size_t>(rng.next(1, 4)));
    const model::IndexSet& set = algo.index_set();
    const MatI& d = algo.dependence_matrix();
    DependenceSweep sweep(set, d);
    LevelCounts counts(set);
    ASSERT_TRUE(counts.extend_to(16));
    for (Int f = 0; f <= 16; ++f) {
      std::vector<VecI> want;
      for_each_schedule_at(set, f, [&](const VecI& pi) {
        if (schedule::respects_dependences(pi, d)) want.push_back(pi);
        return true;
      });
      std::vector<VecI> got;
      std::uint64_t tested = 0;
      EXPECT_TRUE(sweep.walk(f, tested, [&](const VecI& pi) {
        got.push_back(pi);
        return true;
      }));
      EXPECT_EQ(got, want) << "trial " << trial << " f=" << f;
      EXPECT_EQ(tested, counts.suffix(0, static_cast<std::size_t>(f)))
          << "trial " << trial << " f=" << f;
    }
  }
}

TEST(DependenceSweep, AbortCountsThroughTheStoppingCandidate) {
  Lcg rng;
  for (int trial = 0; trial < 30; ++trial) {
    const model::UniformDependenceAlgorithm algo =
        random_algorithm(rng, static_cast<std::size_t>(rng.next(2, 4)));
    const model::IndexSet& set = algo.index_set();
    const MatI& d = algo.dependence_matrix();
    const Int f = rng.next(4, 12);
    std::vector<VecI> passing;
    for_each_schedule_at(set, f, [&](const VecI& pi) {
      if (schedule::respects_dependences(pi, d)) passing.push_back(pi);
      return true;
    });
    if (passing.empty()) continue;
    const VecI stop = passing[static_cast<std::size_t>(
        rng.next(0, static_cast<Int>(passing.size()) - 1))];
    std::uint64_t want = 0;
    for_each_schedule_at(set, f, [&](const VecI& pi) {
      ++want;
      return pi != stop;
    });
    DependenceSweep sweep(set, d);
    std::uint64_t tested = 0;
    EXPECT_FALSE(
        sweep.walk(f, tested, [&](const VecI& pi) { return pi != stop; }));
    EXPECT_EQ(tested, want) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// procedure_5_1 against the unpruned reference
// ---------------------------------------------------------------------------

struct GalleryCase {
  model::UniformDependenceAlgorithm algo;
  MatI space;
};

std::vector<GalleryCase> gallery_cases() {
  return {
      {model::matmul(3), MatI{{1, 1, -1}}},
      {model::matmul(4), MatI{{0, 0, 1}}},
      {model::transitive_closure(3), MatI{{0, 0, 1}}},
      {model::lu_decomposition(3), MatI{{1, 1, 1}}},
      {model::convolution(4, 3), MatI(0, 2)},
      {model::edit_distance(3, 2), MatI(0, 2)},
      {model::matvec(3), MatI(0, 2)},
      {model::unit_cube_algorithm(4, 2), MatI{{1, 0, 0, 0}}},
      {model::unit_cube_algorithm(4, 3), MatI{{1, 1, 1, 1}}},
      {model::unit_cube_algorithm(4, 2), MatI(0, 4)},
      {model::convolution_2d(2, 2, 1, 1), MatI{{1, 0, 1, 0}}},
      {model::matmul(3), MatI{{1, 0, 0}, {0, 1, 0}}},
  };
}

TEST(PrunedSweepParity, GalleryAcrossOracles) {
  for (const GalleryCase& c : gallery_cases()) {
    for (ConflictOracle oracle : oracles_for(c.algo.index_set())) {
      SCOPED_TRACE(c.algo.name() + " oracle " +
                   std::to_string(static_cast<int>(oracle)));
      SearchOptions o;
      o.oracle = oracle;
      o.max_objective = 40;
      expect_matches_reference(c.algo, c.space, o);
    }
  }
}

TEST(PrunedSweepParity, RandomAlgorithmsAndSpaces) {
  Lcg rng;
  int found = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.next(2, 4));
    const model::UniformDependenceAlgorithm algo = random_algorithm(rng, n);
    const std::size_t rows = static_cast<std::size_t>(
        rng.next(0, static_cast<Int>(n) - 1));
    MatI space(rows, n);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < n; ++c) space(r, c) = rng.next(-2, 2);
    }
    const std::vector<ConflictOracle> oracles = oracles_for(algo.index_set());
    SearchOptions o;
    o.oracle = oracles[static_cast<std::size_t>(
        rng.next(0, static_cast<Int>(oracles.size()) - 1))];
    o.max_objective = rng.next(6, 24);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_matches_reference(algo, space, o);
    if (unpruned_reference(algo, space, o).found) ++found;
  }
  EXPECT_GT(found, 10);  // the draws exercise found and not-found scans
}

TEST(PrunedSweepParity, ResumedScans) {
  for (const GalleryCase& c : gallery_cases()) {
    SearchOptions o;
    o.max_objective = 40;
    const SearchResult full = procedure_5_1(c.algo, c.space, o);
    if (!full.found) continue;
    for (Int start : {full.objective / 2, full.objective, full.objective + 1}) {
      SCOPED_TRACE(c.algo.name() + " from " + std::to_string(start));
      SearchOptions resumed = o;
      resumed.min_objective = start;
      expect_matches_reference(c.algo, c.space, resumed);
    }
  }
}

TEST(PrunedSweepParity, TargetInterconnect) {
  SearchOptions o;
  o.target = schedule::Interconnect::nearest_neighbor(1);
  o.max_objective = 40;
  expect_matches_reference(model::matmul(4), MatI{{1, 1, -1}}, o);
  expect_matches_reference(model::transitive_closure(3), MatI{{0, 1, 1}}, o);
  o.target = schedule::Interconnect::nearest_neighbor(2);
  expect_matches_reference(model::matmul(3), MatI{{1, 0, 0}, {0, 1, 0}}, o);
}

TEST(PrunedSweepParity, HugeDependencesWalkEveryCandidate) {
  // |pi . d| reaches 2^63 within a few levels: the levels whose int64
  // bound fails are walked in full and raise the reference's overflow.
  const Int big = Int{1} << 60;
  const model::UniformDependenceAlgorithm algo(
      "huge_d", model::IndexSet(VecI{1, 1}), MatI{{big}, {big}});
  SearchOptions o;
  o.max_objective = 10;
  const SearchResult found = unpruned_reference(algo, MatI(0, 2), o);
  ASSERT_TRUE(found.found);
  EXPECT_EQ(found.objective, 3);  // level 3 is past the int64 bound
  expect_matches_reference(algo, MatI(0, 2), o);
  o.min_objective = 8;  // pi = (0, 8) overflows pi . d
  EXPECT_THROW(unpruned_reference(algo, MatI(0, 2), o), exact::OverflowError);
  EXPECT_THROW(procedure_5_1(algo, MatI(0, 2), o), exact::OverflowError);
}

// ---------------------------------------------------------------------------
// The k <= n-2 screen: kernel block, key, rank and the box-norm reject
// ---------------------------------------------------------------------------

MatI stacked(const MatI& space, const VecI& pi) {
  MatI t(space.rows() + 1, space.cols());
  for (std::size_t r = 0; r < space.rows(); ++r) {
    for (std::size_t c = 0; c < space.cols(); ++c) t(r, c) = space(r, c);
  }
  for (std::size_t c = 0; c < space.cols(); ++c) t(space.rows(), c) = pi[c];
  return t;
}

struct ScreenTally {
  int images = 0;
  int restarts = 0;  ///< kernel_image declined: the HNF path decides
  int rank_rejects = 0;
  int witnesses = 0;
};

void check_screen_case(const model::IndexSet& set, const MatI& space,
                       const VecI& pi, ScreenTally& tally) {
  const std::size_t n = set.dimension();
  const std::size_t k = space.rows() + 1;
  FixedSpaceContext ctx(set, space);
  const mapping::MappingMatrix t(space, pi);
  const bool full_rank = t.has_full_rank();
  const std::optional<FixedSpaceContext::KernelImage> img =
      ctx.kernel_image(pi);

  // Whatever path the screen takes, it accepts exactly the conflict-free
  // full-rank candidates of the from-scratch exact oracle.
  VerdictCache cache;
  const std::optional<ConflictVerdict> screened =
      ctx.screen(ConflictOracle::kExact, pi, &cache);
  const ConflictVerdict seed =
      full_rank ? mapping::decide_conflict_free(t, set) : ConflictVerdict{};
  EXPECT_EQ(screened.has_value(),
            full_rank && seed.status == ConflictVerdict::Status::kConflictFree);
  if (screened) {
    EXPECT_EQ(screened->rule, seed.rule);
  }

  if (!img) {
    ++tally.restarts;
    return;
  }
  ++tally.images;
  EXPECT_EQ(img->full_rank, full_rank);
  if (!img->full_rank) {
    ++tally.rank_rejects;
    return;
  }

  // The kernel block is the extended HNF multiplier's, entry for entry.
  const lattice::detail::HnfPrefix<BigInt> prefix =
      lattice::detail::hermite_prefix_t(mapping::detail::lift<BigInt>(space));
  linalg::Vector<BigInt> last(n);
  for (std::size_t c = 0; c < n; ++c) last[c] = BigInt(pi[c]);
  const lattice::BasicHnfResult<BigInt> hnf =
      lattice::detail::hermite_extend_row_t(prefix, last);
  ASSERT_EQ(img->kernel.rows(), n);
  ASSERT_EQ(img->kernel.cols(), n - k);
  for (std::size_t c = 0; c < n - k; ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_TRUE(hnf.u(r, k + c) == BigInt(img->kernel(r, c)))
          << "kernel entry (" << r << ", " << c << ")";
    }
  }

  // So is the cache key the screen builds in its reused buffer.
  std::vector<Int> cols;
  for (std::size_t c = 0; c < n - k; ++c) {
    for (std::size_t r = 0; r < n; ++r) cols.push_back(img->kernel(r, c));
  }
  mapping::ConflictKey fast;
  fast.payload.assign(3, 99);  // stale contents must be overwritten
  mapping::canonical_kernel_key_into(cols, n - k, set, k, 1, fast);
  const std::optional<mapping::ConflictKey> slow =
      mapping::canonical_kernel_key(hnf.u, k, set, k, 1);
  ASSERT_TRUE(slow.has_value());
  EXPECT_TRUE(fast == *slow);

  if (k + 2 != n) {
    EXPECT_FALSE(img->box_witness.has_value());
    return;
  }
  // The box-norm reduction finds a conflict vector exactly when the exact
  // oracle reports a conflict, and its witness is one.
  EXPECT_EQ(img->box_witness.has_value(),
            seed.status == ConflictVerdict::Status::kHasConflict);
  if (!img->box_witness) return;
  ++tally.witnesses;
  const VecI& w = *img->box_witness;
  ASSERT_EQ(w.size(), n);
  EXPECT_TRUE(std::any_of(w.begin(), w.end(), [](Int x) { return x != 0; }));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LE(w[i], set.mu(i));
    EXPECT_GE(w[i], -set.mu(i));
  }
  const MatI tm = stacked(space, pi);
  for (std::size_t r = 0; r < tm.rows(); ++r) {
    BigInt dot(0);
    for (std::size_t c = 0; c < n; ++c) dot += BigInt(tm(r, c)) * BigInt(w[c]);
    EXPECT_TRUE(dot.is_zero()) << "witness leaves ker T in row " << r;
  }
}

TEST(KernelScreen, RandomStacksMatchTheHnf) {
  Lcg rng;
  ScreenTally tally;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.next(4, 5));
    const std::size_t rows = static_cast<std::size_t>(
        rng.next(0, static_cast<Int>(n) - 3));  // k = rows + 1 <= n - 2
    VecI mu(n);
    for (Int& m : mu) m = rng.next(1, 5);
    const model::IndexSet set(mu);
    MatI space(rows, n);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < n; ++c) space(r, c) = rng.next(-4, 4);
    }
    VecI pi(n);
    for (Int& p : pi) p = rng.next(-6, 6);
    SCOPED_TRACE("trial " + std::to_string(trial));
    check_screen_case(set, space, pi, tally);
  }
  EXPECT_GT(tally.images, 300);
  EXPECT_GT(tally.witnesses, 50);
}

TEST(KernelScreen, RankDeficientRowsAreRejected) {
  // Pi in the row space of S: w = 0 and the screen rejects on rank.
  const model::IndexSet set(VecI{3, 3, 3, 3});
  const MatI space{{1, 2, 0, -1}};
  ScreenTally tally;
  check_screen_case(set, space, VecI{2, 4, 0, -2}, tally);
  check_screen_case(set, space, VecI{0, 0, 0, 0}, tally);
  EXPECT_EQ(tally.rank_rejects, 2);
}

TEST(KernelScreen, OverflowRestartsOnTheHnfPath) {
  // Entries near 2^40 overflow the int64 image or elimination; the screen
  // must then decide through the BigInt restart with the same answer.
  Lcg rng;
  ScreenTally tally;
  const Int big = Int{1} << 40;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 4;
    VecI mu(n);
    for (Int& m : mu) m = rng.next(1, 4);
    const model::IndexSet set(mu);
    MatI space(1, n);
    for (std::size_t c = 0; c < n; ++c) {
      space(0, c) = rng.next(-3, 3) * big + rng.next(-9, 9);
    }
    VecI pi(n);
    for (Int& p : pi) p = rng.next(-3, 3) * big + rng.next(-9, 9);
    SCOPED_TRACE("trial " + std::to_string(trial));
    check_screen_case(set, space, pi, tally);
  }
  EXPECT_GT(tally.restarts, 0);
}

}  // namespace
}  // namespace sysmap::search
