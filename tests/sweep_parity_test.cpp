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
//     kernel block and cache key, and the box-norm reject's witnesses;
//   - the scan of V_S = ker S inside the difference box against brute
//     force and the from-scratch oracles, and its fallbacks (a box past
//     the list limit, an overflowing dot product).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exact/bigint.hpp"
#include "exact/checked.hpp"
#include "lattice/hnf_impl.hpp"
#include "mapping/canonical_key.hpp"
#include "mapping/conflict.hpp"
#include "mapping/enum_oracle.hpp"
#include "mapping/mapping_matrix.hpp"
#include "mapping/verdicts_impl.hpp"
#include "model/gallery.hpp"
#include "schedule/interconnect.hpp"
#include "schedule/linear_schedule.hpp"
#include "search/enumerate.hpp"
#include "search/fixed_space.hpp"
#include "search/procedure51.hpp"
#include "search/space_optimal.hpp"
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
// DependenceLevels, the level memo shared by the spaces of a sweep
// ---------------------------------------------------------------------------

// The plain walk followed by respects_dependences: the survivors of level
// f in walk order, the candidates tested when each was reached, and the
// level size.
struct ReferenceLevel {
  std::vector<VecI> survivors;
  std::vector<std::uint64_t> offsets;
  std::uint64_t size = 0;
};

ReferenceLevel reference_level(const model::IndexSet& set, const MatI& d,
                               Int f) {
  ReferenceLevel out;
  for_each_schedule_at(set, f, [&](const VecI& pi) {
    ++out.size;
    if (schedule::respects_dependences(pi, d)) {
      out.survivors.push_back(pi);
      out.offsets.push_back(out.size);
    }
    return true;
  });
  return out;
}

// One memo walk of level f that stops at survivor `stop` (or never when
// stop is past the end), checked against the reference; `own` is fresh,
// so whether it was built tells an inline walk or a build from a replay.
// Returns true when the memo replayed the level.
bool expect_memo_walk(DependenceLevels& memo, Int f, const ReferenceLevel& want,
                      std::size_t stop) {
  std::optional<DependenceSweep> own;
  std::vector<VecI> got;
  std::uint64_t tested = 7;  // the walk adds to what earlier levels counted
  const bool completed = memo.walk(f, tested, own, [&](const VecI& pi) {
    got.push_back(pi);
    return got.size() != stop + 1;
  });
  const bool stopped = stop < want.survivors.size();
  EXPECT_EQ(completed, !stopped) << "f=" << f;
  const std::size_t visited = stopped ? stop + 1 : want.survivors.size();
  EXPECT_EQ(got, std::vector<VecI>(want.survivors.begin(),
                                   want.survivors.begin() +
                                       static_cast<long>(visited)))
      << "f=" << f;
  EXPECT_EQ(tested, 7 + (stopped ? want.offsets[stop] : want.size))
      << "f=" << f;
  return !own.has_value();
}

TEST(DependenceLevels, ListsMatchThePlainWalk) {
  Lcg rng;
  int listed_levels = 0;
  int replays = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const model::UniformDependenceAlgorithm algo =
        random_algorithm(rng, static_cast<std::size_t>(rng.next(2, 5)));
    const model::IndexSet& set = algo.index_set();
    const MatI& d = algo.dependence_matrix();
    const Int top = 14;
    DependenceLevels memo(set, d, top);
    ASSERT_NE(memo.counts(), nullptr);
    for (Int f = 1; f <= top; ++f) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " f=" +
                   std::to_string(f));
      const ReferenceLevel want = reference_level(set, d, f);
      const std::size_t n_surv = want.survivors.size();
      const bool on_stride = f % objective_level_stride(set) == 0;
      // First request: walked inline, never listed.
      EXPECT_FALSE(expect_memo_walk(memo, f, want, n_surv));
      EXPECT_FALSE(memo.listed(f));
      // Second request: the whole level is walked once and listed.
      EXPECT_FALSE(expect_memo_walk(memo, f, want,
                                    n_surv == 0 ? 0 : n_surv / 2));
      EXPECT_EQ(memo.listed(f), on_stride);
      if (!on_stride) continue;
      ++listed_levels;
      // Later requests replay the list, stopping at the first, a random
      // or the last survivor, or nowhere.
      for (std::size_t stop :
           {std::size_t{0},
            static_cast<std::size_t>(rng.next(0, static_cast<Int>(n_surv))),
            n_surv == 0 ? 0 : n_surv - 1, n_surv}) {
        EXPECT_TRUE(expect_memo_walk(memo, f, want, stop));
        ++replays;
      }
    }
    // The counts cover every level through the bound.
    std::uint64_t through = 0;
    for (Int f = 1; f <= top; ++f) through += reference_level(set, d, f).size;
    EXPECT_EQ(memo.counts()->through(static_cast<std::size_t>(top)), through);
  }
  EXPECT_GT(listed_levels, 300);
  EXPECT_GT(replays, 1200);
}

TEST(DependenceLevels, LevelsOutsideTheBoundAreNeverListed) {
  const model::UniformDependenceAlgorithm algo = model::matmul(3);
  const model::IndexSet& set = algo.index_set();
  const MatI& d = algo.dependence_matrix();
  DependenceLevels memo(set, d, 6);
  DependenceLevels lone(set, d);  // a private memo lists nothing
  EXPECT_EQ(lone.max_level(), 0);
  for (Int f : {6, 7, 9}) {
    const ReferenceLevel want = reference_level(set, d, f);
    for (int request = 0; request < 3; ++request) {
      EXPECT_EQ(expect_memo_walk(memo, f, want, want.survivors.size() / 2),
                f == 6 && request == 2);
      EXPECT_FALSE(expect_memo_walk(lone, f, want, want.survivors.size()));
    }
    EXPECT_EQ(memo.listed(f), f == 6);
    EXPECT_FALSE(lone.listed(f));
  }
  EXPECT_TRUE(memo.describes(set, d));
  EXPECT_FALSE(memo.describes(model::IndexSet(VecI{3, 3, 4}), d));
  EXPECT_FALSE(memo.describes(set, MatI{{1, 0, 0}, {0, 1, 0}, {0, 0, 2}}));
}

TEST(DependenceLevels, LevelsPastTheBudgetWalkInline) {
  // pi_0 > 0 alone: about 2 f^2 of the 4 f^2 + 2 candidates of level f
  // survive, so levels 1..80 hold about 1.4M words, past kMaxWords.
  const model::IndexSet set(VecI{1, 1, 1});
  const MatI d{{1}, {0}, {0}};
  const Int top = 80;
  DependenceLevels memo(set, d, top);
  std::size_t words = 0;
  int unlisted = 0;
  for (Int f = 1; f <= top; ++f) {
    SCOPED_TRACE("f=" + std::to_string(f));
    const ReferenceLevel want = reference_level(set, d, f);
    const std::size_t n_surv = want.survivors.size();
    expect_memo_walk(memo, f, want, n_surv);
    expect_memo_walk(memo, f, want, n_surv);
    const bool replayed = expect_memo_walk(memo, f, want, n_surv / 3);
    EXPECT_EQ(replayed, memo.listed(f));
    if (memo.listed(f)) {
      words += n_surv * (set.dimension() + 1) + 1;
    } else {
      ++unlisted;
    }
  }
  EXPECT_LE(words, DependenceLevels::kMaxWords);
  EXPECT_GT(words, DependenceLevels::kMaxWords / 2);
  EXPECT_GT(unlisted, 0);
  EXPECT_FALSE(memo.listed(top));
}

TEST(DependenceLevels, UnprunableLevelsKeepTheOverflowBehaviour) {
  // As in PrunedSweepParity.HugeDependencesWalkEveryCandidate: levels 3..
  // fail the int64 bound and are walked in full; pi = (0, 8) overflows
  // pi . d at level 8.
  const Int big = Int{1} << 60;
  const model::IndexSet set(VecI{1, 1});
  const MatI d{{big}, {big}};
  DependenceLevels memo(set, d, 10);
  for (Int f = 1; f <= 7; ++f) {
    const ReferenceLevel want = reference_level(set, d, f);
    for (int request = 0; request < 3; ++request) {
      const bool replayed =
          expect_memo_walk(memo, f, want, want.survivors.size());
      EXPECT_EQ(replayed, request == 2 && f < 3) << "f=" << f;
    }
    EXPECT_EQ(memo.listed(f), f < 3) << "f=" << f;
  }
  for (int request = 0; request < 3; ++request) {
    std::optional<DependenceSweep> own;
    std::uint64_t tested = 0;
    EXPECT_THROW(memo.walk(8, tested, own, [](const VecI&) { return true; }),
                 exact::OverflowError);
  }
  EXPECT_FALSE(memo.listed(8));
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
// procedure_5_1 with one level memo shared across spaces
// ---------------------------------------------------------------------------

// procedure_5_1 over `spaces`, twice, all with one memo: levels become
// listed partway through the first pass and are replayed from then on.
// Every search must equal the same search without the memo, field for
// field (both candidate counters included), or throw where it throws.
// Returns how many of levels 1..max_level the memo listed.
int expect_memo_parity(const model::UniformDependenceAlgorithm& algo,
                       const std::vector<MatI>& spaces,
                       const SearchOptions& base, Int max_level) {
  DependenceLevels memo(algo.index_set(), algo.dependence_matrix(),
                        max_level);
  SearchOptions shared = base;
  shared.levels = &memo;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < spaces.size(); ++i) {
      SCOPED_TRACE(algo.name() + " pass " + std::to_string(pass) +
                   " space " + std::to_string(i));
      std::optional<SearchResult> want;
      std::optional<SearchResult> got;
      try {
        want = procedure_5_1(algo, spaces[i], base);
      } catch (const std::exception&) {
      }
      try {
        got = procedure_5_1(algo, spaces[i], shared);
      } catch (const std::exception&) {
      }
      EXPECT_EQ(want.has_value(), got.has_value());
      if (want && got) expect_same_search(*want, *got);
    }
  }
  int listed = 0;
  for (Int f = 1; f <= max_level; ++f) listed += memo.listed(f) ? 1 : 0;
  return listed;
}

std::vector<MatI> space_pool(std::size_t n, std::size_t dims, Int entry) {
  SpaceSearchOptions o;
  o.max_entry = entry;
  o.array_dims = dims;
  return candidate_spaces(n, o);
}

TEST(LevelMemoParity, GallerySpaceSequences) {
  struct Case {
    model::UniformDependenceAlgorithm algo;
    std::size_t dims;
  };
  const std::vector<Case> cases = {
      {model::matmul(3), 1},          {model::matmul(3), 2},
      {model::transitive_closure(3), 1}, {model::lu_decomposition(3), 2},
      {model::unit_cube_algorithm(4, 2), 1},
      {model::unit_cube_algorithm(4, 2), 2},
      {model::convolution_2d(2, 2, 1, 1), 1},
  };
  for (const Case& c : cases) {
    const std::vector<MatI> spaces =
        space_pool(c.algo.dimension(), c.dims, 1);
    for (ConflictOracle oracle :
         {ConflictOracle::kExact, ConflictOracle::kPaperTheorems}) {
      SearchOptions o;
      o.oracle = oracle;
      o.max_objective = 40;
      EXPECT_GT(expect_memo_parity(c.algo, spaces, o, 40), 0)
          << c.algo.name();
    }
  }
}

TEST(LevelMemoParity, ResumedScansTargetsAndShortBounds) {
  const model::UniformDependenceAlgorithm algo = model::matmul(4);
  const std::vector<MatI> spaces = space_pool(3, 1, 1);
  SearchOptions o;
  o.max_objective = 40;
  for (Int start : {0, 9, 13, 21}) {
    o.min_objective = start;
    expect_memo_parity(algo, spaces, o, 40);
  }
  // A memo whose bound stops short of the searches' walks the levels
  // above it inline; one past kMaxCountedLevel lists nothing.
  o.min_objective = 0;
  EXPECT_GT(expect_memo_parity(algo, spaces, o, 17), 0);
  EXPECT_EQ(expect_memo_parity(algo, spaces, o,
                               static_cast<Int>(kMaxCountedLevel) + 1),
            0);
  o.target = schedule::Interconnect::nearest_neighbor(1);
  EXPECT_GT(expect_memo_parity(algo, spaces, o, 40), 0);
  o.target.reset();
  o.use_fixed_space_context = false;
  EXPECT_GT(expect_memo_parity(algo, spaces, o, 40), 0);
}

TEST(LevelMemoParity, RandomAlgorithms) {
  Lcg rng;
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.next(2, 4));
    const model::UniformDependenceAlgorithm algo = random_algorithm(rng, n);
    std::vector<MatI> spaces;
    for (int s = 0; s < 6; ++s) {
      const std::size_t rows = static_cast<std::size_t>(
          rng.next(0, static_cast<Int>(n) - 1));
      MatI space(rows, n);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < n; ++c) space(r, c) = rng.next(-2, 2);
      }
      spaces.push_back(space);
    }
    SearchOptions o;
    o.max_objective = rng.next(6, 24);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_memo_parity(algo, spaces, o, o.max_objective);
  }
}

TEST(LevelMemoParity, SharedAcrossThreads) {
  // Four threads run the space pool against one memo at once, each from
  // a different offset so first requests, builds and replays interleave.
  const model::UniformDependenceAlgorithm algo =
      model::unit_cube_algorithm(4, 2);
  const std::vector<MatI> spaces = space_pool(4, 1, 1);
  SearchOptions o;
  o.max_objective = 40;
  std::vector<SearchResult> want;
  for (const MatI& space : spaces) {
    want.push_back(procedure_5_1(algo, space, o));
  }
  DependenceLevels memo(algo.index_set(), algo.dependence_matrix(), 40);
  const std::size_t workers = 4;
  std::vector<std::vector<SearchResult>> got(workers);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      SearchOptions shared = o;
      shared.levels = &memo;
      for (std::size_t i = 0; i < spaces.size(); ++i) {
        const std::size_t at =
            (i + w * spaces.size() / workers) % spaces.size();
        got[w].push_back(procedure_5_1(algo, spaces[at], shared));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t w = 0; w < workers; ++w) {
    for (std::size_t i = 0; i < spaces.size(); ++i) {
      const std::size_t at =
          (i + w * spaces.size() / workers) % spaces.size();
      SCOPED_TRACE("worker " + std::to_string(w) + " space " +
                   std::to_string(at));
      expect_same_search(want[at], got[w][i]);
    }
  }
  int listed = 0;
  for (Int f = 1; f <= 40; ++f) listed += memo.listed(f) ? 1 : 0;
  EXPECT_GT(listed, 0);
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

// ---------------------------------------------------------------------------
// The k <= n-2 scan of V_S = ker S inside the difference box
// ---------------------------------------------------------------------------

std::uint64_t cache_lookups(const VerdictCache& cache) {
  const VerdictCache::Stats s = cache.stats();
  return s.hits + s.misses;
}

struct ListTally {
  int accepts = 0;
  int list_rejects = 0;    ///< full-rank rejects without cache traffic
  int deep_rejects = 0;    ///< of those, at k <= n-4 (Theorem 4.5)
  int kernel_rejects = 0;  ///< full-rank rejects past the list limit
};

/// Whether the context lists V_S: the difference box has at most
/// FixedSpaceContext::kMaxListBox points.
bool box_is_listed(const model::IndexSet& set) {
  Int box = 1;
  for (std::size_t i = 0; i < set.dimension(); ++i) {
    box *= 2 * set.mu(i) + 1;
    if (box > FixedSpaceContext::kMaxListBox) return false;
  }
  return true;
}

// One candidate under both oracles: uncached, with a fresh cache and with
// a cache shared across the space (`shared`).  The screen must accept
// exactly the full-rank candidates the from-scratch oracle accepts, with
// its rule; under kExact that is brute force's verdict, and under
// kPaperTheorems at k <= n-4 it is Theorem 4.5's, which the scan must
// never overrule.  The context builds its list on its second screen (the
// first draw's cold call), so from then on a full-rank conflict under a
// sound oracle must be rejected by the scan alone, with no cache lookup,
// when the box is listed (the list is complete, and Pi this small cannot
// overflow), and through the kernel block's one lookup when it is not.
void check_list_case(const model::IndexSet& set, const MatI& space,
                     const FixedSpaceContext& ctx, const VecI& pi,
                     std::array<VerdictCache, 2>& shared, ListTally& tally) {
  const mapping::MappingMatrix t(space, pi);
  const bool full_rank = t.has_full_rank();
  const std::array<ConflictOracle, 2> oracles = {ConflictOracle::kExact,
                                                 ConflictOracle::kPaperTheorems};
  for (std::size_t o = 0; o < oracles.size(); ++o) {
    const ConflictOracle oracle = oracles[o];
    std::optional<ConflictVerdict> seed;
    if (full_rank) seed = run_conflict_oracle(oracle, t, set);
    const bool accept =
        seed && seed->status == ConflictVerdict::Status::kConflictFree;
    if (oracle == ConflictOracle::kExact && full_rank) {
      EXPECT_EQ(accept, mapping::enumeration_conflicts(t, set).status ==
                            ConflictVerdict::Status::kConflictFree);
    }
    VerdictCache fresh;
    const std::optional<ConflictVerdict> plain = ctx.screen(oracle, pi);
    const std::optional<ConflictVerdict> cold = ctx.screen(oracle, pi, &fresh);
    const std::optional<ConflictVerdict> warm =
        ctx.screen(oracle, pi, &shared[o]);
    for (const std::optional<ConflictVerdict>* v : {&plain, &cold, &warm}) {
      ASSERT_EQ(v->has_value(), accept);
      if (accept) {
        EXPECT_EQ((*v)->rule, seed->rule);
      }
    }
    if (!full_rank) continue;
    const bool deep = ctx.k() + 4 <= ctx.n();
    if (oracle == ConflictOracle::kPaperTheorems && deep && !accept &&
        box_is_listed(set)) {
      EXPECT_EQ(cache_lookups(fresh), 0u) << "Theorem 4.5 reject missed";
      tally.deep_rejects += cache_lookups(fresh) == 0 ? 1 : 0;
    }
    if (oracle != ConflictOracle::kExact) continue;
    if (accept) {
      ++tally.accepts;
    } else if (box_is_listed(set)) {
      EXPECT_EQ(cache_lookups(fresh), 0u) << "conflict missed by the scan";
      tally.list_rejects += cache_lookups(fresh) == 0 ? 1 : 0;
    } else {
      EXPECT_EQ(cache_lookups(fresh), 1u) << "box past the limit was listed";
      tally.kernel_rejects += cache_lookups(fresh) == 1 ? 1 : 0;
    }
  }
}

TEST(ListScreen, RandomSpacesMatchBruteForceAndTheHnf) {
  Lcg rng;
  ListTally tally;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.next(3, 5));
    // k = n-2, from n = 4 on k = n-3, and at n = 5 k = n-4 (S empty);
    // S has k-1 rows.
    const std::size_t rows =
        n - 3 - static_cast<std::size_t>(rng.next(0, static_cast<Int>(n) - 3));
    VecI mu(n);
    for (Int& m : mu) m = rng.next(1, 4);
    const model::IndexSet set(mu);
    MatI space(rows, n);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < n; ++c) space(r, c) = rng.next(-3, 3);
    }
    const FixedSpaceContext ctx(set, space);
    std::array<VerdictCache, 2> shared;
    for (int draw = 0; draw < 8; ++draw) {
      VecI pi(n);
      for (Int& p : pi) p = rng.next(-5, 5);
      SCOPED_TRACE("trial " + std::to_string(trial) + " draw " +
                   std::to_string(draw));
      check_list_case(set, space, ctx, pi, shared, tally);
    }
  }
  EXPECT_GT(tally.accepts, 150);
  EXPECT_GT(tally.list_rejects, 900);
  EXPECT_GT(tally.deep_rejects, 50);
  EXPECT_GT(tally.kernel_rejects, 200);
}

TEST(ListScreen, RejectLeavesTheCacheUntouched) {
  // mu = 2 in 5-D: 5^5 = 3125 box points, inside the list limit; k = 3 =
  // n - 2.  pi_2 = pi_3 puts (0, 0, 1, -1, 0) in ker [S; pi].
  static_assert(3125 <= FixedSpaceContext::kMaxListBox);
  const model::IndexSet set(VecI{2, 2, 2, 2, 2});
  const MatI space{{1, 0, 0, 0, 0}, {0, 1, 0, 0, 0}};
  const FixedSpaceContext ctx(set, space);
  const VecI pi{1, 2, 3, 3, 1};
  ASSERT_TRUE(mapping::MappingMatrix(space, pi).has_full_rank());
  // A context's first screen takes the kernel-block path; the list is
  // built on its second.
  EXPECT_FALSE(ctx.screen(ConflictOracle::kExact, pi).has_value());
  for (ConflictOracle oracle :
       {ConflictOracle::kExact, ConflictOracle::kPaperTheorems}) {
    VerdictCache cache;
    EXPECT_FALSE(ctx.screen(oracle, pi, &cache).has_value());
    const VerdictCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.entries, 0u);
  }
}

TEST(ListScreen, BoxAboveTheLimitTakesTheKernelPath) {
  // mu = 4 in 5-D: 9^5 = 59049 box points, past the list limit, so the
  // same reject goes through the kernel block and the cache.
  static_assert(59049 > FixedSpaceContext::kMaxListBox);
  const model::IndexSet set(VecI{4, 4, 4, 4, 4});
  const MatI space{{1, 0, 0, 0, 0}, {0, 1, 0, 0, 0}};
  const FixedSpaceContext ctx(set, space);
  const VecI pi{1, 2, 3, 3, 1};
  EXPECT_FALSE(ctx.screen(ConflictOracle::kExact, pi).has_value());
  VerdictCache cache;
  EXPECT_FALSE(ctx.screen(ConflictOracle::kExact, pi, &cache).has_value());
  EXPECT_EQ(cache_lookups(cache), 1u);
  EXPECT_EQ(run_conflict_oracle(ConflictOracle::kExact,
                                mapping::MappingMatrix(space, pi), set)
                .status,
            ConflictVerdict::Status::kHasConflict);
}

TEST(ListScreen, OverflowingScanTakesTheKernelPath) {
  // S = [1 0 0 0] lists the 13 sign pairs of {0} x {-1, 0, 1}^3 by L1
  // norm.  With pi = (0, 1, m, m + 1) and m = 2^62 the fifth one,
  // (0, 0, 1, 1), overflows pi . v before the conflict (0, 1, 1, -1) is
  // reached, so the scan gives up and the kernel block (with its cache
  // lookup) decides the reject.
  const model::IndexSet set(VecI{1, 1, 1, 1});
  const MatI space{{1, 0, 0, 0}};
  const FixedSpaceContext ctx(set, space);
  const Int m = Int{1} << 62;
  const VecI pi{0, 1, m, m + 1};
  const mapping::MappingMatrix t(space, pi);
  ASSERT_TRUE(t.has_full_rank());
  const ConflictVerdict seed =
      run_conflict_oracle(ConflictOracle::kExact, t, set);
  EXPECT_EQ(seed.status, ConflictVerdict::Status::kHasConflict);
  EXPECT_FALSE(ctx.screen(ConflictOracle::kExact, pi).has_value());
  VerdictCache cache;
  EXPECT_FALSE(ctx.screen(ConflictOracle::kExact, pi, &cache).has_value());
  EXPECT_EQ(cache_lookups(cache), 1u);
}

}  // namespace
}  // namespace sysmap::search
