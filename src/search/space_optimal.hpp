// Problems 6.1 and 6.2 of the paper -- stated there as future work,
// implemented here as library extensions.
//
// Problem 6.1 (space-optimal, conflict-free): given a linear schedule Pi,
// find a space mapping S such that T = [S; Pi] is conflict-free and the
// array cost -- number of processors plus total wire length -- is minimal.
//
// Problem 6.2 (joint): neither S nor Pi given; explore the (S, Pi) design
// space and report the Pareto frontier of (makespan, array cost), since
// "a certain criterion" in the paper is deliberately open-ended.
//
// Cost model:
//   processors  = |{S j : j in J}|           (exact, by enumeration)
//   wire length = sum_i L1(S d_i)            (total link span per datum)
// Candidate S matrices enumerate all (k-1) x n integer matrices with
// entries in [-max_entry, max_entry], full row rank, first nonzero of each
// row positive (projective dedup), rows pairwise non-parallel.
//
// ENGINES.  space_optimal_mapping / explore_design_space run the fast
// engine: lazy candidate enumeration (SpaceEnumerator), processor counts
// from the Minkowski-sum image bitset (support::ImageBitset in
// support/packed_coord.hpp; the std::set walk past its bound), wire-first
// branch-and-bound pruning and an optional deterministic parallel sweep.
// These are always on: each was measured against the seed (BENCH_space.json)
// and none changes an answer.  space_optimal_mapping_seed /
// explore_design_space_seed preserve the original serial std::set engines
// verbatim.  The two are BIT-IDENTICAL in (found, space, cost, verdict,
// candidates_tested) respectively (pareto, spaces_tested, feasible_spaces)
// for every thread count and verdict-cache setting --
// tests/space_search_test.cpp holds the pair equal case by case.  Only the
// advisory counters (cache/prune stats) may differ between engines and
// interleavings.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mapping/conflict.hpp"
#include "model/algorithm.hpp"
#include "schedule/linear_schedule.hpp"

namespace sysmap::search {

class VerdictCache;

struct SpaceSearchOptions {
  Int max_entry = 1;            ///< |s_ij| bound for candidate rows
  std::size_t array_dims = 1;   ///< k - 1
  /// Skip candidates whose processor count cannot be evaluated within this
  /// many index points (guards |J| blowup; boxes here are small).  The
  /// comparison happens in unsigned 64-bit; index sets whose size does not
  /// fit int64 are over budget for every representable budget value.
  std::uint64_t enumeration_budget = 2'000'000;
  /// Optional canonical-form verdict cache (search/verdict_cache.hpp).
  /// The Problem 6.1 sweep holds Pi fixed and varies S, so distinct
  /// candidates frequently share a canonical conflict form (e.g. scaled or
  /// permuted rows) -- exactly the cross-S reuse the cache keys capture.
  /// Results stay bit-identical; only the counters below observe it.
  VerdictCache* verdict_cache = nullptr;

  /// Workers for the candidate sweep; <= 1 runs the sweep inline on the
  /// caller thread.  Results are bit-identical for every thread count:
  /// the parallel reduction reproduces the serial incumbent order.
  std::size_t num_threads = 1;
};

struct ArrayCost {
  Int processors = 0;
  Int wire_length = 0;
  // SYSMAP_RAW_FASTPATH(bounded: both terms are one candidate's image
  // count and wire sum, orders of magnitude below the 63-bit line)
  Int total() const { return processors + wire_length; }
};

struct SpaceSearchResult {
  bool found = false;
  MatI space;
  ArrayCost cost;
  mapping::ConflictVerdict verdict;
  std::uint64_t candidates_tested = 0;
  /// Verdict-cache traffic attributable to this sweep (counter deltas);
  /// zero when no cache was supplied.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Advisory fast-engine statistic, EXCLUDED from the bit-identical
  /// contract (it depends on parallel interleaving): candidates skipped by
  /// the wire+lower-bound prune.
  std::uint64_t bnb_pruned = 0;
};

/// Problem 6.1: best S for a fixed Pi.  Minimizes processors + wire among
/// conflict-free full-rank T = [S; Pi].  Fast engine; bit-identical to
/// space_optimal_mapping_seed in (found, space, cost, verdict,
/// candidates_tested).
SpaceSearchResult space_optimal_mapping(
    const model::UniformDependenceAlgorithm& algo, const VecI& pi,
    const SpaceSearchOptions& options = {});

/// The original serial engine, preserved verbatim as the parity oracle
/// for tests and the "seed" bench mode.  Ignores num_threads.
SpaceSearchResult space_optimal_mapping_seed(
    const model::UniformDependenceAlgorithm& algo, const VecI& pi,
    const SpaceSearchOptions& options = {});

/// One point of the Problem 6.2 design space.
struct DesignPoint {
  MatI space;
  VecI pi;
  Int makespan = 0;
  ArrayCost cost;
};

struct DesignSpaceResult {
  /// Pareto-optimal (makespan, processors + wire) points, sorted by
  /// makespan ascending.
  std::vector<DesignPoint> pareto;
  std::uint64_t spaces_tested = 0;
  std::uint64_t feasible_spaces = 0;
};

/// Problem 6.2: sweep candidate S, find each one's time-optimal
/// conflict-free Pi (Procedure 5.1 / ILP via the Mapper), and keep the
/// Pareto frontier of (makespan, array cost).  Fast engine (parallel
/// sweep + fast cost evaluation); bit-identical to
/// explore_design_space_seed.
DesignSpaceResult explore_design_space(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options = {});

/// The original serial Problem 6.2 engine, preserved as parity oracle.
DesignSpaceResult explore_design_space_seed(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options = {});

/// The single best point of the Problem 6.2 design space: minimal
/// schedule objective first, then array cost (total, then processors),
/// then first-seen candidate order.  Unlike the Pareto sweep this query
/// has one winner, which is what lets the fused engine truncate hopeless
/// spaces with a cross-space incumbent bound.
struct JointMappingResult {
  bool found = false;
  MatI space;
  VecI pi;
  Int objective = 0;
  Int makespan = 0;
  mapping::ConflictVerdict verdict;
  ArrayCost cost;
  std::uint64_t spaces_tested = 0;
  /// Advisory, fast engine only: spaces whose schedule search the
  /// incumbent objective cut short (their optimum provably exceeds the
  /// winner's).  EXCLUDED from the bit-identical contract.
  std::uint64_t truncated_spaces = 0;
};

/// Fused joint query: one MappingPipeline persists across every candidate
/// space (shared verdict cache, schedule-orbit reuse), the best objective
/// found so far caps later searches (strict-only: equal-objective spaces
/// are never truncated, so cost tie-breaks and the serial winner survive),
/// and the sweep parallelizes over spaces with a deterministic
/// (objective, total, processors, pos) reduction -- bit-identical to
/// joint_time_optimal_mapping_seed for every thread count and verdict
/// cache.
JointMappingResult joint_time_optimal_mapping(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options = {});

/// The cold-call oracle: per-space core-style scoring with no shared
/// state, every space fully searched and costed.
JointMappingResult joint_time_optimal_mapping_seed(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options = {});

/// Paper-facing name for the Problem 6.2 frontier sweep.
inline DesignSpaceResult pareto_front(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options = {}) {
  return explore_design_space(algo, options);
}

/// Exact array cost of a given S on J (exposed for tests and benches).
/// std::set reference walk -- the oracle the image bitset is tested
/// against.
ArrayCost evaluate_array_cost(const model::UniformDependenceAlgorithm& algo,
                              const MatI& space);

/// Exact |{S j : j in J}| via the Minkowski-sum image bitset (falls back
/// to the reference walk when the image box does not pack into uint64 or
/// exceeds support::ImageBitset::kMaxBits).  Exposed for the randomized
/// oracle test and the bench.
Int count_processor_images(const model::IndexSet& set, const MatI& space);

/// Lazy resumable enumerator over candidate space matrices, in the exact
/// order candidate_spaces() returns them: combinations of the dedup'd row
/// pool with strictly increasing pool indices (lexicographic), filtered
/// to full row rank.  Only the row pool (O((2*max_entry+1)^n)) is ever
/// materialized -- never the combination set, whose size is
/// C(pool, array_dims); the parallel feed and the regression test in
/// tests/space_search_test.cpp rely on draws staying O(pool) while the
/// combination count is astronomically large.
class SpaceEnumerator {
 public:
  SpaceEnumerator(std::size_t n, const SpaceSearchOptions& options);

  /// Copies the next candidate into `out` (resized to array_dims x n) and
  /// returns true; false once exhausted.
  bool next(MatI& out);

  bool exhausted() const { return done_; }
  /// Candidates produced so far (rank-passing only, matching the serial
  /// sweep's candidate count).
  std::uint64_t produced() const { return produced_; }
  /// Size of the materialized row pool (the only O(pool) allocation).
  std::size_t pool_size() const { return rows_.size(); }

 private:
  bool advance_indices();

  std::vector<VecI> rows_;
  std::size_t n_ = 0;
  std::size_t dims_ = 0;
  std::vector<std::size_t> idx_;
  bool started_ = false;
  bool done_ = false;
  std::uint64_t produced_ = 0;
};

/// Enumerates candidate space matrices per the dedup rules above
/// (materialized; thin wrapper over SpaceEnumerator).
std::vector<MatI> candidate_spaces(std::size_t n,
                                   const SpaceSearchOptions& options);

}  // namespace sysmap::search
