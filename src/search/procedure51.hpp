// Procedure 5.1: optimal conflict-free schedule by candidate enumeration.
//
// Candidates Pi are enumerated in increasing objective f = sum |pi_i| mu_i
// (Theorem 2.1 makes f monotone in the |pi_i|, so the first candidate that
// passes all conditions is time-optimal).  Conditions checked per candidate
// (Step 5 of the procedure):
//   (1) Pi D > 0
//   (2) rank(T) = k
//   (3) T conflict-free -- by the exact theorem for k >= n-3, Theorem 4.5 /
//       exact enumeration otherwise (see decide_conflict_free)
//   (4) optionally S D = P K with column sums <= Pi d_i (fixed target array)
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "mapping/conflict.hpp"
#include "mapping/mapping_matrix.hpp"
#include "model/algorithm.hpp"
#include "schedule/interconnect.hpp"
#include "schedule/linear_schedule.hpp"

namespace sysmap::search {

class VerdictCache;
class FixedSpaceContext;
class DependenceLevels;

/// Which conflict oracle Step 5(3) uses.
enum class ConflictOracle {
  /// Theorems 3.1/4.7/4.8/4.5 exactly as published.  At k <= n-3 its
  /// answers are NOT certified: the published Theorem 4.8 accepts some
  /// conflicting T (docs/THEORY.md), so Procedure 5.1 under this oracle
  /// can return a conflicting Pi as optimal -- e.g. Pi = (3, 9, 9, 1) for
  /// unit_cube_algorithm(4, 2) with S empty, where kExact finds
  /// (1, 3, 9, 27) (tests/search_test.cpp pins both).
  kPaperTheorems,
  kExact,          ///< library-exact dispatcher (validated witnesses)
  kBruteForce,     ///< full index-set scan (baseline; small J only)
};

struct SearchOptions {
  /// Start the scan at this objective value (used to resume above an ILP
  /// lower bound).
  Int min_objective = 0;
  /// Abort when f exceeds this bound; 0 selects default_max_objective.
  Int max_objective = 0;
  ConflictOracle oracle = ConflictOracle::kExact;
  /// Require routability on this target array (condition 4); nullopt
  /// designs a dedicated array instead (conditions 1-3 only).
  std::optional<schedule::Interconnect> target;
  /// Amortize per-candidate work with search::FixedSpaceContext (default).
  /// The context path is bit-identical to the from-scratch path (same
  /// verdicts, witnesses and statistics); disabling it exists for the
  /// search_throughput ablation and parity tests.  Under kBruteForce the
  /// context is never constructed regardless -- brute force consults none
  /// of its precomputes, so building one is pure overhead.
  bool use_fixed_space_context = true;
  /// Optional canonical-form verdict cache (see search/verdict_cache.hpp).
  /// Shareable across searches (multi-S sweeps) and across threads (the
  /// parallel space sweeps hand one cache to every worker); results stay
  /// bit-identical -- only the hit/miss counters below observe it.  Never
  /// consulted under kBruteForce.
  VerdictCache* verdict_cache = nullptr;
  /// Optional caller-owned context for this exact (J, S) pair, borrowed for
  /// the duration of the call; nullptr lets the search build its own.  Lets
  /// a driver that runs SEVERAL searches against one space (ILP
  /// certification sweep + fall-through, orbit-seeded re-runs) pay the
  /// context construction once.  Ignored when use_fixed_space_context is
  /// false or the oracle is kBruteForce (matching the own-context policy).
  const FixedSpaceContext* context = nullptr;
  /// Optional caller-owned level memo for this algorithm's (J, D)
  /// (search/enumerate.hpp), borrowed for the duration of the call;
  /// nullptr lets the search build a private one, which lists nothing.  A
  /// driver that runs searches for MANY spaces of one algorithm passes one
  /// memo to all of them (and to all of its threads): every level is then
  /// walked once and replayed for the other spaces, with bit-identical
  /// results and statistics.
  DependenceLevels* levels = nullptr;
};

struct SearchResult {
  bool found = false;
  VecI pi;                            ///< optimal schedule vector
  Int objective = 0;                  ///< f = sum |pi_i| mu_i
  Int makespan = 0;                   ///< t = f + 1
  mapping::ConflictVerdict verdict;   ///< rule that certified Pi
  std::optional<schedule::Routing> routing;  ///< when target was given
  std::uint64_t candidates_tested = 0;
  std::uint64_t candidates_passed_dependence = 0;
  /// Verdict-cache traffic attributable to this search (deltas of the
  /// shared cache's counters).  NOT part of the bit-identical result
  /// contract: a cache shared across threads makes per-run counts
  /// nondeterministic.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// The heuristic objective bound 4 * (max mu + 1) * sum(mu) that
/// procedure_5_1 and search::MappingPipeline apply when the caller passes
/// max_objective = 0.  Throws exact::OverflowError when it does not fit
/// int64.
Int default_max_objective(const model::IndexSet& set);

/// Runs Procedure 5.1 for algorithm (J, D) and space mapping S.
SearchResult procedure_5_1(const model::UniformDependenceAlgorithm& algo,
                           const MatI& space, const SearchOptions& options = {});

/// Enumerates every integral Pi with sum |pi_i| mu_i == f in deterministic
/// (lexicographic) order; returns false when the callback aborts the scan.
/// Type-erased convenience wrapper over search::for_each_schedule_at
/// (search/enumerate.hpp), which the search drivers call directly so the
/// per-candidate visit inlines.
bool enumerate_schedules_at(const model::IndexSet& set, Int f,
                            const std::function<bool(const VecI&)>& visit);

/// Step 5(3)'s conflict decision for one candidate, from scratch: the
/// published-theorem dispatch (kPaperTheorems), the library-exact
/// dispatcher (kExact) or the brute-force baseline.  Shared by the
/// from-scratch search path and by FixedSpaceContext's fallback path.
mapping::ConflictVerdict run_conflict_oracle(ConflictOracle oracle,
                                             const mapping::MappingMatrix& t,
                                             const model::IndexSet& set);

}  // namespace sysmap::search
