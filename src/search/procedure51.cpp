#include "search/procedure51.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "mapping/enum_oracle.hpp"
#include "exact/checked.hpp"
#include "mapping/theorems.hpp"
#include "search/enumerate.hpp"
#include "search/fixed_space.hpp"
#include "search/verdict_cache.hpp"
#include "support/contracts.hpp"

namespace sysmap::search {

mapping::ConflictVerdict run_conflict_oracle(ConflictOracle oracle,
                                             const mapping::MappingMatrix& t,
                                             const model::IndexSet& set) {
  switch (oracle) {
    case ConflictOracle::kPaperTheorems: {
      const std::size_t n = t.n();
      const std::size_t k = t.k();
      if (k == n) {
        mapping::ConflictVerdict out;
        out.status = t.has_full_rank()
                         ? mapping::ConflictVerdict::Status::kConflictFree
                         : mapping::ConflictVerdict::Status::kHasConflict;
        out.rule = "square T: rank test";
        return out;
      }
      if (k + 1 == n) return mapping::theorem_3_1(t, set);
      if (k + 2 == n) return mapping::theorem_4_7(t, set);
      if (k + 3 == n) return mapping::theorem_4_8(t, set);
      return mapping::theorem_4_5(t, set);
    }
    case ConflictOracle::kBruteForce:
      return mapping::enumeration_conflicts(t, set);
    case ConflictOracle::kExact:
    default:
      return mapping::decide_conflict_free(t, set);
  }
}

Int default_max_objective(const model::IndexSet& set) {
  Int mu_max = 0;
  Int mu_sum = 0;
  for (std::size_t i = 0; i < set.dimension(); ++i) {
    mu_max = std::max(mu_max, set.mu(i));
    mu_sum = exact::add_checked(mu_sum, set.mu(i));
  }
  return exact::mul_checked(
      4, exact::mul_checked(exact::add_checked(mu_max, 1), mu_sum));
}

bool enumerate_schedules_at(const model::IndexSet& set, Int f,
                            const std::function<bool(const VecI&)>& visit) {
  return for_each_schedule_at(set, f, visit);
}

SearchResult procedure_5_1(const model::UniformDependenceAlgorithm& algo,
                           const MatI& space, const SearchOptions& options) {
  const model::IndexSet& set = algo.index_set();
  const MatI& d = algo.dependence_matrix();
  const std::size_t n = set.dimension();
  if (space.cols() != n) {
    throw std::invalid_argument("procedure_5_1: S width must equal n");
  }
  if (space.rows() + 1 > n) {
    throw std::invalid_argument("procedure_5_1: k must not exceed n");
  }

  const Int max_objective = options.max_objective > 0
                                ? options.max_objective
                                : default_max_objective(set);

  // The fixed-S context hoists every per-candidate invariant of S out of
  // the sweep (echelon rank replay, Prop 3.2 cofactors, HNF warm start);
  // its verdicts are bit-identical to the from-scratch path below.  Brute
  // force consults none of the precomputes (its screen degenerates to the
  // plain rank test), so the context is skipped there outright.
  std::optional<FixedSpaceContext> own_ctx;
  const FixedSpaceContext* ctx = nullptr;
  if (options.use_fixed_space_context &&
      options.oracle != ConflictOracle::kBruteForce) {
    if (options.context != nullptr) {
      ctx = options.context;  // caller-owned, built for this exact (J, S)
    } else {
      own_ctx.emplace(set, space);
      ctx = &*own_ctx;
    }
  }

  // The cache is consulted through the context only; counter deltas are
  // reported per search even when the cache object is shared by several.
  VerdictCache* cache = ctx != nullptr ? options.verdict_cache : nullptr;
  std::uint64_t cache_hits0 = 0;
  std::uint64_t cache_misses0 = 0;
  if (cache != nullptr) {
    const VerdictCache::Stats s = cache->stats();
    cache_hits0 = s.hits;
    cache_misses0 = s.misses;
  }

  // Skip objective levels no Pi can land on: sum |pi_i| mu_i is always a
  // multiple of gcd_i mu_i.
  const Int stride = objective_level_stride(set);

  // (1) Pi D > 0 is decided by the walk itself, which skips whole
  // subtrees that cannot pass it and counts their candidates as tested, or
  // replays a level the shared memo has listed.
  std::optional<DependenceLevels> own_levels;
  DependenceLevels* levels = options.levels;
  if (levels == nullptr) {
    levels = &own_levels.emplace(set, d);
  }
  SYSMAP_CONTRACT(levels->describes(set, d),
                  "the level memo was built for another (J, D)");
  std::optional<DependenceSweep> sweep;  // this call's inline walks
  SearchResult result;
  for (Int f = std::max<Int>(options.min_objective, 1); f <= max_objective;
       ++f) {
    if (f % stride != 0) continue;
    bool found_at_level = false;
    levels->walk(f, result.candidates_tested, sweep, [&](const VecI& pi) {
      ++result.candidates_passed_dependence;
      mapping::ConflictVerdict verdict;
      if (ctx) {
        // (2)+(3) fused: rank screen (echelon replay, or the cofactor
        // product itself for k = n-1) plus the conflict oracle; rejected
        // candidates skip verdict materialization entirely.
        std::optional<mapping::ConflictVerdict> v =
            ctx->screen(options.oracle, pi, cache);
        if (!v) return true;
        verdict = std::move(*v);
      } else {
        mapping::MappingMatrix t(space, pi);
        // (2) rank(T) = k.
        if (!t.has_full_rank()) return true;
        // (3) conflict-free.
        verdict = run_conflict_oracle(options.oracle, t, set);
        if (verdict.status !=
            mapping::ConflictVerdict::Status::kConflictFree) {
          return true;
        }
      }
      // (4) routing on a fixed target array, when requested.
      std::optional<schedule::Routing> routing;
      if (options.target) {
        schedule::LinearSchedule sched(pi);
        routing = schedule::route(space, d, *options.target, sched);
        if (!routing) return true;
      }
      result.found = true;
      result.pi = pi;
      result.objective = f;
      result.makespan = exact::add_checked(f, 1);
      result.verdict = std::move(verdict);
      result.routing = std::move(routing);
      found_at_level = true;
      return false;  // abort the scan: first hit at minimal f is optimal
    });
    if (found_at_level) break;
  }
  if (cache != nullptr) {
    const VerdictCache::Stats s = cache->stats();
    result.cache_hits = s.hits - cache_hits0;
    result.cache_misses = s.misses - cache_misses0;
  }
#if SYSMAP_CONTRACTS_ACTIVE
  if (result.found) {
    // Procedure 5.1 postconditions: the winning Pi really costs f, keeps
    // T = [S; Pi] full-rank, respects dependences and is conflict-free by
    // the from-scratch exact oracle (independent of any context fast path).
    Int cost = 0;
    for (std::size_t i = 0; i < n; ++i) {
      cost = exact::add_checked(
          cost, exact::mul_checked(exact::abs_checked(result.pi[i]),
                                   set.mu(i)));
    }
    SYSMAP_CONTRACT(cost == result.objective,
                    "reported objective " << result.objective
                                          << " but sum |pi_i| mu_i = "
                                          << cost);
    SYSMAP_CONTRACT(schedule::respects_dependences(result.pi, d),
                    "found Pi violates a dependence");
    mapping::MappingMatrix t_check(space, result.pi);
    SYSMAP_CONTRACT(t_check.has_full_rank(), "found T = [S; Pi] is singular");
    // Re-run the same oracle from scratch (no context, no cached state):
    // the winning verdict must be reproducible.  Note the oracles need not
    // agree with each other (brute force scans the actual J, the box tests
    // are conservative for non-box polyhedra), so the contract checks
    // against the oracle the search itself used.
    SYSMAP_CONTRACT(
        run_conflict_oracle(options.oracle, t_check, set).status ==
            mapping::ConflictVerdict::Status::kConflictFree,
        "found Pi is not conflict-free when its oracle is re-run");
  }
#endif
  return result;
}

}  // namespace sysmap::search
