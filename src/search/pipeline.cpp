#include "search/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exact/checked.hpp"
#include "mapping/canonical_key.hpp"
#include "obs/obs.hpp"
#include "search/enumerate.hpp"
#include "search/fixed_space.hpp"
#include "search/ilp_formulation.hpp"
#include "search/verdict_cache.hpp"
#include "support/contracts.hpp"

namespace sysmap::search {

namespace {

// Completes a found schedule with array design and optional simulation.
void finalize(const model::UniformDependenceAlgorithm& algo,
              const MatI& space, const PipelineOptions& options,
              MappingSolution& solution) {
  if (!solution.found || !options.design_array) return;
  SYSMAP_SPAN("search.pipeline.finalize");
  mapping::MappingMatrix t(space, solution.pi);
  if (options.target) {
    std::optional<systolic::ArrayDesign> design =
        systolic::design_on_interconnect(algo, t, *options.target);
    if (!design) {
      throw std::logic_error(
          "MappingPipeline: accepted schedule is unroutable "
          "(search/target mismatch)");
    }
    solution.array = std::move(design);
  } else {
    solution.array = systolic::design_dedicated_array(algo, t);
  }
  if (options.simulate) {
    solution.simulation = systolic::simulate(algo, *solution.array);
  }
}

}  // namespace

// Everything the fused path shares across score() calls.  All mutable
// state sits behind one mutex (entries, the anchor), inside the level memo
// (internally synchronized) or in relaxed atomics (the advisory counters);
// the searches themselves run outside the lock, so workers serialize only
// on the map probes.
struct MappingPipeline::Fusion {
  VerdictCache* cache = nullptr;
  std::unique_ptr<VerdictCache> owned_cache;

  struct Entry {
    bool found = false;
    Int objective = 0;  ///< certified optimum f* when found
    Int bound = 0;      ///< exhausted scan bound when not found
  };

  std::mutex mu;
  /// The anchor: the level memo of the algorithm + bound last prepared.
  /// Its counts reproduce the orbit entries' statistics; a new anchor
  /// clears the entries.  Each search holds its own reference, so a
  /// re-anchor never pulls a memo from under a running search.
  std::shared_ptr<DependenceLevels> levels;
  std::unordered_map<mapping::ConflictKey, Entry, mapping::ConflictKeyHash>
      entries;

  std::atomic<std::uint64_t> orbit_hits{0};
  std::atomic<std::uint64_t> orbit_misses{0};
  std::atomic<std::uint64_t> seeded{0};
  std::atomic<std::uint64_t> truncated{0};

  /// (Re)anchors the per-algorithm state and returns the level memo.  Its
  /// counts() (non-null when the orbit cache is usable for this algorithm
  /// + bound) run through resolved_max.
  std::shared_ptr<DependenceLevels> prepare(
      const model::UniformDependenceAlgorithm& algo, Int resolved_max) {
    const model::IndexSet& set = algo.index_set();
    const MatI& d = algo.dependence_matrix();
    std::lock_guard<std::mutex> lock(mu);
    if (levels == nullptr || levels->max_level() != resolved_max ||
        !levels->describes(set, d)) {
      entries.clear();
      // Exact per-level candidate counts let an orbit hit reproduce the
      // cold search's candidates_tested without re-walking skipped levels;
      // on overflow or an oversized bound the orbit cache stands down.
      levels = std::make_shared<DependenceLevels>(set, d, resolved_max);
    }
    return levels;
  }

  std::optional<Entry> lookup(const mapping::ConflictKey& key) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(key);
    if (it == entries.end()) {
      orbit_misses.fetch_add(1, std::memory_order_relaxed);
      SYSMAP_COUNT("search.pipeline.orbit_misses", 1);
      return std::nullopt;
    }
    orbit_hits.fetch_add(1, std::memory_order_relaxed);
    SYSMAP_COUNT("search.pipeline.orbit_hits", 1);
    return it->second;
  }

  /// First-writer-wins with monotone strengthening: a found entry (the
  /// certified optimum, identical for every writer in the orbit) replaces
  /// any not-found entry; not-found entries keep the largest exhausted
  /// bound.  Interleavings can only change WHICH valid fact is stored,
  /// never store an invalid one -- lookups re-validate against their own
  /// effective bound.
  void store(const mapping::ConflictKey& key, bool found, Int objective,
             Int bound) {
    Entry e;
    e.found = found;
    e.objective = objective;
    e.bound = bound;
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = entries.emplace(key, e);
    if (inserted) return;
    Entry& cur = it->second;
    if (e.found) {
      cur = e;
    } else if (!cur.found && e.bound > cur.bound) {
      cur.bound = e.bound;
    }
  }
};

MappingPipeline::MappingPipeline(PipelineOptions options)
    : options_(std::move(options)) {}

MappingPipeline::~MappingPipeline() = default;

void MappingPipeline::enable_fusion(const FusionOptions& fusion) {
  fusion_ = std::make_unique<Fusion>();
  if (fusion.verdict_cache != nullptr) {
    fusion_->cache = fusion.verdict_cache;
  } else {
    fusion_->owned_cache = std::make_unique<VerdictCache>();
    fusion_->cache = fusion_->owned_cache.get();
  }
}

MappingPipeline::FusionStats MappingPipeline::fusion_stats() const {
  FusionStats out;
  if (fusion_ == nullptr) return out;
  out.schedule_orbit_hits =
      fusion_->orbit_hits.load(std::memory_order_relaxed);
  out.schedule_orbit_misses =
      fusion_->orbit_misses.load(std::memory_order_relaxed);
  out.seeded_searches = fusion_->seeded.load(std::memory_order_relaxed);
  out.truncated_by_cap = fusion_->truncated.load(std::memory_order_relaxed);
  return out;
}

VerdictCache* MappingPipeline::shared_verdict_cache() const {
  return fusion_ != nullptr ? fusion_->cache : nullptr;
}

MappingSolution MappingPipeline::find_time_optimal(
    const model::UniformDependenceAlgorithm& algo, const MatI& space) const {
  return solve(algo, space, /*fusion=*/nullptr, kNoCap);
}

MappingSolution MappingPipeline::score(
    const model::UniformDependenceAlgorithm& algo, const MatI& space,
    Int cap) const {
  return solve(algo, space, fusion_.get(), cap);
}

MappingSolution MappingPipeline::solve(
    const model::UniformDependenceAlgorithm& algo, const MatI& space,
    Fusion* fusion, Int cap) const {
  SYSMAP_SPAN("search.pipeline.solve");
  SYSMAP_COUNT("search.pipeline.solves", 1);
  const model::IndexSet& set = algo.index_set();
  const MatI& d = algo.dependence_matrix();
  const std::size_t n = algo.dimension();
  const std::size_t k = space.rows() + 1;
  if (space.cols() != n) {
    throw std::invalid_argument("MappingPipeline: S width must equal n");
  }

  MappingSolution solution;
  const bool ilp_applicable = (k + 1 == n);
  const bool use_ilp =
      options_.method == Method::kIlpCertified ||
      (options_.method == Method::kAuto && ilp_applicable);
  if (options_.method == Method::kIlpCertified && !ilp_applicable) {
    throw std::invalid_argument(
        "MappingPipeline: kIlpCertified requires S in Z^{(n-2) x n}");
  }

  const Int resolved_max = options_.max_objective > 0
                               ? options_.max_objective
                               : default_max_objective(set);
  const bool capped = cap > kNoCap;
  const Int eff_max = capped ? std::min(resolved_max, cap) : resolved_max;

  // Single site for the incumbent-cap verdict: marks the solution, bumps
  // the fusion stat when fused, and feeds the obs counter.  (A cap without
  // fusion is legal -- find_time_optimal callers never cap, but score() on
  // a pipeline without enable_fusion() may.)
  auto note_truncated = [&solution, fusion] {
    solution.truncated_by_cap = true;
    if (fusion != nullptr) {
      fusion->truncated.fetch_add(1, std::memory_order_relaxed);
    }
    SYSMAP_COUNT("search.pipeline.truncated_by_cap", 1);
  };

  SearchOptions search_options;
  search_options.target = options_.target;
  search_options.max_objective = eff_max;
  search_options.verdict_cache = fusion != nullptr ? fusion->cache : nullptr;

  // One fixed-S context per call, shared by the certification sweep and
  // the Procedure-5.1 route (each would otherwise rebuild it).  Built
  // lazily so the bound-tight ILP shortcut never pays for it, and skipped
  // when k > n so procedure_5_1 raises its own validation error.
  std::optional<FixedSpaceContext> ctx;
  auto shared_context = [&]() -> const FixedSpaceContext* {
    if (!ctx && k <= n) ctx.emplace(set, space);
    return ctx ? &*ctx : nullptr;
  };
  // The fused path's level memo, shared by every space of the algorithm
  // and held for the whole call; fetched lazily for the same reason.
  std::shared_ptr<DependenceLevels> levels;
  auto shared_levels = [&]() -> DependenceLevels* {
    if (!levels && fusion != nullptr) {
      levels = fusion->prepare(algo, resolved_max);
    }
    return levels.get();
  };

  if (use_ilp && ilp_applicable && !options_.target) {
    // ILP candidate + lower bound, then certify with a bounded sweep.
    // (With a fixed target interconnect the routing constraint is not part
    // of the ILP, so fall through to pure Procedure 5.1 instead.)
    IlpMappingResult ilp =
        solve_k_equals_n_minus_1(algo, space, SignMode::kPositive);
    if (!ilp.found) {
      ilp = solve_k_equals_n_minus_1(algo, space, SignMode::kOrthants);
    }
    solution.ilp_nodes = ilp.ilp_nodes;
    if (ilp.found) {
      if (ilp.objective == ilp.lower_bound) {
        // The verified candidate meets the relaxation bound: optimal.
        if (capped && ilp.objective > cap) {
          note_truncated();
          return solution;
        }
        solution.found = true;
        solution.pi = ilp.pi;
        solution.objective = ilp.objective;
        solution.makespan = exact::add_checked(ilp.objective, 1);
        solution.verdict = mapping::decide_conflict_free(
            mapping::MappingMatrix(space, ilp.pi), algo.index_set());
        solution.method_used = "ILP (5.1)-(5.2), bound-tight";
      } else {
        // Certify the gap [lower_bound, objective) by enumeration.  Under
        // an incumbent cap the sweep stops at the cap: a first hit at
        // g <= cap is the same first hit the full sweep finds, and no hit
        // with objective > cap proves the optimum (the smaller of the
        // first hit and the ILP objective) exceeds the cap.
        search_options.min_objective = ilp.lower_bound;
        search_options.max_objective =
            capped ? std::min(ilp.objective, cap) : ilp.objective;
        search_options.context = shared_context();
        search_options.levels = shared_levels();
        SearchResult swept = procedure_5_1(algo, space, search_options);
        solution.candidates_tested = swept.candidates_tested;
        if (capped && !swept.found && ilp.objective > cap) {
          note_truncated();
          return solution;
        }
        solution.found = true;
        if (swept.found && swept.objective < ilp.objective) {
          solution.pi = swept.pi;
          solution.objective = swept.objective;
          solution.verdict = std::move(swept.verdict);
        } else {
          solution.pi = ilp.pi;
          solution.objective = ilp.objective;
          solution.verdict = mapping::decide_conflict_free(
              mapping::MappingMatrix(space, ilp.pi), algo.index_set());
        }
        solution.makespan = exact::add_checked(solution.objective, 1);
        solution.method_used = "ILP (5.1)-(5.2) + Procedure 5.1 certification";
      }
      finalize(algo, space, options_, solution);
      return solution;
    }
    // ILP found nothing verified; fall through to pure enumeration.
  }

  // Pure Procedure 5.1 (also the fall-through after an unverified ILP).
  // The schedule-orbit cache transfers one route-independent fact between
  // candidates with equal canonical_space_schedule_key: the certified
  // optimal objective f* of the full scan from level 1 (or its
  // nonexistence up to an exhausted bound).  A hit re-runs the search
  // seeded at min_objective = f* on the ACTUAL S -- same winner, verdict
  // and statistics as the cold scan, with every level below f* recovered
  // from the closed-form prefix counts instead of re-screened.
  search_options.context = shared_context();
  search_options.levels = shared_levels();
  const LevelCounts* counts = levels != nullptr && !options_.target
                                  ? levels->counts()
                                  : nullptr;
  SearchResult result;
  bool resolved = false;
  std::optional<mapping::ConflictKey> orbit_key;
  if (counts != nullptr) {
    orbit_key = mapping::canonical_space_schedule_key(space, set, d);
    const std::optional<Fusion::Entry> entry = fusion->lookup(*orbit_key);
    if (entry && entry->found) {
      if (entry->objective <= eff_max) {
        search_options.min_objective = entry->objective;
        SearchResult seeded = procedure_5_1(algo, space, search_options);
        SYSMAP_CONTRACT(seeded.found && seeded.objective == entry->objective,
                        "schedule-orbit entry promised an optimum at "
                            << entry->objective
                            << " but the seeded search disagreed");
        if (seeded.found && seeded.objective == entry->objective) {
          seeded.candidates_tested +=
              counts->through(static_cast<std::size_t>(entry->objective) - 1);
          result = std::move(seeded);
          resolved = true;
          fusion->seeded.fetch_add(1, std::memory_order_relaxed);
          SYSMAP_COUNT("search.pipeline.seeded_searches", 1);
        } else {
          // Defensive only (contract breach): fall back to the full scan.
          search_options.min_objective = 0;
        }
      } else {
        // The certified optimum lies beyond this call's bound: the cold
        // scan would exhaust every level up to eff_max and find nothing.
        result.candidates_tested =
            counts->through(static_cast<std::size_t>(eff_max));
        resolved = true;
        if (capped && entry->objective > cap &&
            entry->objective <= resolved_max) {
          note_truncated();
        }
      }
    } else if (entry && !entry->found && eff_max <= entry->bound) {
      // Certified: no feasible Pi at any level <= entry->bound.
      result.candidates_tested =
          counts->through(static_cast<std::size_t>(eff_max));
      resolved = true;
      if (capped && eff_max < resolved_max) {
        note_truncated();
      }
    }
  }
  if (!resolved) {
    result = procedure_5_1(algo, space, search_options);
    if (orbit_key) {
      fusion->store(*orbit_key, result.found, result.objective, eff_max);
    }
    if (capped && !result.found && eff_max < resolved_max) {
      note_truncated();
    }
  }

  solution.candidates_tested = result.candidates_tested;
  if (result.found) {
    solution.found = true;
    solution.pi = std::move(result.pi);
    solution.objective = result.objective;
    solution.makespan = result.makespan;
    solution.verdict = std::move(result.verdict);
    solution.method_used = "Procedure 5.1";
    finalize(algo, space, options_, solution);
  }
  return solution;
}

}  // namespace sysmap::search
