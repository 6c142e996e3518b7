#include "search/space_optimal.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>

#include "exact/checked.hpp"
#include "lattice/kernel.hpp"
#include "linalg/ops.hpp"
#include "obs/obs.hpp"
#include "search/fixed_space.hpp"
#include "search/pipeline.hpp"
#include "search/verdict_cache.hpp"
#include "support/packed_coord.hpp"
#include "support/thread_pool.hpp"

namespace sysmap::search {

namespace {

constexpr Int kNoIncumbent = std::numeric_limits<Int>::max();
constexpr std::size_t kChunk = 16;

// All candidate rows: nonzero vectors in [-max_entry, max_entry]^n with
// positive first nonzero entry (a row and its negation give mirrored
// arrays) and relatively prime entries (a scaled row only multiplies the
// processor count).
std::vector<VecI> candidate_rows(std::size_t n, Int max_entry) {
  std::vector<VecI> rows;
  if (max_entry <= 0) return rows;
  const Int low = exact::neg_checked(max_entry);
  VecI v(n, low);
  for (;;) {
    bool nonzero = false;
    for (Int x : v) {
      if (x != 0) {
        nonzero = true;
        break;
      }
    }
    if (nonzero) {
      Int first = 0;
      for (Int x : v) {
        if (x != 0) {
          first = x;
          break;
        }
      }
      if (first > 0 && lattice::is_primitive(v)) rows.push_back(v);
    }
    std::size_t i = 0;
    for (; i < n; ++i) {
      if (v[i] < max_entry) {
        ++v[i];
        break;
      }
      v[i] = low;
    }
    if (i == n) break;
  }
  return rows;
}

// Shared input validation: Pi must have width n and respect Pi D > 0, and
// the index set must fit the enumeration budget.  The budget comparison is
// carried out in unsigned 64-bit; an index set whose size does not even
// fit int64 is over budget for every representable budget (the processor
// count is an Int).
void validate_problem61_inputs(const model::UniformDependenceAlgorithm& algo,
                               const VecI& pi,
                               const SpaceSearchOptions& options) {
  if (pi.size() != algo.dimension()) {
    throw std::invalid_argument("space_optimal_mapping: Pi width");
  }
  schedule::LinearSchedule sched(pi);
  if (!sched.respects_dependences(algo.dependence_matrix())) {
    throw std::invalid_argument(
        "space_optimal_mapping: Pi violates Pi D > 0");
  }
  bool over_budget = false;
  try {
    over_budget = algo.index_set().size_u64() > options.enumeration_budget;
  } catch (const exact::OverflowError&) {
    over_budget = true;
  }
  if (over_budget) {
    throw std::invalid_argument(
        "space_optimal_mapping: index set exceeds enumeration budget");
  }
}

// BigInt restart for the wire-length sum: recomputes sum_i L1(S d_i) in
// arbitrary precision and narrows, so callers only see OverflowError when
// the TRUE total does not fit int64 (all terms are nonnegative, so an
// intermediate int64 overflow implies the final value overflows too).
Int wire_length_bigint(const MatI& space, const MatI& dependence) {
  exact::BigInt acc(0);
  for (std::size_t c = 0; c < dependence.cols(); ++c) {
    for (std::size_t r = 0; r < space.rows(); ++r) {
      exact::BigInt dot(0);
      for (std::size_t j = 0; j < space.cols(); ++j) {
        dot += exact::BigInt(space(r, j)) * exact::BigInt(dependence(j, c));
      }
      acc += dot.abs();
    }
  }
  return acc.to_int64();
}

// SYSMAP_RAW_FASTPATH(fallback: wire_length_bigint)
// Fused displacement product + L1 accumulation for the wire-length term,
// one __builtin overflow check per operation; any overflow restarts the
// whole sum through the BigInt path above.  (The seed computed the
// displacement matrix with unchecked operator* -- this path also closes
// that latent overflow hole.)
Int wire_length_sum(const MatI& space, const MatI& dependence) {
  Int acc = 0;
  for (std::size_t c = 0; c < dependence.cols(); ++c) {
    for (std::size_t r = 0; r < space.rows(); ++r) {
      Int dot = 0;
      for (std::size_t j = 0; j < space.cols(); ++j) {
        Int term = 0;
        if (__builtin_mul_overflow(space(r, j), dependence(j, c), &term) ||
            __builtin_add_overflow(dot, term, &dot)) {
          return wire_length_bigint(space, dependence);
        }
      }
      if (dot == std::numeric_limits<Int>::min()) {
        return wire_length_bigint(space, dependence);
      }
      const Int mag = dot < 0 ? -dot : dot;
      if (__builtin_add_overflow(acc, mag, &acc)) {
        return wire_length_bigint(space, dependence);
      }
    }
  }
  return acc;
}

// SYSMAP_RAW_FASTPATH(bounded: every sum that could overflow is guarded by
// a __builtin overflow check whose trip SATURATES the bound -- a saturated
// lower bound is still a valid lower bound, never an unsound one)
//
// Per-row processor lower bound.  Walking the box along a Hamiltonian
// snake path changes each image coordinate by at most amax_r =
// max_j |s_rj| per step, so row r's image is amax_r-dense in
// [min_r, max_r]: the row alone already has at least
// ceil(range_r / amax_r) + 1 distinct values, and the full image has at
// least max_r of these (a projection cannot have more points than its
// source).  Used to prune candidates whose wire + bound already exceeds
// the incumbent strictly.
Int processor_lower_bound(const MatI& space, const model::IndexSet& set) {
  Int best = 1;
  for (std::size_t r = 0; r < space.rows(); ++r) {
    Int lo = 0;
    Int hi = 0;
    Int amax = 0;
    bool ok = true;
    for (std::size_t j = 0; j < space.cols() && ok; ++j) {
      const Int s = space(r, j);
      if (s == std::numeric_limits<Int>::min()) {
        ok = false;
        break;
      }
      const Int mag = s < 0 ? -s : s;
      if (mag > amax) amax = mag;
      Int term = 0;
      if (__builtin_mul_overflow(s, set.mu(j), &term)) {
        ok = false;
        break;
      }
      if (s < 0) {
        ok = __builtin_add_overflow(lo, term, &lo) ? false : ok;
      } else if (s > 0) {
        ok = __builtin_add_overflow(hi, term, &hi) ? false : ok;
      }
    }
    if (!ok || amax == 0) continue;
    Int range = 0;
    if (__builtin_sub_overflow(hi, lo, &range)) continue;
    const Int q = range / amax;
    Int bound = 0;
    if (__builtin_add_overflow(q, range % amax != 0 ? Int{2} : Int{1},
                               &bound)) {
      bound = std::numeric_limits<Int>::max();
    }
    if (bound > best) best = bound;
  }
  return best;
}

// SYSMAP_RAW_FASTPATH(bounded: a + b of two nonnegative cost terms; the
// overflow branch reports "exceeds" which is exact for nonnegative terms)
bool exceeds_strictly(Int a, Int b, Int bound) {
  Int sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) return true;
  return sum > bound;
}

// std::set reference walk (the seed's processor counter): the test oracle,
// and the count past the image bitset's bound.
Int count_images_generic(const model::IndexSet& set, const MatI& space) {
  std::set<VecI> images;
  set.for_each([&](const VecI& j) { images.insert(space * j); });
  return static_cast<Int>(images.size());
}

void atomic_fetch_min(std::atomic<Int>& target, Int value) {
  Int cur = target.load(std::memory_order_relaxed);
  while (value < cur && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

// A contiguous slice of the global candidate stream; `base` is the global
// position of spaces[0].  Buffers persist across draws.
struct SpaceChunk {
  std::uint64_t base = 0;
  std::size_t len = 0;
  std::vector<MatI> spaces;
};

// The shared lazy candidate source: one SpaceEnumerator behind a mutex,
// handing out chunks with consecutive global positions -- the exact order
// the serial sweep visits.
class SpaceFeed {
 public:
  SpaceFeed(std::size_t n, const SpaceSearchOptions& options)
      : enumerator_(n, options) {}

  bool draw(std::size_t chunk_size, SpaceChunk& out) {
    std::lock_guard<std::mutex> lock(mu_);
    out.base = enumerator_.produced();
    out.len = 0;
    if (out.spaces.size() < chunk_size) out.spaces.resize(chunk_size);
    while (out.len < chunk_size) {
      if (!enumerator_.next(out.spaces[out.len])) break;
      ++out.len;
    }
    return out.len > 0;
  }

  /// Total candidates handed out; call only after the sweep has joined.
  std::uint64_t produced() {
    std::lock_guard<std::mutex> lock(mu_);
    return enumerator_.produced();
  }

 private:
  std::mutex mu_;
  SpaceEnumerator enumerator_;
};

// One worker's running incumbent: the lexicographic minimum of
// (total, processors, global position) over the feasible candidates it
// evaluated -- exactly the seed's "strictly better total, or equal total
// with strictly fewer processors, first seen wins" update order.
struct LocalBest {
  bool found = false;
  Int total = 0;
  std::uint64_t pos = 0;
  MatI space;
  ArrayCost cost;
  mapping::ConflictVerdict verdict;

  bool better_than(const LocalBest& other) const {
    if (total != other.total) return total < other.total;
    if (cost.processors != other.cost.processors) {
      return cost.processors < other.cost.processors;
    }
    return pos < other.pos;
  }
};

}  // namespace

// ---- lazy candidate enumeration -------------------------------------------

SpaceEnumerator::SpaceEnumerator(std::size_t n,
                                 const SpaceSearchOptions& options)
    : rows_(candidate_rows(n, options.max_entry)),
      n_(n),
      dims_(options.array_dims),
      idx_(options.array_dims, 0) {
  for (std::size_t p = 0; p < dims_; ++p) idx_[p] = p;
  if (dims_ > rows_.size()) done_ = true;
}

bool SpaceEnumerator::advance_indices() {
  // Next strictly-increasing combination in lexicographic order (the order
  // the seed's recursive builder visits).
  if (dims_ == 0) return false;  // the single empty combination is spent
  std::size_t p = dims_;
  while (p > 0) {
    --p;
    if (idx_[p] + 1 <= rows_.size() - (dims_ - p)) {
      ++idx_[p];
      for (std::size_t q = p + 1; q < dims_; ++q) idx_[q] = idx_[q - 1] + 1;
      return true;
    }
  }
  return false;
}

bool SpaceEnumerator::next(MatI& out) {
  if (done_) return false;
  for (;;) {
    if (started_) {
      if (!advance_indices()) {
        done_ = true;
        return false;
      }
    } else {
      started_ = true;
    }
    MatI candidate(dims_, n_);
    for (std::size_t r = 0; r < dims_; ++r) {
      for (std::size_t c = 0; c < n_; ++c) {
        candidate(r, c) = rows_[idx_[r]][c];
      }
    }
    // Rank filter identical to the seed's: rows are nonzero and primitive,
    // so a single row always has rank 1; taller stacks get the exact
    // BigInt rank.
    if (dims_ > 1 &&
        linalg::rank(to_bigint(candidate)) != dims_) {
      continue;
    }
    out = std::move(candidate);
    ++produced_;
    return true;
  }
}

std::vector<MatI> candidate_spaces(std::size_t n,
                                   const SpaceSearchOptions& options) {
  SpaceEnumerator enumerator(n, options);
  std::vector<MatI> out;
  MatI candidate;
  while (enumerator.next(candidate)) out.push_back(candidate);
  return out;
}

// ---- cost model ------------------------------------------------------------

ArrayCost evaluate_array_cost(const model::UniformDependenceAlgorithm& algo,
                              const MatI& space) {
  ArrayCost cost;
  cost.processors = count_images_generic(algo.index_set(), space);
  cost.wire_length = wire_length_sum(space, algo.dependence_matrix());
  return cost;
}

Int count_processor_images(const model::IndexSet& set, const MatI& space) {
  if (const std::optional<support::ImageBitset> image =
          support::ImageBitset::build(space, set.bounds())) {
    return static_cast<Int>(image->count());
  }
  return count_images_generic(set, space);
}

// ---- Problem 6.1: seed engine (parity oracle) ------------------------------

SpaceSearchResult space_optimal_mapping_seed(
    const model::UniformDependenceAlgorithm& algo, const VecI& pi,
    const SpaceSearchOptions& options) {
  const std::size_t n = algo.dimension();
  validate_problem61_inputs(algo, pi, options);

  SpaceSearchResult best;
  VerdictCache* cache = options.verdict_cache;
  std::uint64_t cache_hits0 = 0;
  std::uint64_t cache_misses0 = 0;
  if (cache != nullptr) {
    const VerdictCache::Stats s = cache->stats();
    cache_hits0 = s.hits;
    cache_misses0 = s.misses;
  }
  for (const MatI& space : candidate_spaces(n, options)) {
    ++best.candidates_tested;
    mapping::ConflictVerdict verdict;
    if (cache != nullptr) {
      // Cached path: the fixed-S context's fused rank+conflict screen is
      // bit-identical to the scratch pair below, and its canonical keys
      // let verdicts flow between S candidates sharing a conflict form.
      FixedSpaceContext ctx(algo.index_set(), space);
      std::optional<mapping::ConflictVerdict> v =
          ctx.screen(ConflictOracle::kExact, pi, cache);
      if (!v) continue;
      verdict = std::move(*v);
    } else {
      mapping::MappingMatrix t(space, pi);
      if (!t.has_full_rank()) continue;
      verdict = mapping::decide_conflict_free(t, algo.index_set());
      if (!verdict.conflict_free()) continue;
    }
    ArrayCost cost = evaluate_array_cost(algo, space);
    if (!best.found || cost.total() < best.cost.total() ||
        (cost.total() == best.cost.total() &&
         cost.processors < best.cost.processors)) {
      best.found = true;
      best.space = space;
      best.cost = cost;
      best.verdict = verdict;
    }
  }
  if (cache != nullptr) {
    const VerdictCache::Stats s = cache->stats();
    best.cache_hits = s.hits - cache_hits0;
    best.cache_misses = s.misses - cache_misses0;
  }
  return best;
}

// ---- Problem 6.1: fast engine ----------------------------------------------

SpaceSearchResult space_optimal_mapping(
    const model::UniformDependenceAlgorithm& algo, const VecI& pi,
    const SpaceSearchOptions& options) {
  SYSMAP_SPAN("search.space.space_optimal_mapping");
  const std::size_t n = algo.dimension();
  validate_problem61_inputs(algo, pi, options);
  const model::IndexSet& set = algo.index_set();

  VerdictCache* cache = options.verdict_cache;
  std::uint64_t cache_hits0 = 0;
  std::uint64_t cache_misses0 = 0;
  if (cache != nullptr) {
    const VerdictCache::Stats s = cache->stats();
    cache_hits0 = s.hits;
    cache_misses0 = s.misses;
  }

  SpaceFeed feed(n, options);
  std::atomic<Int> best_total{kNoIncumbent};
  const std::size_t workers =
      options.num_threads <= 1 ? 1 : options.num_threads;
  std::vector<LocalBest> locals(workers);
  std::vector<std::uint64_t> pruned(workers, 0);

  auto body = [&](std::size_t w) {
    LocalBest& local = locals[w];
    std::uint64_t local_pruned = 0;
    SpaceChunk chunk;
    while (feed.draw(kChunk, chunk)) {
      for (std::size_t i = 0; i < chunk.len; ++i) {
        const MatI& space = chunk.spaces[i];
        const std::uint64_t pos = chunk.base + i;
        const Int wire = wire_length_sum(space, algo.dependence_matrix());

        // Branch-and-bound: wire plus a per-row processor lower bound
        // already beats the incumbent STRICTLY (never on ties, so
        // the fewer-processors tie-break survives).  The bound only ever
        // holds totals of fully verified candidates, so a pruned
        // candidate can never be the lexicographic winner.
        const Int bound = best_total.load(std::memory_order_relaxed);
        if (bound != kNoIncumbent &&
            exceeds_strictly(wire, processor_lower_bound(space, set),
                             bound)) {
          ++local_pruned;
          continue;
        }

        // Conflict screen -- branch-for-branch the seed's.
        mapping::ConflictVerdict verdict;
        if (cache != nullptr) {
          FixedSpaceContext ctx(set, space);
          std::optional<mapping::ConflictVerdict> v =
              ctx.screen(ConflictOracle::kExact, pi, cache);
          if (!v) continue;
          verdict = std::move(*v);
        } else {
          mapping::MappingMatrix t(space, pi);
          if (!t.has_full_rank()) continue;
          verdict = mapping::decide_conflict_free(t, set);
          if (!verdict.conflict_free()) continue;
        }

        ArrayCost cost;
        cost.processors = count_processor_images(set, space);
        cost.wire_length = wire;
        const Int total = exact::add_checked(cost.processors,
                                             cost.wire_length);
        atomic_fetch_min(best_total, total);
        LocalBest candidate;
        candidate.found = true;
        candidate.total = total;
        candidate.pos = pos;
        candidate.space = space;
        candidate.cost = cost;
        candidate.verdict = std::move(verdict);
        if (!local.found || candidate.better_than(local)) {
          local = std::move(candidate);
        }
      }
    }
    pruned[w] = local_pruned;
  };

  if (workers == 1) {
    body(0);
  } else {
    support::ThreadPool pool(workers);
    pool.run(body);
  }

  SpaceSearchResult best;
  best.candidates_tested = feed.produced();
  for (std::uint64_t p : pruned) best.bnb_pruned += p;
  const LocalBest* winner = nullptr;
  for (const LocalBest& local : locals) {
    if (!local.found) continue;
    if (winner == nullptr || local.better_than(*winner)) winner = &local;
  }
  if (winner != nullptr) {
    best.found = true;
    best.space = winner->space;
    best.cost = winner->cost;
    best.verdict = winner->verdict;
  }
  if (cache != nullptr) {
    const VerdictCache::Stats s = cache->stats();
    best.cache_hits = s.hits - cache_hits0;
    best.cache_misses = s.misses - cache_misses0;
  }
  return best;
}

// ---- Problem 6.2: seed engine (parity oracle) ------------------------------

DesignSpaceResult explore_design_space_seed(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options) {
  const std::size_t n = algo.dimension();
  DesignSpaceResult result;
  std::vector<DesignPoint> points;

  // Cold scoring per space (default: ILP + certification / Procedure 5.1);
  // the sweep consumes (found, pi, makespan) only, so array design is off.
  PipelineOptions cold;
  cold.design_array = false;
  const MappingPipeline pipeline(cold);
  for (const MatI& space : candidate_spaces(n, options)) {
    ++result.spaces_tested;
    MappingSolution solution;
    try {
      solution = pipeline.find_time_optimal(algo, space);
    } catch (const std::exception&) {
      continue;  // defensive: skip degenerate candidates
    }
    if (!solution.found) continue;
    ++result.feasible_spaces;
    DesignPoint point;
    point.space = space;
    point.pi = solution.pi;
    point.makespan = solution.makespan;
    point.cost = evaluate_array_cost(algo, space);
    points.push_back(std::move(point));
  }

  // Pareto filter on (makespan, cost.total()).
  std::sort(points.begin(), points.end(),
            [](const DesignPoint& a, const DesignPoint& b) {
              if (a.makespan != b.makespan) return a.makespan < b.makespan;
              return a.cost.total() < b.cost.total();
            });
  Int best_cost = 0;
  bool first = true;
  for (auto& p : points) {
    if (first || p.cost.total() < best_cost) {
      // Skip duplicates at identical (makespan, cost).
      if (!result.pareto.empty() &&
          result.pareto.back().makespan == p.makespan &&
          result.pareto.back().cost.total() == p.cost.total()) {
        continue;
      }
      best_cost = p.cost.total();
      first = false;
      result.pareto.push_back(std::move(p));
    }
  }
  return result;
}

// ---- Problem 6.2: fast engine ----------------------------------------------

DesignSpaceResult explore_design_space(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options) {
  SYSMAP_SPAN("search.space.explore_design_space");
  const std::size_t n = algo.dimension();
  const model::IndexSet& set = algo.index_set();

  SpaceFeed feed(n, options);
  const std::size_t workers =
      options.num_threads <= 1 ? 1 : options.num_threads;
  // One fused pipeline persists across every candidate space: shared
  // verdict cache, schedule-orbit objective reuse, per-space contexts.
  // score() without a cap is bit-identical to the cold per-space calls the
  // seed engine makes, so the Pareto set is unchanged (a cap would break
  // frontier parity: dominated-on-time points can still be on it).
  PipelineOptions fused_options;
  fused_options.design_array = false;
  MappingPipeline pipeline(fused_options);
  MappingPipeline::FusionOptions fusion;
  fusion.verdict_cache = options.verdict_cache;
  pipeline.enable_fusion(fusion);
  std::vector<std::vector<std::pair<std::uint64_t, DesignPoint>>> accepted(
      workers);

  auto body = [&](std::size_t w) {
    SpaceChunk chunk;
    while (feed.draw(kChunk, chunk)) {
      for (std::size_t i = 0; i < chunk.len; ++i) {
        const MatI& space = chunk.spaces[i];
        MappingSolution solution;
        try {
          solution = pipeline.score(algo, space);
        } catch (const std::exception&) {
          continue;  // defensive: skip degenerate candidates
        }
        if (!solution.found) continue;
        DesignPoint point;
        point.space = space;
        point.pi = solution.pi;
        point.makespan = solution.makespan;
        point.cost.processors = count_processor_images(set, space);
        point.cost.wire_length =
            wire_length_sum(space, algo.dependence_matrix());
        accepted[w].emplace_back(chunk.base + i, std::move(point));
      }
    }
  };

  if (workers == 1) {
    body(0);
  } else {
    support::ThreadPool pool(workers);
    pool.run(body);
  }

  DesignSpaceResult result;
  result.spaces_tested = feed.produced();
  std::vector<std::pair<std::uint64_t, DesignPoint>> merged;
  for (auto& worker_points : accepted) {
    for (auto& entry : worker_points) merged.push_back(std::move(entry));
  }
  // Restore the serial visit order before the (unstable) Pareto sort so
  // the sort sees the exact input sequence the seed engine feeds it --
  // that, not stability, is what makes tied orderings bit-identical.
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  result.feasible_spaces = merged.size();
  std::vector<DesignPoint> points;
  points.reserve(merged.size());
  for (auto& entry : merged) points.push_back(std::move(entry.second));

  // Pareto filter on (makespan, cost.total()) -- verbatim the seed's.
  std::sort(points.begin(), points.end(),
            [](const DesignPoint& a, const DesignPoint& b) {
              if (a.makespan != b.makespan) return a.makespan < b.makespan;
              return a.cost.total() < b.cost.total();
            });
  Int best_cost = 0;
  bool first = true;
  for (auto& p : points) {
    if (first || p.cost.total() < best_cost) {
      if (!result.pareto.empty() &&
          result.pareto.back().makespan == p.makespan &&
          result.pareto.back().cost.total() == p.cost.total()) {
        continue;
      }
      best_cost = p.cost.total();
      first = false;
      result.pareto.push_back(std::move(p));
    }
  }
  return result;
}

// ---- Joint single-winner query: seed engine (parity oracle) ----------------

JointMappingResult joint_time_optimal_mapping_seed(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options) {
  const std::size_t n = algo.dimension();
  JointMappingResult best;
  PipelineOptions cold;
  cold.design_array = false;
  const MappingPipeline pipeline(cold);
  for (const MatI& space : candidate_spaces(n, options)) {
    ++best.spaces_tested;
    MappingSolution solution;
    try {
      solution = pipeline.find_time_optimal(algo, space);
    } catch (const std::exception&) {
      continue;  // defensive: skip degenerate candidates
    }
    if (!solution.found) continue;
    const ArrayCost cost = evaluate_array_cost(algo, space);
    const bool better =
        !best.found || solution.objective < best.objective ||
        (solution.objective == best.objective &&
         (cost.total() < best.cost.total() ||
          (cost.total() == best.cost.total() &&
           cost.processors < best.cost.processors)));
    if (better) {
      best.found = true;
      best.space = space;
      best.pi = solution.pi;
      best.objective = solution.objective;
      best.makespan = solution.makespan;
      best.verdict = solution.verdict;
      best.cost = cost;
    }
  }
  return best;
}

// ---- Joint single-winner query: fused engine -------------------------------

namespace {

// One worker's running joint incumbent: the lexicographic minimum of
// (objective, total, processors, global position) over the candidates it
// evaluated -- exactly the seed's "strictly smaller objective, then cost,
// then first seen wins" update order.
struct LocalJointBest {
  bool found = false;
  Int objective = 0;
  Int total = 0;
  std::uint64_t pos = 0;
  MatI space;
  VecI pi;
  Int makespan = 0;
  mapping::ConflictVerdict verdict;
  ArrayCost cost;
  std::uint64_t truncated = 0;

  bool better_than(const LocalJointBest& other) const {
    if (objective != other.objective) return objective < other.objective;
    if (total != other.total) return total < other.total;
    if (cost.processors != other.cost.processors) {
      return cost.processors < other.cost.processors;
    }
    return pos < other.pos;
  }
};

}  // namespace

JointMappingResult joint_time_optimal_mapping(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options) {
  SYSMAP_SPAN("search.space.joint_time_optimal_mapping");
  const std::size_t n = algo.dimension();
  const model::IndexSet& set = algo.index_set();

  SpaceFeed feed(n, options);
  PipelineOptions fused_options;
  fused_options.design_array = false;
  MappingPipeline pipeline(fused_options);
  MappingPipeline::FusionOptions fusion;
  fusion.verdict_cache = options.verdict_cache;
  pipeline.enable_fusion(fusion);

  // Cross-space incumbent on the schedule objective.  The cap is the best
  // objective FOUND so far and score() treats it inclusively, so a space
  // whose optimum ties the incumbent is still fully scored and costed --
  // the cost tie-breaks and first-seen order are exactly the seed's.  A
  // truncated space has optimum > cap >= the final minimum, so it could
  // not have won or tied under any interleaving.
  std::atomic<Int> best_objective{kNoIncumbent};
  const std::size_t workers =
      options.num_threads <= 1 ? 1 : options.num_threads;
  std::vector<LocalJointBest> locals(workers);

  auto body = [&](std::size_t w) {
    LocalJointBest& local = locals[w];
    SpaceChunk chunk;
    while (feed.draw(kChunk, chunk)) {
      for (std::size_t i = 0; i < chunk.len; ++i) {
        const MatI& space = chunk.spaces[i];
        const std::uint64_t pos = chunk.base + i;
        const Int incumbent = best_objective.load(std::memory_order_relaxed);
        const Int cap =
            incumbent != kNoIncumbent ? incumbent : MappingPipeline::kNoCap;
        MappingSolution solution;
        try {
          solution = pipeline.score(algo, space, cap);
        } catch (const std::exception&) {
          continue;  // defensive: skip degenerate candidates
        }
        if (!solution.found) {
          if (solution.truncated_by_cap) ++local.truncated;
          continue;
        }
        atomic_fetch_min(best_objective, solution.objective);
        LocalJointBest candidate;
        candidate.found = true;
        candidate.objective = solution.objective;
        candidate.pos = pos;
        candidate.space = space;
        candidate.pi = std::move(solution.pi);
        candidate.makespan = solution.makespan;
        candidate.verdict = std::move(solution.verdict);
        candidate.cost.processors = count_processor_images(set, space);
        candidate.cost.wire_length =
            wire_length_sum(space, algo.dependence_matrix());
        candidate.total = exact::add_checked(candidate.cost.processors,
                                             candidate.cost.wire_length);
        if (!local.found || candidate.better_than(local)) {
          candidate.truncated = local.truncated;
          local = std::move(candidate);
        }
      }
    }
  };

  if (workers == 1) {
    body(0);
  } else {
    support::ThreadPool pool(workers);
    pool.run(body);
  }

  JointMappingResult best;
  best.spaces_tested = feed.produced();
  const LocalJointBest* winner = nullptr;
  for (const LocalJointBest& local : locals) {
    best.truncated_spaces += local.truncated;
    if (!local.found) continue;
    if (winner == nullptr || local.better_than(*winner)) winner = &local;
  }
  if (winner != nullptr) {
    best.found = true;
    best.space = winner->space;
    best.pi = winner->pi;
    best.objective = winner->objective;
    best.makespan = winner->makespan;
    best.verdict = winner->verdict;
    best.cost = winner->cost;
  }
  return best;
}

}  // namespace sysmap::search
