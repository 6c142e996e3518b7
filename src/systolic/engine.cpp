// The high-throughput systolic execution engine behind systolic::simulate.
//
// The seed simulator (simulator.cpp) materializes every computation,
// comparator-sorts them, and routes every dependence hop through tree maps
// keyed by VecI tuples -- simulating a mapped design costs orders of
// magnitude more than finding it.  This engine replaces all of that with
// flat storage:
//
//  * TIME-MAJOR BUCKETING.  Pi j is affine over the box J, so the cycle
//    range [t_min, t_max] and the per-cycle population come from one
//    counting pass along the index-set odometer walk; a stable counting
//    scatter then yields the computations grouped by cycle and, inside
//    each cycle, in lexicographic j order -- exactly the (time, j) order
//    the seed obtains from std::sort, with no comparator.
//
//  * PACKED COORDINATES.  PE coordinates S j and intermediate routing
//    positions live in a checked bounding box (the image box of S padded
//    by every route's prefix displacements), so each packs into one uint64
//    via support/packed_coord.hpp; wire identities (PE, primitive, dep,
//    cycle) pack the same way.  Occupancy is tracked in open-addressing
//    tables -- no tree maps, no per-event allocation.  When a box does not
//    pack (or the index set / cycle range leaves the flat regime), the
//    engine transparently falls back to the seed path, which the parity
//    tests exercise as an oracle.
//
//  * O(1) ORDINALS.  The odometer walk's step counter IS the lexicographic
//    ordinal, and ordinals are linear in j, so the operand ordinal of
//    dependence d_i is ord(j) - ord_delta(d_i): the per-operand
//    model::lexicographic_ordinal recomputation in the seed's value pass
//    becomes one subtraction.
//
//  * DETERMINISTIC PARALLELISM.  The conflict and link passes fan out over
//    cycle-range chunks and the buffer pass over dependence links on
//    support::ThreadPool.  Conflicts partition exactly by cycle; wire-cycle
//    keys partition exactly by cycle too, so every occupancy key is owned
//    by one worker and the uncapped totals are exact sums.  Stored events
//    carry their global (position, dep, hop) sequence tag and are merged
//    in seed emission order, so reports are bit-identical for every thread
//    count (tests/simulator_parity_test.cpp holds them equal to the seed,
//    under TSan in CI).
#include "systolic/simulator.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "exact/bigint.hpp"
#include "exact/checked.hpp"
#include "obs/obs.hpp"
#include "support/thread_pool.hpp"
#include "support/packed_coord.hpp"

namespace sysmap::systolic {
namespace detail {
namespace {

constexpr std::size_t kMaxEvents = 16;  // cap on stored diagnostics (== seed)

// Canonical hop sequence for dependence column i of K: primitives in index
// order, each repeated k(r, i) times (kept in sync with simulator.cpp).
std::vector<std::size_t> hop_sequence(const MatI& k, std::size_t dep) {
  std::vector<std::size_t> hops;
  for (std::size_t r = 0; r < k.rows(); ++r) {
    for (Int c = 0; c < k(r, dep); ++c) hops.push_back(r);
  }
  return hops;
}

/// Everything the flat passes need, precomputed with exact arithmetic.
/// FlatPlan::build returns nullopt whenever any bound, packing, or key
/// product leaves the machine-word regime -- the caller then runs the seed
/// fallback, so the passes themselves may use raw word arithmetic freely.
struct FlatPlan {
  std::size_t n = 0;         ///< index-set dimension
  std::size_t m = 0;         ///< dependence count
  std::uint64_t points = 0;  ///< |J|
  VecI mu;                   ///< box bounds
  MatI d;                    ///< dependence matrix copy
  VecI pi;                   ///< schedule row
  MatI space;                ///< allocation rows S
  std::vector<std::uint64_t> dims;      ///< mu_r + 1
  std::vector<std::int64_t> ord_delta;  ///< ordinal offset of each dependence

  Int t_min = 0;  ///< min Pi j over J (attained at a box corner)
  Int t_max = 0;
  std::uint64_t cycles = 0;  ///< t_max - t_min + 1
  VecI t_delta;              ///< schedule increment per odometer position

  support::ImagePacking pe;             ///< padded PE/route-position packing
  std::vector<std::uint64_t> pe_delta;  ///< packed-key odometer increments
  std::vector<std::uint64_t> pe_dep_delta;  ///< pack_delta(S d_i) per dep

  std::vector<std::vector<std::size_t>> routes;  ///< hop sequence per dep
  std::vector<std::uint64_t> prim_delta;         ///< pack_delta(P column)
  VecI buffer_len;                    ///< delays - hops per dep
  std::vector<std::size_t> buffered;  ///< deps with buffer_len >= 1
  std::size_t h_max = 0;              ///< longest route
  std::size_t h_total = 0;            ///< sum of route lengths
  std::size_t num_prims = 0;
  std::uint64_t wire_cycles = 0;  ///< cycle positions in a wire key

  static std::optional<FlatPlan> build(
      const model::UniformDependenceAlgorithm& algo, const ArrayDesign& design);
};

std::optional<FlatPlan> FlatPlan::build(
    const model::UniformDependenceAlgorithm& algo, const ArrayDesign& design) {
  using exact::BigInt;
  const model::IndexSet& set = algo.index_set();
  FlatPlan plan;
  plan.n = set.dimension();
  plan.m = algo.dependence_matrix().cols();
  plan.mu = set.bounds();
  plan.d = algo.dependence_matrix();
  plan.pi = design.t.schedule();
  plan.space = design.t.space();
  if (plan.n == 0) return std::nullopt;

  try {
    // Point count and ordinal weights; ordinals index uint32 position
    // arrays, so the whole box must stay below UINT32_MAX points.
    plan.points = set.size_u64();
    if (plan.points >= UINT32_MAX - 1) return std::nullopt;
    plan.dims.resize(plan.n);
    std::vector<std::uint64_t> ord_w(plan.n, 1);
    for (std::size_t r = 0; r < plan.n; ++r) {
      plan.dims[r] = static_cast<std::uint64_t>(plan.mu[r]) + 1;
    }
    for (std::size_t r = plan.n; r-- > 1;) {
      ord_w[r - 1] = ord_w[r] * plan.dims[r];
    }
    // Per-dependence ordinal offsets, plus a proof that every j +- d_i
    // coordinate the passes will form is representable: mu_r +- d(r, i)
    // must not overflow, checked here once so the hot membership tests can
    // subtract raw.
    plan.ord_delta.resize(plan.m);
    for (std::size_t i = 0; i < plan.m; ++i) {
      BigInt off(0);
      for (std::size_t r = 0; r < plan.n; ++r) {
        (void)exact::sub_checked(0, plan.d(r, i));
        (void)exact::sub_checked(plan.mu[r], plan.d(r, i));
        (void)exact::add_checked(plan.mu[r], plan.d(r, i));
        off += BigInt(plan.d(r, i)) * BigInt(static_cast<Int>(ord_w[r]));
      }
      plan.ord_delta[i] = off.to_int64();
    }

    // Schedule range.  Pi j is affine, so the extremes are sums of the
    // signed parts of pi_r mu_r (attained at box corners), and every
    // partial sum of Pi j lies between them.
    BigInt lo(0);
    BigInt hi(0);
    for (std::size_t r = 0; r < plan.n; ++r) {
      BigInt part = BigInt(plan.pi[r]) * BigInt(plan.mu[r]);
      if (part < BigInt(0)) {
        lo += part;
      } else {
        hi += part;
      }
    }
    plan.t_min = lo.to_int64();
    plan.t_max = hi.to_int64();
    plan.cycles = static_cast<std::uint64_t>((hi - lo + BigInt(1)).to_int64());
    // The flat passes allocate per-cycle buckets; bail to the seed when the
    // schedule is so spread out that cycles dwarf the point count.
    const std::uint64_t cycle_cap =
        std::max<std::uint64_t>(std::uint64_t{1} << 20, 8 * plan.points + 64);
    if (plan.cycles >= UINT32_MAX - 2 || plan.cycles > cycle_cap) {
      return std::nullopt;
    }
    // Odometer step r: j_r += 1 while j_k falls mu_k -> 0 for all k > r.
    plan.t_delta.assign(plan.n, 0);
    for (std::size_t r = 0; r < plan.n; ++r) {
      BigInt step(plan.pi[r]);
      for (std::size_t k = r + 1; k < plan.n; ++k) {
        step -= BigInt(plan.pi[k]) * BigInt(plan.mu[k]);
      }
      plan.t_delta[r] = step.to_int64();
    }

    // Routes and the route-prefix displacement envelope: an in-flight datum
    // of dependence i sits at S src + (partial sums of primitive columns),
    // which may step outside the image box of S, so the PE packing box is
    // padded by the min/max prefix displacement over every route.
    const std::size_t rows = plan.space.rows();
    plan.num_prims = design.p.cols();
    plan.routes.resize(plan.m);
    plan.buffer_len.assign(plan.m, 0);
    VecI dev_lo(rows, 0);
    VecI dev_hi(rows, 0);
    for (std::size_t i = 0; i < plan.m; ++i) {
      plan.routes[i] = hop_sequence(design.k, i);
      plan.h_max = std::max(plan.h_max, plan.routes[i].size());
      plan.h_total += plan.routes[i].size();
      plan.buffer_len[i] = exact::sub_checked(
          design.delays[i], static_cast<Int>(plan.routes[i].size()));
      if (plan.buffer_len[i] >= 1) plan.buffered.push_back(i);
      VecI prefix(rows, 0);
      for (std::size_t hop = 0; hop < plan.routes[i].size(); ++hop) {
        for (std::size_t r = 0; r < rows; ++r) {
          prefix[r] =
              exact::add_checked(prefix[r], design.p(r, plan.routes[i][hop]));
          dev_lo[r] = std::min(dev_lo[r], prefix[r]);
          dev_hi[r] = std::max(dev_hi[r], prefix[r]);
        }
      }
    }
    // Wire cycles can reach h_max - 1 below t_min; prove the subtraction.
    (void)exact::sub_checked(plan.t_min, static_cast<Int>(plan.h_max + 1));

    // Padded PE box: the image bounds of S over J extended by the prefix
    // envelope, so every routing position packs too.
    VecI pe_lo(rows, 0);
    VecI pe_hi(rows, 0);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < plan.n; ++c) {
        const Int term = exact::mul_checked(plan.space(r, c), plan.mu[c]);
        if (plan.space(r, c) < 0) {
          pe_lo[r] = exact::add_checked(pe_lo[r], term);
        } else if (plan.space(r, c) > 0) {
          pe_hi[r] = exact::add_checked(pe_hi[r], term);
        }
      }
      pe_lo[r] = exact::add_checked(pe_lo[r], dev_lo[r]);
      pe_hi[r] = exact::add_checked(pe_hi[r], dev_hi[r]);
    }
    std::optional<support::ImagePacking> packing =
        support::ImagePacking::build_from_bounds(pe_lo, pe_hi);
    if (!packing || packing->product == UINT64_MAX) return std::nullopt;
    plan.pe = std::move(*packing);

    // Packed-key increments: odometer steps, dependence displacements
    // S d_i, and the primitive columns of P.  All are differences of
    // in-box points, so their coordinates narrow to int64; the packed
    // increments wrap by design (pack_delta documents the contract).
    VecI delta(rows, 0);
    plan.pe_delta.assign(plan.n, 0);
    for (std::size_t r = 0; r < plan.n; ++r) {
      for (std::size_t q = 0; q < rows; ++q) {
        BigInt step(plan.space(q, r));
        for (std::size_t k = r + 1; k < plan.n; ++k) {
          step -= BigInt(plan.space(q, k)) * BigInt(plan.mu[k]);
        }
        delta[q] = step.to_int64();
      }
      plan.pe_delta[r] = plan.pe.pack_delta(delta);
    }
    plan.pe_dep_delta.assign(plan.m, 0);
    for (std::size_t i = 0; i < plan.m; ++i) {
      for (std::size_t q = 0; q < rows; ++q) {
        BigInt step(0);
        for (std::size_t k = 0; k < plan.n; ++k) {
          step += BigInt(plan.space(q, k)) * BigInt(plan.d(k, i));
        }
        delta[q] = step.to_int64();
      }
      plan.pe_dep_delta[i] = plan.pe.pack_delta(delta);
    }
    plan.prim_delta.assign(plan.num_prims, 0);
    for (std::size_t prim = 0; prim < plan.num_prims; ++prim) {
      for (std::size_t q = 0; q < rows; ++q) delta[q] = design.p(q, prim);
      plan.prim_delta[prim] = plan.pe.pack_delta(delta);
    }

    // Wire key space: (position, primitive, dep, cycle) must inject into
    // uint64 (the cycle coordinate spans cycles + h_max - 1 positions,
    // offset so the earliest possible wire cycle t_min - h_max + 1 maps
    // to 0).
    if (plan.h_max > 0) {
      plan.wire_cycles =
          plan.cycles + static_cast<std::uint64_t>(plan.h_max) - 1;
      std::uint64_t prod = plan.pe.product;
      if (__builtin_mul_overflow(
              prod, static_cast<std::uint64_t>(plan.num_prims), &prod) ||
          __builtin_mul_overflow(prod, static_cast<std::uint64_t>(plan.m),
                                 &prod) ||
          __builtin_mul_overflow(prod, plan.wire_cycles, &prod) ||
          prod == UINT64_MAX) {
        return std::nullopt;
      }
    }
  } catch (const exact::OverflowError&) {
    return std::nullopt;
  }
  return plan;
}

/// Decodes a lexicographic ordinal into box coordinates.
inline void decode_ordinal(const FlatPlan& plan, std::uint64_t ord, VecI& j) {
  j.resize(plan.n);
  for (std::size_t r = plan.n; r-- > 0;) {
    // SYSMAP_RAW_FASTPATH(bounded: ord % dims_r < dims_r = mu_r + 1, so
    // every digit is a valid in-box coordinate; the division shrinks ord)
    j[r] = static_cast<Int>(ord % plan.dims[r]);
    ord /= plan.dims[r];
  }
}

/// True when j - d_i stays inside the box (the operand is computed on the
/// array, not a boundary input).
inline bool source_in_set(const FlatPlan& plan, const VecI& j,
                          std::size_t dep) {
  for (std::size_t r = 0; r < plan.n; ++r) {
    // SYSMAP_RAW_FASTPATH(bounded: FlatPlan::build pre-checked
    // mu_r +- d(r, i) with exact::sub_checked/add_checked, so the
    // difference of an in-box coordinate and a dependence entry is
    // representable)
    const Int s = j[r] - plan.d(r, dep);
    if (s < 0 || s > plan.mu[r]) return false;
  }
  return true;
}

/// A buffered-interval start: the source fires at absolute cycle
/// t_min + start - 1 and its datum occupies the source link from `start`
/// (cycle-relative) for buffer_len[dep] cycles.
struct BufStart {
  std::uint32_t start = 0;
  std::uint64_t pe = 0;  ///< packed source PE
};

// SYSMAP_RAW_FASTPATH(bounded: t walks the affine schedule -- every
// partial sum and increment lands between the BigInt-narrowed extremes
// t_min/t_max, S j partial sums stay between the checked image bounds,
// and FlatPlan::build proved j_r + d(r, i) representable)
void walk_range(const FlatPlan& plan, std::size_t begin, std::size_t end,
                std::uint64_t* pe_keys, std::uint32_t* cycle_of,
                std::vector<std::vector<BufStart>>& buf_starts) {
  if (begin >= end) return;
  const std::size_t n = plan.n;
  const std::size_t rows = plan.space.rows();
  VecI j(n, 0);
  decode_ordinal(plan, begin, j);
  Int t = 0;
  for (std::size_t r = 0; r < n; ++r) t += plan.pi[r] * j[r];
  VecI y(rows, 0);
  for (std::size_t q = 0; q < rows; ++q) {
    Int acc = 0;
    for (std::size_t r = 0; r < n; ++r) acc += plan.space(q, r) * j[r];
    y[q] = acc;
  }
  std::uint64_t pe_key = plan.pe.pack(y);

  for (std::size_t ord = begin;;) {
    cycle_of[ord] = static_cast<std::uint32_t>(t - plan.t_min);
    pe_keys[ord] = pe_key;
    // Source-centric buffer accounting: j buffers dependence i exactly
    // when its consumer j + d_i is also computed on the array.
    for (std::size_t i : plan.buffered) {
      bool consumer_in = true;
      for (std::size_t r = 0; r < n; ++r) {
        const Int s = j[r] + plan.d(r, i);
        if (s < 0 || s > plan.mu[r]) {
          consumer_in = false;
          break;
        }
      }
      if (consumer_in) {
        buf_starts[i].push_back(
            {static_cast<std::uint32_t>(t + 1 - plan.t_min), pe_key});
      }
    }
    if (++ord >= end) break;
    std::size_t r = n;
    while (r-- > 0) {
      if (j[r] < plan.mu[r]) {
        ++j[r];
        break;
      }
      j[r] = 0;
    }
    t += plan.t_delta[r];
    pe_key += plan.pe_delta[r];
  }
}

/// Open-addressing find-or-claim table with epoch stamps: one allocation
/// reused across every cycle bucket of a conflict chunk.  Entries from
/// older epochs act as free slots -- a probe never terminates on them
/// without claiming, so current-epoch entries always form a consistent
/// linear-probe set.
class EpochTable {
 public:
  explicit EpochTable(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    keys_.assign(cap, UINT64_MAX);
    epoch_.assign(cap, 0);
    first_.assign(cap, 0);
    mask_ = cap - 1;
  }

  /// Returns the payload of the first claimant when `key` is already
  /// present in `epoch`, else claims (key, epoch, pos) and returns
  /// UINT32_MAX.
  std::uint32_t claim(std::uint64_t key, std::uint32_t epoch,
                      std::uint32_t pos) {
    // SYSMAP_RAW_FASTPATH(bounded: wrapping Fibonacci hash and masked
    // linear probe; current-epoch entries never exceed half the capacity,
    // so the probe always reaches a claimable slot)
    std::size_t i =
        static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask_;
    if constexpr (obs::kEnabled) ++probes_;
    while (epoch_[i] == epoch && keys_[i] != key) {
      i = (i + 1) & mask_;
      if constexpr (obs::kEnabled) ++probes_;
    }
    if (epoch_[i] == epoch) return first_[i];
    keys_[i] = key;
    epoch_[i] = epoch;
    first_[i] = pos;
    return UINT32_MAX;
  }

  /// Probe count accumulated by this worker's table (the chunk sums it
  /// into the obs counter once, not per probe; always 0 with obs off).
  std::uint64_t probes() const { return probes_; }

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> epoch_;
  std::vector<std::uint32_t> first_;
  std::size_t mask_ = 0;
  std::uint64_t probes_ = 0;
};

struct ConflictChunk {
  std::vector<ConflictEvent> events;  ///< first kMaxEvents, in seed order
  std::uint64_t total = 0;            ///< uncapped duplicate count
  std::uint64_t probes = 0;           ///< occupancy-table probes (obs only)
};

// SYSMAP_RAW_FASTPATH(bounded: event times are t_min + c with
// c < cycles = t_max - t_min + 1, so they land back inside the checked
// schedule range)
void conflict_chunk(const FlatPlan& plan,
                    const std::vector<std::uint32_t>& bucket_start,
                    const std::vector<std::uint32_t>& order,
                    const std::vector<std::uint64_t>& pe_keys,
                    std::size_t c_lo, std::size_t c_hi, std::size_t max_bucket,
                    ConflictChunk& out) {
  EpochTable table(max_bucket);
  for (std::size_t c = c_lo; c < c_hi; ++c) {
    for (std::uint32_t p = bucket_start[c]; p < bucket_start[c + 1]; ++p) {
      const std::uint32_t ord = order[p];
      const std::uint32_t first =
          table.claim(pe_keys[ord], static_cast<std::uint32_t>(c) + 1, p);
      if (first != UINT32_MAX) {
        ++out.total;
        if (out.events.size() < kMaxEvents) {
          ConflictEvent ev;
          decode_ordinal(plan, order[first], ev.j1);
          decode_ordinal(plan, ord, ev.j2);
          plan.pe.unpack(pe_keys[ord], ev.pe);
          ev.time = plan.t_min + static_cast<Int>(c);
          out.events.push_back(std::move(ev));
        }
      }
    }
  }
  out.probes = table.probes();
}

/// A stored collision with its global emission tag: the seed reports
/// collisions in (computation position, dep, hop) order, and each worker's
/// list is already sorted by that tag, so a tag merge reproduces the seed
/// order exactly.
struct TaggedCollision {
  std::uint64_t pos = 0;
  std::uint32_t dep = 0;
  std::uint32_t hop = 0;
  CollisionEvent ev;
};

struct CollisionChunk {
  std::vector<TaggedCollision> events;
  std::uint64_t total = 0;
};

// SYSMAP_RAW_FASTPATH(bounded: wire cycles are t_min + crel with crel in
// [-(h_max - 1), cycles), inside the range FlatPlan::build proved with
// sub_checked(t_min, h_max + 1); packed wire keys stay below the checked
// radix product and wrap only through pack_delta increments that land back
// on exact in-box packings)
void collision_chunk(const FlatPlan& plan,
                     const std::vector<std::uint32_t>& bucket_start,
                     const std::vector<std::uint32_t>& order,
                     const std::vector<std::uint64_t>& pe_keys,
                     std::size_t c_lo, std::size_t c_hi, CollisionChunk& out) {
  // A computation in bucket c touches wire cycles [c - h + 1, c], so this
  // chunk (owning wire cycles [c_lo, c_hi), the first chunk also the
  // pre-t_min warm-up) scans buckets up to c_hi + h_max - 1.
  const std::size_t scan_hi =
      std::min<std::size_t>(static_cast<std::size_t>(plan.cycles),
                            c_hi + plan.h_max - 1);
  const std::size_t scanned = bucket_start[scan_hi] - bucket_start[c_lo];
  const std::size_t expected = std::min<std::size_t>(
      scanned * std::max<std::size_t>(plan.h_total, 1), std::size_t{1} << 22);
  support::FlatCounterMap wires(expected);
  const bool own_below = c_lo == 0;
  VecI j;
  for (std::size_t c = c_lo; c < scan_hi; ++c) {
    for (std::uint32_t p = bucket_start[c]; p < bucket_start[c + 1]; ++p) {
      const std::uint32_t ord = order[p];
      decode_ordinal(plan, ord, j);
      for (std::size_t i = 0; i < plan.m; ++i) {
        const std::vector<std::size_t>& route = plan.routes[i];
        if (route.empty() || !source_in_set(plan, j, i)) continue;
        // Hop 0 occupies wire cycle t1 - h + 1 (cycle-relative crel).
        std::int64_t crel = static_cast<std::int64_t>(c) -
                            static_cast<std::int64_t>(route.size()) + 1;
        std::uint64_t pos_key = pe_keys[ord] - plan.pe_dep_delta[i];
        for (std::size_t hop = 0; hop < route.size(); ++hop) {
          const bool owned = crel < static_cast<std::int64_t>(c_hi) &&
                             (crel >= static_cast<std::int64_t>(c_lo) ||
                              (own_below && crel < 0));
          if (owned) {
            const std::size_t prim = route[hop];
            const std::uint64_t key =
                ((pos_key * plan.num_prims + prim) * plan.m + i) *
                    plan.wire_cycles +
                static_cast<std::uint64_t>(
                    crel + static_cast<std::int64_t>(plan.h_max) - 1);
            if (wires.add(key, 1) == 2) {
              ++out.total;
              if (out.events.size() < kMaxEvents) {
                TaggedCollision tc;
                tc.pos = p;
                tc.dep = static_cast<std::uint32_t>(i);
                tc.hop = static_cast<std::uint32_t>(hop);
                plan.pe.unpack(pos_key, tc.ev.wire_from);
                tc.ev.primitive = prim;
                tc.ev.dep = i;
                tc.ev.cycle = plan.t_min + static_cast<Int>(crel);
                out.events.push_back(std::move(tc));
              }
            }
          }
          pos_key += plan.prim_delta[route[hop]];
          ++crel;
        }
      }
    }
  }
}

/// Buffer high-water mark for one dependence link: counting-sort the
/// interval starts by cycle, then sweep once -- the interval length is the
/// constant buffer_len[dep] (t1 - t0 = Pi d_i is the same for every
/// source/consumer pair), so the decrement stream is the start stream
/// shifted by that length.  Matches the seed's net-delta-per-cycle sweep
/// because decrements apply before increments at each cycle and the per-PE
/// level is read only at increments.
// SYSMAP_RAW_FASTPATH(bounded: cycle indices are uint64 bucket offsets and
// per-PE levels are uint32 counts of concurrently buffered intervals,
// bounded by |J| which fits uint32 by FlatPlan::build)
Int buffer_high_water(const FlatPlan& plan, std::size_t dep,
                      const std::vector<BufStart>& stream) {
  if (stream.empty()) return 0;
  const std::uint64_t len = static_cast<std::uint64_t>(plan.buffer_len[dep]);
  const std::size_t ncy = static_cast<std::size_t>(plan.cycles) + 1;
  std::vector<std::uint32_t> offs(ncy + 1, 0);
  for (const BufStart& e : stream) ++offs[e.start + 1];
  for (std::size_t c = 0; c < ncy; ++c) offs[c + 1] += offs[c];
  std::vector<std::uint64_t> sorted_pe(stream.size());
  {
    std::vector<std::uint32_t> cursor(offs.begin(), offs.end() - 1);
    for (const BufStart& e : stream) sorted_pe[cursor[e.start]++] = e.pe;
  }
  support::FlatCounterMap level(
      std::min<std::size_t>(stream.size(), std::size_t{1} << 20));
  std::uint32_t hw = 0;
  const std::uint64_t last = plan.cycles + len;
  for (std::uint64_t c = 0; c <= last; ++c) {
    if (c >= len) {
      const std::uint64_t s = c - len;
      if (s < ncy) {
        for (std::uint32_t x = offs[s]; x < offs[s + 1]; ++x) {
          level.add(sorted_pe[x], static_cast<std::uint32_t>(-1));
        }
      }
    }
    if (c < ncy) {
      for (std::uint32_t x = offs[c]; x < offs[c + 1]; ++x) {
        hw = std::max(hw, level.add(sorted_pe[x], 1));
      }
    }
  }
  return static_cast<Int>(hw);
}

// SYSMAP_RAW_FASTPATH(bounded: operand ordinals are ord - ord_delta_i,
// both below the uint32-checked point count, and membership was
// established digit-by-digit first, so the difference is a valid ordinal)
void value_pass(const FlatPlan& plan, const model::SemanticAlgorithm& sem,
                const std::vector<std::uint32_t>& order,
                SimulationReport& report) {
  report.values_checked = true;
  std::vector<Int> reference = model::evaluate_reference(sem);
  std::vector<Int> value(reference.size(), 0);
  std::vector<char> done(reference.size(), 0);
  std::vector<Int> inputs(plan.m, 0);
  VecI j;
  bool causal = true;
  for (std::size_t p = 0; p < order.size(); ++p) {
    const std::uint32_t ord = order[p];
    decode_ordinal(plan, ord, j);
    for (std::size_t i = 0; i < plan.m; ++i) {
      if (source_in_set(plan, j, i)) {
        const std::size_t src = static_cast<std::size_t>(
            static_cast<std::int64_t>(ord) - plan.ord_delta[i]);
        if (!done[src]) causal = false;  // operand not produced yet
        inputs[i] = value[src];
      } else {
        inputs[i] = sem.boundary ? sem.boundary(j, i) : Int{0};
      }
    }
    value[ord] = sem.compute(j, inputs);
    done[ord] = 1;
  }
  report.values_match = causal && value == reference;
}

SimulationReport run_flat(const FlatPlan& plan, const ArrayDesign& design,
                          const model::SemanticAlgorithm* semantic,
                          const SimulationOptions& options) {
  SimulationReport report;
  SYSMAP_GAUGE("systolic.points", plan.points);
  SYSMAP_GAUGE("systolic.cycles", plan.cycles);
  const std::size_t N = static_cast<std::size_t>(plan.points);
  report.computations = plan.points;
  report.num_processors = design.num_processors();
  report.first_cycle = plan.t_min;
  report.last_cycle = plan.t_max;
  report.makespan = static_cast<Int>(plan.cycles);

  const std::size_t workers = std::max<std::size_t>(1, options.num_threads);
  std::optional<support::ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  // ThreadPool::run's join (invariant I3) fences the workers' writes into
  // the caller-owned per-worker slots below.
  const auto run_workers = [&](const std::function<void(std::size_t)>& job) {
    if (pool) {
      pool->run(job);
    } else {
      for (std::size_t w = 0; w < workers; ++w) job(w);
    }
  };

  // -- pass 1: odometer walk -> packed PE keys, cycles, buffer starts ----
  std::vector<std::uint64_t> pe_keys(N);
  std::vector<std::uint32_t> cycle_of(N);
  std::vector<std::vector<std::vector<BufStart>>> buf_streams(workers);
  run_workers([&](std::size_t w) {
    buf_streams[w].assign(plan.m, {});
    walk_range(plan, N * w / workers, N * (w + 1) / workers, pe_keys.data(),
               cycle_of.data(), buf_streams[w]);
  });

  // -- time-major bucketing: counting sort by cycle, stable in ordinal ---
  // (= lexicographic j) order, reproducing the seed's (time, j) sort.
  std::vector<std::uint32_t> bucket_start(plan.cycles + 1, 0);
  for (std::size_t ord = 0; ord < N; ++ord) ++bucket_start[cycle_of[ord] + 1];
  std::uint32_t max_bucket = 0;
  for (std::size_t c = 0; c < plan.cycles; ++c) {
    max_bucket = std::max(max_bucket, bucket_start[c + 1]);
    bucket_start[c + 1] += bucket_start[c];
  }
  SYSMAP_GAUGE("systolic.max_bucket", max_bucket);
  std::vector<std::uint32_t> order(N);
  {
    std::vector<std::uint32_t> cursor(bucket_start.begin(),
                                      bucket_start.end() - 1);
    for (std::size_t ord = 0; ord < N; ++ord) {
      order[cursor[cycle_of[ord]]++] = static_cast<std::uint32_t>(ord);
    }
  }

  // -- cycle chunks balanced by computation count ------------------------
  const std::size_t nchunks =
      std::min<std::size_t>(workers, static_cast<std::size_t>(plan.cycles));
  std::vector<std::size_t> cuts(nchunks + 1, 0);
  {
    std::size_t c = 0;
    for (std::size_t w = 1; w < nchunks; ++w) {
      const std::uint64_t target = plan.points * w / nchunks;
      while (c < plan.cycles && bucket_start[c] < target) ++c;
      cuts[w] = c;
    }
    cuts[nchunks] = static_cast<std::size_t>(plan.cycles);
  }

  // -- computational conflicts ------------------------------------------
  // (pe, cycle) keys partition exactly by cycle chunk: totals are exact
  // sums and per-chunk event lists concatenate in global (cycle, position)
  // order -- the seed's emission order.
  {
    std::vector<ConflictChunk> chunks(nchunks);
    run_workers([&](std::size_t w) {
      if (w >= nchunks) return;
      conflict_chunk(plan, bucket_start, order, pe_keys, cuts[w], cuts[w + 1],
                     max_bucket, chunks[w]);
    });
    std::uint64_t probes = 0;
    for (const ConflictChunk& ch : chunks) {
      report.total_conflicts += ch.total;
      probes += ch.probes;
      for (const ConflictEvent& ev : ch.events) {
        if (report.conflicts.size() < kMaxEvents) {
          report.conflicts.push_back(ev);
        }
      }
    }
    SYSMAP_COUNT("systolic.conflict_probes", probes);
  }

  // -- data-link collisions ---------------------------------------------
  if (plan.h_max > 0) {
    std::vector<CollisionChunk> chunks(nchunks);
    run_workers([&](std::size_t w) {
      if (w >= nchunks) return;
      collision_chunk(plan, bucket_start, order, pe_keys, cuts[w],
                      cuts[w + 1], chunks[w]);
    });
    std::vector<TaggedCollision> all;
    for (CollisionChunk& ch : chunks) {
      report.total_collisions += ch.total;
      for (TaggedCollision& tc : ch.events) all.push_back(std::move(tc));
    }
    std::sort(all.begin(), all.end(),
              [](const TaggedCollision& a, const TaggedCollision& b) {
                return std::tie(a.pos, a.dep, a.hop) <
                       std::tie(b.pos, b.dep, b.hop);
              });
    for (TaggedCollision& tc : all) {
      if (report.collisions.size() < kMaxEvents) {
        report.collisions.push_back(std::move(tc.ev));
      }
    }
  }

  // -- buffer occupancy --------------------------------------------------
  report.buffer_high_water.assign(plan.m, 0);
  if (!plan.buffered.empty()) {
    std::vector<std::vector<BufStart>> dep_streams(plan.m);
    for (std::size_t i : plan.buffered) {
      std::size_t total = 0;
      for (std::size_t w = 0; w < workers; ++w) {
        total += buf_streams[w][i].size();
      }
      dep_streams[i].reserve(total);
      for (std::size_t w = 0; w < workers; ++w) {
        dep_streams[i].insert(dep_streams[i].end(), buf_streams[w][i].begin(),
                              buf_streams[w][i].end());
      }
    }
    buf_streams.clear();
    run_workers([&](std::size_t w) {
      for (std::size_t bi = w; bi < plan.buffered.size(); bi += workers) {
        const std::size_t i = plan.buffered[bi];
        report.buffer_high_water[i] =
            buffer_high_water(plan, i, dep_streams[i]);
      }
    });
  }

  // -- value-level execution --------------------------------------------
  if (semantic) value_pass(plan, *semantic, order, report);

  report.truncated_events =
      report.total_conflicts > report.conflicts.size() ||
      report.total_collisions > report.collisions.size();
  return report;
}

}  // namespace

SimulationReport simulate_engine(const model::UniformDependenceAlgorithm& algo,
                                 const ArrayDesign& design,
                                 const model::SemanticAlgorithm* semantic,
                                 const SimulationOptions& options) {
  SYSMAP_SPAN("systolic.simulate");
  if (std::optional<FlatPlan> plan = FlatPlan::build(algo, design)) {
    SYSMAP_COUNT("systolic.flat_runs", 1);
    return run_flat(*plan, design, semantic, options);
  }
  SYSMAP_COUNT("systolic.seed_fallbacks", 1);
  return simulate_seed_impl(algo, design, semantic);
}

}  // namespace detail
}  // namespace sysmap::systolic
