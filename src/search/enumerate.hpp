// Candidate enumeration core of Procedure 5.1: every integral Pi with
// sum |pi_i| mu_i == f, in deterministic lexicographic order (coordinate 0
// outermost; magnitude 0 first, then +a before -a).
//
// for_each_schedule_at is the plain walk: every candidate of the level, in
// that order.  The std::function overload in procedure51.hpp
// (enumerate_schedules_at) delegates to it, and it is the unpruned
// reference the tests and the benchmark's replay re-walk.
//
// DependenceSweep is the walk Procedure 5.1 runs.  It visits the same
// order but skips every subtree whose leaves all fail Pi D > 0, adding the
// subtree's exact leaf count (LevelCounts) to candidates_tested instead of
// walking it.  No skipped leaf could pass the dependence test, so the
// visited candidates, the first hit and both statistics
// (candidates_tested / candidates_passed_dependence) are those of the
// plain walk followed by respects_dependences.
//
// DependenceLevels is Procedure 5.1's only way into a walk.  Pi D > 0
// depends on (J, D) alone, so every space S of a sweep walks the same
// survivors of a level; the memo lists them once (on the level's second
// request) and replays the list for every later space, reporting the
// counts DependenceSweep would.  Levels it does not list are walked by
// the caller's own DependenceSweep.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "exact/checked.hpp"
#include "linalg/types.hpp"
#include "model/index_set.hpp"
#include "schedule/linear_schedule.hpp"
#include "support/contracts.hpp"

namespace sysmap::search {

namespace detail {

// SYSMAP_RAW_FASTPATH(bounded: a * mu <= remaining and every negated
// magnitude is a nonnegative quotient remaining / mu)
template <typename Visit>
bool enumerate_rec(const model::IndexSet& set, Int remaining, std::size_t i,
                   VecI& pi, Visit& visit) {
  const std::size_t n = set.dimension();
  if (i == n) {
    if (remaining != 0) return true;
    return visit(static_cast<const VecI&>(pi));
  }
  const Int mu = set.mu(i);
  if (mu <= 0) {
    // IndexSet enforces mu_i >= 1, so this is unreachable through the
    // public API; guard the division anyway and pin the weightless
    // coordinate to 0 (any other value would enumerate forever).
    pi[i] = 0;
    return enumerate_rec(set, remaining, i + 1, pi, visit);
  }
  const Int max_abs = remaining / mu;
  if (i + 1 == n) {
    // Last coordinate: the only magnitude landing exactly on f is
    // remaining / mu, and only when the division is exact -- compute it
    // directly instead of scanning every a and skipping the mismatches.
    if (remaining % mu != 0) {
      pi[i] = 0;
      return true;
    }
    if (max_abs == 0) {
      pi[i] = 0;
      if (!enumerate_rec(set, 0, i + 1, pi, visit)) return false;
    } else {
      pi[i] = max_abs;
      if (!enumerate_rec(set, 0, i + 1, pi, visit)) return false;
      pi[i] = -max_abs;
      if (!enumerate_rec(set, 0, i + 1, pi, visit)) return false;
    }
    pi[i] = 0;
    return true;
  }
  // Tail feasibility: the remaining weight must be expressible by later
  // coordinates; with arbitrary magnitudes any nonnegative remainder works
  // as long as some later coordinate exists.
  for (Int a = 0; a <= max_abs; ++a) {
    Int rest = remaining - a * mu;
    if (a == 0) {
      pi[i] = 0;
      if (!enumerate_rec(set, rest, i + 1, pi, visit)) return false;
    } else {
      pi[i] = a;
      if (!enumerate_rec(set, rest, i + 1, pi, visit)) return false;
      pi[i] = -a;
      if (!enumerate_rec(set, rest, i + 1, pi, visit)) return false;
    }
  }
  pi[i] = 0;
  return true;
}

}  // namespace detail

/// Level-occupancy filter for the sweep: every reachable objective
/// f = sum |pi_i| mu_i is a nonnegative integer combination of the mu_i,
/// hence a multiple of g = gcd_i mu_i -- so levels with f % g != 0 are
/// provably empty and the sweep skips them without walking the
/// enumeration tree.  Sparse index sets make most levels empty (a cube
/// with mu = 16 populates only every 16th level) and the fruitless tree
/// walks otherwise rival the live levels' cost.  The filter is necessary
/// but not sufficient in general (a coin-problem DP would be exact); for
/// the cube-shaped and divisor-chain sets of the gallery it is exact, and
/// it costs one gcd per search instead of a table.  Skipping provably
/// empty levels is unobservable in results and statistics.  Returns 1
/// when no filtering is possible.
inline Int objective_level_stride(const model::IndexSet& set) {
  Int g = 0;
  for (std::size_t i = 0; i < set.dimension(); ++i) {
    // mu <= 0 coordinates are pinned to 0 by enumerate_rec: no contribution.
    if (set.mu(i) > 0) g = exact::gcd_i64(g, set.mu(i));
  }
  return g > 0 ? g : 1;
}

/// Statically-dispatched enumeration of the objective level f; `visit`
/// returns false to abort the scan (mirrored in the return value).
template <typename Visit>
bool for_each_schedule_at(const model::IndexSet& set, Int f, Visit&& visit) {
  if (f < 0) return true;
  VecI pi(set.dimension(), 0);
  return detail::enumerate_rec(set, f, 0, pi, visit);
}

/// Levels past this are never tabulated: the tables would grow too large.
/// The sweep then walks every candidate, and the schedule-orbit cache of
/// search::MappingPipeline stands down.
constexpr std::size_t kMaxCountedLevel = std::size_t{1} << 20;

/// Exact candidate counts of the enumeration, per coordinate suffix:
///   N_i(r) = #{(pi_i, ..., pi_{n-1}) : sum_{j >= i} |pi_j| mu_j = r},
/// the coefficients of prod_{j >= i} (1 + x^{mu_j}) / (1 - x^{mu_j}).  Row
/// 0 is the number of candidates for_each_schedule_at visits at level r.
/// The table grows one level at a time, O(n) per level, through
///   N_i(r) = N_{i+1}(r) + N_{i+1}(r - mu_i) + N_i(r - mu_i),
/// and is never filled by enumeration.  Once a count overflows uint64 the
/// table stops growing and every later extend_to() returns false.
class LevelCounts {
 public:
  explicit LevelCounts(const model::IndexSet& set) : n_(set.dimension()) {
    mu_.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      mu_.push_back(static_cast<std::size_t>(set.mu(i)));  // mu_i >= 1
    }
  }

  /// Tabulates every level through f.  False when f is negative or beyond
  /// kMaxCountedLevel, or when a count through f overflowed uint64.
  bool extend_to(Int f) {
    if (f < 0 || static_cast<std::uint64_t>(f) > kMaxCountedLevel) {
      return false;
    }
    const std::size_t last = static_cast<std::size_t>(f);
    if (ok_ && levels_ <= last && cumulative_.capacity() <= last) {
      // One allocation per doubling, not one per level appended.
      const std::size_t cap = std::max(last + 1, 2 * cumulative_.capacity());
      table_.reserve(cap * n_);
      cumulative_.reserve(cap);
    }
    while (ok_ && levels_ <= last) append_level();
    return ok_ || last < levels_;
  }

  /// N_i(r) for i <= n (row n is the empty suffix: 1 at r = 0).  Requires
  /// r tabulated by a successful extend_to().
  std::uint64_t suffix(std::size_t i, std::size_t r) const {
    if (i == n_) return r == 0 ? 1 : 0;
    return table_[r * n_ + i];
  }

  /// Candidates the plain walk visits over levels 1..f (0 for f = 0).
  /// Requires f tabulated by a successful extend_to().
  std::uint64_t through(std::size_t f) const { return cumulative_[f]; }

 private:
  void append_level() {
    const std::size_t r = levels_;
    table_.resize(table_.size() + n_);
    for (std::size_t i = n_; i-- > 0;) {
      std::uint64_t v = suffix(i + 1, r);
      const std::size_t mu = mu_[i];
      if (r >= mu) {
        if (__builtin_add_overflow(v, suffix(i + 1, r - mu), &v) ||
            __builtin_add_overflow(v, suffix(i, r - mu), &v)) {
          ok_ = false;
        }
      }
      table_[r * n_ + i] = v;
    }
    std::uint64_t cum = 0;
    if (r > 0 && __builtin_add_overflow(cumulative_[r - 1], suffix(0, r),
                                        &cum)) {
      ok_ = false;
    }
    cumulative_.push_back(cum);
    if (!ok_) {  // keep only the levels whose counts are exact
      table_.resize(r * n_);
      cumulative_.pop_back();
      return;
    }
    ++levels_;
  }

  std::size_t n_;
  std::vector<std::size_t> mu_;
  std::vector<std::uint64_t> table_;  ///< level-major: table_[r * n + i]
  std::vector<std::uint64_t> cumulative_;
  std::size_t levels_ = 0;
  bool ok_ = true;
};

/// Procedure 5.1's walk of one objective level: visits, in the order of
/// for_each_schedule_at, every Pi with sum |pi_i| mu_i = f and Pi D > 0,
/// and counts every candidate of the level it passes (visited, rejected
/// or skipped) into `tested`.
///
/// A node fixes pi_0..pi_{i-1}, with partial column sums s_c =
/// sum_{j < i} pi_j d_jc, and leaves weight r to the remaining
/// coordinates.  Over the reals, those coordinates add at most
/// r * max_{j >= i} |d_jc| / mu_j to column c (the objective is a weighted
/// l1 ball, so a vertex attains the maximum).  When that cannot lift some
/// s_c above 0, no leaf below passes Pi D > 0: the subtree is skipped and
/// its N_i(r) leaves are counted as tested.
///
/// A level is walked with pruning only when its counts are exact and a
/// bound on every partial sum and pruning product fits int64; otherwise
/// the plain walk and respects_dependences run, overflow exceptions
/// included, exactly as before pruning existed.
class DependenceSweep {
 public:
  DependenceSweep(const model::IndexSet& set, const MatI& dependence)
      : set_(set),
        d_(dependence),
        counts_(set),
        n_(set.dimension()),
        m_(dependence.cols()),
        pi_(n_, 0),
        sums_((n_ + 1) * m_, 0),
        num_((n_ + 1) * m_, 0),
        den_((n_ + 1) * m_, 1) {
    // num/den of row i = the largest |d_jc| / mu_j over j >= i; row n is
    // the empty suffix (0 / 1), which turns the pruning test into the leaf
    // test s_c <= 0.
    try {
      for (std::size_t i = n_; i-- > 0;) {
        for (std::size_t c = 0; c < m_; ++c) {
          const Int p = exact::abs_checked(d_(i, c));
          const Int q = set.mu(i);
          const std::size_t at = i * m_ + c;
          const std::size_t below = at + m_;
          if (exact::mul_checked(p, den_[below]) >
              exact::mul_checked(num_[below], q)) {
            num_[at] = p;
            den_[at] = q;
          } else {
            num_[at] = num_[below];
            den_[at] = den_[below];
          }
        }
      }
    } catch (const exact::OverflowError&) {
      usable_ = false;
    }
  }

  /// Walks level f; returns false when `visit` aborted the walk.
  template <typename Visit>
  bool walk(Int f, std::uint64_t& tested, Visit&& visit) {
    if (!prunable(f)) {
      return for_each_schedule_at(set_, f, [&](const VecI& pi) {
        ++tested;
        return !schedule::respects_dependences(pi, d_) || visit(pi);
      });
    }
    const std::size_t level = static_cast<std::size_t>(f);
    if (hopeless(0, f)) {
      tested += counts_.suffix(0, level);
      return true;
    }
    return descend(0, f, tested, visit);
  }

  /// True when level f may be walked with pruning: its counts are exact
  /// and no partial sum or pruning product at f can overflow int64.  With
  /// |pi_j| <= f / mu_j, every partial sum of column c is bounded by
  /// B_c = sum_j (f / mu_j) |d_jc|, so s_c * den + r * num is bounded by
  /// B_c * max den + f * max num.
  bool prunable(Int f) {
    if (!usable_ || !counts_.extend_to(f)) return false;
    try {
      for (std::size_t c = 0; c < m_; ++c) {
        Int bound = 0;
        Int num_max = 0;
        Int den_max = 1;
        for (std::size_t j = 0; j < n_; ++j) {
          bound = exact::add_checked(
              bound, exact::mul_checked(f / set_.mu(j),
                                        exact::abs_checked(d_(j, c))));
          num_max = std::max(num_max, num_[j * m_ + c]);
          den_max = std::max(den_max, den_[j * m_ + c]);
        }
        (void)exact::add_checked(exact::mul_checked(bound, den_max),
                                 exact::mul_checked(f, num_max));
      }
    } catch (const exact::OverflowError&) {
      return false;
    }
    return true;
  }

 private:
  /// Some column stays <= 0 at every leaf below the node (i, r) whose
  /// partial sums are row i of sums_.
  // SYSMAP_RAW_FASTPATH(bounded: prunable(f) bounds every partial sum and
  // pruning product at this level inside int64)
  bool hopeless(std::size_t i, Int r) const {
    const std::size_t row = i * m_;
    for (std::size_t c = 0; c < m_; ++c) {
      if (sums_[row + c] * den_[row + c] + r * num_[row + c] <= 0) {
        return true;
      }
    }
    return false;
  }

  /// Sets pi_i = v and row i + 1 of sums_ to row i plus v * d_i.
  // SYSMAP_RAW_FASTPATH(bounded: prunable(f) bounds |v * d_ic| and every
  // partial sum at this level inside int64)
  void fix(std::size_t i, Int v) {
    pi_[i] = v;
    const std::size_t row = i * m_;
    for (std::size_t c = 0; c < m_; ++c) {
      sums_[row + m_ + c] = sums_[row + c] + v * d_(i, c);
    }
  }

  // SYSMAP_RAW_FASTPATH(bounded: a * mu <= r and every negated magnitude
  // is a nonnegative quotient r / mu)
  template <typename Visit>
  bool descend(std::size_t i, Int r, std::uint64_t& tested, Visit& visit) {
    const Int mu = set_.mu(i);
    if (i + 1 == n_) {
      // Last coordinate: only |pi_i| = r / mu lands on the level.
      if (r % mu != 0) return true;
      const Int a = r / mu;
      for (int sign = 0; sign < (a == 0 ? 1 : 2); ++sign) {
        fix(i, sign == 0 ? a : -a);
        ++tested;
        // Row n is the empty suffix: hopeless(n, 0) is exactly Pi D <= 0
        // in some column, i.e. respects_dependences failing.
        if (!hopeless(n_, 0) && !visit(static_cast<const VecI&>(pi_))) {
          return false;
        }
      }
      return true;
    }
    const Int max_abs = r / mu;
    for (Int a = 0; a <= max_abs; ++a) {
      const Int rest = r - a * mu;
      for (int sign = 0; sign < (a == 0 ? 1 : 2); ++sign) {
        fix(i, sign == 0 ? a : -a);
        if (hopeless(i + 1, rest)) {
          tested += counts_.suffix(i + 1, static_cast<std::size_t>(rest));
          continue;
        }
        if (!descend(i + 1, rest, tested, visit)) return false;
      }
    }
    return true;
  }

  const model::IndexSet& set_;
  const MatI& d_;
  LevelCounts counts_;
  std::size_t n_;
  std::size_t m_;
  bool usable_ = true;  ///< false when a ratio overflows int64
  VecI pi_;
  std::vector<Int> sums_;  ///< row i: column sums of pi_0..pi_{i-1}
  std::vector<Int> num_;   ///< row i: largest |d_jc| / mu_j over j >= i
  std::vector<Int> den_;
};

/// Procedure 5.1's levels, shared by every space S of one algorithm (J, D).
///
/// For a listed level the memo holds the Pi D > 0 survivors in walk order,
/// the number of level candidates tested when the walk reached each
/// survivor (the survivor included), and the level size.  walk() replays
/// such a level: visit(pi) for each survivor in order, then tested grows
/// by the survivor's offset when visit aborts and by the level size when
/// it never does -- exactly what DependenceSweep::walk reports, so the
/// winner, candidates_tested and candidates_passed_dependence do not
/// change.
///
/// A level is listed on its second request, and only when it is prunable
/// and lies within 1..max_level, max_level <= kMaxCountedLevel; the list is
/// built by walking the whole level once.  Every other request walks the level
/// inline, exactly as DependenceSweep does (overflow exceptions included).
/// So a single-space query, which requests each level once, never walks a
/// level past its first hit.  Lists past kMaxWords in total are not kept.
///
/// Inline walks and list builds run on the caller's own DependenceSweep
/// (`own`, built on first use), never on shared scratch.  A listed level
/// is immutable once published and the request marks are atomic, so one
/// memo may serve every worker of a sweep; counts() is tabulated once,
/// under std::call_once, and never changes after.
class DependenceLevels {
 public:
  /// Budget for all listed levels, in words: n + 1 per survivor plus one
  /// per level.  2^20 words (8 MB) is about 70 times the largest memo of
  /// the benchmark's joint workload (15,318 words).
  static constexpr std::size_t kMaxWords = std::size_t{1} << 20;

  /// A memo for (set, dependence) that lists levels up to max_level and
  /// counts() through it; max_level = 0 lists nothing (the private memo
  /// of a lone procedure_5_1 call).
  DependenceLevels(const model::IndexSet& set, const MatI& dependence,
                   Int max_level = 0)
      : set_(set),
        d_(dependence),
        max_level_(max_level),
        stride_(objective_level_stride(set)),
        counts_(set) {
    if (max_level > 0 &&
        static_cast<std::uint64_t>(max_level) <= kMaxCountedLevel) {
      slots_ = std::vector<std::atomic<const Level*>>(
          static_cast<std::size_t>(max_level / stride_) + 1);
    }
  }

  ~DependenceLevels() {
    for (std::atomic<const Level*>& slot : slots_) {
      const Level* level = slot.load();
      if (level != &seen_ && level != &unlisted_) delete level;
    }
  }

  DependenceLevels(const DependenceLevels&) = delete;
  DependenceLevels& operator=(const DependenceLevels&) = delete;

  /// True when built for this (J, D); compared in place.
  bool describes(const model::IndexSet& set, const MatI& dependence) const {
    return set == set_ && dependence == d_;
  }

  Int max_level() const { return max_level_; }

  /// Candidate counts exact through max_level, or nullptr when they
  /// overflow uint64 or max_level exceeds kMaxCountedLevel.  Tabulated on
  /// the first call, so a memo whose counts nobody reads (the ILP route's
  /// certification sweeps) never pays for them.
  const LevelCounts* counts() const {
    std::call_once(counts_once_,
                   [this] { counted_ = counts_.extend_to(max_level_); });
    return counted_ ? &counts_ : nullptr;
  }

  /// True when walk() replays level f from its list.
  bool listed(Int f) const {
    const std::size_t at = slot_index(f);
    if (at == slots_.size()) return false;
    const Level* level = slots_[at].load();
    return level != nullptr && level != &seen_ && level != &unlisted_;
  }

  /// Walks level f like DependenceSweep::walk; false when `visit` aborted.
  /// `own` is the caller's sweep for the levels walked inline, built on
  /// first use; keep it across the levels of one search.
  template <typename Visit>
  bool walk(Int f, std::uint64_t& tested, std::optional<DependenceSweep>& own,
            Visit&& visit) {
    if (const Level* level = request(f, own)) {
      if (!level->offsets.empty()) {
        const std::size_t n = set_.dimension();
        VecI pi(n);
        for (std::size_t s = 0; s < level->offsets.size(); ++s) {
          std::copy_n(level->survivors.begin() +
                          static_cast<std::ptrdiff_t>(s * n),
                      n, pi.begin());
          if (!visit(static_cast<const VecI&>(pi))) {
            tested += level->offsets[s];
            return false;
          }
        }
      }
      tested += level->size;
      return true;
    }
    return sweep(own).walk(f, tested, visit);
  }

 private:
  struct Level {
    std::vector<Int> survivors;  ///< n entries per survivor, in walk order
    std::vector<std::uint64_t> offsets;
    std::uint64_t size = 0;
  };

  DependenceSweep& sweep(std::optional<DependenceSweep>& own) const {
    if (!own) own.emplace(set_, d_);
    return *own;
  }

  /// Index of level f's slot, or slots_.size() when the memo never
  /// lists f.
  std::size_t slot_index(Int f) const {
    if (f < 1 || f > max_level_ || slots_.empty() || f % stride_ != 0) {
      return slots_.size();
    }
    return static_cast<std::size_t>(f / stride_);
  }

  /// The list of level f, or nullptr when f is walked inline.  Marks a
  /// first request, builds and publishes the list on the second.
  const Level* request(Int f, std::optional<DependenceSweep>& own) {
    const std::size_t at = slot_index(f);
    if (at == slots_.size()) return nullptr;
    std::atomic<const Level*>& slot = slots_[at];
    const Level* level = slot.load();
    if (level == nullptr) {
      slot.compare_exchange_strong(level, &seen_);
      return nullptr;
    }
    if (level == &unlisted_) return nullptr;
    if (level != &seen_) return level;

    DependenceSweep& walker = sweep(own);
    std::unique_ptr<Level> built;
    std::size_t words = 0;
    if (walker.prunable(f)) {
      built = std::make_unique<Level>();
      walker.walk(f, built->size, [&](const VecI& pi) {
        built->survivors.insert(built->survivors.end(), pi.begin(),
                                pi.end());
        built->offsets.push_back(built->size);
        return true;
      });
      words = built->survivors.size() + built->offsets.size() + 1;
      check_level(f, *built);
    }
    if (!built || words_.fetch_add(words) + words > kMaxWords) {
      if (built) words_.fetch_sub(words);
      slot.compare_exchange_strong(level, &unlisted_);
      return nullptr;
    }
    if (slot.compare_exchange_strong(level, built.get())) {
      return built.release();
    }
    // Another worker settled the level first; our list is freed.
    words_.fetch_sub(words);
    return level == &unlisted_ ? nullptr : level;
  }

  /// Under SYSMAP_CONTRACTS: a new list equals the plain walk followed by
  /// respects_dependences, survivor for survivor and offset for offset.
  void check_level(Int f, const Level& level) const {
#if SYSMAP_CONTRACTS_ACTIVE
    std::vector<Int> survivors;
    std::vector<std::uint64_t> offsets;
    std::uint64_t size = 0;
    for_each_schedule_at(set_, f, [&](const VecI& pi) {
      ++size;
      if (schedule::respects_dependences(pi, d_)) {
        survivors.insert(survivors.end(), pi.begin(), pi.end());
        offsets.push_back(size);
      }
      return true;
    });
    SYSMAP_CONTRACT(survivors == level.survivors && offsets == level.offsets &&
                        size == level.size,
                    "listed level " << f << " differs from the plain walk");
#else
    (void)f;
    (void)level;
#endif
  }

  const model::IndexSet set_;
  const MatI d_;
  const Int max_level_;
  const Int stride_;
  mutable std::once_flag counts_once_;
  mutable LevelCounts counts_;
  mutable bool counted_ = false;
  /// Slot f / stride: nullptr (never requested), &seen_ (requested once),
  /// &unlisted_ (walked inline for good) or the published list.
  std::vector<std::atomic<const Level*>> slots_;
  std::atomic<std::size_t> words_{0};
  Level seen_;
  Level unlisted_;
};

}  // namespace sysmap::search
