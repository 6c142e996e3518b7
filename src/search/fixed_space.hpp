// Fixed-S incremental search engine (the Pi-sweep amortizer).
//
// Procedure 5.1 tests thousands of candidate schedules Pi against ONE fixed
// space part S.  Everything about S is loop-invariant, and the paper hands
// us the amortizations:
//   - rank test: rank([S; pi]) = k  iff  rank(S) = k-1 and pi is
//     independent of S's row space, so one fraction-free echelon of S
//     (computed once) turns the per-candidate Bareiss pass into a single
//     row replay (linalg::bareiss_echelon / bareiss_row_independent);
//   - k = n-1: Proposition 3.2 makes the unique conflict vector of
//     Theorem 3.1 a LINEAR function of pi -- one precomputed cofactor
//     matrix C with cross([S; pi]) = C pi (mapping::conflict_cofactor_matrix);
//   - k <= n-2: the column-HNF of [S; pi] shares all of S's reduction work
//     across candidates; the per-row operations depend only on the row
//     being eliminated, so an S-prefix warm start replays bit-identically
//     (lattice::detail::hermite_prefix_t / hermite_extend_row_t).  The
//     screen needs even less: with w = pi U_S[:, k-1:], rank([S; pi]) = k
//     exactly when w != 0, and the kernel block that keys the verdict
//     cache is U_S[:, k-1:] E(w)[:, 1:], where E(w) is the xgcd chain the
//     last HNF step runs on w.  For k = n-2 a cache miss is first handed
//     to a 2-D lattice reduction in the box norm (lattice/gauss.hpp),
//     which rejects the candidate when it finds a conflict vector.
// All per-candidate arithmetic runs on the CheckedInt machine-word fast
// path with the usual exact::with_fallback BigInt restart, so verdicts
// (status, rule string AND witness) are bit-identical to the from-scratch
// seed path -- asserted by tests/fixed_space_test.cpp across the gallery
// and all oracles.
//
// The context is immutable after construction; all query methods are const
// and safe to call from several threads at once.
#pragma once

#include <memory>
#include <optional>

#include "linalg/types.hpp"
#include "mapping/conflict.hpp"
#include "model/index_set.hpp"
#include "search/procedure51.hpp"

namespace sysmap::search {

class VerdictCache;

class FixedSpaceContext {
 public:
  /// Precomputes the per-S invariants.  Throws std::invalid_argument when
  /// S's width differs from the index-set dimension or k = rows(S)+1 > n.
  FixedSpaceContext(const model::IndexSet& set, const MatI& space);
  ~FixedSpaceContext();

  FixedSpaceContext(FixedSpaceContext&&) noexcept;
  FixedSpaceContext& operator=(FixedSpaceContext&&) noexcept;
  FixedSpaceContext(const FixedSpaceContext&) = delete;
  FixedSpaceContext& operator=(const FixedSpaceContext&) = delete;

  std::size_t k() const;  ///< rows(S) + 1
  std::size_t n() const;

  /// rank([S; pi]) == k -- same boolean as
  /// MappingMatrix(space, pi).has_full_rank(), via the single-row replay.
  bool has_full_rank(const VecI& pi) const;

  /// Fused Step 5(2)+(3): nullopt when pi fails the rank screen OR is not
  /// conflict-free; the accepting verdict otherwise.  Equivalent to
  /// `has_full_rank(pi) ? accept(oracle, pi) : nullopt`, but for k = n-1
  /// one cofactor product C pi decides both screens (the cross product of
  /// an (n-1) x n matrix is nonzero exactly when it has full rank), so the
  /// echelon replay is skipped on the sweep's hottest path.  With a
  /// non-null `cache`, outcomes are memoized by canonical conflict form
  /// under the admission policy of verdict_cache.hpp -- results stay
  /// bit-identical; only the hit/miss counters observe the cache.
  std::optional<mapping::ConflictVerdict> screen(
      ConflictOracle oracle, const VecI& pi,
      VerdictCache* cache = nullptr) const;

  /// The per-candidate accept screen: nullopt when the candidate is NOT
  /// conflict-free under `oracle` (no rule string or witness is
  /// materialized -- rejected candidates dominate the sweep), otherwise
  /// the full accepting verdict, bit-identical to the seed path's.
  /// Precondition as in Procedure 5.1: has_full_rank(pi) already passed.
  std::optional<mapping::ConflictVerdict> accept(
      ConflictOracle oracle, const VecI& pi,
      VerdictCache* cache = nullptr) const;

  /// The full verdict for pi under `oracle`, bit-identical (status, rule,
  /// witness) to what the seed search computes for T = [S; pi].  Throws
  /// exactly where the seed throws (e.g. rank(T) < n-1 under Theorem 3.1).
  mapping::ConflictVerdict verdict(ConflictOracle oracle,
                                   const VecI& pi) const;

  /// What the k <= n-2 screen computes for pi on machine words.
  struct KernelImage {
    bool full_rank = false;  ///< w = pi U_S[:, k-1:] != 0
    /// n x (n-k), when full_rank: columns k.. of the multiplier of the
    /// column-HNF of [S; pi], a basis of its integer kernel.
    MatI kernel;
    /// k = n-2 only: the conflict vector the box-norm reduction finds,
    /// which makes the screen reject pi without the verdict ladder.
    std::optional<VecI> box_witness;
  };

  /// The screen's view of pi, exposed so tests can check it against the
  /// HNF.  nullopt where the screen takes the HNF path instead: k > n-2,
  /// S without full row rank, or an int64 overflow.
  std::optional<KernelImage> kernel_image(const VecI& pi) const;

 private:
  struct Impl;

  /// The k <= n-2 screen on machine words: the rank test and cache key
  /// from the kernel block, then the box-norm reject, then the verdict
  /// ladder on a miss.  The outer nullopt means the path does not apply
  /// (see kernel_image); the caller then takes accept_hnf.
  std::optional<std::optional<mapping::ConflictVerdict>> kernel_screen(
      ConflictOracle oracle, const VecI& pi, VerdictCache* cache) const;

  /// accept() through verdict(), uncached: the path of candidates the
  /// machine-word screens cannot take (their overflow restarts included).
  std::optional<mapping::ConflictVerdict> accept_hnf(ConflictOracle oracle,
                                                     const VecI& pi) const;

  std::unique_ptr<const Impl> impl_;
};

}  // namespace sysmap::search
