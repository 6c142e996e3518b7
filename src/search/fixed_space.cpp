#include "search/fixed_space.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "mapping/enum_oracle.hpp"
#include "exact/bigint.hpp"
#include "exact/checked_int.hpp"
#include "exact/fastpath.hpp"
#include "lattice/gauss.hpp"
#include "lattice/hnf_impl.hpp"
#include "lattice/kernel.hpp"
#include "linalg/ops.hpp"
#include "mapping/canonical_key.hpp"
#include "mapping/mapping_matrix.hpp"
#include "mapping/verdicts_impl.hpp"
#include "search/verdict_cache.hpp"
#include "support/contracts.hpp"

namespace sysmap::search {

using exact::BigInt;
using exact::CheckedInt;
using mapping::ConflictVerdict;

namespace {

template <typename T>
linalg::Vector<T> lift_vec(const VecI& v) {
  linalg::Vector<T> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = T(v[i]);
  return out;
}

/// The raw Theorem 3.1 cross product via the Proposition 3.2 closed form:
/// cross([S; pi]) = C pi, entry-identical to the seed's minor expansion by
/// multilinearity of the determinant in the schedule row.
template <typename T>
linalg::Vector<T> cross_from_cofactor(const linalg::Matrix<T>& cof,
                                      const VecI& pi) {
  const std::size_t n = cof.rows();
  linalg::Vector<T> gamma(n, T(0));
  for (std::size_t r = 0; r < n; ++r) {
    T acc(0);
    for (std::size_t c = 0; c < n; ++c) {
      if (pi[c] == 0) continue;
      acc += cof(r, c) * T(pi[c]);
    }
    gamma[r] = std::move(acc);
  }
  bool all_zero = true;
  for (const T& g : gamma) {
    if (!g.is_zero()) {
      all_zero = false;
      break;
    }
  }
  if (all_zero) {
    // Same throw as the seed's unique_conflict_vector_t on rank(T) < n-1.
    throw std::domain_error("unique_conflict_vector: rank(T) < n-1");
  }
  return lattice::make_primitive_t(std::move(gamma));
}

enum class Thm31Screen {
  kRankDeficient,  ///< gamma = C pi = 0, i.e. rank([S; pi]) < n-1
  kConflict,       ///< unique conflict vector is feasible-free... rejected
  kFeasible,       ///< conflict vector escapes the index-set box: accept
};

/// Allocation-frugal Theorem 3.1 screen on the RAW cross product
/// gamma = C pi: with g = gcd_i |gamma_i| > 0 the seed's primitive-vector
/// test  (exists i: |gamma_i / g| > mu_i)  is equivalent to
/// (exists i: |gamma_i| > mu_i * g), so the division, sign
/// canonicalization and vector copy of make_primitive are skipped.
/// `gamma` is caller-provided scratch (thread_local on the CheckedInt
/// path); entries are fully overwritten.
template <typename T>
Thm31Screen theorem_3_1_screen(const linalg::Matrix<T>& cof, const VecI& pi,
                               const model::IndexSet& set,
                               linalg::Vector<T>& gamma) {
  const std::size_t n = cof.rows();
  gamma.resize(n);
  bool all_zero = true;
  for (std::size_t r = 0; r < n; ++r) {
    T acc(0);
    for (std::size_t c = 0; c < n; ++c) {
      if (pi[c] == 0) continue;
      acc += cof(r, c) * T(pi[c]);
    }
    if (!acc.is_zero()) all_zero = false;
    gamma[r] = std::move(acc);
  }
  if (all_zero) return Thm31Screen::kRankDeficient;
  T g{};
  for (const T& x : gamma) g = T::gcd(g, x);
  for (std::size_t i = 0; i < n; ++i) {
    if (gamma[i].abs() > T(set.mu(i)) * g) return Thm31Screen::kFeasible;
  }
  return Thm31Screen::kConflict;
}

/// Width bound for the stack-buffer raw screen; gallery dimensions are
/// n <= 5, anything wider takes the CheckedInt/BigInt template path.
constexpr std::size_t kRawScreenMaxN = 16;

/// theorem_3_1_screen on raw machine words: no scalar-wrapper call
/// overhead, stack buffers instead of thread_local vectors, and the gcd
/// chain is skipped whenever the trivial bounds 1 <= g <= min_i |gamma_i|
/// already decide the Theorem 2.2 test.  Returns nullopt when int64
/// overflows anywhere the CheckedInt path would trap, so the caller
/// restarts in BigInt exactly as `exact::with_fallback` would.  Overflow
/// of a COMPARISON product mu_i * g is the one place the two paths
/// diverge in mechanism but not in answer: the product exceeding int64
/// means the right-hand side exceeds |gamma_i|, so the strict test is
/// false -- the exact BigInt evaluation would say the same.
///
/// The kernel splits into the cofactor product (shared with the cached
/// screen, which needs the raw gamma for its canonical key) and the
/// Theorem 2.2 tail over the resulting gamma.
///
/// SYSMAP_RAW_FASTPATH(fallback: theorem_3_1_screen)
bool cross_product_raw(const MatI& cof, const VecI& pi, Int* gamma) {
  const std::size_t n = cof.rows();
  for (std::size_t r = 0; r < n; ++r) {
    Int acc = 0;
    for (std::size_t c = 0; c < n; ++c) {
      Int p = 0;
      if (__builtin_mul_overflow(cof(r, c), pi[c], &p) ||
          __builtin_add_overflow(acc, p, &acc)) {
        return false;
      }
    }
    gamma[r] = acc;
  }
  return true;
}

/// SYSMAP_RAW_FASTPATH(fallback: theorem_3_1_screen)
std::optional<Thm31Screen> theorem_3_1_screen_raw(const MatI& cof,
                                                  const VecI& pi,
                                                  const model::IndexSet& set) {
  const std::size_t n = cof.rows();
  Int gamma[kRawScreenMaxN];
  if (!cross_product_raw(cof, pi, gamma)) return std::nullopt;
  bool all_zero = true;
  Int mag[kRawScreenMaxN];
  Int min_nz = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (gamma[i] == INT64_MIN) return std::nullopt;  // |.| would trap
    mag[i] = gamma[i] < 0 ? -gamma[i] : gamma[i];
    if (mag[i] != 0) {
      all_zero = false;
      if (min_nz == 0 || mag[i] < min_nz) min_nz = mag[i];
    }
  }
  if (all_zero) return Thm31Screen::kRankDeficient;
  // g = gcd_i |gamma_i| satisfies 1 <= g <= min_nz; the exact test is
  // exists i: |gamma_i| > mu_i * g.
  bool beyond_mu = false;  // necessary: exists |gamma_i| > mu_i * 1
  for (std::size_t i = 0; i < n; ++i) {
    if (mag[i] <= set.mu(i)) continue;
    beyond_mu = true;
    Int rhs = 0;
    if (!__builtin_mul_overflow(set.mu(i), min_nz, &rhs) && mag[i] > rhs) {
      return Thm31Screen::kFeasible;  // sufficient: beats mu_i * min_nz
    }
  }
  if (!beyond_mu) return Thm31Screen::kConflict;
  Int g = 0;
  for (std::size_t i = 0; i < n; ++i) g = exact::gcd_i64(g, mag[i]);
  for (std::size_t i = 0; i < n; ++i) {
    Int rhs = 0;
    if (__builtin_mul_overflow(set.mu(i), g, &rhs)) continue;  // rhs > mag[i]
    if (mag[i] > rhs) return Thm31Screen::kFeasible;
  }
  return Thm31Screen::kConflict;
}

constexpr std::string_view kThm31AcceptRule =
    "Theorem 3.1: unique conflict vector feasible";

/// gamma = C pi without the decision tail (the cached paths need the raw
/// gamma to build the canonical key first).  Returns false when gamma is
/// identically zero, i.e. rank([S; pi]) < n-1.
template <typename T>
bool cross_product_into(const linalg::Matrix<T>& cof, const VecI& pi,
                        linalg::Vector<T>& gamma) {
  const std::size_t n = cof.rows();
  gamma.resize(n);
  bool all_zero = true;
  for (std::size_t r = 0; r < n; ++r) {
    T acc(0);
    for (std::size_t c = 0; c < n; ++c) {
      if (pi[c] == 0) continue;
      acc += cof(r, c) * T(pi[c]);
    }
    if (!acc.is_zero()) all_zero = false;
    gamma[r] = std::move(acc);
  }
  return !all_zero;
}

/// First n entries of a raw gamma buffer as a VecI (std::copy_n instead
/// of pointer arithmetic keeps the lint's raw-arith scan vacuous here).
inline VecI vec_from_raw(const Int* gamma, std::size_t n) {
  VecI out(n);
  std::copy_n(gamma, n, out.begin());
  return out;
}

/// Cached Theorem 3.1 decision over a NONZERO raw gamma (any nonzero
/// multiple of the conflict ray; entries must not be INT64_MIN so the
/// canonicalization cannot trap).  Bit-identical to the uncached screens:
/// feasibility of the primitive gamma is the same boolean as their
/// gcd-scaled Theorem 2.2 test, and the accept rule is the constant
/// kThm31AcceptRule, so the cached outcome reproduces the verdict exactly.
std::optional<ConflictVerdict> thm31_cached(const VecI& gamma_raw,
                                            const model::IndexSet& set,
                                            ConflictOracle oracle,
                                            VerdictCache& cache) {
  const mapping::ConflictKey key = mapping::canonical_gamma_key(
      gamma_raw, set,
      static_cast<std::int32_t>(oracle));  // SYSMAP_NARROWING_OK: tag 0..2.
  if (std::optional<VerdictCache::Outcome> hit = cache.lookup(key)) {
    if (!hit->conflict_free) return std::nullopt;
    return mapping::detail::verdict(ConflictVerdict::Status::kConflictFree,
                                    hit->rule);
  }
  // key.payload holds the extents, then the primitive sign-normalized
  // gamma.  |g| > mu is tested negation-free (mu >= 1, so -mu never
  // overflows and g itself is never negated -- INT64_MIN-safe).
  const std::size_t n = set.dimension();
  bool ray_feasible = false;
  for (std::size_t i = 0; i < n; ++i) {
    const Int g = key.payload[n + i];
    if (g > set.mu(i) || g < exact::neg_checked(set.mu(i))) {
      ray_feasible = true;
      break;
    }
  }
  cache.insert(key, ray_feasible,
               ray_feasible ? kThm31AcceptRule : std::string_view{});
  if (!ray_feasible) return std::nullopt;
  return mapping::detail::verdict(ConflictVerdict::Status::kConflictFree,
                                  std::string(kThm31AcceptRule));
}

/// BigInt restart of thm31_cached; rays too wide for the int64 key are
/// decided directly and simply skipped by the cache.
std::optional<ConflictVerdict> thm31_cached(const VecZ& gamma_raw,
                                            const model::IndexSet& set,
                                            ConflictOracle oracle,
                                            VerdictCache& cache) {
  std::optional<mapping::ConflictKey> key = mapping::canonical_gamma_key(
      gamma_raw, set,
      static_cast<std::int32_t>(oracle));  // SYSMAP_NARROWING_OK: tag 0..2.
  if (!key) {
    const VecZ canon = lattice::make_primitive(gamma_raw);
    if (!mapping::is_feasible_conflict_vector(canon, set)) return std::nullopt;
    return mapping::detail::verdict(ConflictVerdict::Status::kConflictFree,
                                    std::string(kThm31AcceptRule));
  }
  if (std::optional<VerdictCache::Outcome> hit = cache.lookup(*key)) {
    if (!hit->conflict_free) return std::nullopt;
    return mapping::detail::verdict(ConflictVerdict::Status::kConflictFree,
                                    hit->rule);
  }
  // Negation-free |g| > mu: the narrowed payload CAN hold INT64_MIN here
  // (it fits int64), so -g would be UB; -mu never overflows (mu >= 1).
  const std::size_t n = set.dimension();
  bool ray_feasible = false;
  for (std::size_t i = 0; i < n; ++i) {
    const Int g = key->payload[n + i];
    if (g > set.mu(i) || g < exact::neg_checked(set.mu(i))) {
      ray_feasible = true;
      break;
    }
  }
  cache.insert(*key, ray_feasible,
               ray_feasible ? kThm31AcceptRule : std::string_view{});
  if (!ray_feasible) return std::nullopt;
  return mapping::detail::verdict(ConflictVerdict::Status::kConflictFree,
                                  std::string(kThm31AcceptRule));
}

/// Theorems 4.7/4.8/4.5 (kPaperTheorems) or the full exact ladder
/// (kExact) over a warm-started HNF of T = [S; pi]; identical to the
/// dispatch the seed performs after its from-scratch decomposition.
template <typename T>
ConflictVerdict hnf_tail_verdict(ConflictOracle oracle,
                                 const lattice::BasicHnfResult<T>& hnf,
                                 std::size_t k, std::size_t n,
                                 const model::IndexSet& set) {
  if (oracle == ConflictOracle::kPaperTheorems) {
    if (k + 2 == n) return mapping::detail::theorem_4_7_t(hnf, k, set);
    if (k + 3 == n) return mapping::detail::theorem_4_8_t(hnf, k, set);
    return mapping::detail::theorem_4_5_t(hnf, k, set);
  }
  return mapping::detail::decide_conflict_free_hnf_ladder_t(hnf, k, set);
}

/// Per-thread buffers of the k <= n-2 screen, reused across candidates.
struct KernelScratch {
  std::vector<Int> work;  ///< (n + 1) x m row-major: [w; U_S[:, k-1:]]
  std::vector<Int> cols;         ///< kernel columns, one after another
  mapping::ConflictKey key;
  VecI witness;
};

}  // namespace

struct FixedSpaceContext::Impl {
  model::IndexSet set;
  MatI space;
  std::size_t k = 0;  // rows(space) + 1
  std::size_t n = 0;

  template <typename T>
  struct Data {
    linalg::BareissEchelon<T> echelon;  // of S, for the rank replay
    // Proposition 3.2 cofactor matrix, present when k = n-1.
    std::optional<linalg::Matrix<T>> cofactor;
    // HNF-of-S warm start, present when k <= n-2 and S has full row rank.
    std::optional<lattice::detail::HnfPrefix<T>> prefix;
  };

  // nullopt when the precompute itself overflowed int64; per-candidate
  // dispatch then goes straight to the BigInt data.
  std::optional<Data<CheckedInt>> checked;
  // Unwrapped copy of checked->cofactor for the stack-buffer raw screen
  // (k = n-1, n <= kRawScreenMaxN only).
  std::optional<MatI> cofactor_raw;
  // Unwrapped columns k-1.. of checked->prefix->u, the block the k <= n-2
  // screen maps each candidate through (see kernel_block).
  std::optional<MatI> kernel_u;
  // BigInt mirror, built on first demand (overflow fallback or a failed
  // checked precompute); call_once keeps the lazy init safe when several
  // threads query one context.
  mutable std::once_flag big_once;
  mutable std::optional<Data<BigInt>> big_data;

  const Data<BigInt>& big() const {
    std::call_once(big_once,
                   [this] { big_data = build<BigInt>(space, n); });
    return *big_data;
  }

  template <typename T>
  static Data<T> build(const MatI& space, std::size_t n) {
    Data<T> d;
    d.echelon = linalg::bareiss_echelon(mapping::detail::lift<T>(space));
    if (space.rows() + 2 == n) {
      d.cofactor = mapping::detail::conflict_cofactor_matrix_t(
          mapping::detail::lift<T>(space));
    }
    if (space.rows() + 2 < n && d.echelon.rank() == space.rows()) {
      // Rank-deficient S never reaches an oracle (the rank screen rejects
      // every candidate first), so skipping the prefix there is safe; the
      // catch guards the same impossibility inside hnf_process_row.
      try {
        d.prefix = lattice::detail::hermite_prefix_t(
            mapping::detail::lift<T>(space));
      } catch (const std::domain_error&) {
      }
    }
    return d;
  }

  /// The kernel block of [S; pi] from the image of the new row, without
  /// the HNF state: H_S = S U_S is zero in columns k-1.., so the new row's
  /// entries there are w = pi U_S[:, k-1:], and the last HNF step
  /// (lattice::detail::hnf_process_row) eliminates w with column
  /// operations on those columns alone.  The same xgcd chain E(w) run on
  /// [w; U_S[:, k-1:]] leaves columns k.. of the extended multiplier,
  /// U_S[:, k-1:] E(w)[:, 1:], entry for entry.  Returns false when w = 0,
  /// i.e. rank([S; pi]) < k; otherwise fills s.cols.  Throws
  /// exact::OverflowError when a word overflows.  Requires kernel_u.
  bool kernel_block(const VecI& pi, KernelScratch& s) const {
    const MatI& u = *kernel_u;
    const std::size_t m = u.cols();
    s.work.resize((n + 1) * m);
    bool zero = true;
    for (std::size_t j = 0; j < m; ++j) {
      Int acc = 0;
      for (std::size_t r = 0; r < n; ++r) {
        acc = exact::add_checked(acc, exact::mul_checked(pi[r], u(r, j)));
        s.work[(r + 1) * m + j] = u(r, j);
      }
      if (acc != 0) zero = false;
      s.work[j] = acc;
    }
    if (zero) return false;
    // lattice::detail::eliminate_row_xgcd with pivot column 0 of the block.
    for (std::size_t j = 1; j < m; ++j) {
      const Int a = s.work[0];
      const Int b = s.work[j];
      if (b == 0) continue;
      if (a == 0) {
        for (std::size_t r = 0; r <= n; ++r) {
          std::swap(s.work[r * m], s.work[r * m + j]);
        }
        continue;
      }
      const lattice::detail::XGcdT<CheckedInt> e =
          lattice::detail::xgcd(CheckedInt(a), CheckedInt(b));
      const Int p = exact::neg_checked(exact::div_checked(b, e.g.value()));
      const Int q = exact::div_checked(a, e.g.value());
      for (std::size_t r = 0; r <= n; ++r) {
        const Int c0 = s.work[r * m];
        const Int cj = s.work[r * m + j];
        s.work[r * m] = exact::add_checked(exact::mul_checked(c0, e.x.value()),
                                           exact::mul_checked(cj, e.y.value()));
        s.work[r * m + j] = exact::add_checked(exact::mul_checked(c0, p),
                                               exact::mul_checked(cj, q));
      }
    }
    s.cols.resize(n * (m - 1));
    for (std::size_t c = 1; c < m; ++c) {
      for (std::size_t r = 0; r < n; ++r) {
        s.cols[(c - 1) * n + r] = s.work[(r + 1) * m + c];
      }
    }
    return true;
  }

  Impl(const model::IndexSet& set_in, const MatI& space_in)
      : set(set_in),
        space(space_in),
        k(space_in.rows() + 1),
        n(set_in.dimension()) {
    if (space.cols() != n) {
      throw std::invalid_argument("FixedSpaceContext: S width must equal n");
    }
    if (k > n) {
      throw std::invalid_argument("FixedSpaceContext: k must not exceed n");
    }
    try {
      checked = build<CheckedInt>(space, n);
    } catch (const exact::OverflowError&) {
      checked = std::nullopt;
    }
    if (checked && checked->cofactor && n <= kRawScreenMaxN) {
      MatI raw(n, n);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          raw(r, c) = (*checked->cofactor)(r, c).value();
        }
      }
      cofactor_raw = std::move(raw);
    }
    if (checked && checked->prefix) {
      const linalg::Matrix<CheckedInt>& u = checked->prefix->u;
      MatI block(n, n + 1 - k);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < block.cols(); ++c) {
          block(r, c) = u(r, k - 1 + c).value();
        }
      }
      kernel_u = std::move(block);
    }
  }
};

FixedSpaceContext::FixedSpaceContext(const model::IndexSet& set,
                                     const MatI& space) {
  if (space.cols() != set.dimension()) {
    throw std::invalid_argument("FixedSpaceContext: S width must equal n");
  }
  if (space.rows() + 1 > set.dimension()) {
    throw std::invalid_argument("FixedSpaceContext: k must not exceed n");
  }
  impl_ = std::make_unique<const Impl>(set, space);
}

FixedSpaceContext::~FixedSpaceContext() = default;
FixedSpaceContext::FixedSpaceContext(FixedSpaceContext&&) noexcept = default;
FixedSpaceContext& FixedSpaceContext::operator=(FixedSpaceContext&&) noexcept =
    default;

std::size_t FixedSpaceContext::k() const { return impl_->k; }
std::size_t FixedSpaceContext::n() const { return impl_->n; }

bool FixedSpaceContext::has_full_rank(const VecI& pi) const {
  const Impl& im = *impl_;
  if (pi.size() != im.n) {
    throw std::invalid_argument("FixedSpaceContext: Pi width mismatch");
  }
  // rank([S; pi]) = k  iff  rank(S) = k-1 and pi outside S's row space;
  // the replay is exact (every intermediate is a subdeterminant), so the
  // boolean matches the seed's full Bareiss pass.
  return exact::with_fallback(
      [&] {
        if (!im.checked) {
          throw exact::OverflowError("fixed-space: no checked precompute");
        }
        if (im.checked->echelon.rank() + 1 != im.k) return false;
        // Scratch row reused across candidates: the replay clobbers it and
        // every entry is overwritten before use, so no per-candidate heap
        // traffic on the fast path.
        thread_local linalg::Vector<CheckedInt> scratch;
        scratch.resize(pi.size());
        for (std::size_t i = 0; i < pi.size(); ++i) {
          scratch[i] = CheckedInt(pi[i]);
        }
        return linalg::bareiss_row_independent_inplace(im.checked->echelon,
                                                       scratch);
      },
      [&] {
        if (im.big().echelon.rank() + 1 != im.k) return false;
        return linalg::bareiss_row_independent(im.big().echelon,
                                               lift_vec<BigInt>(pi));
      });
}

std::optional<ConflictVerdict> FixedSpaceContext::accept(
    ConflictOracle oracle, const VecI& pi, VerdictCache* cache) const {
  const Impl& im = *impl_;
  if (oracle != ConflictOracle::kBruteForce && im.k + 1 == im.n) {
    if (cache != nullptr) {
      // Memoized variant: gamma feeds the canonical-ray key first, then
      // the same Theorem 2.2 decision; outcomes are bit-identical (see
      // thm31_cached) so the cache is purely an observability/reuse layer.
      if (im.cofactor_raw) {
        Int gamma[kRawScreenMaxN];
        if (cross_product_raw(*im.cofactor_raw, pi, gamma)) {
          bool all_zero = true;
          bool canon_safe = true;  // |INT64_MIN| would trap in gcd/negate
          for (std::size_t i = 0; i < im.n; ++i) {
            if (gamma[i] != 0) all_zero = false;
            if (gamma[i] == INT64_MIN) canon_safe = false;
          }
          if (all_zero) {
            throw std::domain_error("unique_conflict_vector: rank(T) < n-1");
          }
          if (canon_safe) {
            return thm31_cached(vec_from_raw(gamma, im.n), im.set, oracle,
                                *cache);
          }
        }
      }
      return exact::with_fallback(
          [&]() -> std::optional<ConflictVerdict> {
            if (!im.checked || !im.checked->cofactor) {
              throw exact::OverflowError("fixed-space: no checked cofactor");
            }
            thread_local linalg::Vector<CheckedInt> gamma;
            if (!cross_product_into(*im.checked->cofactor, pi, gamma)) {
              throw std::domain_error(
                  "unique_conflict_vector: rank(T) < n-1");
            }
            VecI raw(gamma.size());
            for (std::size_t i = 0; i < gamma.size(); ++i) {
              raw[i] = gamma[i].value();
            }
            return thm31_cached(raw, im.set, oracle, *cache);
          },
          [&]() -> std::optional<ConflictVerdict> {
            linalg::Vector<BigInt> gamma;
            if (!cross_product_into(*im.big().cofactor, pi, gamma)) {
              throw std::domain_error(
                  "unique_conflict_vector: rank(T) < n-1");
            }
            return thm31_cached(gamma, im.set, oracle, *cache);
          });
    }
    // Hot path of the gallery: Theorem 3.1 with the Prop 3.2 closed form.
    // Rejected candidates return nullopt WITHOUT materializing the rule
    // string or BigInt witness -- they dominate the sweep.
    if (im.cofactor_raw) {
      std::optional<Thm31Screen> s =
          theorem_3_1_screen_raw(*im.cofactor_raw, pi, im.set);
#if SYSMAP_CONTRACTS_ACTIVE
      if (s) {
        // Same parity contract as screen(): a raw verdict must match the
        // exact oracle bit for bit.
        linalg::Vector<BigInt> gamma_big;
        Thm31Screen exact_s =
            theorem_3_1_screen(*im.big().cofactor, pi, im.set, gamma_big);
        SYSMAP_CONTRACT(*s == exact_s,
                        "raw accept verdict "
                            // SYSMAP_NARROWING_OK: enum streamed as int.
                            << static_cast<int>(*s)
                            << " diverges from BigInt oracle verdict "
                            // SYSMAP_NARROWING_OK: enum streamed as int.
                            << static_cast<int>(exact_s));
      }
#endif
      if (!s) {  // int64 overflow: exact restart, as with_fallback would
        linalg::Vector<BigInt> gamma;
        s = theorem_3_1_screen(*im.big().cofactor, pi, im.set, gamma);
      }
      switch (*s) {
        case Thm31Screen::kRankDeficient:
          // Same throw as the seed's unique_conflict_vector_t when
          // rank(T) < n-1 (unreachable after the rank screen).
          throw std::domain_error("unique_conflict_vector: rank(T) < n-1");
        case Thm31Screen::kConflict:
          return std::nullopt;
        case Thm31Screen::kFeasible:
          break;
      }
      return mapping::detail::verdict(
          ConflictVerdict::Status::kConflictFree,
          "Theorem 3.1: unique conflict vector feasible");
    }
    return exact::with_fallback(
        [&]() -> std::optional<ConflictVerdict> {
          if (!im.checked || !im.checked->cofactor) {
            throw exact::OverflowError("fixed-space: no checked cofactor");
          }
          thread_local linalg::Vector<CheckedInt> gamma;
          switch (theorem_3_1_screen(*im.checked->cofactor, pi, im.set,
                                     gamma)) {
            case Thm31Screen::kRankDeficient:
              // Same throw as the seed's unique_conflict_vector_t when
              // rank(T) < n-1 (unreachable after the rank screen).
              throw std::domain_error(
                  "unique_conflict_vector: rank(T) < n-1");
            case Thm31Screen::kConflict:
              return std::nullopt;
            case Thm31Screen::kFeasible:
              break;
          }
          return mapping::detail::verdict(
              ConflictVerdict::Status::kConflictFree,
              "Theorem 3.1: unique conflict vector feasible");
        },
        [&]() -> std::optional<ConflictVerdict> {
          linalg::Vector<BigInt> gamma;
          switch (theorem_3_1_screen(*im.big().cofactor, pi, im.set, gamma)) {
            case Thm31Screen::kRankDeficient:
              throw std::domain_error(
                  "unique_conflict_vector: rank(T) < n-1");
            case Thm31Screen::kConflict:
              return std::nullopt;
            case Thm31Screen::kFeasible:
              break;
          }
          return mapping::detail::verdict(
              ConflictVerdict::Status::kConflictFree,
              "Theorem 3.1: unique conflict vector feasible");
        });
  }
  if (std::optional<std::optional<ConflictVerdict>> fast =
          kernel_screen(oracle, pi, cache)) {
    return std::move(*fast);
  }
  return accept_hnf(oracle, pi);
}

std::optional<ConflictVerdict> FixedSpaceContext::accept_hnf(
    ConflictOracle oracle, const VecI& pi) const {
  ConflictVerdict v = verdict(oracle, pi);
  if (v.status != ConflictVerdict::Status::kConflictFree) return std::nullopt;
  return v;
}

std::optional<ConflictVerdict> FixedSpaceContext::screen(
    ConflictOracle oracle, const VecI& pi, VerdictCache* cache) const {
  const Impl& im = *impl_;
  if (oracle != ConflictOracle::kBruteForce && im.k + 1 == im.n) {
    if (cache != nullptr) {
      // Memoized fused screen: identical decisions (see thm31_cached),
      // with the rank reject (gamma = 0) handled before the cache since
      // the zero ray has no canonical key.
      if (im.cofactor_raw) {
        Int gamma[kRawScreenMaxN];
        if (cross_product_raw(*im.cofactor_raw, pi, gamma)) {
          bool all_zero = true;
          bool canon_safe = true;  // |INT64_MIN| would trap in gcd/negate
          for (std::size_t i = 0; i < im.n; ++i) {
            if (gamma[i] != 0) all_zero = false;
            if (gamma[i] == INT64_MIN) canon_safe = false;
          }
          if (all_zero) return std::nullopt;
          if (canon_safe) {
            return thm31_cached(vec_from_raw(gamma, im.n), im.set, oracle,
                                *cache);
          }
        }
      }
      return exact::with_fallback(
          [&]() -> std::optional<ConflictVerdict> {
            if (!im.checked || !im.checked->cofactor) {
              throw exact::OverflowError("fixed-space: no checked cofactor");
            }
            thread_local linalg::Vector<CheckedInt> gamma;
            if (!cross_product_into(*im.checked->cofactor, pi, gamma)) {
              return std::nullopt;
            }
            VecI raw(gamma.size());
            for (std::size_t i = 0; i < gamma.size(); ++i) {
              raw[i] = gamma[i].value();
            }
            return thm31_cached(raw, im.set, oracle, *cache);
          },
          [&]() -> std::optional<ConflictVerdict> {
            linalg::Vector<BigInt> gamma;
            if (!cross_product_into(*im.big().cofactor, pi, gamma)) {
              return std::nullopt;
            }
            return thm31_cached(gamma, im.set, oracle, *cache);
          });
    }
    // One cofactor product decides both Step 5(2) and 5(3): gamma = C pi
    // is zero exactly when rank([S; pi]) < k (the rank reject), and
    // otherwise the gcd-scaled Theorem 2.2 test decides conflict-freeness.
    if (im.cofactor_raw) {
      std::optional<Thm31Screen> s =
          theorem_3_1_screen_raw(*im.cofactor_raw, pi, im.set);
#if SYSMAP_CONTRACTS_ACTIVE
      if (s) {
        // Fast-path-vs-BigInt verdict parity: the raw machine-word screen
        // must agree with the exact oracle whenever it claims an answer.
        linalg::Vector<BigInt> gamma_big;
        Thm31Screen exact_s =
            theorem_3_1_screen(*im.big().cofactor, pi, im.set, gamma_big);
        SYSMAP_CONTRACT(*s == exact_s,
                        "raw screen verdict "
                            // SYSMAP_NARROWING_OK: enum streamed as int.
                            << static_cast<int>(*s)
                            << " diverges from BigInt oracle verdict "
                            // SYSMAP_NARROWING_OK: enum streamed as int.
                            << static_cast<int>(exact_s));
      }
#endif
      if (!s) {  // int64 overflow: exact restart, as with_fallback would
        linalg::Vector<BigInt> gamma;
        s = theorem_3_1_screen(*im.big().cofactor, pi, im.set, gamma);
      }
      if (*s != Thm31Screen::kFeasible) return std::nullopt;
      return mapping::detail::verdict(
          ConflictVerdict::Status::kConflictFree,
          "Theorem 3.1: unique conflict vector feasible");
    }
    return exact::with_fallback(
        [&]() -> std::optional<ConflictVerdict> {
          if (!im.checked || !im.checked->cofactor) {
            throw exact::OverflowError("fixed-space: no checked cofactor");
          }
          thread_local linalg::Vector<CheckedInt> gamma;
          switch (theorem_3_1_screen(*im.checked->cofactor, pi, im.set,
                                     gamma)) {
            case Thm31Screen::kFeasible:
              return mapping::detail::verdict(
                  ConflictVerdict::Status::kConflictFree,
                  "Theorem 3.1: unique conflict vector feasible");
            default:
              return std::nullopt;
          }
        },
        [&]() -> std::optional<ConflictVerdict> {
          linalg::Vector<BigInt> gamma;
          switch (theorem_3_1_screen(*im.big().cofactor, pi, im.set, gamma)) {
            case Thm31Screen::kFeasible:
              return mapping::detail::verdict(
                  ConflictVerdict::Status::kConflictFree,
                  "Theorem 3.1: unique conflict vector feasible");
            default:
              return std::nullopt;
          }
        });
  }
  if (std::optional<std::optional<ConflictVerdict>> fast =
          kernel_screen(oracle, pi, cache)) {
    return std::move(*fast);
  }
  if (!has_full_rank(pi)) return std::nullopt;
  return accept_hnf(oracle, pi);
}

std::optional<std::optional<ConflictVerdict>> FixedSpaceContext::kernel_screen(
    ConflictOracle oracle, const VecI& pi, VerdictCache* cache) const {
  const Impl& im = *impl_;
  if (oracle == ConflictOracle::kBruteForce || !im.kernel_u) {
    return std::nullopt;
  }
  const std::optional<ConflictVerdict> reject;
  thread_local KernelScratch s;
  try {
    if (!im.kernel_block(pi, s)) return reject;  // rank([S; pi]) < k
    if (cache != nullptr) {
      mapping::canonical_kernel_key_into(
          s.cols, im.n - im.k, im.set, im.k,
          static_cast<std::int32_t>(oracle),  // SYSMAP_NARROWING_OK: tag 0..2.
          s.key);
    }
  } catch (const exact::OverflowError&) {
    return std::nullopt;  // accept_hnf restarts in BigInt
  }
  if (cache != nullptr) {
    if (std::optional<VerdictCache::Outcome> hit = cache->lookup(s.key)) {
      if (!hit->conflict_free) return reject;
      return mapping::detail::verdict(ConflictVerdict::Status::kConflictFree,
                                      hit->rule);
    }
  }
  // k = n-2 under kExact: a conflict vector found by the box-norm reduction
  // of the two kernel columns decides the reject outright.  The exact
  // oracle would say kHasConflict for the same T, and the cache stores a
  // conflict either way.
  if (oracle == ConflictOracle::kExact && im.k + 2 == im.n &&
      lattice::box_short_vector(s.cols.data(), s.cols.data() + im.n, im.set,
                                s.witness)) {
#if SYSMAP_CONTRACTS_ACTIVE
    bool nonzero = false;
    bool in_box = true;
    for (std::size_t i = 0; i < im.n; ++i) {
      nonzero = nonzero || s.witness[i] != 0;
      in_box = in_box && s.witness[i] <= im.set.mu(i) &&
               s.witness[i] >= exact::neg_checked(im.set.mu(i));
    }
    bool in_kernel = true;
    for (std::size_t r = 0; r < im.k; ++r) {
      BigInt dot(0);
      for (std::size_t i = 0; i < im.n; ++i) {
        const Int t = r + 1 < im.k ? im.space(r, i) : pi[i];
        dot += BigInt(t) * BigInt(s.witness[i]);
      }
      in_kernel = in_kernel && dot.is_zero();
    }
    SYSMAP_CONTRACT(nonzero && in_box && in_kernel,
                    "box-norm reject witness is not a conflict vector of "
                    "[S; pi] (nonzero "
                        << nonzero << ", in box " << in_box << ", in kernel "
                        << in_kernel << ")");
#endif
    if (cache != nullptr) cache->insert(s.key, false, std::string_view{});
    return reject;
  }
  ConflictVerdict v = verdict(oracle, pi);
  const bool cf = v.status == ConflictVerdict::Status::kConflictFree;
  // Admission policy of verdict_cache.hpp: every kPaperTheorems outcome;
  // under kExact the conflicts and the basis-invariant accept rules.
  if (cache != nullptr &&
      (oracle == ConflictOracle::kPaperTheorems ||
       v.status == ConflictVerdict::Status::kHasConflict ||
       (cf && exact_accept_rule_cacheable(v.rule)))) {
    cache->insert(s.key, cf,
                  cf ? std::string_view(v.rule) : std::string_view{});
  }
  if (!cf) return reject;
  return std::optional<ConflictVerdict>(std::move(v));
}

std::optional<FixedSpaceContext::KernelImage> FixedSpaceContext::kernel_image(
    const VecI& pi) const {
  const Impl& im = *impl_;
  if (!im.kernel_u) return std::nullopt;
  KernelScratch s;
  KernelImage out;
  try {
    out.full_rank = im.kernel_block(pi, s);
  } catch (const exact::OverflowError&) {
    return std::nullopt;
  }
  if (!out.full_rank) return out;
  const std::size_t cols = im.n - im.k;
  out.kernel = MatI(im.n, cols);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < im.n; ++r) {
      out.kernel(r, c) = s.cols[c * im.n + r];
    }
  }
  if (im.k + 2 == im.n && lattice::box_short_vector(s.cols.data(),
                                                    s.cols.data() + im.n,
                                                    im.set, s.witness)) {
    out.box_witness = s.witness;
  }
  return out;
}

ConflictVerdict FixedSpaceContext::verdict(ConflictOracle oracle,
                                           const VecI& pi) const {
  const Impl& im = *impl_;
  if (oracle == ConflictOracle::kBruteForce) {
    return mapping::enumeration_conflicts(
        mapping::MappingMatrix(im.space, pi), im.set);
  }
  if (im.k == im.n) {
    ConflictVerdict out;
    out.status = has_full_rank(pi) ? ConflictVerdict::Status::kConflictFree
                                   : ConflictVerdict::Status::kHasConflict;
    out.rule = "square T: rank test";
    return out;
  }
  if (im.k + 1 == im.n) {
    // Theorem 3.1 via the closed form; identical gamma, hence identical
    // rule and witness.
    return exact::with_fallback(
        [&] {
          if (!im.checked || !im.checked->cofactor) {
            throw exact::OverflowError("fixed-space: no checked cofactor");
          }
          linalg::Vector<CheckedInt> gamma =
              cross_from_cofactor(*im.checked->cofactor, pi);
          if (mapping::detail::feasible(gamma, im.set)) {
            return mapping::detail::verdict(
                ConflictVerdict::Status::kConflictFree,
                "Theorem 3.1: unique conflict vector feasible");
          }
          return mapping::detail::verdict(
              ConflictVerdict::Status::kHasConflict,
              "Theorem 3.1: unique conflict vector non-feasible",
              mapping::detail::widen(std::move(gamma)));
        },
        [&] {
          linalg::Vector<BigInt> gamma =
              cross_from_cofactor(*im.big().cofactor, pi);
          if (mapping::detail::feasible(gamma, im.set)) {
            return mapping::detail::verdict(
                ConflictVerdict::Status::kConflictFree,
                "Theorem 3.1: unique conflict vector feasible");
          }
          return mapping::detail::verdict(
              ConflictVerdict::Status::kHasConflict,
              "Theorem 3.1: unique conflict vector non-feasible",
              mapping::detail::widen(std::move(gamma)));
        });
  }
  // The CheckedInt and BigInt builds agree on prefix presence (the rank of
  // S and any domain_error are scalar-independent), so consult whichever
  // exists without forcing the lazy BigInt mirror.
  const bool have_prefix = im.checked ? im.checked->prefix.has_value()
                                      : im.big().prefix.has_value();
  if (!have_prefix) {
    // Rank-deficient S: fall back to the seed's from-scratch dispatch
    // (identical behavior, including any domain_error from the HNF).
    return run_conflict_oracle(oracle, mapping::MappingMatrix(im.space, pi),
                               im.set);
  }
  return exact::with_fallback(
      [&] {
        if (!im.checked || !im.checked->prefix) {
          throw exact::OverflowError("fixed-space: no checked HNF prefix");
        }
        lattice::BasicHnfResult<CheckedInt> hnf =
            lattice::detail::hermite_extend_row_t(*im.checked->prefix,
                                                  lift_vec<CheckedInt>(pi));
        return hnf_tail_verdict(oracle, hnf, im.k, im.n, im.set);
      },
      [&] {
        lattice::BasicHnfResult<BigInt> hnf =
            lattice::detail::hermite_extend_row_t(*im.big().prefix,
                                                  lift_vec<BigInt>(pi));
        return hnf_tail_verdict(oracle, hnf, im.k, im.n, im.set);
      });
}

}  // namespace sysmap::search
