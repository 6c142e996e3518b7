// Canonical forms of the conflict-determining data, for verdict caching.
//
// Whether T = [S; Pi] is conflict-free over an index set J^n depends on
// strictly LESS than (S, Pi):
//   - k = n-1 (Theorem 3.1): only on the conflict RAY {t . gamma} and the
//     box bounds -- gamma = cross([S; Pi]) up to scale and sign.  Two
//     candidates whose crosses are colinear get the same verdict, rule
//     string and (sign-flipped) witness reconstruction, so the canonical
//     form is lattice::make_primitive(gamma) with the first nonzero entry
//     made positive.
//   - k <= n-2 (Theorems 4.5/4.7/4.8 and the conflict lattice): only on
//     the kernel lattice of T, represented by the HNF-derived basis block
//     u_{k+1..n}.  The paper-theorem ladder consumes the basis columns
//     through sign-pattern- and permutation-invariant tests, so columns
//     are made primitive, sign-normalized and sorted lexicographically.
//     (The EXACT oracle's LLL + box-enumeration tail is NOT invariant
//     under these moves -- lll_impl.hpp's round_nearest breaks odd
//     symmetry -- so search::VerdictCache only admits kExact outcomes
//     proven invariant; see verdict_cache.hpp for the admission policy.)
//
// Keys embed the index-set extents and an oracle tag so distinct boxes or
// oracles can never alias, plus a kind tag separating the two families.
// Builders return nullopt when the data does not fit the int64 payload
// (callers then simply skip the cache -- correctness never depends on a
// key existing).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "exact/bigint.hpp"
#include "exact/checked.hpp"
#include "lattice/kernel.hpp"
#include "linalg/matrix.hpp"
#include "linalg/types.hpp"
#include "model/index_set.hpp"

namespace sysmap::mapping {

/// Hashable canonical form of one conflict question.  Equality compares
/// every field; the hash is FNV-1a over the same bytes-as-words stream.
struct ConflictKey {
  enum class Kind : std::uint8_t {
    kConflictRay = 0,    ///< k = n-1: primitive sign-normalized gamma
    kKernelBasis = 1,    ///< k <= n-2: canonicalized u_{k+1..n} block
    kScheduleOrbit = 3,  ///< schedule-search orbit of S for a fixed (J, D)
  };

  Kind kind = Kind::kConflictRay;
  std::int32_t oracle_tag = 0;  ///< caller-supplied oracle discriminator
  std::uint32_t n = 0;          ///< index-set dimension
  std::uint32_t k = 0;          ///< rows(T)
  std::vector<Int> payload;     ///< extents mu_1..mu_n, then canonical data

  friend bool operator==(const ConflictKey& a, const ConflictKey& b) {
    return a.kind == b.kind && a.oracle_tag == b.oracle_tag && a.n == b.n &&
           a.k == b.k && a.payload == b.payload;
  }

  std::size_t hash() const noexcept {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    auto mix = [&h](std::uint64_t word) {
      h ^= word;
      h *= 1099511628211ull;  // FNV-1a prime
    };
    mix(static_cast<std::uint64_t>(kind));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(oracle_tag)));
    mix((static_cast<std::uint64_t>(n) << 32) | k);
    for (Int v : payload) mix(static_cast<std::uint64_t>(v));
    return static_cast<std::size_t>(h);
  }
};

struct ConflictKeyHash {
  std::size_t operator()(const ConflictKey& key) const noexcept {
    return key.hash();
  }
};

namespace detail {

inline void append_extents(const model::IndexSet& set,
                           std::vector<Int>& payload) {
  for (std::size_t i = 0; i < set.dimension(); ++i) {
    payload.push_back(set.mu(i));
  }
}

/// Column arrangements that keep the index box invariant: the identity,
/// then every within-group permutation of equal-extent column groups
/// (composed across groups).  When the full orbit exceeds
/// `max_arrangements` only the identity is returned -- a truncated orbit
/// slice would be representative-dependent and therefore non-canonical,
/// while the identity alone is always a (coarser) sound canonicalization.
inline std::vector<std::vector<std::size_t>> equal_extent_arrangements(
    const model::IndexSet& set, std::size_t n,
    std::size_t max_arrangements) {
  std::vector<std::vector<std::size_t>> arrangements;
  std::vector<std::size_t> identity(n);
  for (std::size_t c = 0; c < n; ++c) identity[c] = c;
  arrangements.push_back(identity);
  // Group columns by extent; count the full orbit first so a blown cap
  // degrades to the identity arrangement instead of a truncated (and
  // therefore representative-dependent) orbit slice.
  std::size_t orbit = 1;
  std::vector<bool> grouped(n, false);
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t c = 0; c < n; ++c) {
    if (grouped[c]) continue;
    std::vector<std::size_t> group{c};
    grouped[c] = true;
    for (std::size_t d = c + 1; d < n; ++d) {
      if (!grouped[d] && set.mu(d) == set.mu(c)) {
        group.push_back(d);
        grouped[d] = true;
      }
    }
    for (std::size_t f = 2; f <= group.size(); ++f) {
      orbit *= f;
      if (orbit > max_arrangements) break;
    }
    if (orbit > max_arrangements) break;
    if (group.size() > 1) groups.push_back(std::move(group));
  }
  if (orbit <= max_arrangements) {
    for (const std::vector<std::size_t>& group : groups) {
      std::vector<std::size_t> order(group.begin(), group.end());
      const std::size_t fixed = arrangements.size();
      // Compose every non-identity ordering of this group with every
      // arrangement accumulated so far.
      while (std::next_permutation(order.begin(), order.end())) {
        for (std::size_t a = 0; a < fixed; ++a) {
          std::vector<std::size_t> perm = arrangements[a];
          for (std::size_t g = 0; g < group.size(); ++g) {
            perm[group[g]] = arrangements[a][order[g]];
          }
          arrangements.push_back(std::move(perm));
        }
      }
      std::sort(order.begin(), order.end());  // restore for reuse
    }
  }
  return arrangements;
}

/// Lexicographic minimum, over the given column arrangements, of S with
/// each row sign-normalized (first nonzero entry positive) and rows
/// sorted -- the canonicalization step of the schedule-orbit key.
inline std::vector<Int> min_row_canonical_form(
    const MatI& space,
    const std::vector<std::vector<std::size_t>>& arrangements) {
  const std::size_t m = space.rows();
  const std::size_t n = space.cols();
  std::vector<Int> best;
  std::vector<VecI> rows(m, VecI(n, 0));
  for (const std::vector<std::size_t>& perm : arrangements) {
    for (std::size_t r = 0; r < m; ++r) {
      VecI& row = rows[r];
      for (std::size_t c = 0; c < n; ++c) row[c] = space(r, perm[c]);
      // Sign-normalize: first nonzero entry positive.
      for (std::size_t c = 0; c < n; ++c) {
        if (row[c] == 0) continue;
        if (row[c] < 0) {
          for (std::size_t d = c; d < n; ++d) {
            row[d] = exact::neg_checked(row[d]);
          }
        }
        break;
      }
    }
    std::sort(rows.begin(), rows.end());
    std::vector<Int> flat;
    flat.reserve(m * n);
    for (const VecI& row : rows) {
      flat.insert(flat.end(), row.begin(), row.end());
    }
    if (best.empty() || flat < best) best = std::move(flat);
  }
  return best;
}

}  // namespace detail

/// Canonical key for the k = n-1 conflict ray gamma (any nonzero multiple
/// of cross([S; Pi])).  Precondition: gamma is nonzero.
inline ConflictKey canonical_gamma_key(const VecI& gamma,
                                       const model::IndexSet& set,
                                       std::int32_t oracle_tag) {
  ConflictKey key;
  key.kind = ConflictKey::Kind::kConflictRay;
  key.oracle_tag = oracle_tag;
  key.n = static_cast<std::uint32_t>(set.dimension());
  key.k = static_cast<std::uint32_t>(set.dimension() - 1);
  key.payload.reserve(set.dimension() + gamma.size());
  detail::append_extents(set, key.payload);
  VecI canon = lattice::make_primitive(gamma);
  // make_primitive already flips the vector so its first nonzero entry is
  // positive -- that IS the sign normalization.
  key.payload.insert(key.payload.end(), canon.begin(), canon.end());
  return key;
}

/// BigInt overload: nullopt when the primitive gamma does not fit int64
/// (the caller skips the cache; the primitive form is the smallest
/// representative, so overflow here means the ray is genuinely huge).
inline std::optional<ConflictKey> canonical_gamma_key(
    const VecZ& gamma, const model::IndexSet& set, std::int32_t oracle_tag) {
  VecZ canon = lattice::make_primitive(gamma);
  VecI narrow(canon.size());
  for (std::size_t i = 0; i < canon.size(); ++i) {
    if (!canon[i].fits_int64()) return std::nullopt;
    narrow[i] = canon[i].to_int64();
  }
  ConflictKey key;
  key.kind = ConflictKey::Kind::kConflictRay;
  key.oracle_tag = oracle_tag;
  key.n = static_cast<std::uint32_t>(set.dimension());
  key.k = static_cast<std::uint32_t>(set.dimension() - 1);
  key.payload.reserve(set.dimension() + narrow.size());
  detail::append_extents(set, key.payload);
  key.payload.insert(key.payload.end(), narrow.begin(), narrow.end());
  return key;
}

/// Canonical key for a k <= n-2 kernel basis block held as int64 columns:
/// `cols` stores `count` columns of n = set.dimension() entries each,
/// column after column.  Each column is made primitive with its first
/// nonzero entry positive, then columns are sorted lexicographically --
/// both moves preserve the lattice tests the paper-theorem ladder runs
/// (divisibility, sign-pattern classes, extent comparisons), which is the
/// cache's parity argument.  Rewrites `cols` with the canonical columns
/// and fills `key` in place, reusing its payload buffer, so a sweep can
/// key every candidate without allocating.  Throws exact::OverflowError
/// when a column holds INT64_MIN.
inline void canonical_kernel_key_into(std::vector<Int>& cols,
                                      std::size_t count,
                                      const model::IndexSet& set,
                                      std::size_t k, std::int32_t oracle_tag,
                                      ConflictKey& key) {
  const std::size_t n = set.dimension();
  auto column = [&cols, n](std::size_t c) {
    return cols.begin() + static_cast<std::ptrdiff_t>(c * n);
  };
  for (std::size_t c = 0; c < count; ++c) {
    const auto col = column(c);
    Int g = 0;
    for (std::size_t i = 0; i < n; ++i) {
      g = exact::gcd_i64(g, exact::abs_checked(col[i]));
    }
    bool flip = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (col[i] != 0) {
        flip = col[i] < 0;
        break;
      }
    }
    if (g > 1 || flip) {
      const Int by = flip ? exact::neg_checked(g) : g;
      for (std::size_t i = 0; i < n; ++i) {
        col[i] = exact::div_checked(col[i], by);
      }
    }
  }
  // Insertion sort of whole columns: count is n - k + 1 at most.
  for (std::size_t c = 1; c < count; ++c) {
    for (std::size_t d = c; d > 0; --d) {
      if (!std::lexicographical_compare(column(d), column(d + 1),
                                        column(d - 1), column(d))) {
        break;
      }
      std::swap_ranges(column(d - 1), column(d), column(d));
    }
  }
  key.kind = ConflictKey::Kind::kKernelBasis;
  key.oracle_tag = oracle_tag;
  key.n = static_cast<std::uint32_t>(n);
  key.k = static_cast<std::uint32_t>(k);
  key.payload.resize(n + count * n);
  for (std::size_t i = 0; i < n; ++i) key.payload[i] = set.mu(i);
  std::copy(column(0), column(count),
            key.payload.begin() + static_cast<std::ptrdiff_t>(n));
}

/// Canonical key for a k <= n-2 kernel basis block (columns u_{k+1..n} of
/// the HNF transform, starting at `first_col`), as canonical_kernel_key_into
/// builds it.  Returns nullopt when any canonical entry does not fit int64
/// or is INT64_MIN.
template <typename T>
std::optional<ConflictKey> canonical_kernel_key(const linalg::Matrix<T>& u,
                                                std::size_t first_col,
                                                const model::IndexSet& set,
                                                std::size_t k,
                                                std::int32_t oracle_tag) {
  const std::size_t n = u.rows();
  const std::size_t count = u.cols() - first_col;
  std::vector<Int> cols;
  cols.reserve(count * n);
  for (std::size_t c = first_col; c < u.cols(); ++c) {
    linalg::Vector<T> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = u(i, c);
    col = lattice::make_primitive_t(std::move(col));
    for (std::size_t i = 0; i < n; ++i) {
      // INT64_MIN has no int64 magnitude: such a key is skipped as well.
      if (!col[i].fits_int64() || col[i].to_int64() == INT64_MIN) {
        return std::nullopt;
      }
      cols.push_back(col[i].to_int64());
    }
  }
  ConflictKey key;
  canonical_kernel_key_into(cols, count, set, k, oracle_tag, key);
  return key;
}

/// Canonical form of the SCHEDULE-SEARCH orbit of S for a fixed algorithm
/// (J, D): two candidates with equal keys have Procedure-5.1 feasible sets
/// {(f, Pi) : Pi D > 0, rank[S; Pi] = k, [S; Pi] conflict-free over J}
/// related by an OBJECTIVE-PRESERVING bijection on Pi -- so the optimal
/// objective f* (and the nonexistence of any feasible Pi up to a bound)
/// may be attributed across the key.  Three moves generate the orbit:
///   1. negating a row of S: ker[S; Pi] and rank[S; Pi] are unchanged (the
///      same Pi stays feasible, level by level);
///   2. permuting rows of S: likewise (T changes by a left signed
///      permutation, which preserves kernel and rank);
///   3. permuting columns by sigma (matrix P, S -> S P) when sigma
///      (a) preserves the extents, mu_{sigma(c)} = mu_c, and (b) maps the
///      COLUMNS of the dependence matrix onto themselves as a multiset
///      (the rows of D permuted by sigma leave the column multiset fixed).
///      Then Pi -> Pi P^T is the bijection: (a) keeps the difference box
///      and the objective sum |pi_i| mu_i invariant, (b) makes
///      (Pi P^T) D = Pi (P^T D) positive exactly when Pi D is, and
///      conflict-freedom/rank transfer through [S P; Pi] = [S; Pi P^T] P
///      (a right permutation preserves both kernel membership in the box
///      and rank).
/// Everything beyond f* -- the winning Pi itself, its verdict/witness,
/// routing on a fixed target (which reads S D, not preserved by move 3),
/// and the array cost -- is NOT invariant; callers must re-derive those on
/// the actual S (the fused pipeline re-runs the search seeded at
/// min_objective = f*) and must skip this key entirely when a target
/// interconnect constrains the search.  The dependence matrix is embedded
/// in the payload so distinct algorithms over the same box never alias.
inline ConflictKey canonical_space_schedule_key(
    const MatI& space, const model::IndexSet& set, const MatI& dependence,
    std::size_t max_arrangements = 720) {
  const std::size_t m = space.rows();
  const std::size_t n = space.cols();

  std::vector<std::vector<std::size_t>> arrangements =
      detail::equal_extent_arrangements(set, n, max_arrangements);
  // Keep only the arrangements that fix the dependence-column multiset:
  // column c of the permuted dependence block reads D(perm[r], c) in row r.
  if (arrangements.size() > 1) {
    std::vector<VecI> original(dependence.cols(), VecI(n, 0));
    for (std::size_t c = 0; c < dependence.cols(); ++c) {
      for (std::size_t r = 0; r < n; ++r) original[c][r] = dependence(r, c);
    }
    std::vector<VecI> sorted_original = original;
    std::sort(sorted_original.begin(), sorted_original.end());
    std::vector<std::vector<std::size_t>> valid;
    std::vector<VecI> permuted(dependence.cols(), VecI(n, 0));
    for (std::vector<std::size_t>& perm : arrangements) {
      for (std::size_t c = 0; c < dependence.cols(); ++c) {
        for (std::size_t r = 0; r < n; ++r) {
          permuted[c][r] = original[c][perm[r]];
        }
      }
      std::sort(permuted.begin(), permuted.end());
      if (permuted == sorted_original) valid.push_back(std::move(perm));
    }
    arrangements = std::move(valid);
  }
  const std::vector<Int> best =
      detail::min_row_canonical_form(space, arrangements);

  ConflictKey key;
  key.kind = ConflictKey::Kind::kScheduleOrbit;
  key.oracle_tag = 0;
  key.n = static_cast<std::uint32_t>(n);
  key.k = static_cast<std::uint32_t>(m);
  key.payload.reserve(set.dimension() + best.size() +
                      dependence.rows() * dependence.cols());
  detail::append_extents(set, key.payload);
  key.payload.insert(key.payload.end(), best.begin(), best.end());
  for (std::size_t c = 0; c < dependence.cols(); ++c) {
    for (std::size_t r = 0; r < dependence.rows(); ++r) {
      key.payload.push_back(dependence(r, c));
    }
  }
  return key;
}

}  // namespace sysmap::mapping
