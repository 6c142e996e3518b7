#include "lattice/gauss.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

#include "exact/checked.hpp"

namespace sysmap::lattice {

namespace {

using exact::add_checked;
using exact::mul_checked;
using exact::sub_checked;

constexpr std::size_t kMaxDim = 16;
using Vec = std::array<Int, kMaxDim>;

/// Swaps past this many rounds count as undecided.  Each swap strictly
/// shortens the basis, so the cap is only a guard.
constexpr int kMaxRounds = 256;

/// max_i |v_i| / mu_i as the fraction num / den (den = some mu_i >= 1).
struct Norm {
  Int num = 0;
  Int den = 1;
};

bool shorter(const Norm& x, const Norm& y) {
  return mul_checked(x.num, y.den) < mul_checked(y.num, x.den);
}

Norm box_norm(const Vec& v, const model::IndexSet& set) {
  Norm best;
  for (std::size_t i = 0; i < set.dimension(); ++i) {
    const Int mag = exact::abs_checked(v[i]);
    if (mul_checked(mag, best.den) > mul_checked(best.num, set.mu(i))) {
      best = {mag, set.mu(i)};
    }
  }
  return best;
}

/// b - t a over the first n entries.
Vec shifted(const Vec& b, const Vec& a, Int t, std::size_t n) {
  Vec out;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = sub_checked(b[i], mul_checked(t, a[i]));
  }
  return out;
}

/// The integer t minimizing ||b - t a||.  The function is convex in t, and
/// every minimizer over the reals lies between the smallest and largest
/// b_i / a_i over a_i != 0, so a bisection on the sign of the forward
/// difference over that range finds an integer minimizer.
Int best_shift(const Vec& a, const Vec& b, const model::IndexSet& set) {
  const std::size_t n = set.dimension();
  bool any = false;
  Int lo = 0;
  Int hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == 0) continue;
    const Int below = exact::floor_div_checked(b[i], a[i]);
    const Int above = exact::neg_checked(
        exact::floor_div_checked(exact::neg_checked(b[i]), a[i]));
    if (!any || below < lo) lo = below;
    if (!any || above > hi) hi = above;
    any = true;
  }
  while (lo < hi) {
    const Int mid =
        add_checked(lo, exact::floor_div_checked(sub_checked(hi, lo), 2));
    const Int next = add_checked(mid, 1);
    if (shorter(box_norm(shifted(b, a, next, n), set),
                box_norm(shifted(b, a, mid, n), set))) {
      lo = next;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

bool box_short_vector(const Int* a_in, const Int* b_in,
                      const model::IndexSet& set, VecI& witness) {
  const std::size_t n = set.dimension();
  if (n > kMaxDim) return false;
  try {
    Vec a;
    Vec b;
    std::copy_n(a_in, n, a.begin());
    std::copy_n(b_in, n, b.begin());
    Norm na = box_norm(a, set);
    Norm nb = box_norm(b, set);
    if (shorter(nb, na)) {
      std::swap(a, b);
      std::swap(na, nb);
    }
    bool reduced = false;
    for (int round = 0; round < kMaxRounds && !reduced; ++round) {
      b = shifted(b, a, best_shift(a, b, set), n);
      nb = box_norm(b, set);
      if (!shorter(nb, na)) {
        reduced = true;  // ||a|| <= ||b|| <= ||b +- a||: a is shortest
      } else {
        std::swap(a, b);
        std::swap(na, nb);
      }
    }
    if (!reduced || na.num > na.den) return false;  // ||a|| > 1: no conflict
    witness.assign(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n));
    return true;
  } catch (const exact::OverflowError&) {
    return false;
  }
}

}  // namespace sysmap::lattice
