#include "model/index_set.hpp"

#include <stdexcept>

#include "exact/checked.hpp"

namespace sysmap::model {

IndexSet::IndexSet(VecI mu) : mu_(std::move(mu)) {
  if (mu_.empty()) {
    throw std::invalid_argument("IndexSet: dimension must be positive");
  }
  for (Int b : mu_) {
    if (b < 1) {
      throw std::invalid_argument(
          "IndexSet: every bound mu_i must be >= 1 (Equation 2.5)");
    }
  }
}

IndexSet IndexSet::cube(std::size_t n, Int mu) {
  return IndexSet(VecI(n, mu));
}

bool IndexSet::contains(const VecI& j) const {
  if (j.size() != mu_.size()) return false;
  for (std::size_t i = 0; i < mu_.size(); ++i) {
    if (j[i] < 0 || j[i] > mu_[i]) return false;
  }
  return true;
}

exact::BigInt IndexSet::size() const {
  exact::BigInt out(1);
  // b + 1 in BigInt: mu_i = INT64_MAX is a legal bound.
  for (Int b : mu_) out *= exact::BigInt(b) + exact::BigInt(1);
  return out;
}

std::uint64_t IndexSet::size_u64() const {
  exact::BigInt n = size();
  // size() is positive; reuse the int64 check for a safe narrow.
  return static_cast<std::uint64_t>(n.to_int64());
}

void IndexSet::for_each(const std::function<void(const VecI&)>& visit) const {
  for_each_while([&](const VecI& j) {
    visit(j);
    return true;
  });
}

bool IndexSet::for_each_while(
    const std::function<bool(const VecI&)>& visit) const {
  VecI j(mu_.size(), 0);
  for (;;) {
    if (!visit(j)) return false;
    // Odometer increment, last coordinate fastest (lexicographic order).
    std::size_t i = mu_.size();
    while (i-- > 0) {
      if (j[i] < mu_[i]) {
        ++j[i];
        break;
      }
      j[i] = 0;
      if (i == 0) return true;
    }
  }
}

}  // namespace sysmap::model
