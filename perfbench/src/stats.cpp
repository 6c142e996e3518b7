#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0 || p <= 0 || p > 100) {
    throw std::invalid_argument("percentile: need samples and 0 < p <= 100");
  }
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

double percentile(std::vector<double> samples, double p,
                  std::size_t min_tail) {
  const std::size_t rank = nearest_rank(samples.size(), p);
  if (samples.size() - rank < min_tail) {
    throw std::invalid_argument(
        "percentile: p" + std::to_string(p) + " of " +
        std::to_string(samples.size()) + " samples has fewer than " +
        std::to_string(min_tail) + " samples beyond it");
  }
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

Quartiles quartiles(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n < 2) throw std::invalid_argument("quartiles: need two samples");
  std::sort(samples.begin(), samples.end());
  // Exclusive method, step for step as CPython computes it: the i-th cut
  // point sits at 1-based position i * (n + 1) / 4, interpolated between
  // its neighbours; the lower neighbour is clamped to [1, n - 1] before
  // the weight is taken, so the ends extrapolate.
  auto cut = [&](std::int64_t i) {
    const auto count = static_cast<std::int64_t>(n);
    const std::int64_t m = count + 1;
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, count - 1);
    const std::int64_t delta = i * m - j * 4;
    const auto lo = static_cast<std::size_t>(j);
    return (samples[lo - 1] * static_cast<double>(4 - delta) +
            samples[lo] * static_cast<double>(delta)) /
           4;
  };
  return {cut(1), cut(2), cut(3)};
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::below: n must be positive");
  // Rejection keeps the draw exactly uniform.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return x % n;
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  if (hi < lo) throw std::invalid_argument("Rng::range: empty range");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

}  // namespace perfbench
