// Small statistics and naming helpers shared by the benchmark driver and
// its self-tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// A percentile is reported only with at least this many samples beyond it.
constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile of `samples` (need not be sorted): the value at
/// 1-based rank ceil(p / 100 * n) of the sorted samples.  Throws
/// std::invalid_argument when fewer than `min_tail` samples lie beyond
/// that rank, so a p90 is never read off a handful of queries.
double percentile(std::vector<double> samples, double p,
                  std::size_t min_tail = kMinTailSamples);

/// Number of samples beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// First, second and third quartile by the exclusive method (the default
/// of Python's statistics.quantiles(values, n=4)); needs two samples.
struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
};
Quartiles quartiles(std::vector<double> samples);

/// Metric names: a letter or digit first, then at most 63 more letters,
/// digits, '_', '.' or '-'.
bool valid_metric_name(std::string_view name);

/// SplitMix64: a fixed, platform-independent generator, so one seed gives
/// byte-identical draws with every compiler and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);
  /// Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi);

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
