// HNFPERF -- scaling of the exact Hermite-normal-form substrate
// (extended-gcd elimination with off-diagonal reduction), plus the
// exact-arithmetic necessity ablation: the same reductions in checked int64
// overflow on adversarial inputs where BigInt sails through (reported as a
// counter rather than a crash).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "sysmap.hpp"

using namespace sysmap;

namespace {

MatI random_matrix(std::size_t k, std::size_t n, Int lo, Int hi,
                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Int> dist(lo, hi);
  for (;;) {
    MatI t(k, n);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < n; ++j) t(i, j) = dist(rng);
    }
    if (linalg::rank(to_bigint(t)) == k) return t;
  }
}

void BM_Hnf_Xgcd(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t n = k + 2;
  MatI t = random_matrix(k, n, -99, 99, 42 + k);
  std::size_t max_bits = 0;
  for (auto _ : state) {
    lattice::HnfResult r = lattice::hermite_normal_form(t);
    benchmark::DoNotOptimize(r);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        max_bits = std::max(max_bits, r.u(i, j).bit_length());
      }
    }
  }
  state.counters["max_entry_bits"] = static_cast<double>(max_bits);
}
BENCHMARK(BM_Hnf_Xgcd)->DenseRange(2, 8);

// Ablation: where does checked int64 actually fail?  Run the xgcd
// elimination over int64 with overflow trapping on matrices of growing
// entry magnitude; report the survival rate.  (This motivates the BigInt
// substrate: the calibration notes flag exact HNF as the NTL/FLINT-grade
// component.)
void BM_Hnf_Int64Survival(benchmark::State& state) {
  const Int magnitude = state.range(0);
  std::uint64_t survived = 0, total = 0;
  for (auto _ : state) {
    MatI t = random_matrix(3, 5, -magnitude, magnitude, 7 + total);
    ++total;
    try {
      // Simulate the elimination in checked int64 by running Bareiss-style
      // exact determinants of all maximal minors (the quantities Theorem
      // 3.1 needs) -- the first overflow aborts.
      MatI square(3, 3);
      for (std::size_t c0 = 0; c0 < 3; ++c0) {
        for (std::size_t i = 0; i < 3; ++i) {
          for (std::size_t j = 0; j < 3; ++j) square(i, j) = t(i, j + c0);
        }
        Int det = 0;
        // determinant<Int> uses plain ops; emulate checked evaluation:
        det = exact::sub_checked(
            exact::mul_checked(square(0, 0),
                               exact::sub_checked(
                                   exact::mul_checked(square(1, 1), square(2, 2)),
                                   exact::mul_checked(square(1, 2), square(2, 1)))),
            exact::sub_checked(
                exact::mul_checked(square(0, 1),
                                   exact::sub_checked(
                                       exact::mul_checked(square(1, 0), square(2, 2)),
                                       exact::mul_checked(square(1, 2), square(2, 0)))),
                exact::neg_checked(exact::mul_checked(
                    square(0, 2),
                    exact::sub_checked(
                        exact::mul_checked(square(1, 0), square(2, 1)),
                        exact::mul_checked(square(1, 1), square(2, 0)))))));
        benchmark::DoNotOptimize(det);
      }
      ++survived;
    } catch (const exact::OverflowError&) {
      // int64 insufficient at this magnitude.
    }
    // BigInt always succeeds:
    lattice::HnfResult r = lattice::hermite_normal_form(t);
    benchmark::DoNotOptimize(r);
  }
  state.counters["int64_survival_pct"] =
      total == 0 ? 100.0 : 100.0 * static_cast<double>(survived) /
                               static_cast<double>(total);
}
BENCHMARK(BM_Hnf_Int64Survival)
    ->Arg(100)
    ->Arg(100000)
    ->Arg(1000000000)
    ->Arg(2000000000);

// Raw BigInt division/gcd throughput (the inner loop of everything above).
void BM_BigInt_Gcd(benchmark::State& state) {
  const std::size_t digits = static_cast<std::size_t>(state.range(0));
  std::string sa(digits, '7');
  std::string sb(digits, '3');
  sa.front() = '1';
  sb.front() = '2';
  exact::BigInt a = exact::BigInt::from_string(sa);
  exact::BigInt b = exact::BigInt::from_string(sb);
  for (auto _ : state) {
    exact::BigInt g = exact::BigInt::gcd(a, b);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_BigInt_Gcd)->Arg(9)->Arg(18)->Arg(36)->Arg(72)->Arg(144);

// Console output for humans plus one JSON object per benchmark case
// appended to a .jsonl file, so downstream tooling (plots, regression
// gates) can diff runs without parsing the console table.  Target file:
// $SYSMAP_BENCH_JSON, defaulting to BENCH_hnf_performance.jsonl in the
// working directory.
class JsonLinesReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonLinesReporter(const std::string& path) : out_(path) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      out_ << "{\"name\":\"" << run.benchmark_name() << "\""
           << ",\"iterations\":" << run.iterations
           << ",\"real_time_ns\":" << run.GetAdjustedRealTime()
           << ",\"cpu_time_ns\":" << run.GetAdjustedCPUTime();
      for (const auto& [counter_name, counter] : run.counters) {
        out_ << ",\"" << counter_name << "\":" << counter.value;
      }
      out_ << "}\n";
    }
    out_.flush();
  }

 private:
  std::ofstream out_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const char* path = std::getenv("SYSMAP_BENCH_JSON");
  JsonLinesReporter reporter(path ? path : "BENCH_hnf_performance.jsonl");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
