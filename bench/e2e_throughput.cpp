// E2E-THROUGHPUT -- the fused Pi x S co-search against cold-start scoring.
//
// Runs the joint Problem 6.2 single-winner query (sweep every candidate
// space S, find each one's certified time-optimal conflict-free Pi, keep
// the best (objective, cost) point) end to end for each gallery workload,
// across three modes:
//   cold            joint_time_optimal_mapping_seed: one stateless
//                   MappingPipeline cold call per space, full search and
//                   std::set cost walk each time -- the seed oracle
//   fused           joint_time_optimal_mapping, one thread: one pipeline
//                   persists across spaces (shared verdict cache,
//                   schedule-orbit objective reuse, a level memo that
//                   walks each Procedure 5.1 level once, per-space
//                   contexts),
//                   the best objective so far truncates hopeless spaces,
//                   image-bitset costing
//   fused_parallel  the same, fanned over the thread pool with the
//                   deterministic (objective, total, procs, pos) reduction
// All modes are bit-identical by construction in (found, space, pi,
// objective, makespan, verdict, cost, spaces_tested); this harness asserts
// that before reporting any number and exits nonzero on violation.
//
// Output: a human-readable table on stdout and JSON lines (one object per
// case/mode plus per-case speedup summaries) written to
// $SYSMAP_BENCH_JSON or BENCH_e2e.json.  Set SYSMAP_BENCH_SMOKE=1 for a
// single-rep quick pass (CI smoke); pass --threads N to size the parallel
// mode (default 4).
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "search/space_optimal.hpp"
#include "sysmap.hpp"

using namespace sysmap;

namespace {

struct Case {
  std::string name;
  model::UniformDependenceAlgorithm algo;
  Int max_entry;
  std::size_t array_dims;
};

struct Timing {
  double ms = 0;
  search::JointMappingResult result;
};

enum class Mode { kCold, kFused, kFusedParallel };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kCold:
      return "cold";
    case Mode::kFused:
      return "fused";
    case Mode::kFusedParallel:
      return "fused_parallel";
  }
  return "?";
}

search::SpaceSearchOptions mode_options(const Case& c, Mode mode,
                                        std::size_t threads) {
  search::SpaceSearchOptions opts;
  opts.max_entry = c.max_entry;
  opts.array_dims = c.array_dims;
  opts.num_threads = mode == Mode::kFusedParallel ? threads : 1;
  return opts;
}

Timing run_mode(const Case& c, Mode mode, int reps, std::size_t threads) {
  const search::SpaceSearchOptions opts = mode_options(c, mode, threads);
  Timing best;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    search::JointMappingResult r =
        mode == Mode::kCold
            ? search::joint_time_optimal_mapping_seed(c.algo, opts)
            : search::joint_time_optimal_mapping(c.algo, opts);
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < best.ms) {
      best.ms = ms;
      best.result = std::move(r);
    }
  }
  return best;
}

bool identical(const search::JointMappingResult& a,
               const search::JointMappingResult& b) {
  if (a.found != b.found || a.spaces_tested != b.spaces_tested) return false;
  if (!a.found) return true;
  return a.space == b.space && a.pi == b.pi && a.objective == b.objective &&
         a.makespan == b.makespan && a.verdict.status == b.verdict.status &&
         a.verdict.rule == b.verdict.rule &&
         a.cost.processors == b.cost.processors &&
         a.cost.wire_length == b.cost.wire_length;
}

void emit_json(std::ostream& json, const Case& c, Mode mode, const Timing& t,
               std::size_t threads) {
  double sps =
      t.ms > 0
          ? 1000.0 * static_cast<double>(t.result.spaces_tested) / t.ms
          : 0;
  json << "{\"case\":\"" << c.name << "\""
       << ",\"n\":" << c.algo.index_set().dimension()
       << ",\"k\":" << (c.array_dims + 1)
       << ",\"oracle\":\"kExact\""
       << ",\"mode\":\"" << mode_name(mode) << "\""
       << ",\"threads\":" << (mode == Mode::kFusedParallel ? threads : 1)
       << ",\"ms\":" << t.ms
       << ",\"spaces_tested\":" << t.result.spaces_tested
       << ",\"candidates_per_sec\":" << sps
       << ",\"truncated_spaces\":" << t.result.truncated_spaces
       << ",\"found\":" << (t.result.found ? "true" : "false")
       << ",\"objective\":" << (t.result.found ? t.result.objective : Int{0})
       << ",\"cost\":"
       << (t.result.found ? t.result.cost.total() : Int{0}) << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("SYSMAP_BENCH_SMOKE") != nullptr;
  const std::size_t threads =
      sysmap::bench::parse_threads_or_exit(argc, argv, "e2e_throughput");
  const char* path = std::getenv("SYSMAP_BENCH_JSON");
  std::ofstream json(path ? path : "BENCH_e2e.json");

  // Case mix: square-T sweeps (dims = n-1) are schedule-search-bound --
  // every infeasible space makes the cold path scan the full heuristic
  // objective range, which is exactly what the cross-space incumbent
  // truncates; the unit cube's equal extents give the richest
  // schedule-orbit reuse; the dims = n-2 matmul case takes the ILP +
  // certification route per space, where the fused win comes from the
  // certification sweeps and the packed cost walks only.  Smoke keeps the
  // two cheapest cases.
  std::vector<Case> cases;
  cases.push_back({"matmul_mu12_k3", model::matmul(12), 1, 2});
  cases.push_back({"unit_cube4_mu3_k2", model::unit_cube_algorithm(4, 3), 1, 1});
  if (!smoke) {
    cases.push_back({"transitive_closure_mu12_k3",
                     model::transitive_closure(12), 1, 2});
    cases.push_back({"matmul_mu8_k3_e2", model::matmul(8), 2, 2});
    cases.push_back({"matmul_mu16_k2", model::matmul(16), 1, 1});
  }

  std::cout << "E2E-THROUGHPUT: fused Pi x S co-search vs cold-start scoring ("
            << threads << " parallel threads)\n";
  std::cout << "case                        spaces  cold_ms   fused_ms  "
               "par_ms   fused/cold  truncated\n";

  bool all_parity_ok = true;
  for (const Case& c : cases) {
    int reps = 1;
    if (!smoke) {
      Timing probe = run_mode(c, Mode::kFused, 1, threads);
      reps = probe.ms >= 50 ? 3 : static_cast<int>(50 / (probe.ms + 0.01)) + 3;
    }
    Timing cold = run_mode(c, Mode::kCold, smoke ? 1 : 3, threads);
    Timing fused = run_mode(c, Mode::kFused, reps, threads);
    Timing par = run_mode(c, Mode::kFusedParallel, reps, threads);
    bool ok = identical(cold.result, fused.result) &&
              identical(cold.result, par.result);
    if (!ok) {
      std::cerr << "PARITY VIOLATION in " << c.name << "\n";
      all_parity_ok = false;
      continue;
    }
    double fused_speedup = fused.ms > 0 ? cold.ms / fused.ms : 0;
    double par_speedup = par.ms > 0 ? cold.ms / par.ms : 0;

    std::ostringstream row;
    row.setf(std::ios::fixed);
    row.precision(3);
    row << c.name;
    for (std::size_t p = c.name.size(); p < 28; ++p) row << ' ';
    row << cold.result.spaces_tested << "  " << cold.ms << "  " << fused.ms
        << "  " << par.ms << "  ";
    row.precision(2);
    row << fused_speedup << "x  " << fused.result.truncated_spaces;
    std::cout << row.str() << "\n";

    emit_json(json, c, Mode::kCold, cold, threads);
    emit_json(json, c, Mode::kFused, fused, threads);
    emit_json(json, c, Mode::kFusedParallel, par, threads);
    json << "{\"case\":\"" << c.name << "\",\"threads\":" << threads
         << ",\"fused_vs_cold\":" << fused_speedup
         << ",\"fused_parallel_vs_cold\":" << par_speedup << "}\n";
    json.flush();
  }

  // One obs snapshot per run (obs_enabled:false when compiled out), so
  // BENCH_e2e.json carries the engine counters next to the timings.
  json << sysmap::obs::snapshot_json() << "\n";
  json.flush();

  if (!all_parity_ok) {
    std::cerr << "e2e_throughput: parity violations detected\n";
    return 1;
  }
  std::cout << "parity: all modes bit-identical to the cold oracle\n";
  return 0;
}
