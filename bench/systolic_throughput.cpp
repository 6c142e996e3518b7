// SYSTOLIC-THROUGHPUT -- ablation of the simulator execution engines.
//
// Runs the full systolic simulation (conflict, link-collision and buffer
// passes) for each gallery design at a mu large enough that the seed's
// tree-map bookkeeping dominates, across three modes:
//   seed      the original sort-and-map implementation, verbatim
//   flat      the flat-indexed, time-bucketed engine on one thread
//   parallel  the same engine fanned over the thread pool
// The engine is bit-identical to the seed by construction (every report
// field, the stored event lists in order, buffer high-water marks) -- this
// harness asserts that before reporting any number and exits non-zero on
// any divergence.
//
// Output: a human-readable table on stdout and JSON lines (one object per
// case/mode plus per-case speedup summaries) written to
// $SYSMAP_BENCH_JSON or BENCH_sim.json.  Set SYSMAP_BENCH_SMOKE=1 for a
// single-rep quick pass over the two cheapest cases (CI smoke); pass
// --threads N to size the parallel mode (default 4).
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "model/gallery.hpp"
#include "systolic/array.hpp"
#include "systolic/simulator.hpp"
#include "sysmap.hpp"

using namespace sysmap;
using namespace sysmap::systolic;

namespace {

struct Case {
  std::string name;
  model::UniformDependenceAlgorithm algo;
  ArrayDesign design;
};

struct Timing {
  double ms = 0;
  SimulationReport report;
};

enum class Mode { kSeed, kFlat, kParallel };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kSeed:
      return "seed";
    case Mode::kFlat:
      return "flat";
    case Mode::kParallel:
      return "parallel";
  }
  return "?";
}

Timing run_mode(const Case& c, Mode mode, int reps, std::size_t threads) {
  SimulationOptions opts;
  opts.num_threads = mode == Mode::kParallel ? threads : 1;
  Timing best;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    SimulationReport r = mode == Mode::kSeed
                             ? simulate_seed(c.algo, c.design)
                             : simulate(c.algo, c.design, opts);
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < best.ms) {
      best.ms = ms;
      best.report = std::move(r);
    }
  }
  return best;
}

bool identical(const SimulationReport& a, const SimulationReport& b) {
  if (a.first_cycle != b.first_cycle || a.last_cycle != b.last_cycle ||
      a.makespan != b.makespan || a.computations != b.computations ||
      a.num_processors != b.num_processors ||
      a.total_conflicts != b.total_conflicts ||
      a.total_collisions != b.total_collisions ||
      a.truncated_events != b.truncated_events ||
      a.buffer_high_water != b.buffer_high_water ||
      a.values_checked != b.values_checked ||
      a.values_match != b.values_match ||
      a.conflicts.size() != b.conflicts.size() ||
      a.collisions.size() != b.collisions.size()) {
    return false;
  }
  for (std::size_t e = 0; e < a.conflicts.size(); ++e) {
    const ConflictEvent& p = a.conflicts[e];
    const ConflictEvent& q = b.conflicts[e];
    if (!(p.j1 == q.j1) || !(p.j2 == q.j2) || !(p.pe == q.pe) ||
        p.time != q.time) {
      return false;
    }
  }
  for (std::size_t e = 0; e < a.collisions.size(); ++e) {
    const CollisionEvent& p = a.collisions[e];
    const CollisionEvent& q = b.collisions[e];
    if (!(p.wire_from == q.wire_from) || p.primitive != q.primitive ||
        p.dep != q.dep || p.cycle != q.cycle) {
      return false;
    }
  }
  return a.summary() == b.summary();
}

void emit_json(std::ostream& json, const Case& c, Mode mode, const Timing& t,
               std::size_t threads) {
  double pps =
      t.ms > 0 ? 1000.0 * static_cast<double>(t.report.computations) / t.ms
               : 0;
  json << "{\"case\":\"" << c.name << "\""
       << ",\"oracle\":\"sim\""
       << ",\"mode\":\"" << mode_name(mode) << "\""
       << ",\"threads\":" << (mode == Mode::kParallel ? threads : 1)
       << ",\"ms\":" << t.ms
       << ",\"points\":" << t.report.computations
       << ",\"points_per_sec\":" << pps
       << ",\"conflicts\":" << t.report.total_conflicts
       << ",\"collisions\":" << t.report.total_collisions
       << ",\"makespan\":" << t.report.makespan << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("SYSMAP_BENCH_SMOKE") != nullptr;
  const std::size_t threads =
      sysmap::bench::parse_threads_or_exit(argc, argv, "systolic_throughput");
  const char* path = std::getenv("SYSMAP_BENCH_JSON");
  std::ofstream json(path ? path : "BENCH_sim.json");

  // At these sizes the seed spends nearly all its time in tree-map
  // insertions keyed by VecI (one wire entry per dependence hop, one
  // conflict entry per computation), which is exactly the bookkeeping the
  // flat engine replaces with packed-uint64 open addressing.  The
  // conflicting and transitive-closure cases drown a single PE column in
  // duplicates; the clean case is conflict-free end to end; convolution is
  // the long skewed 2-D box.  Smoke keeps the two cheapest cases only.
  const Int mu = smoke ? 6 : 28;
  std::vector<Case> cases;
  {
    model::UniformDependenceAlgorithm algo = model::matmul(mu);
    cases.push_back({"matmul_clean", algo,
                     design_dedicated_array(
                         algo, mapping::MappingMatrix(MatI{{1, 1, -1}},
                                                      VecI{1, mu, 1}))});
  }
  {
    model::UniformDependenceAlgorithm algo = model::matmul(smoke ? 4 : 20);
    cases.push_back({"matmul_conflicting", algo,
                     design_dedicated_array(
                         algo, mapping::MappingMatrix(MatI{{1, 1, -1}},
                                                      VecI{1, 1, 1}))});
  }
  if (!smoke) {
    {
      model::UniformDependenceAlgorithm algo = model::transitive_closure(20);
      cases.push_back({"transitive_closure", algo,
                       design_dedicated_array(
                           algo, mapping::MappingMatrix(MatI{{0, 0, 1}},
                                                        VecI{5, 1, 1}))});
    }
    {
      model::UniformDependenceAlgorithm algo = model::convolution(192, 96);
      cases.push_back({"convolution", algo,
                       design_dedicated_array(
                           algo, mapping::MappingMatrix(MatI{{1, 0}},
                                                        VecI{1, 193}))});
    }
    {
      model::UniformDependenceAlgorithm algo = model::lu_decomposition(24);
      cases.push_back({"lu_decomposition", algo,
                       design_dedicated_array(
                           algo, mapping::MappingMatrix(MatI{{1, 1, -1}},
                                                        VecI{2, 1, 2}))});
    }
  }

  std::cout << "SYSTOLIC-THROUGHPUT: simulator engines (" << threads
            << " parallel threads)\n";
  std::cout << "case                 points   seed_ms   flat_ms   par_ms   "
               "flat/seed  par/seed\n";

  bool all_parity_ok = true;
  for (const Case& c : cases) {
    int reps = 1;
    if (!smoke) {
      // Calibrate on one flat run so the fast modes repeat long enough to
      // time stably; the seed stays at 3 reps (it is the slow mode).
      Timing probe = run_mode(c, Mode::kFlat, 1, threads);
      reps = probe.ms >= 50 ? 3 : static_cast<int>(50 / (probe.ms + 0.01)) + 3;
    }
    Timing seed = run_mode(c, Mode::kSeed, smoke ? 1 : 3, threads);
    Timing flat = run_mode(c, Mode::kFlat, reps, threads);
    Timing par = run_mode(c, Mode::kParallel, reps, threads);
    bool ok = identical(seed.report, flat.report) &&
              identical(seed.report, par.report);
    if (!ok) {
      std::cerr << "PARITY VIOLATION in " << c.name << "\n";
      all_parity_ok = false;
      continue;
    }
    double flat_speedup = flat.ms > 0 ? seed.ms / flat.ms : 0;
    double par_speedup = par.ms > 0 ? seed.ms / par.ms : 0;

    std::ostringstream row;
    row.setf(std::ios::fixed);
    row.precision(3);
    row << c.name;
    for (std::size_t p = c.name.size(); p < 21; ++p) row << ' ';
    row << seed.report.computations << "  " << seed.ms << "  " << flat.ms
        << "  " << par.ms << "  ";
    row.precision(2);
    row << flat_speedup << "x  " << par_speedup << "x";
    std::cout << row.str() << "\n";

    emit_json(json, c, Mode::kSeed, seed, threads);
    emit_json(json, c, Mode::kFlat, flat, threads);
    emit_json(json, c, Mode::kParallel, par, threads);
    json << "{\"case\":\"" << c.name << "\",\"threads\":" << threads
         << ",\"flat_vs_seed\":" << flat_speedup
         << ",\"parallel_vs_seed\":" << par_speedup << "}\n";
    json.flush();
  }
  json << sysmap::obs::snapshot_json() << "\n";
  json.flush();
  return all_parity_ok ? 0 : 1;
}
