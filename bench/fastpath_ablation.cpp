// FASTPATH -- ablation of the machine-word (CheckedInt) fast path of the
// exact kernel.
//
// For each gallery workload, materializes the candidate schedules Pi that
// Procedure 5.1 actually visits (in objective order, dependence-feasible),
// then times the per-candidate verdict work of Step 5 -- the rank test
// plus one conflict oracle (kPaperTheorems, kExact, kBruteForce) -- with
// the fast path enabled (default: CheckedInt first, transparent BigInt
// restart on overflow) and forced onto the BigInt-only baseline.  Both
// modes produce bit-identical verdicts (asserted here and in
// tests/fastpath_test.cpp); the difference is wall-clock only.  Timing the
// oracle in isolation keeps the shared search overhead (candidate
// enumeration, dependence screening) from diluting the comparison.
//
// Each 3-D case also gets one row for the Section 5 ILP route: both sign
// modes of search::solve_k_equals_n_minus_1 per pass, whose simplex,
// branch and bound and vertex enumeration run over CheckedRational with a
// whole-call BigInt restart, against the Rational-only route.  Every field
// of the two results must match.
//
// Output: a human-readable table on stdout and one JSON object per
// (case, oracle, mode) plus one speedup summary line per (case, oracle),
// written to $SYSMAP_BENCH_JSON or BENCH_fastpath.json in the working
// directory; the ILP rows use oracle "ilp_route".  Exits 1 on any parity
// violation.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sysmap.hpp"

using namespace sysmap;

namespace {

struct Case {
  std::string name;
  model::UniformDependenceAlgorithm algo;
  MatI space;
  bool brute_force_ok;  // brute force rescans J per candidate: small J only
};

std::string oracle_name(search::ConflictOracle oracle) {
  switch (oracle) {
    case search::ConflictOracle::kPaperTheorems:
      return "kPaperTheorems";
    case search::ConflictOracle::kExact:
      return "kExact";
    case search::ConflictOracle::kBruteForce:
      return "kBruteForce";
  }
  return "?";
}

// Step 5(3) of Procedure 5.1, same ladder as the search drivers.
mapping::ConflictVerdict run_oracle(search::ConflictOracle oracle,
                                    const mapping::MappingMatrix& t,
                                    const model::IndexSet& set) {
  switch (oracle) {
    case search::ConflictOracle::kPaperTheorems: {
      const std::size_t n = t.n();
      const std::size_t k = t.k();
      if (k == n) {
        mapping::ConflictVerdict out;
        out.status = t.has_full_rank()
                         ? mapping::ConflictVerdict::Status::kConflictFree
                         : mapping::ConflictVerdict::Status::kHasConflict;
        out.rule = "square T: rank test";
        return out;
      }
      if (k + 1 == n) return mapping::theorem_3_1(t, set);
      if (k + 2 == n) return mapping::theorem_4_7(t, set);
      if (k + 3 == n) return mapping::theorem_4_8(t, set);
      return mapping::theorem_4_5(t, set);
    }
    case search::ConflictOracle::kBruteForce:
      return baseline::brute_force_conflicts(t, set);
    case search::ConflictOracle::kExact:
    default:
      return mapping::decide_conflict_free(t, set);
  }
}

// The dependence-feasible candidates of the first objective levels, in
// the exact order the serial search visits them.
std::vector<mapping::MappingMatrix> materialize_candidates(
    const Case& c, std::size_t target) {
  const model::IndexSet& set = c.algo.index_set();
  const MatI& d = c.algo.dependence_matrix();
  std::vector<mapping::MappingMatrix> out;
  for (Int f = 1; out.size() < target && f < 10000; ++f) {
    search::enumerate_schedules_at(set, f, [&](const VecI& pi) {
      if (schedule::LinearSchedule(pi).respects_dependences(d)) {
        out.emplace_back(c.space, pi);
      }
      return out.size() < target;
    });
  }
  return out;
}

// One timed pass: the Step-5 verdict work for every candidate.
std::uint64_t verdict_pass(const std::vector<mapping::MappingMatrix>& cands,
                           search::ConflictOracle oracle,
                           const model::IndexSet& set) {
  std::uint64_t accepted = 0;
  for (const mapping::MappingMatrix& t : cands) {
    if (!t.has_full_rank()) continue;
    mapping::ConflictVerdict v = run_oracle(oracle, t, set);
    if (v.status == mapping::ConflictVerdict::Status::kConflictFree) {
      ++accepted;
    }
  }
  return accepted;
}

// Best-of-`reps` wall time of one pass in one mode, with the pass's result
// and the fast-path counters of that best rep.
template <typename Result>
struct Timing {
  double ms_per_pass = 0;
  Result result{};
  std::uint64_t attempts = 0;
  std::uint64_t fallbacks = 0;
};

template <typename Pass>
auto run_mode(bool fast, int reps, Pass&& pass) -> Timing<decltype(pass())> {
  exact::FastpathGuard guard(fast);
  Timing<decltype(pass())> best;
  for (int rep = 0; rep < reps; ++rep) {
    exact::reset_fastpath_stats();
    auto t0 = std::chrono::steady_clock::now();
    auto result = pass();
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < best.ms_per_pass) {
      exact::FastpathStats stats = exact::fastpath_stats();
      best.ms_per_pass = ms;
      best.result = std::move(result);
      best.attempts = stats.attempts;
      best.fallbacks = stats.fallbacks;
    }
  }
  return best;
}

// Repetitions that make one mode run for about 50 ms, calibrated on one
// BigInt-only pass (1 in smoke mode).
template <typename Pass>
int calibrated_reps(bool smoke, Pass&& pass) {
  if (smoke) return 1;
  exact::FastpathGuard guard(false);
  auto t0 = std::chrono::steady_clock::now();
  pass();
  auto t1 = std::chrono::steady_clock::now();
  double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return ms >= 50 ? 3 : static_cast<int>(50 / (ms + 0.01)) + 3;
}

// One pass of the Section 5 route for k = n-1: both sign modes.
std::vector<search::IlpMappingResult> ilp_pass(const Case& c) {
  return {search::solve_k_equals_n_minus_1(c.algo, c.space,
                                           search::SignMode::kPositive),
          search::solve_k_equals_n_minus_1(c.algo, c.space,
                                           search::SignMode::kOrthants)};
}

bool same_route(const std::vector<search::IlpMappingResult>& a,
                const std::vector<search::IlpMappingResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].found != b[i].found || a[i].pi != b[i].pi ||
        a[i].objective != b[i].objective ||
        a[i].lower_bound != b[i].lower_bound ||
        a[i].rejected != b[i].rejected || a[i].ilp_nodes != b[i].ilp_nodes) {
      return false;
    }
  }
  return true;
}

void print_row(const std::string& name, const std::string& oracle,
               std::size_t count, double slow_ms, double fast_ms,
               double speedup, std::uint64_t fallbacks,
               std::uint64_t attempts) {
  std::ostringstream row;
  row.setf(std::ios::fixed);
  row.precision(3);
  row << name;
  for (std::size_t p = name.size(); p < 26; ++p) row << ' ';
  row << oracle;
  for (std::size_t p = oracle.size(); p < 16; ++p) row << ' ';
  row << count << "  " << slow_ms << "  " << fast_ms << "  ";
  row.precision(2);
  row << speedup << "x  " << fallbacks << "/" << attempts;
  std::cout << row.str() << "\n";
}

}  // namespace

int main() {
  // SYSMAP_BENCH_SMOKE=1: single-rep quick pass over fewer candidates,
  // used by CI to exercise the harness (incl. the parity assertion)
  // without paying for stable timings.
  const bool smoke = std::getenv("SYSMAP_BENCH_SMOKE") != nullptr;
  const char* path = std::getenv("SYSMAP_BENCH_JSON");
  std::ofstream json(path ? path : "BENCH_fastpath.json");

  std::vector<Case> cases;
  cases.push_back({"matmul_mu4", model::matmul(4), MatI{{1, 1, -1}}, true});
  cases.push_back({"matmul_mu6", model::matmul(6), MatI{{1, 1, -1}}, false});
  cases.push_back({"transitive_closure_mu4", model::transitive_closure(4),
                   MatI{{0, 0, 1}}, true});
  cases.push_back({"lu_decomposition_mu4", model::lu_decomposition(4),
                   MatI{{1, 1, -1}}, true});
  cases.push_back({"convolution_2d_mu2", model::convolution_2d(2, 2, 2, 2),
                   MatI{{1, 0, 0, 0}, {0, 1, 0, 0}}, false});
  cases.push_back({"unit_cube_4d_mu3", model::unit_cube_algorithm(4, 3),
                   MatI{{1, 0, 0, 0}, {0, 1, 0, 0}}, false});
  cases.push_back({"unit_cube_5d_mu2", model::unit_cube_algorithm(5, 2),
                   MatI{{1, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 0, 1, 0, 0}},
                   false});

  const std::vector<search::ConflictOracle> oracles = {
      search::ConflictOracle::kPaperTheorems,
      search::ConflictOracle::kExact,
      search::ConflictOracle::kBruteForce,
  };

  std::cout << "FASTPATH ablation: Step-5 verdicts (rank test + oracle) "
               "per candidate batch, fast path vs BigInt-only\n";
  std::cout << "case                      oracle          cands  bigint_ms  "
               "fast_ms  speedup  fallbacks/attempts\n"
               "(ilp_route rows: cands column = branch-and-bound nodes)\n";

  for (const Case& c : cases) {
    std::vector<mapping::MappingMatrix> cands =
        materialize_candidates(c, smoke ? 20 : 200);
    const model::IndexSet& set = c.algo.index_set();
    for (search::ConflictOracle oracle : oracles) {
      if (oracle == search::ConflictOracle::kBruteForce && !c.brute_force_ok) {
        continue;
      }
      // Calibrate rep count on one BigInt pass so each mode runs long
      // enough to time stably, then keep it identical across modes.
      auto pass = [&] { return verdict_pass(cands, oracle, set); };
      const int reps = calibrated_reps(smoke, pass);
      Timing<std::uint64_t> slow = run_mode(/*fast=*/false, reps, pass);
      Timing<std::uint64_t> fast = run_mode(/*fast=*/true, reps, pass);
      if (fast.result != slow.result) {
        std::cerr << "PARITY VIOLATION in " << c.name << "/"
                  << oracle_name(oracle) << "\n";
        return 1;
      }
      double speedup =
          fast.ms_per_pass > 0 ? slow.ms_per_pass / fast.ms_per_pass : 0;

      print_row(c.name, oracle_name(oracle), cands.size(), slow.ms_per_pass,
                fast.ms_per_pass, speedup, fast.fallbacks, fast.attempts);

      for (bool mode_fast : {false, true}) {
        const auto& t = mode_fast ? fast : slow;
        json << "{\"case\":\"" << c.name << "\""
             << ",\"n\":" << set.dimension() << ",\"oracle\":\""
             << oracle_name(oracle) << "\""
             << ",\"fastpath\":" << (mode_fast ? "true" : "false")
             << ",\"candidates\":" << cands.size()
             << ",\"ms_per_pass\":" << t.ms_per_pass
             << ",\"accepted\":" << t.result
             << ",\"fastpath_attempts\":" << t.attempts
             << ",\"fastpath_fallbacks\":" << t.fallbacks << "}\n";
      }
      json << "{\"case\":\"" << c.name << "\",\"oracle\":\""
           << oracle_name(oracle) << "\",\"speedup\":" << speedup << "}\n";
      json.flush();
    }
    if (set.dimension() != 3) continue;

    // The Section 5 ILP route (k = n-1 for these 1 x 3 spaces).
    auto pass = [&] { return ilp_pass(c); };
    const int reps = calibrated_reps(smoke, pass);
    auto slow = run_mode(/*fast=*/false, reps, pass);
    auto fast = run_mode(/*fast=*/true, reps, pass);
    if (!same_route(fast.result, slow.result)) {
      std::cerr << "PARITY VIOLATION in " << c.name << "/ilp_route\n";
      return 1;
    }
    double speedup =
        fast.ms_per_pass > 0 ? slow.ms_per_pass / fast.ms_per_pass : 0;
    std::uint64_t nodes = 0;
    for (const search::IlpMappingResult& r : fast.result) nodes += r.ilp_nodes;
    print_row(c.name, "ilp_route", nodes, slow.ms_per_pass, fast.ms_per_pass,
              speedup, fast.fallbacks, fast.attempts);
    for (bool mode_fast : {false, true}) {
      const auto& t = mode_fast ? fast : slow;
      json << "{\"case\":\"" << c.name << "\""
           << ",\"n\":" << set.dimension() << ",\"oracle\":\"ilp_route\""
           << ",\"fastpath\":" << (mode_fast ? "true" : "false")
           << ",\"ilp_nodes\":" << nodes
           << ",\"ms_per_pass\":" << t.ms_per_pass
           << ",\"objective\":" << t.result.front().objective
           << ",\"fastpath_attempts\":" << t.attempts
           << ",\"fastpath_fallbacks\":" << t.fallbacks << "}\n";
    }
    json << "{\"case\":\"" << c.name
         << "\",\"oracle\":\"ilp_route\",\"speedup\":" << speedup << "}\n";
    json.flush();
  }
  json << sysmap::obs::snapshot_json() << "\n";
  json.flush();
  return 0;
}
