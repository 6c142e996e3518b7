// SEARCH-THROUGHPUT -- ablation of the serial Procedure 5.1 engine.
//
// Runs Procedure 5.1 END TO END (enumeration, dependence screen, rank
// test, conflict oracle, first-hit-optimal abort) for each gallery
// workload and oracle, across three serial modes:
//   seed        from-scratch scan (no FixedSpaceContext)
//   ctx         scan + fixed-S context (the production engine)
//   ctx_cache   ctx + a canonical-form verdict cache kept across the
//               repetitions, so the best repetition runs warm; this
//               measures the cache on its own, with no threads involved
// All modes are bit-identical by construction -- this harness asserts pi,
// objective, verdict rule and candidate statistics agree before reporting
// any number -- and a final multi-S sweep shares one cache across scaled
// and permuted space parts to demonstrate (and assert) cross-search hits.
//
// Output: a human-readable table on stdout and JSON lines (one object per
// case/oracle/mode with the cache counters, plus speedup summary objects)
// written to $SYSMAP_BENCH_JSON or BENCH_search.json.  Set
// SYSMAP_BENCH_SMOKE=1 for a single-rep quick pass (CI smoke).  Takes no
// arguments (any argument prints the usage line and exits 2).
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "search/verdict_cache.hpp"
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

struct Timing {
  double ms = 0;
  search::SearchResult result;
};

enum class Mode { kSeed, kCtx, kCtxCache };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kSeed:
      return "seed";
    case Mode::kCtx:
      return "ctx";
    case Mode::kCtxCache:
      return "ctx_cache";
  }
  return "?";
}

Timing run_mode(const Case& c, search::ConflictOracle oracle, Mode mode,
                int reps, search::VerdictCache* cache = nullptr) {
  search::SearchOptions opts;
  opts.oracle = oracle;
  opts.use_fixed_space_context = mode != Mode::kSeed;
  if (mode == Mode::kCtxCache) opts.verdict_cache = cache;
  Timing best;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    search::SearchResult r = search::procedure_5_1(c.algo, c.space, opts);
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < best.ms) {
      best.ms = ms;
      best.result = std::move(r);
    }
  }
  return best;
}

bool identical(const search::SearchResult& a, const search::SearchResult& b) {
  return a.found == b.found && a.pi == b.pi && a.objective == b.objective &&
         a.makespan == b.makespan && a.verdict.status == b.verdict.status &&
         a.verdict.rule == b.verdict.rule &&
         a.candidates_tested == b.candidates_tested &&
         a.candidates_passed_dependence == b.candidates_passed_dependence;
}

void emit_json(std::ostream& json, const Case& c,
               search::ConflictOracle oracle, Mode mode, const Timing& t) {
  double cps =
      t.ms > 0
          ? 1000.0 * static_cast<double>(t.result.candidates_tested) / t.ms
          : 0;
  json << "{\"case\":\"" << c.name << "\""
       << ",\"n\":" << c.algo.index_set().dimension()
       << ",\"k\":" << (c.space.rows() + 1) << ",\"oracle\":\""
       << oracle_name(oracle) << "\""
       << ",\"mode\":\"" << mode_name(mode) << "\""
       << ",\"ms\":" << t.ms
       << ",\"candidates_tested\":" << t.result.candidates_tested
       << ",\"passed_dependence\":" << t.result.candidates_passed_dependence
       << ",\"candidates_per_sec\":" << cps
       << ",\"cache_hits\":" << t.result.cache_hits
       << ",\"cache_misses\":" << t.result.cache_misses
       << ",\"found\":" << (t.result.found ? "true" : "false")
       << ",\"objective\":" << t.result.objective << "}\n";
}

}  // namespace

int main(int argc, char**) {
  if (argc > 1) {
    std::cerr << "usage: search_throughput\n";
    return 2;
  }
  const bool smoke = std::getenv("SYSMAP_BENCH_SMOKE") != nullptr;
  const char* path = std::getenv("SYSMAP_BENCH_JSON");
  std::ofstream json(path ? path : "BENCH_search.json");

  // k = n-1 cases hit the Prop 3.2 closed form; the unit-cube cases keep k <= n-2 so the HNF warm
  // start, the exact ladder and the kernel-basis cache keys are
  // exercised.  The larger-mu cases push the first feasible conflict
  // vector to higher objective levels, so many more candidates reach the
  // oracle before the optimum -- the regime every engine here targets.
  // The mu=4 cases are deliberately tiny: there the sweep is
  // enumeration-bound and the engines can at best break even (Amdahl),
  // which the table reports honestly.
  std::vector<Case> cases;
  cases.push_back({"matmul_mu4", model::matmul(4), MatI{{1, 1, -1}}, true});
  cases.push_back({"transitive_closure_mu4", model::transitive_closure(4),
                   MatI{{0, 0, 1}}, true});
  cases.push_back({"lu_decomposition_mu4", model::lu_decomposition(4),
                   MatI{{1, 1, -1}}, true});
  cases.push_back({"convolution_mu24_k1", model::convolution(24, 3),
                   MatI(0, 2), true});
  cases.push_back({"unit_cube_4d_mu3_k2", model::unit_cube_algorithm(4, 3),
                   MatI{{1, 0, 0, 0}}, false});
  if (!smoke) {
    cases.push_back(
        {"matmul_mu16", model::matmul(16), MatI{{1, 1, -1}}, false});
    cases.push_back({"lu_decomposition_mu16", model::lu_decomposition(16),
                     MatI{{1, 1, -1}}, false});
    cases.push_back({"convolution_2d_mu4_k3", model::convolution_2d(4, 4, 4, 4),
                     MatI{{1, 0, 0, 0}, {0, 1, 0, 0}}, false});
    cases.push_back({"unit_cube_5d_mu2_k3", model::unit_cube_algorithm(5, 2),
                     MatI{{1, 0, 0, 0, 0}, {0, 1, 0, 0, 0}}, false});
  }

  const std::vector<search::ConflictOracle> oracles = {
      search::ConflictOracle::kPaperTheorems,
      search::ConflictOracle::kExact,
      search::ConflictOracle::kBruteForce,
  };

  std::cout << "SEARCH-THROUGHPUT: end-to-end procedure_5_1 engines "
               "(serial)\n";
  std::cout << "case                      oracle          cands     seed_ms  "
               "ctx_ms   cache_ms  ctx/seed  cache/ctx  hits/misses\n";

  bool all_parity_ok = true;
  for (const Case& c : cases) {
    for (search::ConflictOracle oracle : oracles) {
      if (oracle == search::ConflictOracle::kBruteForce && !c.brute_force_ok) {
        continue;
      }
      int reps = 1;
      if (!smoke) {
        // Calibrate on one ctx run so every mode repeats long enough to
        // time stably, then keep the count identical across modes.
        Timing probe = run_mode(c, oracle, Mode::kCtx, 1);
        reps = probe.ms >= 50
                   ? 3
                   : static_cast<int>(50 / (probe.ms + 0.01)) + 3;
      }
      Timing seed = run_mode(c, oracle, Mode::kSeed, reps);
      Timing ctx = run_mode(c, oracle, Mode::kCtx, reps);
      search::VerdictCache cache;
      Timing cached = run_mode(c, oracle, Mode::kCtxCache, reps, &cache);
      bool ok = identical(seed.result, ctx.result) &&
                identical(seed.result, cached.result);
      if (!ok) {
        std::cerr << "PARITY VIOLATION in " << c.name << "/"
                  << oracle_name(oracle) << "\n";
        all_parity_ok = false;
        continue;
      }
      double ctx_speedup = ctx.ms > 0 ? seed.ms / ctx.ms : 0;
      double cache_speedup = cached.ms > 0 ? ctx.ms / cached.ms : 0;

      std::ostringstream row;
      row.setf(std::ios::fixed);
      row.precision(3);
      row << c.name;
      for (std::size_t p = c.name.size(); p < 26; ++p) row << ' ';
      row << oracle_name(oracle);
      for (std::size_t p = oracle_name(oracle).size(); p < 16; ++p) row << ' ';
      row << seed.result.candidates_tested << "/"
          << seed.result.candidates_passed_dependence << "  " << seed.ms
          << "  " << ctx.ms << "  " << cached.ms << "  ";
      row.precision(2);
      row << ctx_speedup << "x  " << cache_speedup << "x  "
          << cached.result.cache_hits << "/" << cached.result.cache_misses;
      std::cout << row.str() << "\n";

      emit_json(json, c, oracle, Mode::kSeed, seed);
      emit_json(json, c, oracle, Mode::kCtx, ctx);
      emit_json(json, c, oracle, Mode::kCtxCache, cached);
      json << "{\"case\":\"" << c.name << "\",\"oracle\":\""
           << oracle_name(oracle) << "\""
           << ",\"ctx_vs_seed\":" << ctx_speedup
           << ",\"ctx_cache_vs_ctx\":" << cache_speedup << "}\n";
      json.flush();
    }
  }

  // Multi-S sweep: one shared cache across space parts that present the
  // same canonical conflict forms (scaled rows and sign-flipped columns
  // give identical primitive conflict rays).  The later searches must run
  // hot -- an all-miss sweep means the canonical keys regressed, so it
  // fails the bench just like a parity violation.
  {
    model::UniformDependenceAlgorithm algo =
        smoke ? model::matmul(6) : model::matmul(12);
    const std::vector<MatI> spaces = {
        MatI{{1, 1, -1}}, MatI{{2, 2, -2}}, MatI{{3, 3, -3}},
        MatI{{-1, -1, 1}}, MatI{{4, 4, -4}},
    };
    search::VerdictCache cache;
    search::SearchOptions opts;
    opts.verdict_cache = &cache;
    std::uint64_t sweep_hits = 0;
    std::uint64_t sweep_misses = 0;
    auto t0 = std::chrono::steady_clock::now();
    bool sweep_parity = true;
    for (const MatI& space : spaces) {
      search::SearchResult r = search::procedure_5_1(algo, space, opts);
      search::SearchResult plain = search::procedure_5_1(algo, space, {});
      sweep_parity = sweep_parity && identical(plain, r);
      sweep_hits += r.cache_hits;
      sweep_misses += r.cache_misses;
    }
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    std::cout << "multi_S_sweep             shared cache    " << sweep_hits
              << " hits / " << sweep_misses << " misses over "
              << spaces.size() << " spaces\n";
    json << "{\"sweep\":\"multi_s\",\"spaces\":" << spaces.size()
         << ",\"ms\":" << ms
         << ",\"cache_hits\":" << sweep_hits
         << ",\"cache_misses\":" << sweep_misses
         << ",\"parity\":" << (sweep_parity ? "true" : "false") << "}\n";
    if (!sweep_parity || sweep_hits == 0) {
      std::cerr << (sweep_parity ? "NO CACHE HITS in multi-S sweep"
                                 : "PARITY VIOLATION in multi-S sweep")
                << "\n";
      all_parity_ok = false;
    }
  }
  json << sysmap::obs::snapshot_json() << "\n";
  json.flush();
  return all_parity_ok ? 0 : 1;
}
