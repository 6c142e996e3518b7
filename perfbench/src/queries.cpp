#include "queries.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "exact/checked.hpp"
#include "exact/fastpath.hpp"
#include "lattice/hnf.hpp"
#include "mapping/conflict.hpp"
#include "mapping/mapping_matrix.hpp"
#include "schedule/linear_schedule.hpp"
#include "search/enumerate.hpp"
#include "search/fixed_space.hpp"
#include "search/ilp_formulation.hpp"
#include "search/procedure51.hpp"
#include "search/verdict_cache.hpp"
#include "systolic/array.hpp"

namespace perfbench {

namespace {

search::SpaceSearchOptions joint_options(const Draw& draw,
                                         std::size_t threads) {
  search::SpaceSearchOptions o;
  o.max_entry = draw.max_entry;
  o.array_dims = draw.array_dims;
  o.num_threads = threads;
  return o;
}

// The bound procedure_5_1 resolves when called with max_objective = 0.
Int heuristic_max_objective(const sysmap::model::IndexSet& set) {
  Int mu_max = 0;
  Int mu_sum = 0;
  for (std::size_t i = 0; i < set.dimension(); ++i) {
    mu_max = std::max(mu_max, set.mu(i));
    mu_sum = sysmap::exact::add_checked(mu_sum, set.mu(i));
  }
  return sysmap::exact::mul_checked(
      4, sysmap::exact::mul_checked(mu_max + 1, mu_sum));
}

template <typename V>
void put(std::ostream& o, const V& v) {
  o << '[';
  for (std::size_t i = 0; i < v.size(); ++i) o << (i ? " " : "") << v[i];
  o << ']';
}

void put(std::ostream& o, const MatI& m) {
  o << '[';
  for (std::size_t i = 0; i < m.rows(); ++i) {
    o << (i ? ";" : "");
    for (std::size_t j = 0; j < m.cols(); ++j) o << (j ? " " : "") << m(i, j);
  }
  o << ']';
}

void put(std::ostream& o, const mapping::ConflictVerdict& v) {
  o << "verdict=" << static_cast<int>(v.status) << '|' << v.rule << '|';
  if (v.witness) put(o, *v.witness);
}

void put(std::ostream& o, const systolic::ArrayDesign& a) {
  o << "T=";
  put(o, a.t.matrix());
  o << " P=";
  put(o, a.p);
  o << " K=";
  put(o, a.k);
  o << " delays=";
  put(o, a.delays);
  o << " hops=";
  put(o, a.hops);
  o << " buffers=";
  put(o, a.buffers);
  o << " pes=" << a.num_processors();
}

void record_simulation(LayerCounts& c, const systolic::SimulationReport& r) {
  ++c.simulations;
  c.sim_points += r.computations;
  c.sim_conflicts += r.total_conflicts;
  c.sim_collisions += r.total_collisions;
  if (r.clean()) ++c.sim_clean;
}

void record_cache(LayerCounts& c, const search::VerdictCache& cache) {
  const search::VerdictCache::Stats s = cache.stats();
  c.cache_hits += s.hits;
  c.cache_misses += s.misses;
  c.cache_entries += s.entries;
  ++c.caches;
}

// Adds the exact kernel's fast-path counters that move while it lives
// (the query span only, not the replays) to the layer counts.
class FastpathDelta {
 public:
  explicit FastpathDelta(LayerCounts& c)
      : counts_(c), start_(sysmap::exact::fastpath_stats()) {}
  ~FastpathDelta() {
    const sysmap::exact::FastpathStats now = sysmap::exact::fastpath_stats();
    counts_.fastpath_attempts += now.attempts - start_.attempts;
    counts_.fastpath_restarts += now.fallbacks - start_.fallbacks;
  }
  FastpathDelta(const FastpathDelta&) = delete;
  FastpathDelta& operator=(const FastpathDelta&) = delete;

 private:
  LayerCounts& counts_;
  sysmap::exact::FastpathStats start_;
};

// One Procedure-5.1 call of a traced query, kept for its replay.
struct Sweep {
  Int min_objective = 0;
  Int max_objective = 0;
  search::SearchResult result;
};

// Replays one sweep's candidate levels in two spans: enumeration alone
// (for_each_schedule_at), then the Pi D > 0 test and the fixed-S screen
// on the enumerated candidates.  The replay stops at the sweep's winner,
// so it must visit exactly the candidates the sweep reported.
void replay_sweep(Tracer& tracer, const Algo& algo,
                  const search::FixedSpaceContext& ctx, const Sweep& sweep) {
  const sysmap::model::IndexSet& set = algo.index_set();
  const std::size_t n = set.dimension();
  const search::SearchResult& r = sweep.result;
  const Int stride = search::objective_level_stride(set);
  const Int last = r.found ? r.objective : sweep.max_objective;
  std::vector<Int> flat;
  {
    Tracer::Scope span(tracer, "search.enumerate", /*replay=*/true);
    for (Int f = std::max<Int>(sweep.min_objective, 1); f <= last; ++f) {
      if (f % stride != 0) continue;
      search::for_each_schedule_at(set, f, [&](const VecI& pi) {
        flat.insert(flat.end(), pi.begin(), pi.end());
        return !(r.found && f == r.objective && pi == r.pi);
      });
    }
  }
  const std::size_t count = flat.size() / n;
  if (count != r.candidates_tested) {
    throw std::logic_error("replay enumerated " + std::to_string(count) +
                           " candidates, procedure_5_1 tested " +
                           std::to_string(r.candidates_tested));
  }
  search::VerdictCache cache;
  std::uint64_t passed = 0;
  {
    Tracer::Scope span(tracer, "search.screen", /*replay=*/true);
    VecI pi(n);
    for (std::size_t i = 0; i < count; ++i) {
      std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(i * n), n,
                  pi.begin());
      if (!sysmap::schedule::respects_dependences(
              pi, algo.dependence_matrix())) {
        continue;
      }
      ++passed;
      (void)ctx.screen(search::ConflictOracle::kExact, pi, &cache);
    }
  }
  if (passed != r.candidates_passed_dependence) {
    throw std::logic_error("replay passed " + std::to_string(passed) +
                           " candidates, procedure_5_1 passed " +
                           std::to_string(r.candidates_passed_dependence));
  }
}

void replay_hnf(Tracer& tracer, LayerCounts& c, const mapping::MappingMatrix& t) {
  Tracer::Scope span(tracer, "lattice.hnf", /*replay=*/true);
  (void)sysmap::lattice::hermite_normal_form(t.matrix());
  ++c.hnf_calls;
}

}  // namespace

search::MappingSolution solve_query(const Algo& algo, const MatI& space) {
  search::PipelineOptions options;
  options.simulate = true;
  search::MappingPipeline pipeline(options);
  pipeline.enable_fusion({});
  return pipeline.score(algo, space);
}

VerifyAnswer verify_query(const Algo& algo, const MatI& space,
                          const VecI& pi) {
  VerifyAnswer a;
  a.dependences_ok = sysmap::schedule::LinearSchedule(pi).respects_dependences(
      algo.dependence_matrix());
  if (!a.dependences_ok) return a;
  const mapping::MappingMatrix t(space, pi);
  a.rank_ok = t.has_full_rank();
  if (!a.rank_ok) return a;
  a.verdict = mapping::decide_conflict_free(t, algo.index_set());
  a.design = systolic::design_dedicated_array(algo, t);
  a.simulation = systolic::simulate(algo, *a.design);
  return a;
}

search::JointMappingResult joint_query(const Algo& algo, const Draw& draw) {
  return search::joint_time_optimal_mapping(algo, joint_options(draw, 1));
}

std::string digest(const search::MappingSolution& s) {
  std::ostringstream o;
  o << "found=" << s.found << " pi=";
  put(o, s.pi);
  o << " objective=" << s.objective << " makespan=" << s.makespan << ' ';
  put(o, s.verdict);
  o << " method=" << s.method_used << " candidates=" << s.candidates_tested
    << " ilp_nodes=" << s.ilp_nodes;
  if (s.array) {
    o << ' ';
    put(o, *s.array);
  }
  return o.str();
}

std::string digest(const systolic::SimulationReport& r) {
  std::ostringstream o;
  o << "cycles=" << r.first_cycle << ".." << r.last_cycle
    << " makespan=" << r.makespan << " computations=" << r.computations
    << " pes=" << r.num_processors << " conflicts=" << r.total_conflicts
    << " collisions=" << r.total_collisions
    << " truncated=" << r.truncated_events << " values=" << r.values_checked
    << r.values_match << " buffers=";
  put(o, r.buffer_high_water);
  for (const systolic::ConflictEvent& e : r.conflicts) {
    o << " c:";
    put(o, e.j1);
    put(o, e.j2);
    put(o, e.pe);
    o << '@' << e.time;
  }
  for (const systolic::CollisionEvent& e : r.collisions) {
    o << " x:";
    put(o, e.wire_from);
    o << '/' << e.primitive << '/' << e.dep << '@' << e.cycle;
  }
  return o.str();
}

std::string digest(const VerifyAnswer& a) {
  std::ostringstream o;
  o << "dep=" << a.dependences_ok << " rank=" << a.rank_ok << ' ';
  put(o, a.verdict);
  if (a.design) {
    o << ' ';
    put(o, *a.design);
  }
  if (a.simulation) o << " sim{" << digest(*a.simulation) << '}';
  return o.str();
}

std::string digest(const search::JointMappingResult& j) {
  std::ostringstream o;
  o << "found=" << j.found << " S=";
  put(o, j.space);
  o << " pi=";
  put(o, j.pi);
  o << " objective=" << j.objective << " makespan=" << j.makespan << ' ';
  put(o, j.verdict);
  o << " cost=" << j.cost.processors << '+' << j.cost.wire_length
    << " spaces=" << j.spaces_tested;
  return o.str();
}

std::uint64_t fingerprint(const std::string& digest) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
  for (unsigned char ch : digest) {
    h ^= ch;
    h *= 0x100000001B3ULL;
  }
  return h;
}

search::MappingSolution solve_traced(Tracer& tracer, LayerCounts& c,
                                     const Algo& algo, const MatI& space) {
  const sysmap::model::IndexSet& set = algo.index_set();
  const std::size_t n = algo.dimension();
  const std::size_t k = space.rows() + 1;
  search::MappingSolution sol;
  search::VerdictCache cache;  // what enable_fusion({}) gives a fresh pipeline
  std::optional<search::FixedSpaceContext> ctx;
  std::vector<Sweep> sweeps;

  auto context = [&]() -> const search::FixedSpaceContext* {
    if (!ctx) {
      Tracer::Scope span(tracer, "search.context");
      ctx.emplace(set, space);
    }
    return &*ctx;
  };
  auto sweep = [&](Int min_objective, Int max_objective) {
    search::SearchOptions o;
    o.min_objective = min_objective;
    o.max_objective = max_objective;
    o.verdict_cache = &cache;
    o.context = context();
    Sweep s{min_objective, max_objective, {}};
    {
      Tracer::Scope span(tracer, "search.procedure51");
      s.result = search::procedure_5_1(algo, space, o);
    }
    ++c.proc51_calls;
    c.proc51_candidates += s.result.candidates_tested;
    c.proc51_passed_dependence += s.result.candidates_passed_dependence;
    sweeps.push_back(s);
    return s.result;
  };
  auto verdict = [&](const VecI& pi) {
    Tracer::Scope span(tracer, "mapping.verdict");
    mapping::ConflictVerdict v =
        mapping::decide_conflict_free(mapping::MappingMatrix(space, pi), set);
    ++c.verdict_calls;
    if (!v.conflict_free()) ++c.verdict_conflicts;
    return v;
  };
  auto ilp = [&](search::SignMode mode) {
    search::IlpMappingResult r;
    {
      Tracer::Scope span(tracer, "opt.ilp");
      r = search::solve_k_equals_n_minus_1(algo, space, mode);
    }
    ++c.ilp_calls;
    c.ilp_nodes += r.ilp_nodes;
    c.ilp_rejected += r.rejected.size();
    return r;
  };

  ++c.queries;
  {
    Tracer::Scope root(tracer, "query");
    const FastpathDelta fastpath(c);
    bool resolved = false;
    if (k + 1 == n) {
      // Section 5's route: ILP candidate and lower bound, then a bounded
      // Procedure-5.1 certification sweep over the gap.
      search::IlpMappingResult r = ilp(search::SignMode::kPositive);
      if (!r.found) r = ilp(search::SignMode::kOrthants);
      sol.ilp_nodes = r.ilp_nodes;
      if (r.found) {
        resolved = true;
        sol.found = true;
        if (r.objective == r.lower_bound) {
          ++c.route_ilp_tight;
          sol.pi = r.pi;
          sol.objective = r.objective;
          sol.verdict = verdict(r.pi);
          sol.method_used = "ILP (5.1)-(5.2), bound-tight";
        } else {
          ++c.route_ilp_certified;
          search::SearchResult swept = sweep(r.lower_bound, r.objective);
          sol.candidates_tested = swept.candidates_tested;
          if (swept.found && swept.objective < r.objective) {
            sol.pi = swept.pi;
            sol.objective = swept.objective;
            sol.verdict = swept.verdict;
          } else {
            sol.pi = r.pi;
            sol.objective = r.objective;
            sol.verdict = verdict(r.pi);
          }
          sol.method_used = "ILP (5.1)-(5.2) + Procedure 5.1 certification";
        }
        sol.makespan = sol.objective + 1;
      } else {
        ++c.route_ilp_fallthrough;
      }
    } else {
      ++c.route_proc51;
    }
    if (!resolved) {
      search::SearchResult r = sweep(0, heuristic_max_objective(set));
      sol.candidates_tested = r.candidates_tested;
      if (r.found) {
        sol.found = true;
        sol.pi = r.pi;
        sol.objective = r.objective;
        sol.makespan = r.makespan;
        sol.verdict = r.verdict;
        sol.method_used = "Procedure 5.1";
      }
    }
    if (sol.found) {
      const mapping::MappingMatrix t(space, sol.pi);
      {
        Tracer::Scope span(tracer, "systolic.design");
        sol.array = systolic::design_dedicated_array(algo, t);
      }
      {
        Tracer::Scope span(tracer, "systolic.simulate");
        sol.simulation = systolic::simulate(algo, *sol.array);
      }
      record_simulation(c, *sol.simulation);
    }
  }
  record_cache(c, cache);
  for (const Sweep& s : sweeps) replay_sweep(tracer, algo, *ctx, s);
  if (sol.found && k + 2 <= n) {
    replay_hnf(tracer, c, mapping::MappingMatrix(space, sol.pi));
  }
  return sol;
}

VerifyAnswer verify_traced(Tracer& tracer, LayerCounts& c, const Algo& algo,
                           const MatI& space, const VecI& pi) {
  VerifyAnswer a;
  std::optional<mapping::MappingMatrix> t;
  ++c.queries;
  {
    Tracer::Scope root(tracer, "query");
    const FastpathDelta fastpath(c);
    {
      Tracer::Scope span(tracer, "schedule.dependence");
      a.dependences_ok =
          sysmap::schedule::LinearSchedule(pi).respects_dependences(
              algo.dependence_matrix());
    }
    if (!a.dependences_ok) return a;
    {
      Tracer::Scope span(tracer, "mapping.rank");
      t.emplace(space, pi);
      a.rank_ok = t->has_full_rank();
    }
    if (!a.rank_ok) return a;
    {
      Tracer::Scope span(tracer, "mapping.verdict");
      a.verdict = mapping::decide_conflict_free(*t, algo.index_set());
    }
    ++c.verdict_calls;
    if (!a.verdict.conflict_free()) ++c.verdict_conflicts;
    {
      Tracer::Scope span(tracer, "systolic.design");
      a.design = systolic::design_dedicated_array(algo, *t);
    }
    {
      Tracer::Scope span(tracer, "systolic.simulate");
      a.simulation = systolic::simulate(algo, *a.design);
    }
    record_simulation(c, *a.simulation);
  }
  if (t->k() + 2 <= t->n()) replay_hnf(tracer, c, *t);
  return a;
}

search::JointMappingResult joint_traced(Tracer& tracer, LayerCounts& c,
                                        const Algo& algo, const Draw& draw,
                                        std::size_t support_threads) {
  search::JointMappingResult joint;
  search::VerdictCache cache;
  search::SpaceSearchOptions options = joint_options(draw, 1);
  options.verdict_cache = &cache;
  std::size_t joint_span = 0;
  ++c.queries;
  {
    Tracer::Scope root(tracer, "query");
    const FastpathDelta fastpath(c);
    Tracer::Scope span(tracer, "search.joint");
    joint_span = span.id();
    joint = search::joint_time_optimal_mapping(algo, options);
  }
  c.joint_spaces += joint.spaces_tested;
  c.joint_truncated += joint.truncated_spaces;
  record_cache(c, cache);
  {
    Tracer::Scope span(tracer, "search.space.count", /*replay=*/true);
    for (const MatI& s : search::candidate_spaces(algo.dimension(), options)) {
      (void)search::count_processor_images(algo.index_set(), s);
      ++c.spaces_counted;
    }
  }
  if (support_threads <= 1) return joint;

  // support: the same public calls at 1 thread and at N threads.  The
  // query itself is the serial side of the joint pair; a replay gives the
  // parallel side, and the two answers must be bit-identical.
  auto seconds = [&](std::size_t span) {
    return static_cast<double>(tracer.spans()[span].duration_ns()) * 1e-9;
  };
  search::JointMappingResult replayed;
  std::size_t replay_span = 0;
  {
    Tracer::Scope span(tracer, "support.joint", /*replay=*/true);
    replay_span = span.id();
    replayed = search::joint_time_optimal_mapping(
        algo, joint_options(draw, support_threads));
  }
  if (digest(replayed) != digest(joint)) {
    throw std::logic_error("joint answer changed with the thread count");
  }
  c.serial_joint_s += seconds(joint_span);
  c.parallel_joint_s += seconds(replay_span);
  if (!joint.found) return joint;
  const systolic::ArrayDesign design = systolic::design_dedicated_array(
      algo, mapping::MappingMatrix(joint.space, joint.pi));
  auto timed_simulation = [&](std::size_t threads, double& total_s) {
    std::string d;
    std::size_t sim_span = 0;
    {
      Tracer::Scope span(tracer, "support.simulate", /*replay=*/true);
      sim_span = span.id();
      systolic::SimulationOptions o;
      o.num_threads = threads;
      d = digest(systolic::simulate(algo, design, o));
    }
    total_s += seconds(sim_span);
    return d;
  };
  if (timed_simulation(1, c.serial_sim_s) !=
      timed_simulation(support_threads, c.parallel_sim_s)) {
    throw std::logic_error("simulation changed with the thread count");
  }
  return joint;
}

}  // namespace perfbench
