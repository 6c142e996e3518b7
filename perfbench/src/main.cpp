// sysmap benchmark driver: one process, one client, closed loop.
//
//   perfbench_driver --workload solve|joint|verify --seed N
//                    --seconds S [--trace 0|1] [--out DIR] [--setup-only]
//
// Draws the workload's query pool from --seed, then issues one query at a
// time for S seconds (the next query starts when the previous returns) and
// times each one.  Every answer is checked against an oracle after the
// timed loop.  With --trace 1 the loop runs for S/4 seconds and the same
// queries are then re-run through the traced decomposition, which yields
// the per-layer metrics.  The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// perfbench/run.py wraps this binary, builds it, and adds setup_s.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "draws.hpp"
#include "queries.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace pb = perfbench;
using Clock = std::chrono::steady_clock;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

struct Args {
  pb::Workload workload = pb::Workload::kSolve;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool setup_only = false;
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload solve|joint|verify "
               "--seed N --seconds S [--trace 0|1] [--out DIR] "
               "[--setup-only]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        const auto w = pb::parse_workload(value);
        if (!w) usage("unknown workload '" + value + "'");
        a.workload = *w;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (key == "--out") {
        a.out = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + key);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  if (!a.setup_only && !(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

// N of the support layer's 1-vs-N replays on joint; every workload's own
// queries run at one thread.
std::size_t support_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

// Peak resident memory of this process image, in MB: VmHWM from
// /proc/self/status.  getrusage's ru_maxrss would also fold in the peak of
// the pre-exec image, i.e. the memory of whatever process launched us.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

// Everything a run builds before its first timed query.
struct Setup {
  std::vector<pb::Draw> draws;
  std::vector<pb::Algo> algos;
  std::vector<std::uint32_t> order;
};

Setup make_setup(pb::Workload w, std::uint64_t seed) {
  Setup s;
  s.draws = pb::draw_workload(w, seed);
  s.algos.reserve(s.draws.size());
  for (const pb::Draw& d : s.draws) {
    s.algos.push_back(pb::build_algorithm(d.algo));
  }
  s.order = pb::query_order(s.draws.size(), seed);
  return s;
}

// ---- the timed loop ---------------------------------------------------------

/// Spreads the timed loop evenly over the cores this process may run on.
/// On a shared host one core can run 25-30% slower than the others for
/// minutes at a time; a run that the scheduler leaves on that core reads
/// that much slower, so run-to-run spread depends on where runs land.
/// Moving to the next core every kPeriod gives every run the same mix of
/// cores.  Best effort: if the
/// affinity calls fail, scheduling is left as it was.  Restores the
/// original mask on destruction, so threads created later (the traced
/// run's N-thread replays) may use every core.
class CoreRotation {
 public:
  CoreRotation() {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cores_.push_back(c);
    }
  }
  ~CoreRotation() {
    if (moved_) sched_setaffinity(0, sizeof original_, &original_);
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  /// Moves the calling thread to the next core once kPeriod has passed.
  void tick() {
    const Clock::time_point now = Clock::now();
    if (cores_.size() < 2 || (moved_ && now - last_ < kPeriod)) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[next_++ % cores_.size()], &one);
    moved_ = sched_setaffinity(0, sizeof one, &one) == 0 || moved_;
    last_ = now;
  }

 private:
  static constexpr std::chrono::milliseconds kPeriod{25};
  cpu_set_t original_{};
  std::vector<int> cores_;
  std::size_t next_ = 0;
  bool moved_ = false;
  Clock::time_point last_{};
};

struct Execution {
  std::uint32_t index = 0;
  double ms = 0;
  bool threw = false;
  std::uint64_t fingerprint = 0;
};

/// Runs pool entry `index` once: returns the query's own wall time in ms
/// and the digest of its answer (computed after the clock stopped).
using QueryFn = std::function<std::pair<double, std::string>(std::uint32_t)>;

/// Runs the closed loop for `seconds`.  Execution records are spooled to
/// `spool` through a fixed buffer, so the process's memory does not grow
/// with the number of queries (peak_rss_mb would otherwise rise whenever
/// the library got faster); `rss_mb` is read before they are loaded back.
std::vector<Execution> timed_loop(const std::vector<std::uint32_t>& order,
                                  double seconds, const QueryFn& run,
                                  const std::filesystem::path& spool,
                                  double& rss_mb,
                                  std::vector<std::string>& errors) {
  std::FILE* file = std::fopen(spool.c_str(), "w+b");
  if (file == nullptr) {
    throw std::runtime_error("cannot open " + spool.string());
  }
  std::vector<Execution> buffer;
  buffer.reserve(4096);
  std::size_t count = 0;
  auto flush = [&] {
    if (std::fwrite(buffer.data(), sizeof(Execution), buffer.size(), file) !=
        buffer.size()) {
      std::fclose(file);
      throw std::runtime_error("cannot write " + spool.string());
    }
    buffer.clear();
  };
  CoreRotation rotation;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    rotation.tick();
    Execution e;
    e.index = order[i % order.size()];
    const Clock::time_point t0 = Clock::now();
    try {
      auto [ms, digest] = run(e.index);
      e.ms = ms;
      e.fingerprint = pb::fingerprint(digest);
    } catch (const std::exception& ex) {
      e.threw = true;
      e.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                 .count();
      if (errors.size() < 8) {
        errors.push_back("pool " + std::to_string(e.index) + ": " + ex.what());
      }
    }
    buffer.push_back(e);
    ++count;
    if (buffer.size() == buffer.capacity()) flush();
    if (std::chrono::duration<double>(Clock::now() - start).count() >=
        seconds) {
      break;
    }
  }
  flush();
  rss_mb = peak_rss_mb();
  std::vector<Execution> out(count);
  std::rewind(file);
  const std::size_t read = std::fread(out.data(), sizeof(Execution), count, file);
  std::fclose(file);
  std::filesystem::remove(spool);
  if (read != count) throw std::runtime_error("cannot read " + spool.string());
  return out;
}

template <typename F>
double time_ms(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---- workloads: query, first answer per pool entry, oracle -------------------

/// One workload's plain query, its traced decomposition, and its oracle.
/// `first` keeps the first answer each pool entry gave; every later
/// execution of that entry must match it by fingerprint.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual std::pair<double, std::string> run(std::uint32_t index) = 0;
  virtual std::string traced(pb::Tracer& tracer, pb::LayerCounts& counts,
                             std::uint32_t index) = 0;
  /// Checks the first answer of each executed pool entry; returns the
  /// entries that fail, with a reason.
  virtual std::map<std::uint32_t, std::string> check(
      const std::vector<std::uint32_t>& executed) = 0;
  /// Run-level checks beyond single answers; empty when they pass.
  virtual std::string check_run(const std::vector<std::uint32_t>&) {
    return {};
  }
};

class SolveWorkload : public Workload {
 public:
  explicit SolveWorkload(const Setup& s) : s_(s), first_(s.draws.size()) {}

  std::pair<double, std::string> run(std::uint32_t i) override {
    pb::search::MappingSolution sol;
    const double ms =
        time_ms([&] { sol = pb::solve_query(s_.algos[i], s_.draws[i].space); });
    std::string d = full_digest(sol);
    if (!first_[i]) first_[i] = std::move(sol);
    return {ms, d};
  }

  std::string traced(pb::Tracer& tracer, pb::LayerCounts& counts,
                     std::uint32_t i) override {
    return full_digest(
        pb::solve_traced(tracer, counts, s_.algos[i], s_.draws[i].space));
  }

  std::map<std::uint32_t, std::string> check(
      const std::vector<std::uint32_t>& executed) override {
    std::map<std::uint32_t, std::string> bad;
    pb::search::PipelineOptions cold_options;
    const pb::search::MappingPipeline cold(cold_options);
    for (std::uint32_t i : executed) {
      const pb::search::MappingSolution& got = *first_[i];
      pb::search::MappingSolution want =
          cold.find_time_optimal(s_.algos[i], s_.draws[i].space);
      if (pb::digest(got) != pb::digest(want)) {
        bad[i] = "differs from cold find_time_optimal: got {" +
                 pb::digest(got) + "} want {" + pb::digest(want) + "}";
      } else if (got.found && !(got.simulation && got.simulation->clean())) {
        bad[i] = "winner's simulation is not clean";
      }
    }
    return bad;
  }

 private:
  static std::string full_digest(const pb::search::MappingSolution& s) {
    return pb::digest(s) +
           (s.simulation ? " sim{" + pb::digest(*s.simulation) + "}" : "");
  }

  const Setup& s_;
  std::vector<std::optional<pb::search::MappingSolution>> first_;
};

class VerifyWorkload : public Workload {
 public:
  VerifyWorkload(const Setup& s, std::uint64_t seed)
      : s_(s), first_(s.draws.size()), agree_(s.draws.size()),
        conflict_free_(s.draws.size()), sampled_(s.draws.size()),
        seen_(s.draws.size()) {
    // The seeded sample whose simulations are re-checked against the
    // seed simulator; full answers are kept only for it.
    pb::Rng rng(seed ^ 0x5851F42D4C957F2DULL);
    for (std::size_t i = 0; i < sampled_.size(); ++i) {
      sampled_[i] = rng.below(16) == 0;
    }
  }

  std::pair<double, std::string> run(std::uint32_t i) override {
    pb::VerifyAnswer a;
    const double ms = time_ms([&] {
      a = pb::verify_query(s_.algos[i], s_.draws[i].space, s_.draws[i].pi);
    });
    std::string d = pb::digest(a);
    if (!seen_[i]) {
      seen_[i] = true;
      agree_[i] = a.simulation && a.verdict.conflict_free() ==
                                      (a.simulation->total_conflicts == 0);
      conflict_free_[i] = a.verdict.conflict_free();
      if (sampled_[i]) first_[i] = std::move(a);
    }
    return {ms, d};
  }

  std::string traced(pb::Tracer& tracer, pb::LayerCounts& counts,
                     std::uint32_t i) override {
    return pb::digest(pb::verify_traced(tracer, counts, s_.algos[i],
                                        s_.draws[i].space, s_.draws[i].pi));
  }

  std::map<std::uint32_t, std::string> check(
      const std::vector<std::uint32_t>& executed) override {
    std::map<std::uint32_t, std::string> bad;
    for (std::uint32_t i : executed) {
      if (!agree_[i]) {
        bad[i] = "decide_conflict_free disagrees with the simulator's "
                 "conflict count";
        continue;
      }
      if (!first_[i]) continue;
      const pb::VerifyAnswer& a = *first_[i];
      const pb::systolic::SimulationReport seed =
          pb::systolic::simulate_seed(s_.algos[i], *a.design);
      if (pb::digest(seed) != pb::digest(*a.simulation)) {
        bad[i] = "simulate differs from simulate_seed";
      }
    }
    return bad;
  }

  std::string check_run(const std::vector<std::uint32_t>& executed) override {
    const double share = conflict_free_share(executed);
    if (share < 0.25 || share > 0.75) {
      return "conflict-free share " + std::to_string(share) +
             " is outside [0.25, 0.75]";
    }
    return {};
  }

  double conflict_free_share(const std::vector<std::uint32_t>& executed) const {
    std::size_t free = 0;
    for (std::uint32_t i : executed) free += conflict_free_[i] ? 1 : 0;
    return static_cast<double>(free) / static_cast<double>(executed.size());
  }

  std::size_t sampled(const std::vector<std::uint32_t>& executed) const {
    std::size_t n = 0;
    for (std::uint32_t i : executed) n += sampled_[i] ? 1 : 0;
    return n;
  }

 private:
  const Setup& s_;
  std::vector<std::optional<pb::VerifyAnswer>> first_;
  std::vector<bool> agree_;
  std::vector<bool> conflict_free_;
  std::vector<bool> sampled_;
  std::vector<bool> seen_;
};

class JointWorkload : public Workload {
 public:
  explicit JointWorkload(const Setup& s) : s_(s), first_(s.draws.size()) {}

  std::pair<double, std::string> run(std::uint32_t i) override {
    pb::search::JointMappingResult a;
    const double ms =
        time_ms([&] { a = pb::joint_query(s_.algos[i], s_.draws[i]); });
    std::string d = pb::digest(a);
    if (!first_[i]) first_[i] = std::move(a);
    return {ms, d};
  }

  std::string traced(pb::Tracer& tracer, pb::LayerCounts& counts,
                     std::uint32_t i) override {
    return pb::digest(pb::joint_traced(tracer, counts, s_.algos[i],
                                       s_.draws[i], support_threads()));
  }

  std::map<std::uint32_t, std::string> check(
      const std::vector<std::uint32_t>& executed) override {
    std::map<std::uint32_t, std::string> bad;
    for (std::uint32_t i : executed) {
      const pb::search::JointMappingResult& got = *first_[i];
      pb::search::SpaceSearchOptions o;
      o.max_entry = s_.draws[i].max_entry;
      o.array_dims = s_.draws[i].array_dims;
      const pb::search::JointMappingResult want =
          pb::search::joint_time_optimal_mapping_seed(s_.algos[i], o);
      if (pb::digest(got) != pb::digest(want)) {
        bad[i] = "differs from the seed sweep: got {" + pb::digest(got) +
                 "} want {" + pb::digest(want) + "}";
      }
    }
    return bad;
  }

 private:
  const Setup& s_;
  std::vector<std::optional<pb::search::JointMappingResult>> first_;
};

// ---- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> layer_metrics(const pb::Tracer& tracer,
                                  const pb::LayerCounts& c,
                                  double untraced_qps) {
  const std::vector<pb::Span>& spans = tracer.spans();
  const std::vector<std::int64_t> self = pb::self_times(spans);
  std::map<std::string, double> self_ms;
  double root_ns = 0;
  double root_self_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = tracer.names()[spans[i].name];
    self_ms[name] += static_cast<double>(self[i]) * 1e-6;
    if (spans[i].parent < 0 && !spans[i].replay) {
      root_ns += static_cast<double>(spans[i].duration_ns());
      root_self_ns += static_cast<double>(self[i]);
    }
  }
  const double q = static_cast<double>(c.queries);
  auto per_query = [&](double v) { return ratio(v, q); };
  auto ms = [&](const char* span) { return per_query(self_ms[span]); };
  const double routes = static_cast<double>(
      c.route_proc51 + c.route_ilp_tight + c.route_ilp_certified +
      c.route_ilp_fallthrough);
  const double traced_qps = ratio(q, root_ns * 1e-9);
  const double sim_s = self_ms["systolic.simulate"] * 1e-3;
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"search.procedure51.ms", ms("search.procedure51"), "ms/query"},
      {"search.procedure51.calls", per_query(d(c.proc51_calls)), "count/query"},
      {"search.procedure51.candidates", per_query(d(c.proc51_candidates)),
       "count/query"},
      {"search.procedure51.dep_pass_ratio",
       ratio(d(c.proc51_passed_dependence), d(c.proc51_candidates)), "ratio"},
      {"search.context.ms", ms("search.context"), "ms/query"},
      {"search.enumerate.ms", ms("search.enumerate"), "ms/query"},
      {"search.screen.ms", ms("search.screen"), "ms/query"},
      {"search.route.proc51_share", ratio(d(c.route_proc51), routes), "ratio"},
      {"search.route.ilp_tight_share", ratio(d(c.route_ilp_tight), routes),
       "ratio"},
      {"search.route.ilp_certified_share",
       ratio(d(c.route_ilp_certified), routes), "ratio"},
      {"search.route.ilp_fallthrough_share",
       ratio(d(c.route_ilp_fallthrough), routes), "ratio"},
      {"opt.ilp.ms", ms("opt.ilp"), "ms/query"},
      {"opt.ilp.calls", per_query(d(c.ilp_calls)), "count/query"},
      {"opt.ilp.nodes", per_query(d(c.ilp_nodes)), "count/query"},
      {"opt.ilp.rejected", per_query(d(c.ilp_rejected)), "count/query"},
      {"search.joint.ms", ms("search.joint"), "ms/query"},
      {"search.joint.spaces_tested", per_query(d(c.joint_spaces)),
       "count/query"},
      {"search.joint.truncated_share",
       ratio(d(c.joint_truncated), d(c.joint_spaces)), "ratio"},
      {"search.verdict_cache.hit_ratio",
       ratio(d(c.cache_hits), d(c.cache_hits + c.cache_misses)), "ratio"},
      {"search.verdict_cache.entries", ratio(d(c.cache_entries), d(c.caches)),
       "count/query"},
      {"search.space.count_ms", ms("search.space.count"), "ms/query"},
      {"search.space.candidates", per_query(d(c.spaces_counted)),
       "count/query"},
      {"mapping.verdict.ms", ms("mapping.verdict"), "ms/query"},
      {"mapping.verdict.calls", per_query(d(c.verdict_calls)), "count/query"},
      {"mapping.verdict.conflict_share",
       ratio(d(c.verdict_conflicts), d(c.verdict_calls)), "ratio"},
      {"mapping.rank.ms", ms("mapping.rank"), "ms/query"},
      {"lattice.hnf.ms", ms("lattice.hnf"), "ms/query"},
      {"lattice.hnf.calls", per_query(d(c.hnf_calls)), "count/query"},
      {"exact.fastpath.attempts", per_query(d(c.fastpath_attempts)),
       "count/query"},
      {"exact.fastpath.bigint_restarts", per_query(d(c.fastpath_restarts)),
       "count/query"},
      {"systolic.design.ms", ms("systolic.design"), "ms/query"},
      {"systolic.simulate.ms", ms("systolic.simulate"), "ms/query"},
      {"systolic.simulate.points_per_s", ratio(d(c.sim_points), sim_s), "1/s"},
      {"systolic.simulate.conflicts", per_query(d(c.sim_conflicts)),
       "count/query"},
      {"systolic.simulate.collisions", per_query(d(c.sim_collisions)),
       "count/query"},
      {"systolic.simulate.clean_share",
       ratio(d(c.sim_clean), d(c.simulations)), "ratio"},
      {"support.parallel.joint_speedup",
       ratio(c.serial_joint_s, c.parallel_joint_s), "x"},
      {"support.parallel.simulate_speedup",
       ratio(c.serial_sim_s, c.parallel_sim_s), "x"},
      {"trace.coverage", ratio(root_ns - root_self_ns, root_ns), "ratio"},
      {"trace.overhead_share", 1.0 - ratio(traced_qps, untraced_qps), "ratio"},
  };
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!pb::valid_metric_name(metrics[i].name)) {
      throw std::logic_error("invalid metric name " + metrics[i].name);
    }
    out += (i ? "," : "") + json_string(metrics[i].name) + ":{\"value\":" +
           json_number(metrics[i].value) + ",\"unit\":" +
           json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Setup setup = make_setup(args.workload, args.seed);
  if (args.setup_only) {
    std::cout << "ready " << setup.draws.size() << std::endl;
    return 0;
  }

  std::unique_ptr<Workload> workload;
  VerifyWorkload* verify = nullptr;
  switch (args.workload) {
    case pb::Workload::kSolve:
      workload = std::make_unique<SolveWorkload>(setup);
      break;
    case pb::Workload::kVerify: {
      auto v = std::make_unique<VerifyWorkload>(setup, args.seed);
      verify = v.get();
      workload = std::move(v);
      break;
    }
    case pb::Workload::kJoint:
      workload = std::make_unique<JointWorkload>(setup);
      break;
  }

  const std::filesystem::path dir = std::filesystem::path(args.out) /
                                    pb::workload_name(args.workload) /
                                    (args.trace ? "trace1" : "trace0");
  std::filesystem::create_directories(dir);

  // ---- timed, untraced ------------------------------------------------------
  // A traced run re-runs its queries three to four times over (traced,
  // plain, replays), so its untraced loop takes a quarter of the time.
  const double untraced_seconds = args.trace ? args.seconds / 4 : args.seconds;
  std::vector<std::string> errors;
  double rss_mb = 0;
  const std::vector<Execution> execs = timed_loop(
      setup.order, untraced_seconds,
      [&](std::uint32_t i) { return workload->run(i); },
      dir / "executions.spool", rss_mb, errors);

  // ---- oracle, outside the timed region -------------------------------------
  std::vector<std::uint32_t> executed;
  {
    std::vector<bool> seen(setup.draws.size(), false);
    std::vector<bool> threw(setup.draws.size(), false);
    for (const Execution& e : execs) threw[e.index] = threw[e.index] || e.threw;
    for (const Execution& e : execs) {
      if (!seen[e.index] && !threw[e.index]) executed.push_back(e.index);
      seen[e.index] = true;
    }
  }
  std::map<std::uint32_t, std::string> bad;
  std::string run_problem;
  const Clock::time_point oracle_start = Clock::now();
  try {
    bad = workload->check(executed);
    if (!executed.empty()) run_problem = workload->check_run(executed);
  } catch (const std::exception& ex) {
    run_problem = std::string("oracle threw: ") + ex.what();
  }
  const double oracle_s =
      std::chrono::duration<double>(Clock::now() - oracle_start).count();
  std::map<std::uint32_t, std::uint64_t> expected;  // first fingerprint
  std::uint64_t failed = 0;
  for (const Execution& e : execs) {
    if (e.threw) {
      ++failed;
      continue;
    }
    auto [it, inserted] = expected.emplace(e.index, e.fingerprint);
    if (bad.count(e.index) || it->second != e.fingerprint) ++failed;
  }
  std::uint64_t attempted = execs.size();

  // ---- timing statistics ------------------------------------------------
  // Over the run's complete walks of the pool only, so every pool entry
  // weighs the same in every run; the partial last walk is timed and
  // checked but left out, unless too few samples would remain.
  const std::size_t pool = setup.draws.size();
  const std::size_t walks = execs.size() / pool;
  std::size_t used = walks * pool;
  if (used < 100) used = execs.size();
  double wall_s = 0;
  std::vector<double> lat;
  for (std::size_t q = 0; q < used; ++q) {
    wall_s += execs[q].ms * 1e-3;
    lat.push_back(execs[q].ms);
  }
  const double qps = static_cast<double>(used) / wall_s;

  // ---- traced run over the same queries ------------------------------------
  std::vector<Metric> metrics;
  pb::Tracer tracer;
  pb::LayerCounts counts;
  std::uint64_t trace_mismatches = 0;
  double traced_s = 0;
  if (args.trace) {
    // Each query runs traced and plain back to back (alternating which goes
    // first), so trace.overhead_share compares the two forms on the same
    // queries under the same machine conditions.  Executions that threw
    // are already counted as failed and are not re-run.
    double plain_ms = 0;
    std::size_t pairs = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t q = 0; q < execs.size(); ++q) {
      const Execution& e = execs[q];
      if (e.threw) continue;
      tracer.set_query(static_cast<std::uint32_t>(q));
      attempted += 2;
      std::string problem;
      try {
        std::pair<double, std::string> plain;
        std::string d;
        if (q % 2 == 0) plain = workload->run(e.index);
        d = workload->traced(tracer, counts, e.index);
        if (q % 2 == 1) plain = workload->run(e.index);
        plain_ms += plain.first;
        ++pairs;
        if (pb::fingerprint(d) != e.fingerprint) {
          problem = "traced decomposition of pool " + std::to_string(e.index) +
                    " differs from the plain call: {" + d + "}";
        } else if (pb::fingerprint(plain.second) != e.fingerprint) {
          problem = "pool " + std::to_string(e.index) +
                    " answered differently when re-run";
        }
      } catch (const std::exception& ex) {
        problem = "traced pool " + std::to_string(e.index) + ": " + ex.what();
      }
      if (!problem.empty()) {
        ++trace_mismatches;
        ++failed;
        if (errors.size() < 8) errors.push_back(problem);
      }
    }
    traced_s = std::chrono::duration<double>(Clock::now() - t0).count();
    metrics = layer_metrics(tracer, counts,
                            ratio(static_cast<double>(pairs), plain_ms * 1e-3));
  } else {
    try {
      metrics = {
          {"queries_per_s", qps, "1/s"},
          {"latency_ms_p50", pb::percentile(lat, 50), "ms"},
          {"latency_ms_p90", pb::percentile(lat, 90), "ms"},
          {"peak_rss_mb", rss_mb, "MB"},
      };
    } catch (const std::exception& ex) {
      run_problem = ex.what();
    }
  }

  // ---- report ---------------------------------------------------------------
  const bool correct = failed == 0 && run_problem.empty();
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const pb::Quartiles lq = lat.size() >= 2 ? pb::quartiles(lat)
                                           : pb::Quartiles{};
  std::ostringstream facts;
  facts << "{\"workload\":" << json_string(pb::workload_name(args.workload))
        << ",\"seed\":" << args.seed << ",\"trace\":" << args.trace
        << ",\"nproc\":" << std::thread::hardware_concurrency()
        << ",\"compiler\":" << json_string(__VERSION__)
        << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
#ifdef SYSMAP_OBS_ENABLED
        << ",\"sysmap_obs\":true"
#else
        << ",\"sysmap_obs\":false"
#endif
        << ",\"threads\":1"
        << ",\"support_threads\":" << support_threads()
        << ",\"pool\":" << setup.draws.size()
        << ",\"queries\":" << execs.size() << ",\"complete_walks\":" << walks
        << ",\"distinct_queries\":" << executed.size()
        << ",\"untraced_seconds\":" << json_number(untraced_seconds)
        << ",\"latency_ms_quartiles\":[" << json_number(lq.q1) << ","
        << json_number(lq.q2) << "," << json_number(lq.q3) << "]"
        << ",\"latency_samples\":" << lat.size()
        << ",\"samples_beyond_p90\":"
        << (lat.empty() ? 0 : pb::samples_beyond(lat.size(), 90))
        << ",\"error_rate\":" << json_number(error_rate)
        << ",\"oracle_seconds\":" << json_number(oracle_s);
  if (verify != nullptr && !executed.empty()) {
    facts << ",\"conflict_free_share\":"
          << json_number(verify->conflict_free_share(executed))
          << ",\"simulate_seed_sample\":" << verify->sampled(executed);
  }
  if (args.trace) {
    facts << ",\"traced_queries\":" << counts.queries
          << ",\"traced_seconds\":" << json_number(traced_s)
          << ",\"trace_mismatches\":" << trace_mismatches
          << ",\"spans\":" << tracer.spans().size();
  }
  facts << ",\"excluded_classes\":[";
  const auto excluded = pb::excluded_classes(args.workload);
  for (std::size_t i = 0; i < excluded.size(); ++i) {
    facts << (i ? "," : "") << "{\"class\":" << json_string(excluded[i].cls)
          << ",\"reason\":" << json_string(excluded[i].reason) << "}";
  }
  facts << "]}";

  // Per-class latency, for reading where the time goes.
  std::map<std::string, std::vector<double>> by_class;
  for (const Execution& e : execs) {
    by_class[setup.draws[e.index].cls].push_back(e.ms);
  }

  const std::string result =
      "{\"correct\":" + std::string(correct ? "true" : "false") +
      ",\"attempted\":" + std::to_string(attempted) +
      ",\"failed\":" + std::to_string(failed) +
      ",\"metrics\":" + metrics_json(metrics) + "}";

  // Write the run's draws, facts, result and spans beside each other.
  try {
    std::ofstream(dir / "draws.tsv") << pb::serialize(setup.draws);
    std::ofstream(dir / "facts.json") << facts.str() << "\n";
    std::ofstream(dir / "result.json") << result << "\n";
    std::ofstream executions(dir / "executions.tsv");
    executions << "query\tpool_index\tms\tthrew\n";
    for (std::size_t q = 0; q < execs.size(); ++q) {
      executions << q << '\t' << execs[q].index << '\t'
                 << json_number(execs[q].ms) << '\t' << execs[q].threw << '\n';
    }
    if (args.trace) {
      std::ofstream spans(dir / "spans.tsv");
      tracer.write_tsv(spans);
    }
  } catch (const std::exception& ex) {
    std::cerr << "perfbench_driver: could not write run files: " << ex.what()
              << "\n";
  }

  std::cout << "facts " << facts.str() << "\n";
  for (auto& [cls, v] : by_class) {
    std::sort(v.begin(), v.end());
    std::cout << "class " << cls << ": n=" << v.size()
              << " p50=" << v[v.size() / 2] << " ms max=" << v.back()
              << " ms\n";
  }
  for (const std::string& e : errors) std::cout << "error " << e << "\n";
  if (!bad.empty()) {  // one is enough to read; the count is in `failed`
    std::cout << "wrong pool " << bad.begin()->first << ": "
              << bad.begin()->second << "\n";
  }
  if (!run_problem.empty()) std::cout << "run check failed: " << run_problem << "\n";
  std::cout << "error_rate " << json_number(error_rate) << " (" << failed
            << "/" << attempted << ")\n";
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << result << std::endl;
  return 0;
}
