// One query per workload, through libsysmap's public headers only, in two
// forms: the plain call a user makes (timed by the end-to-end run), and a
// traced decomposition into the public calls that call makes, with spans
// around each layer (the per-layer run).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "draws.hpp"
#include "search/pipeline.hpp"
#include "search/space_optimal.hpp"
#include "systolic/simulator.hpp"
#include "trace.hpp"

namespace perfbench {

namespace search = sysmap::search;
namespace systolic = sysmap::systolic;
namespace mapping = sysmap::mapping;
using Algo = sysmap::model::UniformDependenceAlgorithm;

/// The CLI's --pi mode, taken to the end for every design: the Pi D > 0
/// and rank screens, the conflict verdict, the dedicated array and the
/// simulator (also for conflicting designs, whose conflicts it counts).
struct VerifyAnswer {
  bool dependences_ok = false;
  bool rank_ok = false;
  mapping::ConflictVerdict verdict;
  std::optional<systolic::ArrayDesign> design;
  std::optional<systolic::SimulationReport> simulation;
};

/// solve: a fresh fused pipeline with simulation on, as the CLI's
/// optimize mode runs it.
search::MappingSolution solve_query(const Algo& algo, const MatI& space);
VerifyAnswer verify_query(const Algo& algo, const MatI& space, const VecI& pi);
/// joint: Problem 6.2 through joint_time_optimal_mapping at one thread.
search::JointMappingResult joint_query(const Algo& algo, const Draw& draw);

/// Canonical text of every field in a result's parity contract; two
/// results are equal exactly when their digests are.  Advisory fields
/// (cache counters, truncated_by_cap, truncated_spaces) are left out.
std::string digest(const search::MappingSolution& s);
std::string digest(const systolic::SimulationReport& r);
std::string digest(const VerifyAnswer& a);
std::string digest(const search::JointMappingResult& j);
std::uint64_t fingerprint(const std::string& digest);

/// Work counts the traced run gathers at the layer boundaries.
struct LayerCounts {
  std::uint64_t queries = 0;
  // search: Procedure 5.1
  std::uint64_t proc51_calls = 0;
  std::uint64_t proc51_candidates = 0;
  std::uint64_t proc51_passed_dependence = 0;
  // search: route taken per k = n-1 solve query, and pure Procedure 5.1
  std::uint64_t route_proc51 = 0;
  std::uint64_t route_ilp_tight = 0;
  std::uint64_t route_ilp_certified = 0;
  std::uint64_t route_ilp_fallthrough = 0;
  // opt
  std::uint64_t ilp_calls = 0;
  std::uint64_t ilp_nodes = 0;
  std::uint64_t ilp_rejected = 0;
  // search: the fused space sweep and its verdict cache
  std::uint64_t joint_spaces = 0;
  std::uint64_t joint_truncated = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t caches = 0;
  std::uint64_t spaces_counted = 0;
  // mapping
  std::uint64_t verdict_calls = 0;
  std::uint64_t verdict_conflicts = 0;
  // lattice
  std::uint64_t hnf_calls = 0;
  // exact: fastpath_stats() deltas inside the query spans
  std::uint64_t fastpath_attempts = 0;
  std::uint64_t fastpath_restarts = 0;
  // systolic
  std::uint64_t simulations = 0;
  std::uint64_t sim_points = 0;
  std::uint64_t sim_conflicts = 0;
  std::uint64_t sim_collisions = 0;
  std::uint64_t sim_clean = 0;
  // support: the same public call at 1 thread and at N threads
  double serial_joint_s = 0;
  double parallel_joint_s = 0;
  double serial_sim_s = 0;
  double parallel_sim_s = 0;
};

/// The traced decompositions.  Each opens the query's root span, runs the
/// public calls its plain form makes (in the same order, with the same
/// arguments), closes the root, then records replay spans under the same
/// query.  Throws std::logic_error when a replay disagrees with the call
/// it replays.
search::MappingSolution solve_traced(Tracer& tracer, LayerCounts& counts,
                                     const Algo& algo, const MatI& space);
VerifyAnswer verify_traced(Tracer& tracer, LayerCounts& counts,
                           const Algo& algo, const MatI& space,
                           const VecI& pi);
/// With support_threads > 1 it also replays the sweep at support_threads
/// and simulates the winner at 1 and at support_threads, for the support
/// speedups; answers must not change with the thread count.
search::JointMappingResult joint_traced(Tracer& tracer, LayerCounts& counts,
                                        const Algo& algo, const Draw& draw,
                                        std::size_t support_threads);

}  // namespace perfbench
