// The end-to-end "given S, find a certified time-optimal Pi" scoring
// engine (Problem 2.2), extracted from the core::Mapper facade so the
// Problem 6.1/6.2 design-space sweeps can score candidate spaces without
// reaching up the layering DAG (the former search->core inversion).
//
// Strategy (Section 5's two routes, combined for exactness):
//  - for k = n-1, the ILP formulation (5.1)-(5.2) produces a candidate and
//    a lower bound quickly; because of the appendix's gcd caveat the
//    candidate is verified, and a bounded Procedure-5.1 sweep between the
//    lower bound and the candidate's objective certifies global optimality;
//  - otherwise Procedure 5.1 runs directly (optimal for k >= n-3 by the
//    exact theorems; exact here for every k via the validated dispatcher).
//
// COLD vs FUSED.  find_time_optimal() is the stateless cold path --
// byte-for-byte the old core::Mapper::find_time_optimal, preserved as the
// parity oracle.  score() is the fused path for sweeps that score MANY
// spaces against one algorithm: a pipeline with fusion enabled carries
//  (a) a shared canonical-form VerdictCache across every certification
//      sweep and Procedure-5.1 run,
//  (b) a schedule-orbit cache mapping canonical_space_schedule_key(S) to
//      the certified optimal objective f* (or to "none up to bound B"); a
//      hit re-runs the search seeded at min_objective = f*, which
//      reproduces the cold winner, verdict and statistics bit for bit
//      while skipping every screen below f* (the level-prefix candidate
//      counts are recovered from a closed-form DP, not by re-enumeration),
//  (c) an optional caller-supplied incumbent cap on the objective
//      (Int cap) that truncates searches which provably cannot beat the
//      best full mapping found so far,
//  (d) a level memo (search::DependenceLevels) handed to every
//      Procedure-5.1 run, certification sweeps included: Pi D > 0 depends
//      on (J, D) alone, so a level's survivors are listed once, on its
//      second request, and replayed for every later space with the
//      candidate counters the walk would report.  The memo also holds
//      the level-prefix counts of (b) and anchors the per-algorithm
//      state: a different algorithm or bound replaces it and clears the
//      orbit entries.
// score() without a cap is bit-identical to find_time_optimal() in every
// field, for any interleaving of spaces and threads; the fusion state is
// internally synchronized, so one const pipeline may be shared by every
// worker of a sweep.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "mapping/conflict.hpp"
#include "model/algorithm.hpp"
#include "schedule/interconnect.hpp"
#include "search/procedure51.hpp"
#include "systolic/array.hpp"
#include "systolic/simulator.hpp"

namespace sysmap::search {

class VerdictCache;

enum class Method {
  kAuto,          ///< ILP + certification when applicable, else Procedure 5.1
  kProcedure51,   ///< pure enumeration (paper's Procedure 5.1)
  kIlpCertified,  ///< force the ILP + certification route (k = n-1 only)
};

struct PipelineOptions {
  Method method = Method::kAuto;
  /// Fixed target interconnect (condition 2 of Definition 2.2); nullopt
  /// designs a dedicated array.
  std::optional<schedule::Interconnect> target;
  /// Run the cycle-accurate simulator on the final design.
  bool simulate = false;
  /// Objective cap forwarded to Procedure 5.1 (0 = heuristic default).
  Int max_objective = 0;
  /// Design the processor array for a found schedule (dedicated links, or
  /// the target when one is set).  The facade keeps this on; the design-
  /// space sweeps turn it off -- they consume only (found, pi, makespan)
  /// per candidate and would otherwise pay a full array design per space.
  bool design_array = true;
};

struct MappingSolution {
  bool found = false;
  VecI pi;
  Int objective = 0;
  Int makespan = 0;
  mapping::ConflictVerdict verdict;
  std::string method_used;
  std::optional<systolic::ArrayDesign> array;
  std::optional<systolic::SimulationReport> simulation;
  std::uint64_t candidates_tested = 0;
  std::uint64_t ilp_nodes = 0;
  /// Advisory, fused path only: the incumbent cap truncated this search
  /// before its heuristic bound (found stays false; the space provably
  /// cannot beat the incumbent objective).  EXCLUDED from the
  /// bit-identical contract -- the cold path never sets it.
  bool truncated_by_cap = false;
};

class MappingPipeline {
 public:
  explicit MappingPipeline(PipelineOptions options = {});
  ~MappingPipeline();

  MappingPipeline(const MappingPipeline&) = delete;
  MappingPipeline& operator=(const MappingPipeline&) = delete;

  const PipelineOptions& options() const { return options_; }

  /// Solves Problem 2.2 for (algo, S); S has k-1 rows.  Stateless cold
  /// path -- never consults the fusion state, so a fused pipeline can
  /// still serve as its own parity oracle.
  MappingSolution find_time_optimal(
      const model::UniformDependenceAlgorithm& algo, const MatI& space) const;

  struct FusionOptions {
    /// Shared verdict cache for every schedule search this pipeline runs;
    /// borrowed, must outlive the pipeline.  nullptr lets the pipeline own
    /// a private one (the common sweep setup).
    VerdictCache* verdict_cache = nullptr;
  };

  /// Arms the fused path.  Call once, before the first score(); the
  /// per-algorithm state (orbit entries, level memo and its counts) resets
  /// automatically when score() sees a different algorithm.  The fused
  /// path reuses certified optimal objectives across candidates in the
  /// same schedule orbit (mapping::canonical_space_schedule_key), except
  /// when a target interconnect is set (routing reads S D, which the orbit
  /// moves do not preserve).
  void enable_fusion(const FusionOptions& fusion);
  bool fusion_enabled() const { return fusion_ != nullptr; }

  static constexpr Int kNoCap = 0;

  /// Fused scoring.  With cap == kNoCap the result is bit-identical to
  /// find_time_optimal() in every non-advisory field.  A positive cap is
  /// an INCLUSIVE incumbent bound on the objective: mappings with
  /// objective <= cap are returned exactly as the cold path would return
  /// them; spaces whose optimum provably exceeds the cap come back
  /// found = false (truncated_by_cap set when the heuristic bound alone
  /// would not have stopped the search).  Thread-safe; one pipeline may be
  /// shared across sweep workers.
  MappingSolution score(const model::UniformDependenceAlgorithm& algo,
                        const MatI& space, Int cap = kNoCap) const;

  /// Advisory fusion statistics (relaxed counters; interleaving-dependent,
  /// excluded from every parity contract).
  struct FusionStats {
    std::uint64_t schedule_orbit_hits = 0;
    std::uint64_t schedule_orbit_misses = 0;
    std::uint64_t seeded_searches = 0;   ///< searches warm-started at f*
    std::uint64_t truncated_by_cap = 0;  ///< searches ended by the incumbent
  };
  FusionStats fusion_stats() const;

  /// The shared verdict cache when fusion is armed (caller-supplied or
  /// pipeline-owned), nullptr otherwise.  Exposed so drivers can report
  /// hit/miss deltas.
  VerdictCache* shared_verdict_cache() const;

 private:
  struct Fusion;

  MappingSolution solve(const model::UniformDependenceAlgorithm& algo,
                        const MatI& space, Fusion* fusion, Int cap) const;

  PipelineOptions options_;
  std::unique_ptr<Fusion> fusion_;
};

}  // namespace sysmap::search
