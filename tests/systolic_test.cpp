// Tests for the systolic-array substrate: array design (Figure 2),
// cycle-accurate simulation (Figure 3), conflict and link-collision
// detection, buffer accounting, and value-level validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "mapping/conflict.hpp"
#include "model/gallery.hpp"
#include "systolic/array.hpp"
#include "systolic/diagram.hpp"
#include "systolic/simulator.hpp"

namespace sysmap::systolic {
namespace {

mapping::MappingMatrix figure3_mapping() {
  return mapping::MappingMatrix(MatI{{1, 1, -1}}, VecI{1, 4, 1});
}

TEST(ArrayDesign, DedicatedMatmulMatchesFigure2) {
  model::UniformDependenceAlgorithm algo = model::matmul(4);
  ArrayDesign d = design_dedicated_array(algo, figure3_mapping());
  // P = S D = S for D = I.
  EXPECT_EQ(d.p, (MatI{{1, 1, -1}}));
  EXPECT_EQ(d.k, MatI::identity(3));
  EXPECT_EQ(d.delays, (VecI{1, 4, 1}));
  EXPECT_EQ(d.hops, (VecI{1, 1, 1}));
  // Three buffers, all on the A link (d_2).
  EXPECT_EQ(d.buffers, (VecI{0, 3, 0}));
  EXPECT_EQ(d.total_buffers(), 3);
  // Processors: S j over [0,4]^3 spans [-4, 8] -> 13 PEs.
  EXPECT_EQ(d.num_processors(), 13u);
}

TEST(ArrayDesign, Ref23MappingNeedsFourBuffers) {
  model::UniformDependenceAlgorithm algo = model::matmul(4);
  mapping::MappingMatrix t(MatI{{1, 1, -1}}, VecI{2, 1, 4});
  ArrayDesign d = design_dedicated_array(algo, t);
  EXPECT_EQ(d.total_buffers(), 4);  // sum(Pi' d_i - 1), as in the paper
}

TEST(ArrayDesign, RejectsInvalidSchedule) {
  model::UniformDependenceAlgorithm algo = model::matmul(4);
  mapping::MappingMatrix t(MatI{{1, 1, -1}}, VecI{1, -1, 1});
  EXPECT_THROW(design_dedicated_array(algo, t), std::invalid_argument);
}

TEST(ArrayDesign, LocalDependenceUsesNoLink) {
  // S d = 0 for a dependence that stays on-processor.
  model::UniformDependenceAlgorithm algo = model::matmul(2);
  mapping::MappingMatrix t(MatI{{1, -1, 0}}, VecI{1, 1, 1});
  ArrayDesign d = design_dedicated_array(algo, t);
  // S d_1 = 1, S d_2 = -1, S d_3 = 0 -> third dependence is local.
  EXPECT_EQ(d.hops, (VecI{1, 1, 0}));
  EXPECT_EQ(d.buffers[2], 1);  // Pi d_3 - 0
}

TEST(ArrayDesign, OnInterconnect) {
  model::UniformDependenceAlgorithm algo = model::matmul(4);
  std::optional<ArrayDesign> d = design_on_interconnect(
      algo, figure3_mapping(), schedule::Interconnect::nearest_neighbor(1));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->total_buffers(), 3);
  // An interconnect with only a +1 link cannot carry S d_3 = -1.
  MatI forward_only{{1}};
  EXPECT_FALSE(design_on_interconnect(algo, figure3_mapping(),
                                      schedule::Interconnect(forward_only))
                   .has_value());
}

TEST(ArrayDesign, ProcessorsMatchSetWalkOnRandomSpaces) {
  // The processor list comes from the image bitset (or, past its bound,
  // the per-point walk); either way it is exactly {S j : j in J}.
  std::mt19937 rng(20261020);
  std::uniform_int_distribution<Int> entry(-3, 3);
  std::uniform_int_distribution<Int> extent(1, 5);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 3);
    // k = m + 1 <= n.
    const std::size_t m =
        std::min<std::size_t>(1 + static_cast<std::size_t>(trial / 3 % 2),
                              n - 1);
    VecI mu(n);
    for (std::size_t i = 0; i < n; ++i) mu[i] = extent(rng);
    const model::UniformDependenceAlgorithm algo(
        "box", model::IndexSet{mu}, MatI::identity(n));
    MatI space(m, n);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < n; ++c) space(r, c) = entry(rng);
    }
    // Every tenth space's image box is far past the bitset's bound.
    if (trial % 10 == 0) space(0, 0) = 100000007;
    std::set<VecI> reference;
    algo.index_set().for_each(
        [&](const VecI& j) { reference.insert(space * j); });
    const mapping::MappingMatrix t(space, VecI(n, 1));
    EXPECT_EQ(design_dedicated_array(algo, t).processors, reference)
        << "trial " << trial;
  }
}

TEST(Simulate, Figure3Execution) {
  model::UniformDependenceAlgorithm algo = model::matmul(4);
  ArrayDesign d = design_dedicated_array(algo, figure3_mapping());
  SimulationReport r = simulate(algo, d);
  EXPECT_EQ(r.computations, 125u);
  EXPECT_TRUE(r.clean()) << r.summary();
  // t = mu(mu+2) + 1 = 25 cycles, from Pi*(0,0,0)=0 to Pi*(4,4,4)=24.
  EXPECT_EQ(r.first_cycle, 0);
  EXPECT_EQ(r.last_cycle, 24);
  EXPECT_EQ(r.makespan, 25);
  // Observed buffering on the A link matches the design (3 buffers).
  EXPECT_EQ(r.buffer_high_water[1], 3);
  EXPECT_EQ(r.buffer_high_water[0], 0);
  EXPECT_EQ(r.buffer_high_water[2], 0);
}

TEST(Simulate, ValueLevelMatmulMatchesReference) {
  const Int mu = 3;
  MatI a(4, 4), b(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      a(i, j) = static_cast<Int>(3 * i + j + 1);
      b(i, j) = static_cast<Int>(7 * i) - static_cast<Int>(2 * j);
    }
  }
  model::SemanticAlgorithm sem = model::semantic_matmul(mu, a, b);
  // Use a conflict-free mapping for mu = 3: Pi = [2, 1, 2].
  mapping::MappingMatrix t(MatI{{1, 1, -1}}, VecI{2, 1, 2});
  ArrayDesign d = design_dedicated_array(sem.structure, t);
  SimulationReport r = simulate(sem, d);
  EXPECT_TRUE(r.clean()) << r.summary();
  EXPECT_TRUE(r.values_checked);
  EXPECT_TRUE(r.values_match);
}

TEST(Simulate, ConflictingMappingIsDetected) {
  // Pi = [1, 1, 1] with S = [1, 1, -1]: gamma = (1, -1, 0)-type conflicts.
  model::UniformDependenceAlgorithm algo = model::matmul(3);
  mapping::MappingMatrix t(MatI{{1, 1, -1}}, VecI{1, 1, 1});
  ArrayDesign d = design_dedicated_array(algo, t);
  SimulationReport r = simulate(algo, d);
  EXPECT_FALSE(r.conflicts.empty());
  // Each reported conflict is genuine: same PE, same time.
  for (const auto& c : r.conflicts) {
    EXPECT_EQ(d.t.processor(c.j1), d.t.processor(c.j2));
    EXPECT_EQ(d.t.time(c.j1), d.t.time(c.j2));
    EXPECT_NE(c.j1, c.j2);
  }
}

TEST(Simulate, ConflictBreaksValueCorrectness) {
  // With computational conflicts, the array cannot reproduce the reference
  // values (two computations collide on one PE-cycle).
  const Int mu = 2;
  MatI a(3, 3), b(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      a(i, j) = static_cast<Int>(i + 2 * j + 1);
      b(i, j) = static_cast<Int>(2 * i + j + 1);
    }
  }
  model::SemanticAlgorithm sem = model::semantic_matmul(mu, a, b);
  mapping::MappingMatrix bad(MatI{{1, 1, -1}}, VecI{1, 1, 1});
  ArrayDesign d = design_dedicated_array(sem.structure, bad);
  SimulationReport r = simulate(sem, d);
  EXPECT_FALSE(r.conflicts.empty());
  // Values still evaluate (the simulator is robust), and reference
  // equality may or may not hold; what matters is the conflict report.
  EXPECT_TRUE(r.values_checked);
}

TEST(Simulate, TransitiveClosureExample52) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::transitive_closure(mu);
  mapping::MappingMatrix t(MatI{{0, 0, 1}}, VecI{mu + 1, 1, 1});
  ArrayDesign d = design_dedicated_array(algo, t);
  SimulationReport r = simulate(algo, d);
  EXPECT_TRUE(r.clean()) << r.summary();
  EXPECT_EQ(r.makespan, mu * (mu + 3) + 1);  // 29
  EXPECT_EQ(r.num_processors, static_cast<std::size_t>(mu + 1));
}

TEST(Simulate, ConvolutionValueLevel) {
  const Int mu_i = 5, mu_k = 3;
  VecI w{1, -2, 3, 4};
  VecI x(static_cast<std::size_t>(mu_i + mu_k) + 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<Int>(i * i) - 7;
  }
  model::SemanticAlgorithm sem = model::semantic_convolution(mu_i, mu_k, w, x);
  // Map 2-D convolution onto a linear array: S = [1, 0] (processor = i),
  // Pi = [1, mu_i + 1] is injective on J -> conflict-free.
  mapping::MappingMatrix t(MatI{{1, 0}}, VecI{1, mu_i + 1});
  ArrayDesign d = design_dedicated_array(sem.structure, t);
  SimulationReport r = simulate(sem, d);
  EXPECT_TRUE(r.conflicts.empty()) << r.summary();
  EXPECT_TRUE(r.values_match);
}

TEST(Diagram, SpaceTimeRendersAllPoints) {
  model::UniformDependenceAlgorithm algo = model::matmul(2);
  mapping::MappingMatrix t(MatI{{1, 1, -1}}, VecI{2, 1, 2});
  ArrayDesign d = design_dedicated_array(algo, t);
  std::string s = space_time_diagram(algo, d);
  // Header plus one row per cycle [min, max].
  EXPECT_NE(s.find("t\\PE"), std::string::npos);
  EXPECT_NE(s.find("0,0,0"), std::string::npos);
  EXPECT_NE(s.find("2,2,2"), std::string::npos);
  // Conflict-free: no '!' markers.
  EXPECT_EQ(s.find('!'), std::string::npos);
}

TEST(Diagram, ConflictMarkedWithBang) {
  model::UniformDependenceAlgorithm algo = model::matmul(2);
  mapping::MappingMatrix t(MatI{{1, 1, -1}}, VecI{1, 1, 1});
  ArrayDesign d = design_dedicated_array(algo, t);
  std::string s = space_time_diagram(algo, d);
  EXPECT_NE(s.find('!'), std::string::npos);
}

TEST(Diagram, FrameDiagramFor2DArrays) {
  model::UniformDependenceAlgorithm algo = model::matmul(2);
  mapping::MappingMatrix t(MatI{{1, 0, 0}, {0, 1, 0}}, VecI{1, 1, 1});
  ArrayDesign d = design_dedicated_array(algo, t);
  std::string frames = frame_diagram(algo, d, 2);
  EXPECT_NE(frames.find("cycle 0:"), std::string::npos);
  EXPECT_NE(frames.find("cycle 1:"), std::string::npos);
  EXPECT_NE(frames.find('#'), std::string::npos);
  // k = 3 mapping onto the (i, j) plane at cycle 0 activates exactly one
  // PE ((0,0,0) alone has time 0): one '#', no '!'.
  std::size_t first_frame_end = frames.find("cycle 1:");
  std::string f0 = frames.substr(0, first_frame_end);
  EXPECT_EQ(std::count(f0.begin(), f0.end(), '#'), 1);
  EXPECT_EQ(f0.find('!'), std::string::npos);
  // Non-2-D designs are rejected.
  mapping::MappingMatrix linear(MatI{{1, 1, -1}}, VecI{1, 2, 1});
  ArrayDesign d1 = design_dedicated_array(algo, linear);
  EXPECT_THROW(frame_diagram(algo, d1), std::invalid_argument);
}

TEST(Diagram, RejectsNonLinearArray) {
  model::UniformDependenceAlgorithm algo = model::matmul(2);
  mapping::MappingMatrix t(MatI{{1, 0, 0}, {0, 1, 0}}, VecI{1, 1, 1});
  ArrayDesign d = design_dedicated_array(algo, t);
  EXPECT_THROW(space_time_diagram(algo, d), std::invalid_argument);
}

TEST(Diagram, LinkDiagramListsBuffers) {
  model::UniformDependenceAlgorithm algo = model::matmul(4);
  ArrayDesign d = design_dedicated_array(algo, figure3_mapping());
  std::string s = link_diagram(algo, d);
  EXPECT_NE(s.find("buffers 3"), std::string::npos);
  EXPECT_NE(s.find("13 processors"), std::string::npos);
}

TEST(Simulate, MultiHopRouteCollisionFree) {
  // Force multi-hop routing: S = [2, 1, -1] makes S d_1 = 2 (two hops on a
  // nearest-neighbour line).
  model::UniformDependenceAlgorithm algo = model::matmul(3);
  mapping::MappingMatrix t(MatI{{2, 1, -1}}, VecI{3, 1, 2});
  std::optional<ArrayDesign> d = design_on_interconnect(
      algo, t, schedule::Interconnect::nearest_neighbor(1));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->hops[0], 2);
  SimulationReport r = simulate(algo, *d);
  // Whatever the collision outcome, conflicts depend only on T.
  mapping::ConflictVerdict verdict = mapping::decide_conflict_free(
      t, algo.index_set());
  EXPECT_EQ(r.conflicts.empty(), verdict.conflict_free()) << r.summary();
}

}  // namespace
}  // namespace sysmap::systolic
