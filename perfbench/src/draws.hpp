// Seeded query draws for the three benchmark workloads.
//
// Every input the benchmark feeds the library comes from here, as a pure
// function of (workload, seed): the same seed gives byte-identical draws
// (see serialize()), and the library only ever sees the generated inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/types.hpp"
#include "model/algorithm.hpp"

namespace perfbench {

using sysmap::Int;
using sysmap::MatI;
using sysmap::VecI;

enum class Workload { kSolve, kJoint, kVerify };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// A gallery algorithm by family name and extents, e.g. {"matmul", {12}},
/// optionally with its axes relabeled: axis i of the built algorithm is
/// axis axes[i] of the gallery one (extents and dependence rows move with
/// it), which poses the same problem under other coordinates.
struct AlgoRecipe {
  std::string family;
  std::vector<Int> params;
  std::vector<std::size_t> axes;  ///< empty: the gallery's own order
};

sysmap::model::UniformDependenceAlgorithm build_algorithm(
    const AlgoRecipe& recipe);

struct Draw {
  std::string cls;   ///< stratum the draw came from
  std::string name;  ///< joint case name, e.g. "matmul_mu16_k2"
  AlgoRecipe algo;
  MatI space;        ///< solve/verify: S, (k-1) x n
  VecI pi;           ///< verify: the user-given schedule
  Int max_entry = 0;             ///< joint
  std::size_t array_dims = 0;    ///< joint (k - 1)
};

/// The query pool of one run.
///
/// Per-query cost on solve and joint spans three orders of
/// magnitude, so a pool drawn afresh per seed moves the percentiles by
/// more than any useful bound.  These workloads therefore start from a
/// fixed catalog, drawn once from a constant seed.  On solve, --seed
/// poses every entry in other coordinates: a permutation of the
/// algorithm's axes (applied to S as well) and a signed permutation of the
/// rows of S, which leave the problem and its optimum unchanged.  joint
/// keeps the catalog as it is: relabeling their algorithms changed
/// single sweep costs up to threefold (search order), and with 65 entries
/// that moved the median between cost clusters.  There --seed sets only
/// the walk order.  verify runs thousands of cheap queries per run and
/// draws its pool directly from --seed.
std::vector<Draw> draw_workload(Workload w, std::uint64_t seed);

/// The order in which a run walks its pool (a seeded shuffle, cycled).
std::vector<std::uint32_t> query_order(std::size_t pool_size,
                                       std::uint64_t seed);

/// One tab-separated line per draw: index, class, name, algorithm, S, Pi,
/// max_entry, array_dims.
std::string serialize(const std::vector<Draw>& draws);

/// Classes a workload deliberately leaves out because one query would
/// cost too much, with the measured cost that excluded them.
struct ExcludedClass {
  std::string cls;
  std::string reason;
};
std::vector<ExcludedClass> excluded_classes(Workload w);

}  // namespace perfbench
