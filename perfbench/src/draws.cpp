#include "draws.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "mapping/mapping_matrix.hpp"
#include "model/gallery.hpp"
#include "schedule/linear_schedule.hpp"
#include "stats.hpp"

namespace perfbench {

namespace model = sysmap::model;

namespace {

// Pool sizes: small enough that a run walks each pool several times (so
// every entry weighs the same in the timing statistics), large enough to
// cover each stratum's families and extents.  joint draws are the most
// expensive to check (the cold seed sweep is the oracle).
constexpr std::size_t kSolvePerClass = 60;
constexpr std::size_t kVerifyPerClass = 1400;
constexpr std::size_t kJointPerStratum = 12;

// The catalog behind solve and joint: the same for every --seed.
constexpr std::uint64_t kCatalogSeed = 0x5EED0F5A1CA7A106ULL;
// Seeds of the draw streams are decorrelated from each other and from the
// walk order.
constexpr std::uint64_t kDrawSalt = 0xD1B54A32D192ED03ULL;
constexpr std::uint64_t kOrderSalt = 0x8CB92BA72F3D8DD7ULL;

const char* const k3d[] = {"matmul", "transitive_closure", "lu_decomposition"};
const char* const k4d[] = {"unit_cube", "convolution_2d"};
const char* const k2d[] = {"matvec", "convolution", "edit_distance"};

// Families take turns within a stratum (rather than being drawn), so every
// stratum holds the same mix of families.
template <std::size_t N>
const char* turn(std::size_t i, const char* const (&names)[N]) {
  return names[i % N];
}

// Extents for one family: a single mu for cubes, one per axis otherwise.
AlgoRecipe recipe(Rng& rng, const std::string& family, Int lo, Int hi) {
  AlgoRecipe r{family, {}, {}};
  std::size_t extents = 1;
  if (family == "convolution_2d") extents = 4;
  if (family == "convolution" || family == "edit_distance") extents = 2;
  for (std::size_t i = 0; i < extents; ++i) r.params.push_back(rng.range(lo, hi));
  return r;
}

// Rank of a small integer matrix by fraction-free elimination (entries
// here are in {-1, 0, 1} and n <= 4, far from overflow).
std::size_t small_rank(MatI m) {
  std::size_t rank = 0;
  for (std::size_t c = 0; c < m.cols() && rank < m.rows(); ++c) {
    std::size_t p = rank;
    while (p < m.rows() && m(p, c) == 0) ++p;
    if (p == m.rows()) continue;
    for (std::size_t j = 0; j < m.cols(); ++j) std::swap(m(p, j), m(rank, j));
    for (std::size_t r = rank + 1; r < m.rows(); ++r) {
      const Int a = m(rank, c);
      const Int b = m(r, c);
      for (std::size_t j = 0; j < m.cols(); ++j) {
        m(r, j) = a * m(r, j) - b * m(rank, j);
      }
    }
    ++rank;
  }
  return rank;
}

// S in {-1, 0, 1}^{rows x n} with full row rank.
MatI random_space(Rng& rng, std::size_t rows, std::size_t n) {
  for (;;) {
    MatI s(rows, n);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < n; ++j) s(i, j) = rng.range(-1, 1);
    }
    if (small_rank(s) == rows) return s;
  }
}

struct Shape {
  const char* cls;
  std::size_t n;
  std::size_t rows;  // rows of S = k - 1
};

// solve/verify strata: 3-D k = n-1 (the ILP + certification route), 4-D
// k = n-1, and 4-D k = n-2 (Procedure 5.1 with HNF verdicts).
constexpr Shape kShapes[] = {{"3d_k2", 3, 1}, {"4d_k3", 4, 2}, {"4d_k2", 4, 1}};

AlgoRecipe shape_algorithm(Rng& rng, std::size_t i, const Shape& shape,
                           Int lo3, Int hi3, Int lo4, Int hi4) {
  if (shape.n == 3) return recipe(rng, turn(i, k3d), lo3, hi3);
  return recipe(rng, turn(i, k4d), lo4, hi4);
}

std::vector<Draw> draw_solve(Rng& rng) {
  std::vector<Draw> out;
  for (const Shape& shape : kShapes) {
    for (std::size_t i = 0; i < kSolvePerClass; ++i) {
      Draw d;
      d.cls = shape.cls;
      d.algo = shape_algorithm(rng, i, shape, 4, 12, 2, 3);
      d.space = random_space(rng, shape.rows, shape.n);
      out.push_back(std::move(d));
    }
  }
  return out;
}

// A user-given schedule: half the draws take small entries (mostly
// conflicting designs), half take entries scaled to the extents (mostly
// conflict-free).  Only schedules the CLI's --pi mode accepts are kept --
// Pi D > 0 and rank(T) = k -- so every query reaches the verdict, the
// array design and the simulator.
std::vector<Draw> draw_verify(Rng& rng) {
  std::vector<Draw> out;
  for (const Shape& shape : kShapes) {
    for (std::size_t i = 0; i < kVerifyPerClass; ++i) {
      Draw d;
      d.cls = shape.cls;
      d.algo = shape_algorithm(rng, i / 2, shape, 3, 6, 2, 3);
      d.space = random_space(rng, shape.rows, shape.n);
      const model::UniformDependenceAlgorithm algo = build_algorithm(d.algo);
      Int mu_max = 0;
      for (std::size_t a = 0; a < algo.dimension(); ++a) {
        mu_max = std::max(mu_max, algo.index_set().mu(a));
      }
      // Widths that give each stratum roughly 35-55% conflict-free
      // designs; k = n-2 needs far larger entries than k = n-1 to avoid
      // every short kernel vector.
      const Int m = mu_max + 1;
      Int width = shape.n == 3 ? 3 : 2;
      if (i % 2 == 1) {
        width = shape.n == 3 ? 3 * m : shape.rows == 2 ? 2 * m : m * m * m;
      }
      for (int tries = 0;; ++tries) {
        if (tries > 100000) {
          throw std::logic_error("draw_verify: no valid schedule drawn");
        }
        VecI pi(shape.n);
        for (Int& p : pi) p = rng.range(-width, width);
        if (!sysmap::schedule::respects_dependences(
                pi, algo.dependence_matrix())) {
          continue;
        }
        if (!sysmap::mapping::MappingMatrix(d.space, pi).has_full_rank()) {
          continue;
        }
        d.pi = std::move(pi);
        break;
      }
      out.push_back(std::move(d));
    }
  }
  return out;
}

std::string case_name(const AlgoRecipe& r, std::size_t dims, Int max_entry) {
  std::ostringstream s;
  s << r.family;
  if (r.family == "unit_cube") s << '4';
  s << "_mu";
  for (std::size_t i = 0; i < r.params.size(); ++i) {
    s << (i ? "x" : "") << r.params[i];
  }
  s << "_k" << dims + 1;
  if (max_entry != 1) s << "_e" << max_entry;
  return s.str();
}

Draw joint_draw(std::string cls, AlgoRecipe algo, Int max_entry,
                std::size_t dims) {
  Draw d;
  d.cls = std::move(cls);
  d.name = case_name(algo, dims, max_entry);
  d.algo = std::move(algo);
  d.max_entry = max_entry;
  d.array_dims = dims;
  return d;
}

// Problem 6.2 queries: the five e2e_throughput cases by name, then
// stratified seeded draws over gallery algorithm x mu x max_entry x
// array_dims, each stratum sized so one query stays well under 200 ms.
std::vector<Draw> draw_joint(Rng& rng) {
  std::vector<Draw> out;
  out.push_back(joint_draw("e2e", {"matmul", {12}, {}}, 1, 2));
  out.push_back(joint_draw("e2e", {"unit_cube", {3}, {}}, 1, 1));
  out.push_back(joint_draw("e2e", {"transitive_closure", {12}, {}}, 1, 2));
  out.push_back(joint_draw("e2e", {"matmul", {8}, {}}, 2, 2));
  out.push_back(joint_draw("e2e", {"matmul", {16}, {}}, 1, 1));
  for (std::size_t i = 0; i < kJointPerStratum; ++i) {
    out.push_back(
        joint_draw("3d_square_e1", recipe(rng, turn(i, k3d), 6, 16), 1, 2));
    out.push_back(
        joint_draw("3d_square_e2", recipe(rng, turn(i, k3d), 4, 9), 2, 2));
    out.push_back(
        joint_draw("3d_line_e1", recipe(rng, turn(i, k3d), 6, 16), 1, 1));
    // Unit cubes at mu = 2 would sit between the two cheapest strata and
    // the 3d_square_e2 one, right where the median falls.
    const char* family4d = turn(i, k4d);
    out.push_back(joint_draw(
        "4d_line_e1",
        recipe(rng, family4d, std::string(family4d) == "unit_cube" ? 3 : 2, 3),
        1, 1));
    // Separate statements: argument evaluation order is unspecified, and
    // the draws must not depend on the compiler.
    AlgoRecipe line2d = recipe(rng, turn(i, k2d), 4, 16);
    const Int entry = 1 + static_cast<Int>(i % 2);
    out.push_back(joint_draw("2d_line", std::move(line2d), entry, 1));
  }
  return out;
}

// Poses `d` under other coordinates: a seeded permutation of the axes
// (moving extents, dependence rows, the columns of S and the entries of
// Pi together) and a seeded signed permutation of the rows of S.  Neither
// changes the problem: T = [S; Pi] becomes diag(U, 1) T P, with the same
// conflict vectors up to P and the same optimal objective.
void relabel(Draw& d, Rng& rng) {
  const std::size_t n = build_algorithm(d.algo).dimension();
  std::vector<std::size_t> axes(n);
  for (std::size_t i = 0; i < n; ++i) axes[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(axes[i - 1], axes[rng.below(i)]);
  d.algo.axes = axes;
  if (d.space.rows() > 0) {
    std::vector<std::size_t> rows(d.space.rows());
    for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    for (std::size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[rng.below(i)]);
    }
    MatI s(d.space.rows(), n);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const Int sign = rng.below(2) == 0 ? 1 : -1;
      for (std::size_t c = 0; c < n; ++c) {
        s(r, c) = sign * d.space(rows[r], axes[c]);
      }
    }
    d.space = std::move(s);
  }
  if (!d.pi.empty()) {
    VecI pi(n);
    for (std::size_t c = 0; c < n; ++c) pi[c] = d.pi[axes[c]];
    d.pi = std::move(pi);
  }
}

std::string format_matrix(const MatI& m) {
  std::ostringstream s;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    s << (i ? ";" : "");
    for (std::size_t j = 0; j < m.cols(); ++j) s << (j ? " " : "") << m(i, j);
  }
  return s.str();
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "solve") return Workload::kSolve;
  if (name == "joint") return Workload::kJoint;
  if (name == "verify") return Workload::kVerify;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSolve:
      return "solve";
    case Workload::kJoint:
      return "joint";
    case Workload::kVerify:
      return "verify";
  }
  return "?";
}

namespace {

model::UniformDependenceAlgorithm gallery_algorithm(const AlgoRecipe& r) {
  const auto& p = r.params;
  auto need = [&](std::size_t count) {
    if (p.size() != count) {
      throw std::invalid_argument("build_algorithm: wrong extents for " +
                                  r.family);
    }
  };
  if (r.family == "matmul") {
    need(1);
    return model::matmul(p[0]);
  }
  if (r.family == "transitive_closure") {
    need(1);
    return model::transitive_closure(p[0]);
  }
  if (r.family == "lu_decomposition") {
    need(1);
    return model::lu_decomposition(p[0]);
  }
  if (r.family == "unit_cube") {
    need(1);
    return model::unit_cube_algorithm(4, p[0]);
  }
  if (r.family == "convolution_2d") {
    need(4);
    return model::convolution_2d(p[0], p[1], p[2], p[3]);
  }
  if (r.family == "matvec") {
    need(1);
    return model::matvec(p[0]);
  }
  if (r.family == "convolution") {
    need(2);
    return model::convolution(p[0], p[1]);
  }
  if (r.family == "edit_distance") {
    need(2);
    return model::edit_distance(p[0], p[1]);
  }
  throw std::invalid_argument("build_algorithm: unknown family " + r.family);
}

}  // namespace

model::UniformDependenceAlgorithm build_algorithm(const AlgoRecipe& r) {
  model::UniformDependenceAlgorithm base = gallery_algorithm(r);
  if (r.axes.empty()) return base;
  const std::size_t n = base.dimension();
  if (r.axes.size() != n) {
    throw std::invalid_argument("build_algorithm: axes do not match " +
                                r.family);
  }
  const MatI& d = base.dependence_matrix();
  VecI mu(n);
  MatI moved(n, d.cols());
  for (std::size_t i = 0; i < n; ++i) {
    mu[i] = base.index_set().mu(r.axes[i]);
    for (std::size_t c = 0; c < d.cols(); ++c) moved(i, c) = d(r.axes[i], c);
  }
  return {base.name(), model::IndexSet(std::move(mu)), std::move(moved)};
}

std::vector<Draw> draw_workload(Workload w, std::uint64_t seed) {
  Rng rng(seed ^ kDrawSalt);
  if (w == Workload::kVerify) return draw_verify(rng);
  Rng catalog(kCatalogSeed);
  if (w == Workload::kJoint) return draw_joint(catalog);
  std::vector<Draw> draws = draw_solve(catalog);
  for (Draw& d : draws) relabel(d, rng);
  return draws;
}

std::vector<std::uint32_t> query_order(std::size_t pool_size,
                                       std::uint64_t seed) {
  std::vector<std::uint32_t> order(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  Rng rng(seed ^ kOrderSalt);
  for (std::size_t i = pool_size; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

std::string serialize(const std::vector<Draw>& draws) {
  std::ostringstream s;
  s << "index\tclass\tname\talgorithm\tS\tPi\tmax_entry\tarray_dims\n";
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const Draw& d = draws[i];
    s << i << '\t' << d.cls << '\t' << (d.name.empty() ? "-" : d.name) << '\t'
      << d.algo.family << '(';
    for (std::size_t j = 0; j < d.algo.params.size(); ++j) {
      s << (j ? "," : "") << d.algo.params[j];
    }
    s << ')';
    if (!d.algo.axes.empty()) {
      s << '[';
      for (std::size_t j = 0; j < d.algo.axes.size(); ++j) {
        s << (j ? "," : "") << d.algo.axes[j];
      }
      s << ']';
    }
    s << '\t' << (d.space.rows() ? format_matrix(d.space) : "-") << '\t';
    if (d.pi.empty()) {
      s << '-';
    } else {
      for (std::size_t j = 0; j < d.pi.size(); ++j) {
        s << (j ? " " : "") << d.pi[j];
      }
    }
    s << '\t' << d.max_entry << '\t' << d.array_dims << '\n';
  }
  return s.str();
}

std::vector<ExcludedClass> excluded_classes(Workload w) {
  if (w != Workload::kJoint) return {};
  return {{"4d_k3 joint sweep (array_dims = 2 on a 4-D algorithm)",
           "780 candidate spaces, 15-48 s per query at max_entry 1 on a "
           "4-core host; solve carries the 4-D k = n-1 route one space at a "
           "time instead"}};
}

}  // namespace perfbench
