// The Rational and CheckedRational instantiations of opt/lp_impl.hpp.
#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "opt/ilp.hpp"
#include "opt/lp_impl.hpp"
#include "opt/simplex.hpp"
#include "opt/vertex_enum.hpp"

namespace sysmap::opt {

using exact::CheckedRational;
using exact::Rational;

LpSolution solve_lp(const LinearProgram& lp) {
  return detail::solve_lp_t(lp);
}

BasicLpSolution<CheckedRational> solve_lp(const CheckedLinearProgram& lp) {
  return detail::solve_lp_t(lp);
}

IlpSolution solve_ilp(const IntegerProgram& ip, std::uint64_t node_limit) {
  return detail::solve_ilp_t(ip, node_limit);
}

BasicIlpSolution<CheckedRational> solve_ilp(
    const BasicIntegerProgram<CheckedRational>& ip,
    std::uint64_t node_limit) {
  return detail::solve_ilp_t(ip, node_limit);
}

std::vector<VecQ> enumerate_vertices(const LinearProgram& lp) {
  return detail::enumerate_vertices_t(lp);
}

std::vector<linalg::Vector<CheckedRational>> enumerate_vertices(
    const CheckedLinearProgram& lp) {
  return detail::enumerate_vertices_t(lp);
}

std::optional<VecQ> best_vertex(const LinearProgram& lp,
                                bool require_integral) {
  std::optional<VecQ> best;
  Rational best_obj(0);
  for (VecQ& v : enumerate_vertices(lp)) {
    if (require_integral &&
        !std::all_of(v.begin(), v.end(),
                     [](const Rational& x) { return x.is_integer(); })) {
      continue;
    }
    Rational obj(0);
    for (std::size_t j = 0; j < lp.num_vars; ++j) {
      obj += lp.objective[j] * v[j];
    }
    if (!best || obj < best_obj) {
      best = std::move(v);
      best_obj = std::move(obj);
    }
  }
  return best;
}

}  // namespace sysmap::opt
