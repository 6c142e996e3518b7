// Templated simplex, branch and bound and vertex enumeration shared by the
// BigInt Rational substrate and the CheckedRational machine-word fast path.
//
// Both scalars expose the same interface (signum, is_zero, is_integer,
// floor, to_integer, exact field operators and comparisons), so a single
// template body guarantees the two instantiations take bit-identical pivot
// sequences, branch-and-bound trees and vertex lists -- the fast path can
// never change an answer, only the wall-clock.  CheckedRational overflow
// surfaces as exact::OverflowError and is handled by the caller's
// exact::with_fallback (search/ilp_formulation.cpp restarts its whole route
// over Rational).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "opt/ilp.hpp"
#include "opt/simplex.hpp"

namespace sysmap::opt::detail {

// Dense simplex tableau in canonical form.
//   rows_ x (cols_ + 1); last column is the rhs.
//   cost row holds reduced costs and, in the rhs cell, -objective.
template <typename Q>
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        a_(rows, linalg::Vector<Q>(cols + 1, Q(0))),
        cost_(cols + 1, Q(0)),
        basis_(rows, 0) {}

  Q& at(std::size_t i, std::size_t j) { return a_[i][j]; }
  Q& rhs(std::size_t i) { return a_[i][cols_]; }
  Q& cost(std::size_t j) { return cost_[j]; }
  Q& neg_objective() { return cost_[cols_]; }
  std::size_t basis(std::size_t i) const { return basis_[i]; }
  void set_basis(std::size_t i, std::size_t j) { basis_[i] = j; }

  // row -= f * a_[pr], skipping the pivot row's zero entries.
  void eliminate(linalg::Vector<Q>& row, std::size_t pr, std::size_t pc) {
    if (row[pc].is_zero()) return;
    const Q f = row[pc];
    const linalg::Vector<Q>& p = a_[pr];
    for (std::size_t j = 0; j <= cols_; ++j) {
      if (!p[j].is_zero()) row[j] -= f * p[j];
    }
  }

  void pivot(std::size_t pr, std::size_t pc) {
    const Q p = a_[pr][pc];
    for (std::size_t j = 0; j <= cols_; ++j) {
      if (!a_[pr][j].is_zero()) a_[pr][j] /= p;
    }
    for (std::size_t i = 0; i < rows_; ++i) {
      if (i != pr) eliminate(a_[i], pr, pc);
    }
    eliminate(cost_, pr, pc);
    basis_[pr] = pc;
  }

  // Bland's rule iteration.  Returns kOptimal or kUnbounded.
  LpStatus iterate(const std::vector<bool>& allowed) {
    for (;;) {
      // Entering: smallest-index column with negative reduced cost.
      std::size_t enter = cols_;
      for (std::size_t j = 0; j < cols_; ++j) {
        if (allowed[j] && cost_[j].signum() < 0) {
          enter = j;
          break;
        }
      }
      if (enter == cols_) return LpStatus::kOptimal;
      // Leaving: min ratio rhs_i / a_ie over a_ie > 0; ties by smallest
      // basis index (Bland).
      std::size_t leave = rows_;
      Q best;
      for (std::size_t i = 0; i < rows_; ++i) {
        if (a_[i][enter].signum() <= 0) continue;
        Q ratio = a_[i][cols_] / a_[i][enter];
        if (leave == rows_ || ratio < best ||
            (ratio == best && basis_[i] < basis_[leave])) {
          leave = i;
          best = std::move(ratio);
        }
      }
      if (leave == rows_) return LpStatus::kUnbounded;
      pivot(leave, enter);
    }
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<linalg::Vector<Q>> a_;
  linalg::Vector<Q> cost_;
  std::vector<std::size_t> basis_;
};

template <typename Q>
BasicLpSolution<Q> solve_lp_t(const BasicLinearProgram<Q>& lp) {
  const std::size_t n = lp.num_vars;
  const std::size_t m = lp.constraints.size();
  if (lp.objective.size() != n) {
    throw std::invalid_argument("solve_lp: objective width mismatch");
  }

  // Standard-form layout: columns [x+ (n) | x- (n) | slack (s) | artificial
  // (m)].  Every row gets an artificial for a trivially feasible start.
  std::size_t num_slack = 0;
  for (const auto& c : lp.constraints) {
    if (c.rel != Relation::kEq) ++num_slack;
  }
  const std::size_t structural = 2 * n + num_slack;
  const std::size_t cols = structural + m;
  Tableau<Q> t(m, cols);

  std::size_t slack_at = 2 * n;
  for (std::size_t i = 0; i < m; ++i) {
    const BasicConstraint<Q>& c = lp.constraints[i];
    if (c.coeffs.size() != n) {
      throw std::invalid_argument("solve_lp: constraint width mismatch");
    }
    // Orient the row so rhs >= 0.
    const bool flip = c.rhs.signum() < 0;
    for (std::size_t j = 0; j < n; ++j) {
      t.at(i, j) = flip ? -c.coeffs[j] : c.coeffs[j];
      t.at(i, n + j) = -t.at(i, j);
    }
    t.rhs(i) = flip ? -c.rhs : c.rhs;
    Relation rel = c.rel;
    if (flip) {
      if (rel == Relation::kLe) {
        rel = Relation::kGe;
      } else if (rel == Relation::kGe) {
        rel = Relation::kLe;
      }
    }
    if (rel == Relation::kLe) {
      t.at(i, slack_at++) = Q(1);
    } else if (rel == Relation::kGe) {
      t.at(i, slack_at++) = Q(-1);
    }
    // Artificial variable, basic in this row.
    t.at(i, structural + i) = Q(1);
    t.set_basis(i, structural + i);
  }

  std::vector<bool> allowed(cols, true);

  // Phase 1: minimize the sum of artificials.  Canonicalizing that cost
  // row against the artificial basis subtracts every row once from the
  // non-artificial columns and the rhs.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < structural; ++j) t.cost(j) -= t.at(i, j);
    t.neg_objective() -= t.rhs(i);
  }
  if (t.iterate(allowed) == LpStatus::kUnbounded) {
    // Phase-1 objective is bounded below by 0; cannot happen.
    throw std::logic_error("solve_lp: phase 1 unbounded");
  }
  // Feasible iff the phase-1 optimum is 0 (neg_objective holds -optimum).
  if (!t.neg_objective().is_zero()) {
    return {LpStatus::kInfeasible, {}, Q(0)};
  }
  // Drive remaining artificials out of the basis; drop redundant rows by
  // leaving them basic at zero with their column disabled.
  for (std::size_t i = 0; i < m; ++i) {
    if (t.basis(i) < structural) continue;
    for (std::size_t j = 0; j < structural; ++j) {
      if (!t.at(i, j).is_zero()) {
        t.pivot(i, j);
        break;
      }
    }
  }
  for (std::size_t j = structural; j < cols; ++j) allowed[j] = false;

  // Phase 2: original objective c (x+ - x-), canonicalized against the
  // current basis.
  for (std::size_t j = 0; j <= cols; ++j) t.cost(j) = Q(0);
  for (std::size_t j = 0; j < n; ++j) {
    t.cost(j) = lp.objective[j];
    t.cost(n + j) = -lp.objective[j];
  }
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t b = t.basis(i);
    if (t.cost(b).is_zero()) continue;
    const Q f = t.cost(b);
    for (std::size_t j = 0; j <= cols; ++j) {
      if (!t.at(i, j).is_zero()) t.cost(j) -= f * t.at(i, j);
    }
  }
  if (t.iterate(allowed) == LpStatus::kUnbounded) {
    return {LpStatus::kUnbounded, {}, Q(0)};
  }

  // Extract x = x+ - x-.
  linalg::Vector<Q> x(n, Q(0));
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t b = t.basis(i);
    if (b < n) {
      x[b] += t.rhs(i);
    } else if (b < 2 * n) {
      x[b - n] -= t.rhs(i);
    }
  }
  Q obj(0);
  for (std::size_t j = 0; j < n; ++j) obj += lp.objective[j] * x[j];
  return {LpStatus::kOptimal, std::move(x), std::move(obj)};
}

// Depth-first branch and bound; branches on the first fractional variable
// with bounds floor(v) | floor(v) + 1 computed in the scalar's own integer
// type.
template <typename Q>
BasicIlpSolution<Q> solve_ilp_t(const BasicIntegerProgram<Q>& ip,
                                std::uint64_t node_limit) {
  using Z = exact::IntegerOf<Q>;
  BasicIlpSolution<Q> best;
  std::vector<BasicLinearProgram<Q>> stack{ip.relaxation};

  while (!stack.empty()) {
    if (best.nodes >= node_limit) {
      // Truncated: keep the incumbent, if any, but flag the truncation.
      best.status = IlpStatus::kNodeLimit;
      return best;
    }
    ++best.nodes;
    BasicLinearProgram<Q> node = std::move(stack.back());
    stack.pop_back();

    BasicLpSolution<Q> relax = solve_lp_t(node);
    if (relax.status == LpStatus::kUnbounded) {
      if (best.nodes == 1) {  // root relaxation
        best.status = IlpStatus::kUnbounded;
        return best;
      }
      // A bounded-objective parent cannot spawn an unbounded child with
      // added constraints; defensive fallthrough treats it as infeasible.
      continue;
    }
    if (relax.status == LpStatus::kInfeasible) continue;
    // Bound pruning: relaxation is a lower bound for this subtree.
    if (best.status == IlpStatus::kOptimal &&
        !(relax.objective < best.objective)) {
      continue;
    }
    const auto frac =
        std::find_if(relax.x.begin(), relax.x.end(),
                     [](const Q& v) { return !v.is_integer(); });
    if (frac == relax.x.end()) {
      // Integral: the new incumbent (pruning above ensured it improves).
      best.status = IlpStatus::kOptimal;
      best.objective = std::move(relax.objective);
      best.x.clear();
      best.x.reserve(relax.x.size());
      for (const Q& xi : relax.x) best.x.push_back(xi.to_integer());
      continue;
    }
    // Branch: x_i <= floor(v)  |  x_i >= floor(v) + 1.
    const auto var = static_cast<std::size_t>(frac - relax.x.begin());
    const Z fl = frac->floor();
    BasicLinearProgram<Q> down = node;
    down.add_bound(var, Relation::kLe, Q(fl));
    BasicLinearProgram<Q> up = std::move(node);
    up.add_bound(var, Relation::kGe, Q(fl + Z(1)));
    stack.push_back(std::move(down));
    stack.push_back(std::move(up));
  }
  return best;
}

template <typename Q>
bool satisfies(const BasicLinearProgram<Q>& lp, const linalg::Vector<Q>& x) {
  for (const auto& c : lp.constraints) {
    Q lhs(0);
    for (std::size_t j = 0; j < lp.num_vars; ++j) {
      if (!c.coeffs[j].is_zero()) lhs += c.coeffs[j] * x[j];
    }
    switch (c.rel) {
      case Relation::kLe:
        if (lhs > c.rhs) return false;
        break;
      case Relation::kGe:
        if (lhs < c.rhs) return false;
        break;
      case Relation::kEq:
        if (!(lhs == c.rhs)) return false;
        break;
    }
  }
  return true;
}

// Gauss-Jordan on the augmented n x (n+1) system [A | b]; the unique
// solution, or nullopt when A is singular.
template <typename Q>
std::optional<linalg::Vector<Q>> solve_square(
    std::vector<linalg::Vector<Q>> ab) {
  const std::size_t n = ab.size();
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t pivot = c;
    while (pivot < n && ab[pivot][c].is_zero()) ++pivot;
    if (pivot == n) return std::nullopt;
    std::swap(ab[pivot], ab[c]);
    const Q p = ab[c][c];
    for (std::size_t j = c; j <= n; ++j) {
      if (!ab[c][j].is_zero()) ab[c][j] /= p;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i == c || ab[i][c].is_zero()) continue;
      const Q f = ab[i][c];
      for (std::size_t j = c; j <= n; ++j) {
        if (!ab[c][j].is_zero()) ab[i][j] -= f * ab[c][j];
      }
    }
  }
  linalg::Vector<Q> x;
  x.reserve(n);
  for (auto& row : ab) x.push_back(std::move(row[n]));
  return x;
}

template <typename Q>
std::vector<linalg::Vector<Q>> enumerate_vertices_t(
    const BasicLinearProgram<Q>& lp) {
  const std::size_t n = lp.num_vars;
  const std::size_t m = lp.constraints.size();
  std::vector<linalg::Vector<Q>> vertices;
  if (m < n) return vertices;

  // Equality rows are always part of the active set.
  std::vector<std::size_t> eq_rows;
  std::vector<std::size_t> ineq_rows;
  for (std::size_t i = 0; i < m; ++i) {
    if (lp.constraints[i].rel == Relation::kEq) {
      eq_rows.push_back(i);
    } else {
      ineq_rows.push_back(i);
    }
  }
  if (eq_rows.size() > n) return vertices;
  const std::size_t need = n - eq_rows.size();
  if (ineq_rows.size() < need) return vertices;

  std::vector<std::size_t> idx(need);
  for (std::size_t i = 0; i < need; ++i) idx[i] = i;
  for (;;) {
    // Build and solve the active equality system [A | b].
    std::vector<linalg::Vector<Q>> ab;
    ab.reserve(n);
    auto push_row = [&](std::size_t e) {
      ab.push_back(lp.constraints[e].coeffs);
      ab.back().push_back(lp.constraints[e].rhs);
    };
    for (std::size_t e : eq_rows) push_row(e);
    for (std::size_t t = 0; t < need; ++t) push_row(ineq_rows[idx[t]]);
    std::optional<linalg::Vector<Q>> x = solve_square(std::move(ab));
    if (x && satisfies(lp, *x) &&
        std::find(vertices.begin(), vertices.end(), *x) == vertices.end()) {
      vertices.push_back(std::move(*x));
    }
    // Next combination of inequality rows.
    if (need == 0) break;
    std::size_t i = need;
    bool done = false;
    while (i-- > 0) {
      if (idx[i] + (need - i) < ineq_rows.size()) {
        ++idx[i];
        for (std::size_t j = i + 1; j < need; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) done = true;
    }
    if (done) break;
  }
  return vertices;
}

}  // namespace sysmap::opt::detail
