#include "search/ilp_formulation.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "exact/fastpath.hpp"
#include "linalg/ops.hpp"
#include "mapping/conflict.hpp"
#include "opt/vertex_enum.hpp"
#include "schedule/linear_schedule.hpp"

namespace sysmap::search {

using exact::BigInt;
using exact::CheckedRational;
using exact::Rational;

MatZ conflict_coefficients(const MatI& space) {
  const std::size_t n = space.cols();
  if (space.rows() + 2 != n) {
    throw std::invalid_argument(
        "conflict_coefficients: S must be (n-2) x n");
  }
  MatZ s = to_bigint(space);
  MatZ f(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < n; ++c) {
      if (c == i) continue;
      // Minor of S with columns i and c removed.
      MatZ sub(n - 2, n - 2);
      std::size_t cc = 0;
      for (std::size_t col = 0; col < n; ++col) {
        if (col == i || col == c) continue;
        for (std::size_t row = 0; row < n - 2; ++row) {
          sub(row, cc) = s(row, col);
        }
        ++cc;
      }
      BigInt det = linalg::determinant(sub);
      std::size_t pos = c < i ? c : c - 1;
      // gamma_i(Pi) = (-1)^i * det(T_{-i}); expand T_{-i} along the Pi row.
      int sign = ((i % 2 == 0) ? 1 : -1) * (((n - 2 + pos) % 2 == 0) ? 1 : -1);
      f(i, c) = sign > 0 ? det : -det;
    }
  }
  return f;
}

namespace {

// Branch (row, side) of (5.1)-(5.2).  With `sigma` (orthant mode, entries
// +-1) the pi_i >= 1 bounds give way to the sign bounds sigma_i pi_i >= 0,
// appended last, and the objective becomes sum mu_i sigma_i pi_i.
template <typename Q>
opt::BasicLinearProgram<Q> branch_lp(
    const model::UniformDependenceAlgorithm& algo, const MatZ& f_coeffs,
    std::size_t row, int side, const std::vector<int>* sigma) {
  const model::IndexSet& set = algo.index_set();
  const MatI& d = algo.dependence_matrix();
  const std::size_t n = set.dimension();

  opt::BasicLinearProgram<Q> lp;
  lp.num_vars = n;
  lp.objective.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Q mu(set.mu(i));
    lp.objective.push_back(sigma != nullptr && (*sigma)[i] < 0 ? -mu : mu);
  }
  // Positivity: pi_i >= 1 (the paper's Examples 5.1/5.2 regime).
  if (sigma == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      lp.add_bound(i, opt::Relation::kGe, Q(1));
    }
  }
  // Pi D > 0, integrally: Pi d_j >= 1.
  for (std::size_t j = 0; j < d.cols(); ++j) {
    linalg::Vector<Q> coeffs;
    coeffs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) coeffs.emplace_back(d(i, j));
    lp.add(std::move(coeffs), opt::Relation::kGe, Q(1));
  }
  // The chosen disjunct of constraint 3: side * F_row . Pi >= mu_row + 1.
  linalg::Vector<Q> coeffs;
  coeffs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // On the checked side a cofactor must fit in int64; to_int64() throws
    // OverflowError otherwise, which restarts the route over Rational.
    Q c;
    if constexpr (std::is_same_v<Q, Rational>) {
      c = Q(f_coeffs(row, i));
    } else {
      c = Q(f_coeffs(row, i).to_int64());
    }
    coeffs.push_back(side > 0 ? c : -c);
  }
  lp.add(std::move(coeffs), opt::Relation::kGe, Q(set.mu(row)) + Q(1));
  if (sigma != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      lp.add_bound(i, (*sigma)[i] > 0 ? opt::Relation::kGe : opt::Relation::kLe,
                   Q(0));
    }
  }
  return lp;
}

// The whole route for one scalar: every branch ILP and the appendix vertex
// fallback.  Run over CheckedRational first and restarted over Rational by
// solve_k_equals_n_minus_1, so any overflow anywhere discards the partial
// result and the answer is always the Rational one.
template <typename Q>
IlpMappingResult solve_route(const model::UniformDependenceAlgorithm& algo,
                             const MatI& space, const MatZ& f_coeffs,
                             SignMode sign_mode) {
  const model::IndexSet& set = algo.index_set();
  const std::size_t n = set.dimension();

  IlpMappingResult result;
  bool have_lower = false;
  bool truncated = false;

  auto verify = [&](const VecI& pi) {
    mapping::MappingMatrix t(space, pi);
    schedule::LinearSchedule sched(pi);
    return sched.respects_dependences(algo.dependence_matrix()) &&
           t.has_full_rank() &&
           mapping::decide_conflict_free(t, set).conflict_free();
  };
  auto accept = [&](VecI pi, Int objective) {
    if (!result.found || objective < result.objective) {
      result.found = true;
      result.pi = std::move(pi);
      result.objective = objective;
    }
  };

  auto consider = [&](opt::BasicLinearProgram<Q> lp) {
    const opt::BasicIntegerProgram<Q> ip{std::move(lp)};
    opt::BasicIlpSolution<Q> sol = opt::solve_ilp(ip);
    result.ilp_nodes += sol.nodes;
    // A truncated branch may hide a cheaper optimum: it voids the bound.
    if (sol.status == opt::IlpStatus::kNodeLimit) truncated = true;
    if (sol.status != opt::IlpStatus::kOptimal) return;
    Int objective = sol.objective.to_integer().to_int64();
    if (!have_lower || objective < result.lower_bound) {
      result.lower_bound = objective;
      have_lower = true;
    }
    VecI pi;
    for (const auto& x : sol.x) pi.push_back(x.to_int64());
    // Verify: the branch constraint used the unscaled gamma(Pi); the true
    // conflict vector is its primitive form (appendix gcd caveat).
    if (verify(pi)) {
      accept(std::move(pi), objective);
      return;
    }
    if (std::find(result.rejected.begin(), result.rejected.end(), pi) ==
        result.rejected.end()) {
      result.rejected.push_back(std::move(pi));
    }
    // Appendix fallback: alternative optima of the branch usually sit at
    // other extreme points ("Pi_1 is not feasible ... Pi_2 is"); enumerate
    // the branch's integral vertices in objective order and verify.
    struct Candidate {
      VecI pi;
      Int objective;
    };
    std::vector<Candidate> candidates;
    for (const auto& vertex : opt::enumerate_vertices(ip.relaxation)) {
      if (!std::all_of(vertex.begin(), vertex.end(),
                       [](const Q& x) { return x.is_integer(); })) {
        continue;
      }
      VecI vpi;
      vpi.reserve(vertex.size());
      for (const Q& x : vertex) vpi.push_back(x.to_integer().to_int64());
      Int vobj = schedule::LinearSchedule(vpi).objective(set);
      candidates.push_back({std::move(vpi), vobj});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.objective < b.objective ||
                       (a.objective == b.objective && a.pi < b.pi);
              });
    for (auto& c : candidates) {
      if (result.found && c.objective >= result.objective) break;
      if (verify(c.pi)) {
        accept(std::move(c.pi), c.objective);
        break;
      }
    }
  };

  for (std::size_t row = 0; row < n; ++row) {
    for (int side : {+1, -1}) {
      if (sign_mode == SignMode::kPositive) {
        consider(branch_lp<Q>(algo, f_coeffs, row, side, nullptr));
        continue;
      }
      // Enumerate all 2^n sign orthants.
      std::vector<int> sigma(n, -1);
      for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
        for (std::size_t i = 0; i < n; ++i) {
          sigma[i] = (mask >> i) & 1 ? 1 : -1;
        }
        consider(branch_lp<Q>(algo, f_coeffs, row, side, &sigma));
      }
    }
  }
  if (truncated) result.lower_bound = 0;
  return result;
}

}  // namespace

opt::LinearProgram build_branch(const model::UniformDependenceAlgorithm& algo,
                                const MatZ& f_coeffs, std::size_t row,
                                int side) {
  return branch_lp<Rational>(algo, f_coeffs, row, side, nullptr);
}

IlpMappingResult solve_k_equals_n_minus_1(
    const model::UniformDependenceAlgorithm& algo, const MatI& space,
    SignMode sign_mode) {
  if (space.rows() + 2 != algo.index_set().dimension()) {
    throw std::invalid_argument(
        "solve_k_equals_n_minus_1: S must be (n-2) x n");
  }
  const MatZ f_coeffs = conflict_coefficients(space);
  return exact::with_fallback(
      [&] {
        return solve_route<CheckedRational>(algo, space, f_coeffs, sign_mode);
      },
      [&] { return solve_route<Rational>(algo, space, f_coeffs, sign_mode); });
}

}  // namespace sysmap::search
