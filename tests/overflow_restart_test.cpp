// Deterministic int64-overflow fixtures: every test here is built so the
// machine-word fast path MUST trap and restart over BigInt, then asserts
// the restarted verdict is identical to the all-BigInt oracle.  This pins
// the exactness story of the fast path: overflow is a performance event,
// never a correctness event.  This covers the exact kernel (HNF, conflict
// vectors, the fixed-space screens) and the Section 5 LP/ILP route.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "exact/fastpath.hpp"
#include "lattice/hnf.hpp"
#include "linalg/ops.hpp"
#include "mapping/conflict.hpp"
#include "mapping/mapping_matrix.hpp"
#include "mapping/theorems.hpp"
#include "model/gallery.hpp"
#include "model/index_set.hpp"
#include "opt/ilp.hpp"
#include "search/fixed_space.hpp"
#include "search/ilp_formulation.hpp"

namespace sysmap {
namespace {

using exact::FastpathGuard;
using search::ConflictOracle;
using search::FixedSpaceContext;

constexpr Int kHuge = Int{1} << 62;  // any product with |x| > 1 overflows

// S = [huge, 3, 1] with n = 3: T = [S; Pi] is the (n-1) x n shape of
// Theorem 3.1, and the Prop 3.2 cofactor matrix contains S's entries
// themselves, so the raw/checked conflict-vector cross products multiply
// kHuge by pi components and overflow for any |pi_i| >= 2 while staying
// well-defined over BigInt.
MatI adversarial_space() {
  MatI s(1, 3);
  s(0, 0) = kHuge;
  s(0, 1) = 3;
  s(0, 2) = 1;
  return s;
}

TEST(OverflowRestartTest, WithFallbackRestartsAndCountsHnf) {
  // Doubling a huge column during the HNF reduction overflows CheckedInt.
  MatI t(1, 2);
  t(0, 0) = kHuge;
  t(0, 1) = kHuge - 1;

  exact::reset_fastpath_stats();
  lattice::HnfResult viafast = lattice::hermite_normal_form(t);
  exact::FastpathStats stats = exact::fastpath_stats();
  EXPECT_GE(stats.attempts, 1u);
  EXPECT_GE(stats.fallbacks, 1u) << "fixture failed to force the restart";

  lattice::HnfResult oracle;
  {
    FastpathGuard off(false);
    oracle = lattice::hermite_normal_form(t);
  }
  EXPECT_EQ(viafast.h, oracle.h);
  EXPECT_EQ(viafast.u, oracle.u);
  EXPECT_EQ(viafast.v, oracle.v);
}

TEST(OverflowRestartTest, WithFallbackParityUniqueConflictVector) {
  mapping::MappingMatrix t(adversarial_space(), VecI{5, 7, 2});

  exact::reset_fastpath_stats();
  VecZ viafast = mapping::unique_conflict_vector(t);
  EXPECT_GE(exact::fastpath_stats().fallbacks, 1u)
      << "fixture failed to force the restart";

  VecZ oracle;
  {
    FastpathGuard off(false);
    oracle = mapping::unique_conflict_vector(t);
  }
  EXPECT_EQ(viafast, oracle);
}

// FixedSpaceContext::screen on the raw cofactor path: the stack-buffer
// int64 screen returns nullopt on overflow and the context restarts in
// BigInt.  Verdicts must match a context that never saw the fast path and
// the from-scratch theorem dispatch.
TEST(OverflowRestartTest, FixedSpaceScreenParityUnderOverflow) {
  const model::IndexSet set = model::IndexSet::cube(3, 10);
  const MatI space = adversarial_space();
  FixedSpaceContext ctx(set, space);

  // pi sweep with entries large enough that cof * pi overflows int64.
  for (Int a = -4; a <= 4; ++a) {
    for (Int b = -4; b <= 4; ++b) {
      for (Int c = -4; c <= 4; ++c) {
        if (a == 0 && b == 0 && c == 0) continue;
        VecI pi{a, b, c};
        std::optional<mapping::ConflictVerdict> fast =
            ctx.screen(ConflictOracle::kPaperTheorems, pi);

        std::optional<mapping::ConflictVerdict> slow;
        {
          FastpathGuard off(false);
          mapping::MappingMatrix t(space, pi);
          if (t.has_full_rank()) {
            mapping::ConflictVerdict v = mapping::theorem_3_1(t, set);
            if (v.status == mapping::ConflictVerdict::Status::kConflictFree) {
              slow = v;
            }
          }
        }

        ASSERT_EQ(fast.has_value(), slow.has_value())
            << "screen parity broke at pi = (" << a << ", " << b << ", " << c
            << ")";
        if (fast) {
          EXPECT_EQ(fast->status, slow->status);
          EXPECT_EQ(fast->rule, slow->rule);
        }
      }
    }
  }
}

TEST(OverflowRestartTest, FixedSpaceVerdictParityUnderOverflow) {
  const model::IndexSet set = model::IndexSet::cube(3, 10);
  const MatI space = adversarial_space();
  FixedSpaceContext ctx(set, space);

  for (Int a = -3; a <= 3; ++a) {
    for (Int b = -3; b <= 3; ++b) {
      for (Int c = -3; c <= 3; ++c) {
        VecI pi{a, b, c};
        mapping::MappingMatrix t(space, pi);
        if (!t.has_full_rank()) continue;

        mapping::ConflictVerdict fast =
            ctx.verdict(ConflictOracle::kExact, pi);
        mapping::ConflictVerdict slow;
        {
          FastpathGuard off(false);
          slow = mapping::decide_conflict_free(t, set);
        }
        EXPECT_EQ(fast.status, slow.status)
            << "verdict parity broke at pi = (" << a << ", " << b << ", " << c
            << ")";
        EXPECT_EQ(fast.witness.has_value(), slow.witness.has_value());
        if (fast.witness && slow.witness) {
          EXPECT_EQ(*fast.witness, *slow.witness);
        }
      }
    }
  }
}

// Large-mu fixture: mu values near int64's ceiling make the Theorem 2.2
// comparison product mu_i * g overflow; the raw screen documents that this
// particular overflow decides the test (bound exceeds |gamma_i|) rather
// than restarting.  The verdict must still match the BigInt oracle.
TEST(OverflowRestartTest, LargeMuComparisonOverflowParity) {
  VecI mu{Int{1} << 40, Int{1} << 40, Int{1} << 40};
  const model::IndexSet set(mu);
  MatI space(1, 3);
  space(0, 0) = (Int{1} << 41) + 1;  // odd: gcd with pi stays small
  space(0, 1) = 3;
  space(0, 2) = 7;
  FixedSpaceContext ctx(set, space);

  for (Int a = -4; a <= 4; ++a) {
    for (Int b = -4; b <= 4; ++b) {
      for (Int c = -4; c <= 4; ++c) {
        if (a == 0 && b == 0 && c == 0) continue;
        VecI pi{a, b, c};
        std::optional<mapping::ConflictVerdict> fast =
            ctx.screen(ConflictOracle::kPaperTheorems, pi);

        std::optional<mapping::ConflictVerdict> slow;
        {
          FastpathGuard off(false);
          mapping::MappingMatrix t(space, pi);
          if (t.has_full_rank()) {
            mapping::ConflictVerdict v = mapping::theorem_3_1(t, set);
            if (v.status == mapping::ConflictVerdict::Status::kConflictFree) {
              slow = v;
            }
          }
        }
        ASSERT_EQ(fast.has_value(), slow.has_value())
            << "large-mu parity broke at pi = (" << a << ", " << b << ", " << c
            << ")";
      }
    }
  }
}

// The Section 5 ILP route with an S entry near 2^40: the Prop 3.2
// cofactors F carry that entry into the branch constraint F_row Pi >=
// mu_row + 1, and the simplex products built from it leave int64.  The
// whole route must restart over BigInt and return the oracle's answer.
MatI near_2_40_space() {
  MatI s(1, 3);
  s(0, 0) = (Int{1} << 40) + 1;
  s(0, 1) = 3;
  s(0, 2) = 1;
  return s;
}

exact::CheckedRational narrow(const exact::Rational& q) {
  return {exact::CheckedInt(q.num().to_int64()),
          exact::CheckedInt(q.den().to_int64())};
}

opt::CheckedLinearProgram narrow(const opt::LinearProgram& lp) {
  opt::CheckedLinearProgram out;
  out.num_vars = lp.num_vars;
  for (const exact::Rational& c : lp.objective) out.objective.push_back(narrow(c));
  for (const opt::Constraint& row : lp.constraints) {
    linalg::Vector<exact::CheckedRational> coeffs;
    for (const exact::Rational& c : row.coeffs) coeffs.push_back(narrow(c));
    out.add(std::move(coeffs), row.rel, narrow(row.rhs));
  }
  return out;
}

TEST(OverflowRestartTest, IlpRouteOverflowsOnCheckedBranch) {
  // The overflow comes from the route's own LP arithmetic, not from the
  // verdicts it calls: a checked branch ILP traps on its own.
  const model::UniformDependenceAlgorithm algo = model::matmul(4);
  const MatZ f = search::conflict_coefficients(near_2_40_space());
  bool trapped = false;
  for (std::size_t row = 0; row < 3 && !trapped; ++row) {
    for (int side : {+1, -1}) {
      const opt::LinearProgram lp = search::build_branch(algo, f, row, side);
      try {
        opt::solve_ilp(opt::BasicIntegerProgram<exact::CheckedRational>{
            narrow(lp)});
      } catch (const exact::OverflowError&) {
        trapped = true;
        break;
      }
    }
  }
  EXPECT_TRUE(trapped) << "no branch ILP left int64";
}

TEST(OverflowRestartTest, IlpRouteRestartParity) {
  const model::UniformDependenceAlgorithm algo = model::matmul(4);
  const MatI space = near_2_40_space();
  for (search::SignMode mode :
       {search::SignMode::kPositive, search::SignMode::kOrthants}) {
    exact::reset_fastpath_stats();
    const search::IlpMappingResult viafast =
        search::solve_k_equals_n_minus_1(algo, space, mode);
    EXPECT_GE(exact::fastpath_stats().fallbacks, 1u)
        << "fixture failed to force the restart";

    search::IlpMappingResult oracle;
    {
      FastpathGuard off(false);
      oracle = search::solve_k_equals_n_minus_1(algo, space, mode);
    }
    EXPECT_EQ(viafast.found, oracle.found);
    EXPECT_EQ(viafast.pi, oracle.pi);
    EXPECT_EQ(viafast.objective, oracle.objective);
    EXPECT_EQ(viafast.lower_bound, oracle.lower_bound);
    EXPECT_EQ(viafast.rejected, oracle.rejected);
    EXPECT_EQ(viafast.ilp_nodes, oracle.ilp_nodes);
  }
}

}  // namespace
}  // namespace sysmap
