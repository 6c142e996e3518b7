// Parity tests for the machine-word fast path: with the CheckedInt
// instantiation enabled (default) and disabled (BigInt-only baseline),
// every public exact-kernel result must be bit-identical -- same HNF
// triples, determinants, LLL bases and ConflictVerdicts (status, rule and
// witness) -- including on inputs engineered to overflow int64 mid-way
// and trigger the transparent BigInt restart.  The same holds for the
// Section 5 LP/ILP route, whose simplex, branch and bound and vertex
// enumeration run over CheckedRational or Rational from one template body.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>

#include "exact/fastpath.hpp"
#include "lattice/hnf.hpp"
#include "lattice/lll.hpp"
#include "linalg/ops.hpp"
#include "mapping/conflict.hpp"
#include "mapping/mapping_matrix.hpp"
#include "mapping/theorems.hpp"
#include "model/gallery.hpp"
#include "model/index_set.hpp"
#include "opt/ilp.hpp"
#include "opt/simplex.hpp"
#include "opt/vertex_enum.hpp"
#include "search/ilp_formulation.hpp"

namespace sysmap {
namespace {

using exact::BigInt;
using exact::CheckedRational;
using exact::FastpathGuard;
using exact::Rational;

// Entries this large make Bareiss / HNF intermediates overflow int64
// almost immediately (products of two such entries exceed 2^63).
constexpr Int kHuge = 2'000'000'000'000'000'000;  // 2e18

MatI random_matrix(std::mt19937& rng, std::size_t rows, std::size_t cols,
                   bool huge_entry) {
  std::uniform_int_distribution<Int> small(-9, 9);
  MatI m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = small(rng);
  }
  if (huge_entry) {
    std::uniform_int_distribution<Int> jitter(0, 1'000'000);
    std::uniform_int_distribution<std::size_t> ri(0, rows - 1);
    std::uniform_int_distribution<std::size_t> ci(0, cols - 1);
    Int v = kHuge + jitter(rng);
    m(ri(rng), ci(rng)) = (jitter(rng) % 2 == 0) ? v : -v;
  }
  return m;
}

void expect_same_verdict(const mapping::ConflictVerdict& fast,
                         const mapping::ConflictVerdict& slow) {
  EXPECT_EQ(fast.status, slow.status);
  EXPECT_EQ(fast.rule, slow.rule);
  ASSERT_EQ(fast.witness.has_value(), slow.witness.has_value());
  if (fast.witness) {
    EXPECT_EQ(*fast.witness, *slow.witness);
  }
}

TEST(Fastpath, HnfParityOn500RandomMatrices) {
  std::mt19937 rng(20260806);
  exact::reset_fastpath_stats();
  for (int iter = 0; iter < 500; ++iter) {
    std::uniform_int_distribution<std::size_t> rd(1, 5);
    std::size_t rows = rd(rng);
    // hermite_normal_form requires rows <= cols (full row rank shape).
    std::size_t cols = std::uniform_int_distribution<std::size_t>(rows, 6)(rng);
    // Every 5th matrix gets an entry near 2e18 so the checked elimination
    // traps mid-computation and restarts over BigInt.
    MatI m = random_matrix(rng, rows, cols, iter % 5 == 0);

    lattice::HnfResult fast, slow;
    bool fast_threw = false;
    bool slow_threw = false;
    try {
      FastpathGuard guard(true);
      fast = lattice::hermite_normal_form(m);
    } catch (const std::domain_error&) {
      fast_threw = true;  // rank-deficient input
    }
    try {
      FastpathGuard guard(false);
      slow = lattice::hermite_normal_form(m);
    } catch (const std::domain_error&) {
      slow_threw = true;
    }
    ASSERT_EQ(fast_threw, slow_threw);
    if (fast_threw) continue;
    EXPECT_EQ(fast.h, slow.h);
    EXPECT_EQ(fast.u, slow.u);
    EXPECT_EQ(fast.v, slow.v);
  }
  exact::FastpathStats stats = exact::fastpath_stats();
  EXPECT_EQ(stats.attempts, 500u);
  EXPECT_GT(stats.fallbacks, 0u);   // the huge entries really did trap
  EXPECT_LT(stats.fallbacks, 500u); // and the small ones really did not
}

TEST(Fastpath, DeterminantParityIncludingOverflow) {
  std::mt19937 rng(7);
  for (int iter = 0; iter < 500; ++iter) {
    std::uniform_int_distribution<std::size_t> nd(1, 5);
    std::size_t n = nd(rng);
    MatI m = random_matrix(rng, n, n, iter % 4 == 0);
    BigInt reference = linalg::determinant(to_bigint(m));
    BigInt dispatched = exact::with_fallback(
        [&] {
          return BigInt(linalg::determinant(to_checked(m)).to_int64());
        },
        [&] { return linalg::determinant(to_bigint(m)); });
    EXPECT_EQ(dispatched, reference);
  }
}

TEST(Fastpath, LllParityOnRandomBases) {
  std::mt19937 rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    std::uniform_int_distribution<std::size_t> nd(2, 5);
    std::size_t n = nd(rng);
    std::uniform_int_distribution<std::size_t> rdim(1, n);
    std::size_t r = rdim(rng);
    MatI m = random_matrix(rng, n, r, iter % 7 == 0);
    MatZ basis = to_bigint(m);
    lattice::LllResult fast, slow;
    bool fast_threw = false;
    bool slow_threw = false;
    try {
      FastpathGuard guard(true);
      fast = lattice::lll_reduce(basis);
    } catch (const std::invalid_argument&) {
      fast_threw = true;
    }
    try {
      FastpathGuard guard(false);
      slow = lattice::lll_reduce(basis);
    } catch (const std::invalid_argument&) {
      slow_threw = true;
    }
    ASSERT_EQ(fast_threw, slow_threw);  // dependent columns on both or none
    if (fast_threw) continue;
    EXPECT_EQ(fast.basis, slow.basis);
    EXPECT_EQ(fast.transform, slow.transform);
  }
}

TEST(Fastpath, ConflictVerdictParityOn500RandomMappings) {
  std::mt19937 rng(4242);
  int decided = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::uniform_int_distribution<std::size_t> nd(2, 5);
    std::size_t n = nd(rng);
    std::uniform_int_distribution<std::size_t> kd(1, n);
    std::size_t k = kd(rng);
    MatI m = random_matrix(rng, k, n, iter % 6 == 0);
    std::uniform_int_distribution<Int> mu(1, 4);
    VecI mus(n);
    for (auto& v : mus) v = mu(rng);
    model::IndexSet set(mus);
    mapping::MappingMatrix t(m);

    auto run = [&](bool enabled) {
      FastpathGuard guard(enabled);
      try {
        return std::make_pair(true, mapping::decide_conflict_free(t, set));
      } catch (const std::domain_error&) {
        // rank-deficient (n-1) x n mapping: no unique conflict vector
        return std::make_pair(false, mapping::ConflictVerdict{});
      }
    };
    auto [fast_ok, fast] = run(true);
    auto [slow_ok, slow] = run(false);
    ASSERT_EQ(fast_ok, slow_ok);
    if (!fast_ok) continue;
    expect_same_verdict(fast, slow);
    ++decided;

    // The enumeration core must agree as well (not just the ladder).
    FastpathGuard on(true);
    mapping::ConflictVerdict exact_fast =
        mapping::decide_conflict_free_exact(t, set);
    FastpathGuard off(false);
    mapping::ConflictVerdict exact_slow =
        mapping::decide_conflict_free_exact(t, set);
    expect_same_verdict(exact_fast, exact_slow);
  }
  EXPECT_GT(decided, 100);  // the generator produces mostly usable cases
}

TEST(Fastpath, TheoremCheckerParity) {
  std::mt19937 rng(1717);
  for (int iter = 0; iter < 300; ++iter) {
    std::uniform_int_distribution<std::size_t> nd(3, 5);
    std::size_t n = nd(rng);
    std::uniform_int_distribution<std::size_t> kd(1, n - 1);
    std::size_t k = kd(rng);
    MatI m = random_matrix(rng, k, n, iter % 5 == 0);
    std::uniform_int_distribution<Int> mu(1, 4);
    VecI mus(n);
    for (auto& v : mus) v = mu(rng);
    model::IndexSet set(mus);
    mapping::MappingMatrix t(m);

    auto check = [&](auto&& fn) {
      mapping::ConflictVerdict fast, slow;
      {
        FastpathGuard guard(true);
        fast = fn();
      }
      {
        FastpathGuard guard(false);
        slow = fn();
      }
      expect_same_verdict(fast, slow);
    };
    check([&] { return mapping::theorem_4_3(t, set); });
    check([&] { return mapping::theorem_4_4(t, set); });
    check([&] { return mapping::theorem_4_5(t, set); });
    check([&] { return mapping::sign_pattern_check(t, set); });
    if (k + 2 == n) {
      check([&] { return mapping::theorem_4_6(t, set); });
      check([&] { return mapping::theorem_4_7(t, set); });
    }
    if (k + 3 == n) check([&] { return mapping::theorem_4_8(t, set); });
  }
}

TEST(Fastpath, OverflowFallbackKeepsResultsAndCounts) {
  // A 2x3 mapping whose cross-product determinants multiply two ~2e18
  // entries: the checked path must trap, fall back, and still match.
  MatI m{{kHuge, 1, 0}, {1, kHuge, 1}};
  mapping::MappingMatrix t(m);
  model::IndexSet set(VecI{3, 3, 3});

  exact::reset_fastpath_stats();
  mapping::ConflictVerdict fast = [&] {
    FastpathGuard guard(true);
    return mapping::decide_conflict_free(t, set);
  }();
  exact::FastpathStats stats = exact::fastpath_stats();
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.fallbacks, 1u);

  mapping::ConflictVerdict slow = [&] {
    FastpathGuard guard(false);
    return mapping::decide_conflict_free(t, set);
  }();
  expect_same_verdict(fast, slow);
}

// ---------------------------------------------------------------------------
// The Section 5 LP/ILP route
// ---------------------------------------------------------------------------

Rational widen(const CheckedRational& q) {
  return Rational(BigInt(q.num().value()), BigInt(q.den().value()));
}

std::vector<Rational> widen(const std::vector<CheckedRational>& v) {
  std::vector<Rational> out;
  for (const CheckedRational& q : v) out.push_back(widen(q));
  return out;
}

// One random small LP, built identically over either scalar: free
// variables, a few <=/>=/= rows with entries in [-4, 4], and box bounds so
// the optimum is usually finite.
template <typename Q>
opt::BasicLinearProgram<Q> random_lp(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Int> entry(-4, 4);
  std::uniform_int_distribution<int> dim(1, 3);
  std::uniform_int_distribution<int> rows(1, 4);
  std::uniform_int_distribution<int> rel(0, 2);
  opt::BasicLinearProgram<Q> lp;
  lp.num_vars = static_cast<std::size_t>(dim(rng));
  for (std::size_t j = 0; j < lp.num_vars; ++j) lp.objective.emplace_back(entry(rng));
  for (int r = rows(rng); r > 0; --r) {
    linalg::Vector<Q> coeffs;
    for (std::size_t j = 0; j < lp.num_vars; ++j) coeffs.emplace_back(entry(rng));
    const int which = rel(rng);
    const opt::Relation relation = which == 0   ? opt::Relation::kLe
                                   : which == 1 ? opt::Relation::kGe
                                                : opt::Relation::kEq;
    // Odd right-hand sides over a denominator 2 make fractional vertices.
    lp.add(std::move(coeffs), relation, Q(entry(rng)) / Q(2));
  }
  for (std::size_t j = 0; j < lp.num_vars; ++j) {
    lp.add_bound(j, opt::Relation::kGe, Q(-5));
    lp.add_bound(j, opt::Relation::kLe, Q(7) / Q(2));
  }
  return lp;
}

TEST(Fastpath, LpIlpVertexParityOnRandomPrograms) {
  for (std::uint32_t seed = 0; seed < 100; ++seed) {
    const opt::LinearProgram slow = random_lp<Rational>(seed);
    const opt::CheckedLinearProgram fast = random_lp<CheckedRational>(seed);

    const opt::LpSolution lp_slow = opt::solve_lp(slow);
    const opt::BasicLpSolution<CheckedRational> lp_fast = opt::solve_lp(fast);
    ASSERT_EQ(lp_fast.status, lp_slow.status) << "seed " << seed;
    EXPECT_EQ(widen(lp_fast.x), lp_slow.x) << "seed " << seed;
    EXPECT_EQ(widen(lp_fast.objective), lp_slow.objective) << "seed " << seed;

    // A small node limit keeps infeasible equality systems cheap and puts
    // truncated trees (kNodeLimit) under the parity check too.
    const std::uint64_t node_limit = 200;
    const opt::IlpSolution ilp_slow = opt::solve_ilp({slow}, node_limit);
    const opt::BasicIlpSolution<CheckedRational> ilp_fast = opt::solve_ilp(
        opt::BasicIntegerProgram<CheckedRational>{fast}, node_limit);
    ASSERT_EQ(ilp_fast.status, ilp_slow.status) << "seed " << seed;
    EXPECT_EQ(ilp_fast.nodes, ilp_slow.nodes) << "seed " << seed;
    EXPECT_EQ(widen(ilp_fast.objective), ilp_slow.objective) << "seed " << seed;
    ASSERT_EQ(ilp_fast.x.size(), ilp_slow.x.size());
    for (std::size_t j = 0; j < ilp_slow.x.size(); ++j) {
      EXPECT_EQ(BigInt(ilp_fast.x[j].value()), ilp_slow.x[j]);
    }

    const std::vector<VecQ> v_slow = opt::enumerate_vertices(slow);
    const auto v_fast = opt::enumerate_vertices(fast);
    ASSERT_EQ(v_fast.size(), v_slow.size()) << "seed " << seed;
    for (std::size_t i = 0; i < v_slow.size(); ++i) {
      EXPECT_EQ(widen(v_fast[i]), v_slow[i]) << "seed " << seed;
    }
  }
}

void expect_same_route(const search::IlpMappingResult& fast,
                       const search::IlpMappingResult& slow) {
  EXPECT_EQ(fast.found, slow.found);
  EXPECT_EQ(fast.pi, slow.pi);
  EXPECT_EQ(fast.objective, slow.objective);
  EXPECT_EQ(fast.lower_bound, slow.lower_bound);
  EXPECT_EQ(fast.rejected, slow.rejected);
  EXPECT_EQ(fast.ilp_nodes, slow.ilp_nodes);
}

// Runs the route with the fast path on for every space, and against the
// BigInt-only oracle on every `oracle_stride`-th one (the oracle is about
// 15x slower).  The 0/+-1 spaces must never need the restart.
void check_route_parity(const model::UniformDependenceAlgorithm& algo,
                        const std::vector<MatI>& spaces,
                        search::SignMode mode, std::size_t oracle_stride) {
  for (std::size_t i = 0; i < spaces.size(); ++i) {
    SCOPED_TRACE(::testing::Message()
                 << "space #" << i << ", mode "
                 << (mode == search::SignMode::kPositive ? "positive"
                                                         : "orthants"));
    exact::reset_fastpath_stats();
    search::IlpMappingResult fast;
    {
      FastpathGuard on(true);
      fast = search::solve_k_equals_n_minus_1(algo, spaces[i], mode);
    }
    EXPECT_EQ(exact::fastpath_stats().fallbacks, 0u);
    if (i % oracle_stride != 0) continue;
    search::IlpMappingResult slow;
    {
      FastpathGuard off(false);
      slow = search::solve_k_equals_n_minus_1(algo, spaces[i], mode);
    }
    expect_same_route(fast, slow);
  }
}

// Every S in {-1, 0, 1}^{rows x n}, in odometer order, keeping each
// `stride`-th full-rank one.
std::vector<MatI> small_spaces(std::size_t rows, std::size_t n,
                               std::size_t stride) {
  std::vector<MatI> out;
  std::size_t full_rank = 0;
  std::vector<Int> digits(rows * n, -1);
  for (;;) {
    MatI s(rows, n);
    for (std::size_t e = 0; e < digits.size(); ++e) s(e / n, e % n) = digits[e];
    if (linalg::rank(s) == rows && full_rank++ % stride == 0) out.push_back(s);
    std::size_t e = 0;
    while (e < digits.size() && digits[e] == 1) digits[e++] = -1;
    if (e == digits.size()) break;
    ++digits[e];
  }
  return out;
}

TEST(Fastpath, IlpRouteParityOn3dGalleryAllSpaces) {
  const std::vector<MatI> spaces = small_spaces(1, 3, 1);
  ASSERT_EQ(spaces.size(), 26u);
  for (Int mu : {Int{4}, Int{16}, Int{1000}}) {
    for (const auto& algo : {model::matmul(mu), model::transitive_closure(mu),
                             model::lu_decomposition(mu)}) {
      check_route_parity(algo, spaces, search::SignMode::kPositive, 1);
      check_route_parity(algo, spaces, search::SignMode::kOrthants, 5);
    }
  }
}

TEST(Fastpath, IlpRouteParityOn4dStridedSpaces) {
  const std::vector<MatI> spaces = small_spaces(2, 4, 241);
  ASSERT_GE(spaces.size(), 20u);
  for (const auto& algo : {model::unit_cube_algorithm(4, 3),
                           model::convolution_2d(2, 3, 2, 2)}) {
    check_route_parity(algo, spaces, search::SignMode::kPositive, 1);
    check_route_parity(algo, spaces, search::SignMode::kOrthants, 6);
  }
}

TEST(Fastpath, ToggleRoundTrips) {
  ASSERT_TRUE(exact::fastpath_enabled());  // default on
  {
    FastpathGuard guard(false);
    EXPECT_FALSE(exact::fastpath_enabled());
    {
      FastpathGuard inner(true);
      EXPECT_TRUE(exact::fastpath_enabled());
    }
    EXPECT_FALSE(exact::fastpath_enabled());
  }
  EXPECT_TRUE(exact::fastpath_enabled());
}

}  // namespace
}  // namespace sysmap
