// Tests for the lattice substrate: Hermite normal form (Theorem 4.1),
// Smith normal form, kernel bases, primitivity helpers.
#include <gtest/gtest.h>

#include <random>

#include "lattice/hnf.hpp"
#include "lattice/kernel.hpp"
#include "lattice/smith.hpp"
#include "linalg/ops.hpp"

namespace sysmap::lattice {
namespace {

using exact::BigInt;

void expect_hnf_invariants(const MatI& t, const HnfResult& r) {
  const std::size_t k = t.rows();
  const std::size_t n = t.cols();
  // T U == H.
  EXPECT_EQ(to_bigint(t) * r.u, r.h);
  // U unimodular, V its inverse.
  EXPECT_TRUE(is_unimodular(r.u));
  EXPECT_TRUE(is_unimodular(r.v));
  EXPECT_EQ(r.u * r.v, MatZ::identity(n));
  // H = [L, 0], L lower triangular with positive diagonal.
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_GT(r.h(i, i), BigInt(0)) << "row " << i;
    for (std::size_t j = i + 1; j < n; ++j) {
      EXPECT_TRUE(r.h(i, j).is_zero()) << i << "," << j;
    }
  }
}

TEST(Hnf, PaperExample42) {
  // Example 2.1 / 4.2: T = [[1,7,1,1],[1,7,1,0]].
  MatI t{{1, 7, 1, 1}, {1, 7, 1, 0}};
  HnfResult r = hermite_normal_form(t);
  expect_hnf_invariants(t, r);
  // The kernel columns must span the same lattice as the paper's
  // u_3 = [-1,0,1,0], u_4 = [-7,1,0,0].
  MatZ kernel = r.u.block(0, 4, 2, 4);
  EXPECT_TRUE(lattice_contains(kernel, to_bigint(VecI{-1, 0, 1, 0})));
  EXPECT_TRUE(lattice_contains(kernel, to_bigint(VecI{-7, 1, 0, 0})));
  // And the paper's conflict vectors from Example 2.1.
  EXPECT_TRUE(lattice_contains(kernel, to_bigint(VecI{0, 1, -7, 0})));
  EXPECT_TRUE(lattice_contains(kernel, to_bigint(VecI{7, -1, 0, 0})));
  // But not a non-kernel vector.
  EXPECT_FALSE(lattice_contains(kernel, to_bigint(VecI{1, 0, 0, 0})));
}

TEST(Hnf, SquareUnimodularInput) {
  MatI t{{1, 2}, {3, 7}};  // det = 1
  HnfResult r = hermite_normal_form(t);
  expect_hnf_invariants(t, r);
  // Full-rank square: kernel is empty.
  EXPECT_EQ(kernel_basis(to_bigint(t)).cols(), 0u);
}

TEST(Hnf, RankDeficientThrows) {
  MatI t{{1, 2, 3}, {2, 4, 6}};
  EXPECT_THROW(hermite_normal_form(t), std::domain_error);
  MatI zero(2, 3);
  EXPECT_THROW(hermite_normal_form(zero), std::domain_error);
}

TEST(Hnf, MoreRowsThanColumnsThrows) {
  MatI t{{1}, {2}};
  EXPECT_THROW(hermite_normal_form(t), std::domain_error);
}

TEST(Hnf, SingleRow) {
  MatI t{{4, 6, 10}};
  HnfResult r = hermite_normal_form(t);
  expect_hnf_invariants(t, r);
  EXPECT_EQ(r.h(0, 0).to_int64(), 2);  // gcd(4, 6, 10)
}

class HnfRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(HnfRandomProperty, InvariantsHold) {
  std::mt19937_64 rng(static_cast<unsigned>(GetParam()) * 977u);
  std::uniform_int_distribution<Int> dist(-12, 12);
  std::uniform_int_distribution<int> kd(1, 4);
  for (int iter = 0; iter < 20; ++iter) {
    std::size_t k = static_cast<std::size_t>(kd(rng));
    std::size_t n = k + static_cast<std::size_t>(kd(rng));
    MatI t(k, n);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < n; ++j) t(i, j) = dist(rng);
    }
    if (linalg::rank(to_bigint(t)) < k) continue;  // skip deficient draws
    HnfResult r = hermite_normal_form(t);
    expect_hnf_invariants(t, r);
    // Kernel columns satisfy T gamma = 0 and are primitive.
    for (std::size_t c = k; c < n; ++c) {
      VecZ col = r.u.column_vector(c);
      VecZ mapped = to_bigint(t) * col;
      EXPECT_TRUE(linalg::is_zero_vector(mapped));
      EXPECT_TRUE(is_primitive(col));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HnfRandomProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(KernelBasis, DimensionAndMembership) {
  MatI t{{1, 1, -1}, {1, 4, 1}};  // Example 5.1's T, mu = 4
  MatZ kernel = kernel_basis(t);
  EXPECT_EQ(kernel.rows(), 3u);
  EXPECT_EQ(kernel.cols(), 1u);
  // The unique conflict direction: T gamma = 0 for gamma = (-5, 2, -3).
  EXPECT_TRUE(lattice_contains(kernel, to_bigint(VecI{-5, 2, -3})));
  EXPECT_FALSE(lattice_contains(kernel, to_bigint(VecI{1, 1, 0})));
}

TEST(KernelBasis, ZeroVectorMembership) {
  MatI t{{1, 0, 0}, {0, 1, 0}};
  MatZ kernel = kernel_basis(t);
  EXPECT_TRUE(lattice_contains(kernel, VecZ(3, BigInt(0))));
}

TEST(Primitive, GcdHelpers) {
  EXPECT_EQ(gcd_of(VecI{4, 6, 10}), 2);
  EXPECT_EQ(gcd_of(VecI{0, 0}), 0);
  EXPECT_TRUE(is_primitive(VecI{3, 5}));
  EXPECT_FALSE(is_primitive(VecI{2, 4}));
  EXPECT_EQ(gcd_of(to_bigint(VecI{-4, 6})).to_int64(), 2);
}

TEST(Primitive, MakePrimitiveNormalizesSignAndGcd) {
  EXPECT_EQ(make_primitive(VecI{-2, 4, -6}), (VecI{1, -2, 3}));
  EXPECT_EQ(make_primitive(VecI{0, -3, 6}), (VecI{0, 1, -2}));
  EXPECT_EQ(make_primitive(VecI{0, 0}), (VecI{0, 0}));
  VecZ z = make_primitive(to_bigint(VecI{-14, 7}));
  EXPECT_EQ(z[0].to_int64(), 2);
  EXPECT_EQ(z[1].to_int64(), -1);
}

TEST(Smith, KnownForm) {
  MatI a{{2, 4, 4}, {-6, 6, 12}, {10, 4, 16}};
  SmithResult r = smith_normal_form(to_bigint(a));
  // U A V = S diagonal with divisibility.
  EXPECT_EQ(r.u * to_bigint(a) * r.v, r.s);
  EXPECT_TRUE(is_unimodular(r.u));
  EXPECT_TRUE(is_unimodular(r.v));
  VecZ inv = invariant_factors(to_bigint(a));
  ASSERT_EQ(inv.size(), 3u);
  EXPECT_EQ(inv[0].to_int64(), 2);
  for (std::size_t i = 1; i < inv.size(); ++i) {
    EXPECT_TRUE((inv[i] % inv[i - 1]).is_zero())
        << inv[i].to_string() << " % " << inv[i - 1].to_string();
  }
}

TEST(Smith, RankDeficientAndRectangular) {
  MatI a{{1, 2, 3}, {2, 4, 6}};
  SmithResult r = smith_normal_form(to_bigint(a));
  EXPECT_EQ(r.u * to_bigint(a) * r.v, r.s);
  EXPECT_EQ(invariant_factors(to_bigint(a)).size(), 1u);
  MatI zero(2, 2);
  EXPECT_EQ(invariant_factors(to_bigint(zero)).size(), 0u);
}

class SmithRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(SmithRandomProperty, DecompositionHolds) {
  std::mt19937_64 rng(static_cast<unsigned>(GetParam()) * 1237u);
  std::uniform_int_distribution<Int> dist(-8, 8);
  std::uniform_int_distribution<int> kd(1, 4);
  for (int iter = 0; iter < 15; ++iter) {
    std::size_t rows = static_cast<std::size_t>(kd(rng));
    std::size_t cols = static_cast<std::size_t>(kd(rng));
    MatI a(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) a(i, j) = dist(rng);
    }
    SmithResult r = smith_normal_form(to_bigint(a));
    EXPECT_EQ(r.u * to_bigint(a) * r.v, r.s);
    EXPECT_TRUE(is_unimodular(r.u));
    EXPECT_TRUE(is_unimodular(r.v));
    // Diagonal, non-negative, divisibility chain.
    std::size_t rmax = std::min(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        if (i != j) {
          EXPECT_TRUE(r.s(i, j).is_zero());
        }
      }
    }
    for (std::size_t i = 0; i + 1 < rmax; ++i) {
      if (!r.s(i, i).is_zero() && !r.s(i + 1, i + 1).is_zero()) {
        EXPECT_TRUE((r.s(i + 1, i + 1) % r.s(i, i)).is_zero());
      }
      if (r.s(i, i).is_zero()) {
        EXPECT_TRUE(r.s(i + 1, i + 1).is_zero());  // zeros trail
      }
      EXPECT_GE(r.s(i, i), BigInt(0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmithRandomProperty,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace sysmap::lattice
