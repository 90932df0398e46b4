#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <random>
#include <vector>

#include "factor/dense.hpp"

namespace sptrsv {
namespace {

std::vector<Real> random_matrix(Idx m, Idx n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> uni(-1.0, 1.0);
  std::vector<Real> a(static_cast<size_t>(m) * n);
  for (auto& v : a) v = uni(rng);
  return a;
}

/// Well-conditioned square matrix: random + n on the diagonal.
std::vector<Real> random_dd(Idx n, std::uint64_t seed) {
  auto a = random_matrix(n, n, seed);
  for (Idx i = 0; i < n; ++i) a[static_cast<size_t>(i) * n + i] += n;
  return a;
}

std::vector<Real> matmul(Idx m, Idx k, Idx n, const std::vector<Real>& a,
                         const std::vector<Real>& b) {
  std::vector<Real> c(static_cast<size_t>(m) * n, 0.0);
  gemm_plus(m, k, n, a, b, c);
  return c;
}

TEST(Dense, GemmMinusMatchesNaive) {
  const Idx m = 5, k = 4, n = 3;
  const auto a = random_matrix(m, k, 1);
  const auto b = random_matrix(k, n, 2);
  auto c = random_matrix(m, n, 3);
  const auto c0 = c;
  gemm_minus(m, k, n, a, b, c);
  for (Idx j = 0; j < n; ++j) {
    for (Idx i = 0; i < m; ++i) {
      Real acc = c0[static_cast<size_t>(j) * m + i];
      for (Idx p = 0; p < k; ++p) {
        acc -= a[static_cast<size_t>(p) * m + i] * b[static_cast<size_t>(j) * k + p];
      }
      EXPECT_NEAR(c[static_cast<size_t>(j) * m + i], acc, 1e-13);
    }
  }
}

TEST(Dense, GemmPlusUndoesGemmMinus) {
  const Idx m = 6, k = 6, n = 2;
  const auto a = random_matrix(m, k, 4);
  const auto b = random_matrix(k, n, 5);
  auto c = random_matrix(m, n, 6);
  const auto c0 = c;
  gemm_minus(m, k, n, a, b, c);
  gemm_plus(m, k, n, a, b, c);
  EXPECT_LT(frob_diff(c, c0), 1e-12);
}

TEST(Dense, GemmLdUpdatesEmbeddedBlock) {
  // C is a 3x2 block at row offset 1 inside a 6-row panel.
  const Idx m = 3, k = 2, n = 2, ldc = 6;
  const auto a = random_matrix(m, k, 7);
  const auto b = random_matrix(k, n, 8);
  std::vector<Real> panel(static_cast<size_t>(ldc) * n, 1.0);
  std::vector<Real> expect = panel;
  gemm_minus_ld(m, k, n, a, m, b, k, std::span<Real>(panel).subspan(1), ldc);
  for (Idx j = 0; j < n; ++j) {
    for (Idx i = 0; i < m; ++i) {
      Real acc = 1.0;
      for (Idx p = 0; p < k; ++p) {
        acc -= a[static_cast<size_t>(p) * m + i] * b[static_cast<size_t>(j) * k + p];
      }
      expect[static_cast<size_t>(j) * ldc + 1 + i] = acc;
    }
  }
  EXPECT_LT(frob_diff(panel, expect), 1e-13);
}

/// The plain jki loop the GEMM kernel must reproduce bit for bit: for each
/// C(i,j), c += a(i,p) * (sign * b(p,j)) for p ascending, skipping the step
/// exactly when b(p,j) == 0.
void reference_gemm(Real sign, Idx m, Idx k, Idx n, const Real* a, Idx lda, const Real* b,
                    Idx ldb, Real* c, Idx ldc) {
  for (Idx j = 0; j < n; ++j) {
    for (Idx p = 0; p < k; ++p) {
      const Real bpj = sign * b[static_cast<size_t>(j) * ldb + p];
      if (bpj == 0.0) continue;
      for (Idx i = 0; i < m; ++i) {
        c[static_cast<size_t>(j) * ldc + i] += a[static_cast<size_t>(p) * lda + i] * bpj;
      }
    }
  }
}

bool same_bits(const std::vector<Real>& x, const std::vector<Real>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(Real)) == 0;
}

TEST(Dense, GemmLdMatchesJkiLoopBitwise) {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<Real> uni(-1.0, 1.0);
  auto pick = [&](Idx lo, Idx hi) {
    return std::uniform_int_distribution<Idx>(lo, hi)(rng);
  };
  auto chance = [&](double p) { return std::uniform_real_distribution<>(0, 1)(rng) < p; };
  // Random shapes straddle the register-tile edges; the last few also cross
  // the packing depth and row-block boundaries.
  std::vector<std::array<Idx, 3>> shapes;
  for (int t = 0; t < 150; ++t) shapes.push_back({pick(1, 100), pick(1, 100), pick(1, 100)});
  shapes.push_back({300, 260, 9});
  shapes.push_back({513, 129, 5});
  for (const auto& [m, k, n] : shapes) {
    const Idx lda = m + pick(0, 3), ldb = k + pick(0, 3), ldc = m + pick(0, 3);
    std::vector<Real> a(static_cast<size_t>(lda) * k), b(static_cast<size_t>(ldb) * n),
        c(static_cast<size_t>(ldc) * n);
    for (auto& v : a) v = uni(rng);
    for (Idx i = 0; i < m; ++i) {  // all-zero A rows, some of them -0
      if (!chance(0.2)) continue;
      const Real z = chance(0.5) ? 0.0 : -0.0;
      for (Idx p = 0; p < k; ++p) a[static_cast<size_t>(p) * lda + i] = z;
    }
    for (Idx j = 0; j < n; ++j) {
      const bool zero_col = chance(0.15);
      for (Idx p = 0; p < ldb; ++p) {
        Real& v = b[static_cast<size_t>(j) * ldb + p];
        v = (zero_col || chance(0.1)) ? (chance(0.5) ? 0.0 : -0.0) : uni(rng);
      }
    }
    for (auto& v : c) v = chance(0.1) ? -0.0 : uni(rng);  // a skipped step keeps -0
    for (const Real sign : {-1.0, 1.0}) {
      auto got = c, want = c;
      reference_gemm(sign, m, k, n, a.data(), lda, b.data(), ldb, want.data(), ldc);
      if (sign < 0) {
        gemm_minus_ld(m, k, n, a, lda, b, ldb, got, ldc);
      } else {
        gemm_plus_ld(m, k, n, a, lda, b, ldb, got, ldc);
      }
      ASSERT_TRUE(same_bits(got, want))
          << "m=" << m << " k=" << k << " n=" << n << " sign=" << sign;
    }
  }
}

/// The unblocked TRSM loops the library kernels must reproduce bit for bit.
void reference_trsm_right_upper(Idx m, Idx n, const std::vector<Real>& lu,
                                std::vector<Real>& b) {
  for (Idx j = 0; j < n; ++j) {
    for (Idx k = 0; k < j; ++k) {
      const Real ukj = lu[static_cast<size_t>(j) * n + k];
      if (ukj == 0.0) continue;
      for (Idx i = 0; i < m; ++i) {
        b[static_cast<size_t>(j) * m + i] -= b[static_cast<size_t>(k) * m + i] * ukj;
      }
    }
    const Real inv = 1.0 / lu[static_cast<size_t>(j) * n + j];
    for (Idx i = 0; i < m; ++i) b[static_cast<size_t>(j) * m + i] *= inv;
  }
}

void reference_trsm_left_unit_lower(Idx n, Idx m, const std::vector<Real>& lu,
                                    std::vector<Real>& b) {
  for (Idx k = 0; k < n; ++k) {
    for (Idx j = 0; j < m; ++j) {
      const Real v = b[static_cast<size_t>(j) * n + k];
      if (v == 0.0) continue;
      for (Idx i = k + 1; i < n; ++i) {
        b[static_cast<size_t>(j) * n + i] -= lu[static_cast<size_t>(k) * n + i] * v;
      }
    }
  }
}

TEST(Dense, TrsmMatchesUnblockedLoopsBitwise) {
  for (const auto& [m, n] : {std::pair<Idx, Idx>{7, 5}, {600, 13}, {257, 40}}) {
    auto lu = random_dd(n, 61);
    for (Idx i = 0; i < n; ++i) lu[static_cast<size_t>(i) * n + i] *= -1.0;  // negative pivots
    lu[static_cast<size_t>(n - 1) * n] = 0.0;                             // a skipped U entry
    auto b = random_matrix(m, n, 62);
    for (Idx j = 0; j < n; ++j) b[static_cast<size_t>(j) * m] = 0.0;  // a zero row of B
    auto got = b, want = b;
    trsm_right_upper(m, n, lu, got);
    reference_trsm_right_upper(m, n, lu, want);
    EXPECT_TRUE(same_bits(got, want)) << "right, m=" << m;

    auto bl = random_matrix(n, m, 63);
    for (Idx j = 0; j < m; j += 3) bl[static_cast<size_t>(j) * n] = 0.0;
    auto got_l = bl, want_l = bl;
    trsm_left_unit_lower(n, m, lu, got_l);
    reference_trsm_left_unit_lower(n, m, lu, want_l);
    EXPECT_TRUE(same_bits(got_l, want_l)) << "left, m=" << m;
  }
}

TEST(Dense, LuFactorizationReconstructs) {
  const Idx n = 8;
  const auto a0 = random_dd(n, 11);
  auto lu = a0;
  ASSERT_TRUE(lu_unpivoted_inplace(n, lu));
  // Rebuild L (unit lower) and U (upper) and multiply.
  std::vector<Real> l(static_cast<size_t>(n) * n, 0.0), u(static_cast<size_t>(n) * n, 0.0);
  for (Idx j = 0; j < n; ++j) {
    l[static_cast<size_t>(j) * n + j] = 1.0;
    for (Idx i = 0; i < n; ++i) {
      if (i > j) {
        l[static_cast<size_t>(j) * n + i] = lu[static_cast<size_t>(j) * n + i];
      } else {
        u[static_cast<size_t>(j) * n + i] = lu[static_cast<size_t>(j) * n + i];
      }
    }
  }
  const auto prod = matmul(n, n, n, l, u);
  EXPECT_LT(frob_diff(prod, a0), 1e-10);
}

TEST(Dense, LuDetectsZeroPivot) {
  std::vector<Real> a = {0.0, 1.0, 1.0, 0.0};  // 2x2 antidiagonal
  EXPECT_FALSE(lu_unpivoted_inplace(2, a));
}

TEST(Dense, InvertUnitLower) {
  const Idx n = 7;
  auto lu = random_dd(n, 21);
  ASSERT_TRUE(lu_unpivoted_inplace(n, lu));
  std::vector<Real> linv(static_cast<size_t>(n) * n);
  invert_unit_lower(n, lu, linv);
  // L * Linv == I.
  std::vector<Real> l(static_cast<size_t>(n) * n, 0.0);
  for (Idx j = 0; j < n; ++j) {
    l[static_cast<size_t>(j) * n + j] = 1.0;
    for (Idx i = j + 1; i < n; ++i) l[static_cast<size_t>(j) * n + i] = lu[static_cast<size_t>(j) * n + i];
  }
  const auto prod = matmul(n, n, n, l, linv);
  std::vector<Real> eye(static_cast<size_t>(n) * n, 0.0);
  for (Idx i = 0; i < n; ++i) eye[static_cast<size_t>(i) * n + i] = 1.0;
  EXPECT_LT(frob_diff(prod, eye), 1e-11);
}

TEST(Dense, InvertUpper) {
  const Idx n = 7;
  auto lu = random_dd(n, 22);
  ASSERT_TRUE(lu_unpivoted_inplace(n, lu));
  std::vector<Real> uinv(static_cast<size_t>(n) * n);
  invert_upper(n, lu, uinv);
  std::vector<Real> u(static_cast<size_t>(n) * n, 0.0);
  for (Idx j = 0; j < n; ++j) {
    for (Idx i = 0; i <= j; ++i) u[static_cast<size_t>(j) * n + i] = lu[static_cast<size_t>(j) * n + i];
  }
  const auto prod = matmul(n, n, n, u, uinv);
  std::vector<Real> eye(static_cast<size_t>(n) * n, 0.0);
  for (Idx i = 0; i < n; ++i) eye[static_cast<size_t>(i) * n + i] = 1.0;
  EXPECT_LT(frob_diff(prod, eye), 1e-11);
}

TEST(Dense, TrsmRightUpper) {
  const Idx m = 4, n = 5;
  auto lu = random_dd(n, 31);
  ASSERT_TRUE(lu_unpivoted_inplace(n, lu));
  const auto b0 = random_matrix(m, n, 32);
  auto x = b0;
  trsm_right_upper(m, n, lu, x);
  // X * U should equal B.
  std::vector<Real> u(static_cast<size_t>(n) * n, 0.0);
  for (Idx j = 0; j < n; ++j) {
    for (Idx i = 0; i <= j; ++i) u[static_cast<size_t>(j) * n + i] = lu[static_cast<size_t>(j) * n + i];
  }
  const auto prod = matmul(m, n, n, x, u);
  EXPECT_LT(frob_diff(prod, b0), 1e-11);
}

TEST(Dense, TrsmLeftUnitLower) {
  const Idx n = 5, m = 3;
  auto lu = random_dd(n, 41);
  ASSERT_TRUE(lu_unpivoted_inplace(n, lu));
  const auto b0 = random_matrix(n, m, 42);
  auto x = b0;
  trsm_left_unit_lower(n, m, lu, x);
  std::vector<Real> l(static_cast<size_t>(n) * n, 0.0);
  for (Idx j = 0; j < n; ++j) {
    l[static_cast<size_t>(j) * n + j] = 1.0;
    for (Idx i = j + 1; i < n; ++i) l[static_cast<size_t>(j) * n + i] = lu[static_cast<size_t>(j) * n + i];
  }
  const auto prod = matmul(n, n, m, l, x);
  EXPECT_LT(frob_diff(prod, b0), 1e-11);
}

TEST(Dense, InverseConsistentWithTrsm) {
  // Multiplying by the precomputed inverse (what the solver does, per the
  // paper) must agree with the triangular solve (what factorization does).
  const Idx n = 6, m = 4;
  auto lu = random_dd(n, 51);
  ASSERT_TRUE(lu_unpivoted_inplace(n, lu));
  std::vector<Real> uinv(static_cast<size_t>(n) * n);
  invert_upper(n, lu, uinv);

  const auto b0 = random_matrix(m, n, 52);
  auto via_trsm = b0;
  trsm_right_upper(m, n, lu, via_trsm);
  std::vector<Real> via_inv(static_cast<size_t>(m) * n, 0.0);
  gemm_plus(m, n, n, b0, uinv, via_inv);
  EXPECT_LT(frob_diff(via_trsm, via_inv), 1e-10);
}

}  // namespace
}  // namespace sptrsv
