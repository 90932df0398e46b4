#include "factor/dense.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace sptrsv {

namespace {

/// Two doubles in one SSE2 register (GCC vector extension; the baseline
/// x86-64 ISA, so no fused multiply-add can sneak in).
typedef Real V2 __attribute__((vector_size(2 * sizeof(Real))));

V2 load2(const Real* p) {
  V2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store2(Real* p, V2 v) { std::memcpy(p, &v, sizeof(v)); }

constexpr Idx kPackDepth = 128;  // k steps of B packed at a time
constexpr Idx kRowBlock = 256;   // rows of A (and of a TRSM panel) kept in cache

/// Up to four columns of B packed per k step for one register tile: each
/// value Sign * b(p,j) twice (a ready SSE2 operand), and a bit per column
/// set when the value is nonzero.
struct PackedB {
  V2 val[kPackDepth * 4];
  unsigned char nonzero[kPackDepth];
};

template <int Sign, int NR>
void pack_b(Idx kc, const Real* b, Idx ldb, PackedB& pb) {
  for (Idx p = 0; p < kc; ++p) {
    unsigned char bits = 0;
    for (int j = 0; j < NR; ++j) {
      const Real v = Sign * b[static_cast<size_t>(j) * ldb + p];
      pb.val[p * NR + j] = V2{v, v};
      bits |= static_cast<unsigned char>((v != 0.0) << j);
    }
    pb.nonzero[p] = bits;
  }
}

/// Register tile: C(0:MR, 0:NR) += A(0:MR, 0:kc) * packed B, with the tile
/// of C held in registers across the k loop.
template <int MR, int NR>
void gemm_tile(Idx kc, const Real* a, Idx lda, const PackedB& pb, Real* c, Idx ldc) {
  static_assert(MR == 1 || MR % 2 == 0);
  constexpr unsigned kAll = (1u << NR) - 1;
  if constexpr (MR == 1) {
    Real acc[NR];
    for (int j = 0; j < NR; ++j) acc[j] = c[static_cast<size_t>(j) * ldc];
    for (Idx p = 0; p < kc; ++p) {
      const Real ap = a[static_cast<size_t>(p) * lda];
      const unsigned bits = pb.nonzero[p];
#pragma GCC unroll 4
      for (int j = 0; j < NR; ++j) {
        if (bits & (1u << j)) acc[j] += ap * pb.val[p * NR + j][0];
      }
    }
    for (int j = 0; j < NR; ++j) c[static_cast<size_t>(j) * ldc] = acc[j];
  } else {
    constexpr int kVecs = MR / 2;
    V2 acc[NR][kVecs];
#pragma GCC unroll 4
    for (int j = 0; j < NR; ++j) {
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) acc[j][v] = load2(c + static_cast<size_t>(j) * ldc + 2 * v);
    }
    for (Idx p = 0; p < kc; ++p) {
      V2 ap[kVecs];
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) ap[v] = load2(a + static_cast<size_t>(p) * lda + 2 * v);
      const V2* bp = pb.val + p * NR;
      const unsigned bits = pb.nonzero[p];
      if (bits == kAll) {
#pragma GCC unroll 4
        for (int j = 0; j < NR; ++j) {
#pragma GCC unroll 4
          for (int v = 0; v < kVecs; ++v) acc[j][v] += ap[v] * bp[j];
        }
      } else {
#pragma GCC unroll 4
        for (int j = 0; j < NR; ++j) {
          if (!(bits & (1u << j))) continue;
#pragma GCC unroll 4
          for (int v = 0; v < kVecs; ++v) acc[j][v] += ap[v] * bp[j];
        }
      }
    }
#pragma GCC unroll 4
    for (int j = 0; j < NR; ++j) {
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) store2(c + static_cast<size_t>(j) * ldc + 2 * v, acc[j][v]);
    }
  }
}

/// NR columns of C over k steps p0..p0+kc, all rows: 4-row tiles, then the
/// 2-row and 1-row remainders.
template <int NR>
void gemm_panel(Idx m, Idx kc, const Real* a, Idx lda, const PackedB& pb, Real* c, Idx ldc) {
  Idx i = 0;
  for (; i + 4 <= m; i += 4) gemm_tile<4, NR>(kc, a + i, lda, pb, c + i, ldc);
  if (i + 2 <= m) {
    gemm_tile<2, NR>(kc, a + i, lda, pb, c + i, ldc);
    i += 2;
  }
  if (i < m) gemm_tile<1, NR>(kc, a + i, lda, pb, c + i, ldc);
}

template <int Sign, int NR>
void gemm_columns(Idx m, Idx k, const Real* a, Idx lda, const Real* b, Idx ldb, Real* c,
                  Idx ldc, PackedB& pb) {
  for (Idx p0 = 0; p0 < k; p0 += kPackDepth) {
    const Idx kc = std::min(kPackDepth, k - p0);
    pack_b<Sign, NR>(kc, b + p0, ldb, pb);
    gemm_panel<NR>(m, kc, a + static_cast<size_t>(p0) * lda, lda, pb, c, ldc);
  }
}

/// The one GEMM kernel: C +/-= A*B with arbitrary leading dimensions.
///
/// Every C(i,j) receives `c += a(i,p) * (Sign * b(p,j))` for p ascending,
/// each product and sum rounded on its own, and skips the step exactly when
/// `b(p,j) == 0` — the arithmetic of the plain jki loop, so the result is
/// bit-identical to it. Only the traversal differs: B is packed four
/// columns at a time and 4 x 4 tiles of C stay in registers across the k
/// loop instead of being reloaded per column.
template <int Sign>
void gemm_ld(Idx m, Idx k, Idx n, const Real* a, Idx lda, const Real* b, Idx ldb,
             Real* c, Idx ldc) {
  // One pack per thread: the kernel never yields, so fibers sharing the
  // thread cannot interleave inside it, and fiber stacks stay small.
  thread_local PackedB pb;
  for (Idx i0 = 0; i0 < m; i0 += kRowBlock) {  // keep the A block in cache
    const Idx mc = std::min(kRowBlock, m - i0);
    Idx j = 0;
    for (; j + 4 <= n; j += 4) {
      gemm_columns<Sign, 4>(mc, k, a + i0, lda, b + static_cast<size_t>(j) * ldb, ldb,
                            c + static_cast<size_t>(j) * ldc + i0, ldc, pb);
    }
    for (; j < n; ++j) {
      gemm_columns<Sign, 1>(mc, k, a + i0, lda, b + static_cast<size_t>(j) * ldb, ldb,
                            c + static_cast<size_t>(j) * ldc + i0, ldc, pb);
    }
  }
}

}  // namespace

void gemm_minus(Idx m, Idx k, Idx n, std::span<const Real> a, std::span<const Real> b,
                std::span<Real> c) {
  assert(a.size() >= static_cast<size_t>(m) * k);
  assert(b.size() >= static_cast<size_t>(k) * n);
  assert(c.size() >= static_cast<size_t>(m) * n);
  gemm_ld<-1>(m, k, n, a.data(), m, b.data(), k, c.data(), m);
}

void gemm_plus(Idx m, Idx k, Idx n, std::span<const Real> a, std::span<const Real> b,
               std::span<Real> c) {
  assert(a.size() >= static_cast<size_t>(m) * k);
  assert(b.size() >= static_cast<size_t>(k) * n);
  assert(c.size() >= static_cast<size_t>(m) * n);
  gemm_ld<+1>(m, k, n, a.data(), m, b.data(), k, c.data(), m);
}

void gemm_minus_ld(Idx m, Idx k, Idx n, std::span<const Real> a, Idx lda,
                   std::span<const Real> b, Idx ldb, std::span<Real> c, Idx ldc) {
  gemm_ld<-1>(m, k, n, a.data(), lda, b.data(), ldb, c.data(), ldc);
}

void gemm_plus_ld(Idx m, Idx k, Idx n, std::span<const Real> a, Idx lda,
                  std::span<const Real> b, Idx ldb, std::span<Real> c, Idx ldc) {
  gemm_ld<+1>(m, k, n, a.data(), lda, b.data(), ldb, c.data(), ldc);
}

bool lu_unpivoted_inplace(Idx n, std::span<Real> a) {
  assert(a.size() >= static_cast<size_t>(n) * n);
  for (Idx k = 0; k < n; ++k) {
    const Real pivot = a[static_cast<size_t>(k) * n + k];
    if (pivot == 0.0) return false;
    const Real inv_pivot = 1.0 / pivot;
    for (Idx i = k + 1; i < n; ++i) {
      a[static_cast<size_t>(k) * n + i] *= inv_pivot;  // L(i,k)
    }
    for (Idx j = k + 1; j < n; ++j) {
      const Real ukj = a[static_cast<size_t>(j) * n + k];
      if (ukj == 0.0) continue;
      Real* col_j = a.data() + static_cast<size_t>(j) * n;
      const Real* col_k = a.data() + static_cast<size_t>(k) * n;
      for (Idx i = k + 1; i < n; ++i) {
        col_j[i] -= col_k[i] * ukj;
      }
    }
  }
  return true;
}

void invert_unit_lower(Idx n, std::span<const Real> a, std::span<Real> out) {
  assert(out.size() >= static_cast<size_t>(n) * n);
  // Column-by-column forward substitution: out(:,j) = L^{-1} e_j.
  for (Idx j = 0; j < n; ++j) {
    Real* col = out.data() + static_cast<size_t>(j) * n;
    for (Idx i = 0; i < n; ++i) col[i] = (i == j) ? 1.0 : 0.0;
    for (Idx k = j; k < n; ++k) {
      const Real v = col[k];
      if (v == 0.0) continue;
      const Real* lk = a.data() + static_cast<size_t>(k) * n;
      for (Idx i = k + 1; i < n; ++i) {
        col[i] -= lk[i] * v;
      }
    }
  }
}

void invert_upper(Idx n, std::span<const Real> a, std::span<Real> out) {
  assert(out.size() >= static_cast<size_t>(n) * n);
  // Back substitution per column: out(:,j) = U^{-1} e_j.
  for (Idx j = 0; j < n; ++j) {
    Real* col = out.data() + static_cast<size_t>(j) * n;
    for (Idx i = 0; i < n; ++i) col[i] = (i == j) ? 1.0 : 0.0;
    for (Idx k = j; k >= 0; --k) {
      col[k] /= a[static_cast<size_t>(k) * n + k];
      const Real v = col[k];
      if (v == 0.0) continue;
      const Real* uk = a.data() + static_cast<size_t>(k) * n;
      for (Idx i = 0; i < k; ++i) {
        col[i] -= uk[i] * v;
      }
    }
  }
}

void trsm_right_upper(Idx m, Idx n, std::span<const Real> lu, std::span<Real> b) {
  // Solve X * U = B column by column of U: X(:,j) = (B(:,j) - X(:,0:j)*U(0:j,j)) / U(j,j).
  // Rows are independent, so a block of them is solved at a time while its
  // columns stay in cache; each element sees the same operations in the
  // same order as in one sweep over all rows.
  for (Idx i0 = 0; i0 < m; i0 += kRowBlock) {
    const Idx mb = std::min(kRowBlock, m - i0);
    for (Idx j = 0; j < n; ++j) {
      Real* bj = b.data() + static_cast<size_t>(j) * m + i0;
      const Real* uj = lu.data() + static_cast<size_t>(j) * n;
      for (Idx k = 0; k < j; ++k) {
        const Real ukj = uj[k];
        if (ukj == 0.0) continue;
        const Real* bk = b.data() + static_cast<size_t>(k) * m + i0;
        for (Idx i = 0; i < mb; ++i) bj[i] -= bk[i] * ukj;
      }
      const Real inv = 1.0 / uj[j];
      for (Idx i = 0; i < mb; ++i) bj[i] *= inv;
    }
  }
}

void trsm_left_unit_lower(Idx n, Idx m, std::span<const Real> lu, std::span<Real> b) {
  // Solve L * X = B: forward substitution down the rows, one RHS column at
  // a time (the columns are independent).
  for (Idx j = 0; j < m; ++j) {
    Real* bj = b.data() + static_cast<size_t>(j) * n;
    for (Idx k = 0; k < n; ++k) {
      const Real v = bj[k];
      if (v == 0.0) continue;
      const Real* lk = lu.data() + static_cast<size_t>(k) * n;
      for (Idx i = k + 1; i < n; ++i) {
        bj[i] -= lk[i] * v;
      }
    }
  }
}

Real frob_diff(std::span<const Real> a, std::span<const Real> b) {
  assert(a.size() == b.size());
  Real acc = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const Real d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

}  // namespace sptrsv
