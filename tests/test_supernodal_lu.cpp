#include <gtest/gtest.h>

#include <cstring>

#include "factor/sptrsv_seq.hpp"
#include "factor/supernodal_lu.hpp"
#include "ordering/etree.hpp"
#include "sparse/generators.hpp"
#include "sparse/paper_matrices.hpp"
#include "symbolic/colcounts.hpp"

namespace sptrsv {
namespace {

SupernodalLU factor(const CsrMatrix& a, const SupernodeOptions& opt = {}) {
  const auto parent = elimination_tree(a);
  const auto counts = cholesky_col_counts(a, parent);
  return factor_supernodal(a, block_symbolic(a, find_supernodes(parent, counts, opt)));
}

/// Max |L*U - A| over all entries, via the dense reconstruction.
Real reconstruction_error(const CsrMatrix& a, const SupernodalLU& f) {
  const auto prod = f.reconstruct_dense();
  const Idx n = a.rows();
  Real worst = 0;
  for (Idx i = 0; i < n; ++i) {
    for (Idx j = 0; j < n; ++j) {
      worst = std::max(worst, std::abs(prod[static_cast<size_t>(j) * n + i] - a.at(i, j)));
    }
  }
  return worst;
}

/// The uncompacted right-looking factorization: one dense block GEMM per
/// (I,J) pair of below[K], zero rows and columns included. The library's
/// compacted Schur update must reproduce it bit for bit.
SupernodalLU factor_dense_blocks(const CsrMatrix& a, SymbolicStructure sym0) {
  SupernodalLU f = init_supernodal_storage(a, std::move(sym0));
  const SymbolicStructure& sym = f.sym;
  const auto& part = sym.part;
  for (Idx k = 0; k < sym.num_supernodes(); ++k) {
    const size_t ks = static_cast<size_t>(k);
    const Idx w = part.width(k);
    EXPECT_TRUE(lu_unpivoted_inplace(w, f.diag[ks]));
    f.diag_linv[ks].assign(static_cast<size_t>(w) * w, 0.0);
    f.diag_uinv[ks].assign(static_cast<size_t>(w) * w, 0.0);
    invert_unit_lower(w, f.diag[ks], f.diag_linv[ks]);
    invert_upper(w, f.diag[ks], f.diag_uinv[ks]);
    const Idx r = sym.panel_rows[ks];
    if (r == 0) continue;
    trsm_right_upper(r, w, f.diag[ks], f.lpanel[ks]);
    trsm_left_unit_lower(w, r, f.diag[ks], f.upanel[ks]);
    const auto& below = sym.below[ks];
    const auto& boff = sym.below_offset[ks];
    for (size_t bi = 0; bi < below.size(); ++bi) {
      const Idx I = below[bi], wi = part.width(I);
      const auto lik = std::span<const Real>(f.lpanel[ks]).subspan(boff[bi]);
      for (size_t bj = 0; bj < below.size(); ++bj) {
        const Idx J = below[bj], wj = part.width(J);
        const auto ukj =
            std::span<const Real>(f.upanel[ks]).subspan(static_cast<size_t>(boff[bj]) * w);
        if (I == J) {
          gemm_minus_ld(wi, w, wj, lik, r, ukj, w, f.diag[static_cast<size_t>(I)], wi);
        } else if (I > J) {
          const Idx off = sym.below_offset[static_cast<size_t>(J)]
                                          [static_cast<size_t>(sym.find_block(J, I))];
          gemm_minus_ld(wi, w, wj, lik, r, ukj, w,
                        std::span<Real>(f.lpanel[static_cast<size_t>(J)]).subspan(off),
                        sym.panel_rows[static_cast<size_t>(J)]);
        } else {
          const Idx off = sym.below_offset[static_cast<size_t>(I)]
                                          [static_cast<size_t>(sym.find_block(I, J))];
          gemm_minus_ld(wi, w, wj, lik, r, ukj, w,
                        std::span<Real>(f.upanel[static_cast<size_t>(I)])
                            .subspan(static_cast<size_t>(off) * wi),
                        wi);
        }
      }
    }
  }
  return f;
}

bool same_bits(const std::vector<std::vector<Real>>& x,
               const std::vector<std::vector<Real>>& y) {
  if (x.size() != y.size()) return false;
  for (size_t k = 0; k < x.size(); ++k) {
    if (x[k].size() != y[k].size() ||
        (!x[k].empty() &&
         std::memcmp(x[k].data(), y[k].data(), x[k].size() * sizeof(Real)) != 0)) {
      return false;
    }
  }
  return true;
}

TEST(SupernodalLu, CompactedSchurUpdateMatchesDenseBlocksBitwise) {
  // Relaxed supernodes leave all-zero rows and columns in the panels; the
  // negated matrices add negative pivots, so the panels also hold -0; the
  // third variant stores explicit -0 entries in A itself.
  for (const PaperMatrix which : all_paper_matrices()) {
    for (const char* variant : {"", " negated", " with -0 entries"}) {
      CsrMatrix a = make_paper_matrix(which, MatrixScale::kTiny);
      const std::string what = paper_matrix_name(which) + variant;
      if (variant[0] == ' ' && variant[1] == 'n') {
        for (Real& v : a.values_mut()) v = -v;
      } else if (variant[0] == ' ') {
        for (Idx i = 0; i < a.rows(); ++i) {
          const auto cols = a.row_cols(i);
          for (size_t t = 0; t < cols.size(); t += 3) {
            if (cols[t] != i) a.values_mut()[static_cast<size_t>(a.rowptr()[i]) + t] = -0.0;
          }
        }
      }
      const auto parent = elimination_tree(a);
      const auto counts = cholesky_col_counts(a, parent);
      const SymbolicStructure sym = block_symbolic(a, find_supernodes(parent, counts));
      const SupernodalLU got = factor_supernodal(a, sym);
      const SupernodalLU want = factor_dense_blocks(a, sym);
      EXPECT_TRUE(same_bits(got.diag, want.diag)) << what;
      EXPECT_TRUE(same_bits(got.lpanel, want.lpanel)) << what;
      EXPECT_TRUE(same_bits(got.upanel, want.upanel)) << what;
      EXPECT_TRUE(same_bits(got.diag_linv, want.diag_linv)) << what;
      EXPECT_TRUE(same_bits(got.diag_uinv, want.diag_uinv)) << what;
    }
  }
}

TEST(SupernodalLu, ReconstructsBanded) {
  const CsrMatrix a = make_banded(20, 3);
  EXPECT_LT(reconstruction_error(a, factor(a)), 1e-10);
}

TEST(SupernodalLu, ReconstructsGrid2d) {
  const CsrMatrix a = make_grid2d(6, 6, Stencil2d::kNinePoint);
  EXPECT_LT(reconstruction_error(a, factor(a)), 1e-10);
}

TEST(SupernodalLu, ReconstructsGrid3d) {
  const CsrMatrix a = make_grid3d(3, 3, 4, Stencil3d::kSevenPoint);
  EXPECT_LT(reconstruction_error(a, factor(a)), 1e-10);
}

TEST(SupernodalLu, ReconstructsRandoms) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const CsrMatrix a = make_random_symmetric(48, 3.0, seed);
    EXPECT_LT(reconstruction_error(a, factor(a)), 1e-10) << "seed " << seed;
  }
}

TEST(SupernodalLu, NarrowSupernodesStillCorrect) {
  const CsrMatrix a = make_grid2d(5, 7, Stencil2d::kFivePoint);
  SupernodeOptions opt;
  opt.max_width = 1;  // fully scalar
  opt.relax_width = 0;
  EXPECT_LT(reconstruction_error(a, factor(a, opt)), 1e-10);
}

TEST(SupernodalLu, WideRelaxationStillCorrect) {
  const CsrMatrix a = make_grid2d(6, 6, Stencil2d::kFivePoint);
  SupernodeOptions opt;
  opt.relax_width = 16;
  opt.max_width = 24;
  EXPECT_LT(reconstruction_error(a, factor(a, opt)), 1e-10);
}

TEST(SupernodalLu, SolveFlopsPositiveAndScalesWithRhs) {
  const CsrMatrix a = make_grid2d(6, 6, Stencil2d::kFivePoint);
  const auto f = factor(a);
  const double f1 = f.solve_flops(1);
  const double f50 = f.solve_flops(50);
  EXPECT_GT(f1, 0);
  EXPECT_DOUBLE_EQ(f50, 50.0 * f1);
}

TEST(AnalyzeAndFactor, EndToEndOnPaperMatrix) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  EXPECT_TRUE(is_permutation(fs.perm));
  EXPECT_TRUE(fs.tree.check_invariants(a.rows()));
  EXPECT_EQ(fs.lu.n(), a.rows());
}

TEST(AnalyzeAndFactor, SupernodesRespectTreeBoundaries) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  // Every supernode must live inside exactly one tracked tree node range.
  for (Idx k = 0; k < fs.lu.num_supernodes(); ++k) {
    const Idx lo = fs.lu.sym.part.first_col(k);
    const Idx hi = lo + fs.lu.sym.part.width(k) - 1;
    EXPECT_EQ(fs.tree.node_of_column(lo), fs.tree.node_of_column(hi))
        << "supernode " << k << " straddles a separator boundary";
  }
}

TEST(AnalyzeAndFactor, ExpertOptionsPipeline) {
  // Full-options pipeline: min-degree leaf ordering, tight supernodes.
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  AnalyzeOptions opt;
  opt.nd.levels = 2;
  opt.nd.leaf_ordering = LeafOrdering::kMinDegree;
  opt.supernode.max_width = 24;
  opt.supernode.forced_breaks = {1, 2, 3};  // must be ignored/overwritten
  const FactoredSystem fs = analyze_and_factor(a, opt);
  EXPECT_TRUE(is_permutation(fs.perm));
  for (Idx k = 0; k < fs.lu.num_supernodes(); ++k) {
    EXPECT_LE(fs.lu.sym.part.width(k), 24);
  }
  // Still solves correctly.
  std::vector<Real> b(static_cast<size_t>(a.rows()), 1.0);
  const auto x = solve_system_seq(fs, b);
  EXPECT_LT(relative_residual(a, x, b), 1e-10);
}

TEST(AnalyzeAndFactor, ZeroPivotThrows) {
  // A singular matrix: a 2x2 zero block on the diagonal after elimination.
  CooMatrix coo;
  coo.rows = coo.cols = 2;
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 1, 1.0);  // exactly singular
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  EXPECT_THROW(analyze_and_factor(a, 0), std::runtime_error);
}

}  // namespace
}  // namespace sptrsv
