#include "factor/supernodal_lu.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "ordering/etree.hpp"
#include "symbolic/colcounts.hpp"

namespace sptrsv {

std::vector<Real> SupernodalLU::reconstruct_dense() const {
  const Idx N = n();
  std::vector<Real> l(static_cast<size_t>(N) * N, 0.0);
  std::vector<Real> u(static_cast<size_t>(N) * N, 0.0);
  const auto& part = sym.part;
  for (Idx k = 0; k < num_supernodes(); ++k) {
    const Idx w = part.width(k);
    const Idx base = part.first_col(k);
    const auto& d = diag[static_cast<size_t>(k)];
    for (Idx j = 0; j < w; ++j) {
      for (Idx i = 0; i < w; ++i) {
        const Real v = d[static_cast<size_t>(j) * w + i];
        if (i > j) {
          l[static_cast<size_t>(base + j) * N + (base + i)] = v;
        } else {
          u[static_cast<size_t>(base + j) * N + (base + i)] = v;
        }
      }
      l[static_cast<size_t>(base + j) * N + (base + j)] = 1.0;  // unit diagonal
    }
    const Idx r = sym.panel_rows[static_cast<size_t>(k)];
    const auto& lb = sym.below[static_cast<size_t>(k)];
    for (size_t bi = 0; bi < lb.size(); ++bi) {
      const Idx ib = part.first_col(lb[bi]);
      const Idx wi = part.width(lb[bi]);
      const Idx off = sym.below_offset[static_cast<size_t>(k)][bi];
      for (Idx j = 0; j < w; ++j) {
        for (Idx i = 0; i < wi; ++i) {
          l[static_cast<size_t>(base + j) * N + (ib + i)] =
              lpanel[static_cast<size_t>(k)][static_cast<size_t>(j) * r + off + i];
          u[static_cast<size_t>(ib + i) * N + (base + j)] =
              upanel[static_cast<size_t>(k)][(static_cast<size_t>(off) + i) * w + j];
        }
      }
    }
  }
  // Dense product L * U.
  std::vector<Real> prod(static_cast<size_t>(N) * N, 0.0);
  gemm_plus(N, N, N, l, u, prod);
  return prod;
}

double SupernodalLU::solve_flops(Idx nrhs) const {
  double fl = 0;
  for (Idx k = 0; k < num_supernodes(); ++k) {
    const double w = sym.part.width(k);
    const double r = sym.panel_rows[static_cast<size_t>(k)];
    // Both solves: diagonal inverse apply (w*w GEMM) + panel GEMM (r*w).
    fl += 2.0 * nrhs * (2.0 * w * w + 2.0 * w * r);
  }
  return fl;
}

SupernodalLU init_supernodal_storage(const CsrMatrix& a, SymbolicStructure sym) {
  const Idx nsup = sym.num_supernodes();
  const auto& part = sym.part;

  SupernodalLU f;
  f.diag.resize(static_cast<size_t>(nsup));
  f.diag_linv.resize(static_cast<size_t>(nsup));
  f.diag_uinv.resize(static_cast<size_t>(nsup));
  f.lpanel.resize(static_cast<size_t>(nsup));
  f.upanel.resize(static_cast<size_t>(nsup));
  for (Idx k = 0; k < nsup; ++k) {
    const size_t w = static_cast<size_t>(part.width(k));
    const size_t r = static_cast<size_t>(sym.panel_rows[static_cast<size_t>(k)]);
    f.diag[static_cast<size_t>(k)].assign(w * w, 0.0);
    f.lpanel[static_cast<size_t>(k)].assign(r * w, 0.0);
    f.upanel[static_cast<size_t>(k)].assign(w * r, 0.0);
  }

  // Scatter A's values into the block storage. Entry (i,j):
  //   sn(i) == sn(j): diagonal block of that supernode.
  //   sn(i) >  sn(j): L block (row block sn(i)) in column supernode sn(j).
  //   sn(i) <  sn(j): U block (column block sn(j)) in row supernode sn(i).
  for (Idx i = 0; i < a.rows(); ++i) {
    const Idx ki = part.col_to_sn[static_cast<size_t>(i)];
    const auto cs = a.row_cols(i);
    const auto vs = a.row_vals(i);
    for (size_t t = 0; t < cs.size(); ++t) {
      const Idx j = cs[t];
      const Real v = vs[t] + 0.0;  // an explicit -0 becomes +0 (see schur_update)
      const Idx kj = part.col_to_sn[static_cast<size_t>(j)];
      if (ki == kj) {
        const Idx w = part.width(ki);
        f.diag[static_cast<size_t>(ki)][static_cast<size_t>(j - part.first_col(kj)) * w +
                                        (i - part.first_col(ki))] = v;
      } else if (ki > kj) {
        const Idx pos = sym.find_block(kj, ki);
        assert(pos != kNoIdx);
        const Idx r = sym.panel_rows[static_cast<size_t>(kj)];
        const Idx off = sym.below_offset[static_cast<size_t>(kj)][static_cast<size_t>(pos)];
        f.lpanel[static_cast<size_t>(kj)][static_cast<size_t>(j - part.first_col(kj)) * r +
                                          off + (i - part.first_col(ki))] = v;
      } else {
        const Idx pos = sym.find_block(ki, kj);
        assert(pos != kNoIdx);
        const Idx w = part.width(ki);
        const Idx off = sym.below_offset[static_cast<size_t>(ki)][static_cast<size_t>(pos)];
        f.upanel[static_cast<size_t>(ki)][(static_cast<size_t>(off) + (j - part.first_col(kj))) * w +
                                          (i - part.first_col(ki))] = v;
      }
    }
  }
  f.sym = std::move(sym);
  return f;
}

void schur_update(SupernodalLU& f, Idx k, std::span<const SchurBlock> lblocks,
                  std::span<const SchurBlock> ublocks, SchurScratch& ws) {
  // The update runs on compacted panels: only the L rows and U columns that
  // hold a nonzero are packed, and one GEMM per target block column J works
  // on the gathered C strip. Each kept C element still receives exactly the
  // steps the dense block GEMM gives it (gemm_ld: p ascending, b == 0
  // skipped), so the bits are those of the uncompacted update:
  //  - a dropped U column is all zero, and gemm_ld would skip every step;
  //  - a dropped L row adds only +0 or -0 products, and c + (+-0) == c for
  //    every c except -0. A Schur target never holds -0: it starts as an
  //    entry of A (stored with -0 turned into +0) or the +0 of fresh
  //    storage, and adding values to a non-(-0) c never rounds to -0
  //    (round-to-nearest yields -0 only for (-0) + (-0); exact cancellation
  //    gives +0).
  // The TRSMs that build the panels must not skip zero rows: there
  // 0 * (1 / negative pivot) stores -0, a different bit pattern.
  const SymbolicStructure& sym = f.sym;
  const auto& part = sym.part;
  const Idx w = part.width(k);
  const auto& below = sym.below[static_cast<size_t>(k)];

  // 1. Nonzero L rows, packed into lc (m x w, ld m).
  ws.rows.clear();
  ws.row_begin.clear();
  for (const SchurBlock& lb : lblocks) {
    ws.row_begin.push_back(ws.rows.size());
    const Idx wi = part.width(below[lb.pos]);
    ws.nonzero.assign(static_cast<size_t>(wi), 0);
    for (Idx p = 0; p < w; ++p) {
      const Real* col = lb.data + static_cast<size_t>(p) * lb.ld;
      for (Idx i = 0; i < wi; ++i) ws.nonzero[static_cast<size_t>(i)] |= (col[i] != 0.0);
    }
    for (Idx i = 0; i < wi; ++i) {
      if (ws.nonzero[static_cast<size_t>(i)]) ws.rows.push_back(i);
    }
  }
  ws.row_begin.push_back(ws.rows.size());
  const Idx m = static_cast<Idx>(ws.rows.size());
  if (m == 0) return;
  ws.lc.resize(static_cast<size_t>(m) * w);
  for (size_t b = 0; b < lblocks.size(); ++b) {
    for (Idx p = 0; p < w; ++p) {
      const Real* col = lblocks[b].data + static_cast<size_t>(p) * lblocks[b].ld;
      Real* out = ws.lc.data() + static_cast<size_t>(p) * m;
      for (size_t t = ws.row_begin[b]; t < ws.row_begin[b + 1]; ++t) out[t] = col[ws.rows[t]];
    }
  }

  // 2. Nonzero U columns, packed into uc (w x n, ld w).
  ws.cols.clear();
  ws.col_begin.clear();
  ws.uc.clear();
  for (const SchurBlock& ub : ublocks) {
    ws.col_begin.push_back(ws.cols.size());
    const Idx wj = part.width(below[ub.pos]);
    for (Idx j = 0; j < wj; ++j) {
      const Real* col = ub.data + static_cast<size_t>(j) * w;
      if (std::any_of(col, col + w, [](Real v) { return v != 0.0; })) {
        ws.cols.push_back(j);
        ws.uc.insert(ws.uc.end(), col, col + w);
      }
    }
  }
  ws.col_begin.push_back(ws.cols.size());

  // 3. Per target block column J: gather the C strip (m x nj), one GEMM,
  //    scatter back.
  ws.target.resize(lblocks.size());
  for (size_t ub = 0; ub < ublocks.size(); ++ub) {
    const size_t c0 = ws.col_begin[ub];
    const Idx nj = static_cast<Idx>(ws.col_begin[ub + 1] - c0);
    if (nj == 0) continue;
    const Idx J = below[ublocks[ub].pos];
    for (size_t lb = 0; lb < lblocks.size(); ++lb) {
      if (ws.row_begin[lb] == ws.row_begin[lb + 1]) continue;
      const Idx I = below[lblocks[lb].pos];
      auto& [tgt, ld] = ws.target[lb];
      if (I == J) {
        tgt = f.diag[static_cast<size_t>(I)].data();
        ld = part.width(I);
      } else if (I > J) {  // L panel of J
        const Idx pos = sym.find_block(J, I);
        assert(pos != kNoIdx);
        tgt = f.lpanel[static_cast<size_t>(J)].data() +
              sym.below_offset[static_cast<size_t>(J)][static_cast<size_t>(pos)];
        ld = sym.panel_rows[static_cast<size_t>(J)];
      } else {  // U panel of I
        const Idx pos = sym.find_block(I, J);
        assert(pos != kNoIdx);
        ld = part.width(I);
        tgt = f.upanel[static_cast<size_t>(I)].data() +
              static_cast<size_t>(
                  sym.below_offset[static_cast<size_t>(I)][static_cast<size_t>(pos)]) *
                  ld;
      }
    }
    ws.cs.resize(static_cast<size_t>(m) * nj);
    auto copy_strip = [&](bool gather) {
      for (size_t lb = 0; lb < lblocks.size(); ++lb) {
        if (ws.row_begin[lb] == ws.row_begin[lb + 1]) continue;
        const auto [tgt, ld] = ws.target[lb];
        for (Idx j = 0; j < nj; ++j) {
          Real* col = tgt + static_cast<size_t>(ws.cols[c0 + j]) * ld;
          Real* strip = ws.cs.data() + static_cast<size_t>(j) * m;
          for (size_t t = ws.row_begin[lb]; t < ws.row_begin[lb + 1]; ++t) {
            if (gather) {
              strip[t] = col[ws.rows[t]];
            } else {
              col[ws.rows[t]] = strip[t];
            }
          }
        }
      }
    };
    copy_strip(true);
    gemm_minus_ld(m, w, nj, ws.lc, m, std::span<const Real>(ws.uc).subspan(c0 * w), w,
                  ws.cs, m);
    copy_strip(false);
  }
}

SupernodalLU factor_supernodal(const CsrMatrix& a, SymbolicStructure sym0) {
  SupernodalLU f = init_supernodal_storage(a, std::move(sym0));
  const SymbolicStructure& sym = f.sym;
  const auto& part = sym.part;
  const Idx nsup = sym.num_supernodes();

  // Right-looking factorization over the block structure.
  SchurScratch ws;
  std::vector<SchurBlock> lblocks, ublocks;
  for (Idx k = 0; k < nsup; ++k) {
    const Idx w = part.width(k);
    auto& d = f.diag[static_cast<size_t>(k)];
    if (!lu_unpivoted_inplace(w, d)) {
      throw std::runtime_error("factor_supernodal: zero pivot in supernode " +
                               std::to_string(k));
    }
    auto& linv = f.diag_linv[static_cast<size_t>(k)];
    auto& uinv = f.diag_uinv[static_cast<size_t>(k)];
    linv.assign(static_cast<size_t>(w) * w, 0.0);
    uinv.assign(static_cast<size_t>(w) * w, 0.0);
    invert_unit_lower(w, d, linv);
    invert_upper(w, d, uinv);

    const Idx r = sym.panel_rows[static_cast<size_t>(k)];
    if (r == 0) continue;
    trsm_right_upper(r, w, d, f.lpanel[static_cast<size_t>(k)]);
    trsm_left_unit_lower(w, r, d, f.upanel[static_cast<size_t>(k)]);

    // Schur updates: (I, J) -= L(I,K) * U(K,J) for all I, J in below[K].
    const auto& boff = sym.below_offset[static_cast<size_t>(k)];
    lblocks.clear();
    ublocks.clear();
    for (size_t b = 0; b < boff.size(); ++b) {
      lblocks.push_back({b, f.lpanel[static_cast<size_t>(k)].data() + boff[b], r});
      ublocks.push_back(
          {b, f.upanel[static_cast<size_t>(k)].data() + static_cast<size_t>(boff[b]) * w, w});
    }
    schur_update(f, k, lblocks, ublocks, ws);
  }

  return f;
}

FactoredSystem analyze_and_factor(const CsrMatrix& a, const AnalyzeOptions& opt) {
  const CsrMatrix sym_a = a.has_symmetric_pattern() ? a : a.symmetrized_pattern();
  if (!sym_a.has_full_diagonal()) {
    throw std::invalid_argument("analyze_and_factor: matrix needs a full diagonal");
  }
  NdOrdering nd = nested_dissection(sym_a, opt.nd);
  const CsrMatrix pa = sym_a.permuted_symmetric(nd.perm);

  const std::vector<Idx> parent = elimination_tree(pa);
  const std::vector<Nnz> counts = cholesky_col_counts(pa, parent);

  SupernodeOptions sn_opt = opt.supernode;
  sn_opt.forced_breaks.clear();  // the layout requires exactly these breaks
  for (Idx id = 0; id < nd.tree.num_nodes(); ++id) {
    sn_opt.forced_breaks.push_back(nd.tree.node(id).col_begin);
    sn_opt.forced_breaks.push_back(nd.tree.node(id).col_end);
  }
  SupernodePartition part = find_supernodes(parent, counts, sn_opt);
  SymbolicStructure sym = block_symbolic(pa, std::move(part));

  FactoredSystem out{factor_supernodal(pa, std::move(sym)), std::move(nd.perm),
                     std::move(nd.tree)};
  return out;
}

FactoredSystem analyze_and_factor(const CsrMatrix& a, int nd_levels,
                                  Idx max_supernode_width) {
  AnalyzeOptions opt;
  opt.nd.levels = nd_levels;
  opt.supernode.max_width = max_supernode_width;
  return analyze_and_factor(a, opt);
}

}  // namespace sptrsv
