#pragma once
/// \file solve_plan.hpp
/// \brief Precomputed structure for one distributed 2D triangular solve.
///
/// A plan fixes the scope of a 2D solve on one grid: the set `cols` of
/// supernodes whose diagonal is solved (the paper's per-node submatrix for
/// the baseline algorithm, or the whole L^z/U^z of Fig 1(c) for the
/// proposed algorithm) and the set `rows` of supernodes whose partial sums
/// are tracked (cols plus replicated ancestors). From the global symbolic
/// structure it derives, per supernode, the four communication-tree member
/// lists of §3.3 (L broadcast/reduction, U broadcast/reduction). Plans are
/// built once per grid and shared read-only by the grid's ranks — exactly
/// the setup precomputation the paper performs on the CPU before the solve.
/// A SweepView reads one triangle's solve out of a plan, so the L- and
/// U-solves are one traversal with the roles of rows and columns swapped.

#include <vector>

#include "dist/layout.hpp"
#include "dist/tree_view.hpp"
#include "factor/supernodal_lu.hpp"
#include "ordering/nested_dissection.hpp"

namespace sptrsv {

class SweepView;

class Solve2dPlan {
 public:
  /// Builds a plan. `cols` must be sorted ascending; `rows` must be sorted
  /// ascending and contain every block row of every column's (filtered)
  /// pattern that the solve should track. Rows of `cols` are implicitly
  /// tracked and need not be listed separately.
  static Solve2dPlan build(const SupernodalLU& lu, Grid2dShape shape, TreeKind kind,
                           std::vector<Idx> cols, std::vector<Idx> extra_rows);

  const SupernodalLU& lu() const { return *lu_; }
  const Grid2dShape& shape() const { return shape_; }
  TreeKind kind() const { return kind_; }

  /// Supernodes solved here, ascending.
  std::span<const Idx> cols() const { return cols_; }
  /// All tracked rows (cols plus external targets), ascending.
  std::span<const Idx> rows() const { return rows_; }
  /// Rows that are tracked but not solved (partial sums handed back).
  std::span<const Idx> external_rows() const { return external_rows_; }

  Idx num_cols() const { return static_cast<Idx>(cols_.size()); }
  Idx num_rows() const { return static_cast<Idx>(rows_.size()); }

  /// Position of supernode in cols()/rows(); kNoIdx if absent.
  Idx col_pos(Idx k) const;
  Idx row_pos(Idx i) const;

  /// Below-pattern of column `cp` (position into cols), filtered to rows().
  std::span<const Idx> below(Idx cp) const { return below_[static_cast<size_t>(cp)]; }
  /// For each entry of below(cp): its index into lu.sym.below[K] (for
  /// locating the block inside the global panels).
  std::span<const Idx> below_index(Idx cp) const {
    return below_index_[static_cast<size_t>(cp)];
  }

  /// Columns K in cols() whose pattern contains row `rp` (position into
  /// rows()), ascending; aligned `pattern_index` gives the entry's index in
  /// lu.sym.below[K].
  std::span<const Idx> row_pattern(Idx rp) const {
    return row_pattern_[static_cast<size_t>(rp)];
  }
  std::span<const Idx> row_pattern_index(Idx rp) const {
    return row_pattern_index_[static_cast<size_t>(rp)];
  }

  // Communication trees (paper §3.3). All lists have the root first and the
  // remaining member ranks ascending (see TreeView).
  TreeView l_bcast(Idx cp) const { return {l_bcast_[static_cast<size_t>(cp)], kind_}; }
  TreeView u_reduce(Idx cp) const { return {u_reduce_[static_cast<size_t>(cp)], kind_}; }
  TreeView l_reduce(Idx rp) const { return {l_reduce_[static_cast<size_t>(rp)], kind_}; }
  TreeView u_bcast(Idx rp) const { return {u_bcast_[static_cast<size_t>(rp)], kind_}; }

  /// Flop count of one GEMV/GEMM with block (I,K) of width-of-I rows.
  double block_flops(Idx i, Idx k, Idx nrhs) const {
    return 2.0 * lu_->sym.part.width(i) * lu_->sym.part.width(k) * nrhs;
  }
  /// Flop count of applying a diagonal inverse of K.
  double diag_flops(Idx k, Idx nrhs) const {
    const double w = lu_->sym.part.width(k);
    return 2.0 * w * w * nrhs;
  }

 private:
  friend class SweepView;
  const SupernodalLU* lu_ = nullptr;
  Grid2dShape shape_;
  TreeKind kind_ = TreeKind::kBinary;
  std::vector<Idx> cols_;
  std::vector<Idx> rows_;
  std::vector<Idx> external_rows_;
  std::vector<std::vector<Idx>> below_;
  std::vector<std::vector<Idx>> below_index_;
  std::vector<std::vector<Idx>> row_pattern_;
  std::vector<std::vector<Idx>> row_pattern_index_;
  std::vector<std::vector<int>> l_bcast_;
  std::vector<std::vector<int>> l_reduce_;
  std::vector<std::vector<int>> u_bcast_;
  std::vector<std::vector<int>> u_reduce_;
};

/// Which triangle a sweep solves.
enum class Triangle { kL, kU };

/// One triangle's message-driven sweep over a plan (paper Algorithm 3 for
/// L; Algorithm 1 lines 21-29 for U). A sweep completes *targets*: target
/// T waits on the blocks (T, C) of its pattern, each owned by rank
/// (row(T), col(C)); their partial sums reduce up T's reduction tree to
/// T's diagonal owner, which applies T's diagonal inverse and broadcasts
/// the solution down T's broadcast tree to the owners of the blocks it
/// feeds. Solved targets are the *sources* of later targets.
///  - L: targets are rows(), sources are cols(); block (I, K) is L(I,K),
///    stored in K's lpanel.
///  - U: targets are cols(), sources are rows(); block (K, I) is U(K,I),
///    stored in K's upanel.
/// Positions are into targets() or sources(). The view holds no state of
/// its own: every accessor resolves to the plan's lists on each call.
class SweepView {
 public:
  SweepView(const Solve2dPlan& plan, Triangle tri);

  Triangle triangle() const { return tri_; }
  const Solve2dPlan& plan() const { return *plan_; }

  /// Supernodes whose partial sums the sweep reduces, ascending.
  std::span<const Idx> targets() const { return *targets_; }
  /// Supernodes whose solutions the sweep broadcasts, ascending.
  std::span<const Idx> sources() const { return *sources_; }
  /// Sources whose solutions are known before the sweep starts (U: the
  /// external rows, fed forward by the caller); none for L.
  std::span<const Idx> external_sources() const {
    if (tri_ == Triangle::kL) return {};
    return plan_->external_rows();
  }
  Idx num_targets() const { return static_cast<Idx>(targets_->size()); }
  Idx num_sources() const { return static_cast<Idx>(sources_->size()); }
  /// Position of supernode `k` in targets()/sources(); kNoIdx if absent.
  /// A target with no source position is external: it is reduced but not
  /// solved, and its sums are handed back (L only).
  Idx target_pos(Idx k) const;
  Idx source_pos(Idx k) const;

  /// Reduction tree of target `tp`; broadcast tree of source `sp`.
  TreeView reduce(Idx tp) const { return {(*reduce_)[static_cast<size_t>(tp)], plan_->kind_}; }
  TreeView bcast(Idx sp) const { return {(*bcast_)[static_cast<size_t>(sp)], plan_->kind_}; }

  /// Contributors whose blocks target `tp` waits on, ascending; aligned
  /// `waits_index` gives each block's index in lu.sym.below of its block
  /// column (the contributor for L, the target for U).
  std::span<const Idx> waits(Idx tp) const { return (*waits_)[static_cast<size_t>(tp)]; }
  std::span<const Idx> waits_index(Idx tp) const {
    return (*waits_index_)[static_cast<size_t>(tp)];
  }
  /// Targets that the solution of source `sp` feeds, ascending.
  std::span<const Idx> feeds(Idx sp) const { return (*feeds_)[static_cast<size_t>(sp)]; }

  /// Block (target, contributor) as width(target) x width(contributor)
  /// column-major values with leading dimension `ld`; `index` is its entry
  /// of waits_index.
  struct Block {
    std::span<const Real> values;
    Idx ld = 0;
  };
  Block block(Idx target, Idx contributor, Idx index) const;
  /// Inverse of supernode `k`'s diagonal block of this triangle.
  std::span<const Real> diag_inv(Idx k) const { return (*diag_inv_)[static_cast<size_t>(k)]; }
  /// Flop count of one GEMV/GEMM with block (target, contributor).
  double block_flops(Idx target, Idx contributor, Idx nrhs) const {
    return tri_ == Triangle::kL ? plan_->block_flops(target, contributor, nrhs)
                                : plan_->block_flops(contributor, target, nrhs);
  }

 private:
  const Solve2dPlan* plan_;
  Triangle tri_;
  const std::vector<Idx>* targets_;
  const std::vector<Idx>* sources_;
  const std::vector<std::vector<int>>* reduce_;
  const std::vector<std::vector<int>>* bcast_;
  const std::vector<std::vector<Idx>>* waits_;
  const std::vector<std::vector<Idx>>* waits_index_;
  const std::vector<std::vector<Idx>>* feeds_;
  const std::vector<std::vector<Real>>* diag_inv_;
};

/// Supernode id range [first, last) of a tracked tree node's columns.
/// Requires the supernode partition to respect node boundaries (which
/// `analyze_and_factor` guarantees via forced breaks).
std::pair<Idx, Idx> node_supernode_range(const SymbolicStructure& sym, const NdTree& tree,
                                         Idx node);

/// All supernodes of the given tree nodes, ascending.
std::vector<Idx> supernodes_of_nodes(const SymbolicStructure& sym, const NdTree& tree,
                                     std::span<const Idx> nodes);

/// Plan for the proposed algorithm's whole-grid solve on leaf z: cols =
/// rows = supernodes of the leaf and all its ancestors (Fig 1(c)).
Solve2dPlan make_grid_plan(const SupernodalLU& lu, const NdTree& tree, Idx leaf,
                           Grid2dShape shape, TreeKind kind);

/// Plan for one node of the baseline algorithm: cols = the node's
/// supernodes, external rows = all its ancestors' supernodes.
Solve2dPlan make_node_plan(const SupernodalLU& lu, const NdTree& tree, Idx node,
                           Grid2dShape shape, TreeKind kind);

}  // namespace sptrsv
