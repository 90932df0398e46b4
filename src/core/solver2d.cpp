#include "core/solver2d.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "factor/dense.hpp"

namespace sptrsv {

namespace {

/// What tells one triangle's sweep from the other's besides the plan lists
/// its SweepView reads: trace, metric and checkpoint names, the prefix of
/// its error strings, and its tag kinds. Tag layout within a solve's
/// window: tag_base + 4*supernode + kind.
struct SweepNames {
  const char* solve;      ///< solve span, checkpoint label, error prefix
  const char* bcast;      ///< broadcast relay span
  const char* target;     ///< target completion span
  const char* completed;  ///< target completion counter
  const char* sum;        ///< partial sums, in error strings
  const char* rhs;        ///< right-hand-side map, in error strings
  int kind_sol;           ///< tag kind of a solution broadcast
  int kind_sum;           ///< tag kind of a partial-sum reduction
};

constexpr SweepNames kLNames{"solve_l_2d", "l_bcast", "l_row", "solver2d.rows_completed",
                             "lsum", "b_local", 0, 1};
constexpr SweepNames kUNames{"solve_u_2d", "u_bcast", "u_col", "solver2d.cols_completed",
                             "usum", "y_local", 2, 3};

struct SweepResult {
  VecMap solved;    ///< solution of every target whose diagonal I own
  VecMap external;  ///< reduced sums of external targets I root (L only)
};

/// One message-driven sweep (Algorithm 3's loop) over `view`.
///  - `rhs_local`: right-hand side of each target I diag-own (absent =
///    zero, the Algorithm 1 masking).
///  - `carry_in`: partial sums folded in first at the root of a target.
///  - `known`: solutions of the view's external sources I root, broadcast
///    at startup.
SweepResult sweep(Comm& grid, const SweepView& view, const SweepNames& names,
                  const VecMap& rhs_local, const VecMap& carry_in, const VecMap& known,
                  Idx nrhs, int tag_base, TimeCategory cat) {
  const Solve2dPlan& plan = view.plan();
  const auto& shape = plan.shape();
  const auto& part = plan.lu().sym.part;
  const int me = grid.rank();
  const int myrow = shape.row_of(me);
  const int mycol = shape.col_of(me);
  const Idx nsup_window = static_cast<Idx>(plan.lu().num_supernodes());
  const std::string prefix = std::string(names.solve) + ": ";
  const TraceSpan solve_span = grid.annotate(names.solve, tag_base);

  // Null handles (no-op add) unless RunOptions::metrics is on — the solver's
  // contribution to the registry taxonomy (docs/OBSERVABILITY.md). The last
  // three aggregate across both triangles.
  const MetricsRegistry::Counter m_done = grid.metric_counter(names.completed);
  const MetricsRegistry::Counter m_diag = grid.metric_counter("solver2d.diag_solves");
  const MetricsRegistry::Counter m_bcast = grid.metric_counter("tree.bcast_sends");
  const MetricsRegistry::Counter m_reduce = grid.metric_counter("tree.reduce_sends");

  SweepResult result;

  // Per-target reduction state (only targets whose reduction tree I belong
  // to). Contributions are *recorded* as they arrive but only *summed* when
  // the target completes, in an order fixed by the plan — never by message
  // arrival — so the FP result is bitwise reproducible (docs/DETERMINISM.md).
  struct State {
    std::vector<Real> sum;
    std::vector<std::pair<int, std::vector<Real>>> child_sum;  // (src, partial)
    Idx pending = 0;
  };
  // Keyed by target position. The kickoff walks this map in the standard
  // library's iteration order, which the clean ledger pins
  // (docs/DETERMINISM.md).
  std::unordered_map<Idx, State> state;
  // Solution of every source whose broadcast reached this rank; gemms
  // against it are deferred to target completion.
  std::unordered_map<Idx, std::vector<Real>> cache;  // key: supernode
  int expected = 0;
  Idx my_diag = 0;  // diagonal solves this rank roots (epoch pacing)

  for (Idx tp = 0; tp < view.num_targets(); ++tp) {
    const TreeView t = view.reduce(tp);
    if (!t.contains(me)) continue;
    const Idx tgt = view.targets()[static_cast<size_t>(tp)];
    if (t.root() == me && view.source_pos(tgt) != kNoIdx) ++my_diag;
    State st;
    st.sum.assign(static_cast<size_t>(part.width(tgt)) * nrhs, 0.0);
    if (shape.owner_row(tgt) == myrow) {
      for (const Idx c : view.waits(tp)) {
        if (shape.owner_col(c) == mycol) ++st.pending;
      }
    }
    const int children = t.num_children(me);
    st.pending += children;
    expected += children;
    state.emplace(tp, std::move(st));
  }
  for (Idx sp = 0; sp < view.num_sources(); ++sp) {
    const TreeView t = view.bcast(sp);
    if (t.contains(me) && t.root() != me) ++expected;
  }

  // Handlers communicate through an explicit ready queue instead of
  // recursing: DAG chains can be O(nsup) long (e.g. on a 1x1 grid), which
  // would otherwise overflow the rank fiber's fixed-size stack.
  std::vector<Idx> ready;

  auto process_source = [&](Idx sp, std::span<const Real> sol) {
    const Idx src = view.sources()[static_cast<size_t>(sp)];
    const TreeView t = view.bcast(sp);
    {
      // Span arg = my depth in the broadcast tree (relay stage number).
      const TraceSpan bcast_span = grid.annotate(names.bcast, t.depth_of(me));
      t.for_each_child(me, [&](int child) {
        m_bcast.add();
        grid.send(child, tag_base + 4 * static_cast<int>(src) + names.kind_sol,
                  std::vector<Real>(sol.begin(), sol.end()), cat);
      });
    }
    if (shape.owner_col(src) != mycol) return;
    // Charge the gemm time for my blocks fed by this source now (the compute
    // overlaps the remaining traffic), but defer the numeric fold to target
    // completion so the accumulation order is fixed by the plan.
    cache.emplace(src, std::vector<Real>(sol.begin(), sol.end()));
    for (const Idx tgt : view.feeds(sp)) {
      if (shape.owner_row(tgt) != myrow) continue;
      const Idx tp = view.target_pos(tgt);
      auto& st = state.at(tp);
      grid.compute(view.block_flops(tgt, src, nrhs));
      if (--st.pending == 0) ready.push_back(tp);
    }
  };

  auto complete_target = [&](Idx tp) {
    const Idx tgt = view.targets()[static_cast<size_t>(tp)];
    const TraceSpan target_span = grid.annotate(names.target, static_cast<std::int64_t>(tgt));
    m_done.add();
    const TreeView t = view.reduce(tp);
    auto& st = state.at(tp);
    // Reduce in plan order: carry-in first, then my blocks by ascending
    // contributor, then child partials by ascending source rank.
    if (t.root() == me) {
      const auto itc = carry_in.find(tgt);
      if (itc != carry_in.end()) {
        if (itc->second.size() != st.sum.size()) {
          throw std::invalid_argument(prefix + "lsum_in size mismatch");
        }
        for (size_t v = 0; v < st.sum.size(); ++v) st.sum[v] += itc->second[v];
      }
    }
    if (shape.owner_row(tgt) == myrow) {
      const auto pat = view.waits(tp);
      const auto pidx = view.waits_index(tp);
      const Idx wt = part.width(tgt);
      for (size_t pi = 0; pi < pat.size(); ++pi) {
        const Idx c = pat[pi];
        if (shape.owner_col(c) != mycol) continue;
        const Idx wc = part.width(c);
        const SweepView::Block blk = view.block(tgt, c, pidx[pi]);
        gemm_plus_ld(wt, wc, nrhs, blk.values, blk.ld, cache.at(c), wc, st.sum, wt);
      }
    }
    std::sort(st.child_sum.begin(), st.child_sum.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [src, partial] : st.child_sum) {
      for (size_t v = 0; v < st.sum.size(); ++v) st.sum[v] += partial[v];
    }
    if (t.root() != me) {
      m_reduce.add();
      grid.send(t.parent_of(me), tag_base + 4 * static_cast<int>(tgt) + names.kind_sum,
                std::move(st.sum), cat);
      return;
    }
    const Idx sp = view.source_pos(tgt);
    if (sp == kNoIdx) {  // external target: hand the accumulated sums back
      result.external.emplace(tgt, std::move(st.sum));
      return;
    }
    // Diagonal solve: sol(T) = inv(D_TT) * (rhs(T) - sum(T)).
    const Idx w = part.width(tgt);
    std::vector<Real> rhs(static_cast<size_t>(w) * nrhs, 0.0);
    const auto itr = rhs_local.find(tgt);
    if (itr != rhs_local.end()) {
      if (itr->second.size() != rhs.size()) {
        throw std::invalid_argument(prefix + names.rhs + " size mismatch");
      }
      rhs = itr->second;
    }
    for (size_t v = 0; v < rhs.size(); ++v) rhs[v] -= st.sum[v];
    std::vector<Real> sol(static_cast<size_t>(w) * nrhs, 0.0);
    gemm_plus(w, w, nrhs, view.diag_inv(tgt), rhs, sol);
    grid.compute(plan.diag_flops(tgt, nrhs));
    m_diag.add();
    const auto [it, inserted] = result.solved.emplace(tgt, std::move(sol));
    assert(inserted);
    process_source(sp, it->second);
  };

  // Buddy-checkpoint hook: the solve state worth surviving a crash is the
  // append-only solution-fragment map plus the remaining-message cursor.
  // Epochs cut at quarter marks of local diagonal-solve progress (the 2D
  // solve has no level barriers to hang them on). No-op unless a crash
  // model is active. The per-target accumulation order is a pure function
  // of the *partition* (owner rows and their DAG order), not of which
  // physical rank hosts it — so an adopter replaying this partition after an
  // elastic shrink (RunOptions::degrade) reproduces the victim's
  // floating-point results bit for bit.
  const CheckpointScope ckpt = grid.register_checkpoint(
      names.solve,
      [&] { return checkpoint_pack(result.solved, static_cast<double>(expected)); },
      [&](const CheckpointImage& img) {
        checkpoint_verify(img, result.solved, names.solve);
      },
      [&] { return sdc_spans(result.solved); });
  Idx next_mark = 1;

  auto drain = [&] {
    while (!ready.empty()) {
      const Idx tp = ready.back();
      ready.pop_back();
      complete_target(tp);
    }
    while (next_mark < 4 && my_diag > 0 &&
           static_cast<Idx>(result.solved.size()) * 4 >= next_mark * my_diag) {
      grid.checkpoint_epoch(next_mark);
      ++next_mark;
    }
  };

  // Kick off: targets that are already complete (DAG sources and externals
  // with no local contributions). Queue them BEFORE broadcasting the known
  // external sources: those broadcasts decrement pendings and push
  // newly-completed targets themselves, so queueing afterwards would
  // enqueue them twice.
  for (auto& [tp, st] : state) {
    if (st.pending == 0) ready.push_back(tp);
  }
  for (const Idx src : view.external_sources()) {
    const Idx sp = view.source_pos(src);
    if (view.bcast(sp).root() != me) continue;
    const auto it = known.find(src);
    if (it == known.end()) {
      throw std::invalid_argument(prefix + "missing x_external for row " +
                                  std::to_string(src));
    }
    process_source(sp, it->second);
  }
  drain();

  // Message-driven loop (Algorithm 3's while-loop).
  const int tag_hi = tag_base + 4 * static_cast<int>(nsup_window) + 4;
  while (expected > 0) {
    Message m;
    try {
      m = grid.recv_range(kAnySource, tag_base, tag_hi, cat);
    } catch (FaultError& fe) {
      rethrow_with_phase(fe, names.solve);
    }
    --expected;
    const int rel = m.tag - tag_base;
    const Idx k = static_cast<Idx>(rel / 4);
    const int kind = rel % 4;
    if (kind == names.kind_sol) {
      process_source(view.source_pos(k), m.data);
    } else if (kind == names.kind_sum) {
      const Idx tp = view.target_pos(k);
      auto& st = state.at(tp);
      if (m.data.size() != st.sum.size()) {
        throw std::runtime_error(prefix + names.sum + " message size mismatch");
      }
      st.child_sum.emplace_back(m.src, std::move(m.data));
      if (--st.pending == 0) ready.push_back(tp);
    } else {
      throw std::runtime_error(prefix + "unexpected message kind");
    }
    drain();
  }
  return result;
}

}  // namespace

LSolve2dResult solve_l_2d(Comm& grid, const Solve2dPlan& plan, const VecMap& b_local,
                          const VecMap& lsum_in, Idx nrhs, int tag_base,
                          TimeCategory cat) {
  SweepResult r = sweep(grid, SweepView(plan, Triangle::kL), kLNames, b_local, lsum_in, {},
                        nrhs, tag_base, cat);
  return {std::move(r.solved), std::move(r.external)};
}

USolve2dResult solve_u_2d(Comm& grid, const Solve2dPlan& plan, const VecMap& y_local,
                          const VecMap& x_external, Idx nrhs, int tag_base,
                          TimeCategory cat) {
  return {sweep(grid, SweepView(plan, Triangle::kU), kUNames, y_local, {}, x_external, nrhs,
                tag_base, cat)
              .solved};
}

}  // namespace sptrsv
