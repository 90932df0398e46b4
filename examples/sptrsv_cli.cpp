/// \file sptrsv_cli.cpp
/// \brief Full command-line driver: pick a matrix, layout, algorithm and
/// machine; solve; report residual, timings and message statistics.
///
///   sptrsv_cli [--matrix NAME|file.mtx] [--scale tiny|small|medium]
///              [--shape PXxPYxPZ] [--alg new|baseline] [--tree binary|flat]
///              [--machine cori|perlmutter|crusher] [--nrhs N]
///              [--backend cpu|gpu] [--refine] [--csv] [--trace FILE]
///              [--metrics FILE] [--faults SPEC]
///
/// `--faults` takes one fault scenario spec (runtime/fault_spec.hpp,
/// docs/ROBUSTNESS.md §Scenario spec): comma-separated `key=value` and bare
/// `flag` tokens naming the model fields they set.
///
/// Examples:
///   sptrsv_cli --matrix s2D9pt2048 --shape 4x4x8 --alg new
///   sptrsv_cli --matrix my.mtx --shape 1x1x4 --machine perlmutter --backend gpu
///   sptrsv_cli --matrix nlpkkt80 --scale medium --shape 2x2x16 --refine
///   sptrsv_cli --matrix s2D9pt2048 --shape 2x2x2 --faults crash=3@1e-4
///   sptrsv_cli --matrix s2D9pt2048 --shape 2x2x2 --faults sdc_rate=2e3,abft
///   sptrsv_cli --shape 2x2x2 --faults
///       spare_ranks=0,degrade,crash=3@1e-4,return=3@5e-4,rebalance_fanout=2
///
/// Exit codes: 0 success, 1 numeric/IO failure, 2 usage (including an
/// unknown option value or a malformed fault spec), 3 structured fault
/// (the FaultReport diagnostics — kind, rank, peer, tag, phase — go to
/// stderr on every path), 4 unrecoverable silent data corruption (the
/// end-of-solve residual gate tripped and no repair path converged).

#include <charconv>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>

#include "core/refinement.hpp"
#include "core/sptrsv3d.hpp"
#include "trace/trace.hpp"
#include "factor/sptrsv_seq.hpp"
#include "gpusim/gpu_sptrsv.hpp"
#include "runtime/fault_spec.hpp"
#include "sparse/mmio.hpp"
#include "sparse/paper_matrices.hpp"

using namespace sptrsv;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--matrix NAME|file.mtx] [--scale tiny|small|medium]\n"
               "          [--shape PXxPYxPZ] [--alg new|baseline] [--tree "
               "binary|flat]\n"
               "          [--machine cori|perlmutter|crusher] [--nrhs N]\n"
               "          [--backend cpu|gpu] [--refine] [--csv] [--trace FILE]\n"
               "          [--metrics FILE] [--faults SPEC]\n"
               "\n"
               "  --metrics FILE  enable the runtime metrics registry and write the\n"
               "                  schema-versioned JSON report (sptrsv-metrics/1) to\n"
               "                  FILE; a one-line summary prints on normal exit\n"
               "  --faults SPEC   fault scenario: comma-separated key=value and flag\n"
               "                  tokens, e.g. drop_prob=0.01,crash=3@1e-4,sdc_rate=2e3,\n"
               "                  abft (keys: docs/ROBUSTNESS.md, scenario spec); the\n"
               "                  fault ledger prints after the solve. With --backend\n"
               "                  gpu only sdc_rate, sdc_max_per_rank and abft apply\n"
               "\n"
               "exit codes: 0 success, 1 numeric/IO failure, 2 usage,\n"
               "            3 structured fault (FaultReport on stderr),\n"
               "            4 unrecoverable silent data corruption\n",
               argv0);
  std::exit(2);
}

/// The value `choices` maps `text` to; exits 2 naming `flag` if none does.
template <class T>
T pick(const char* flag, const std::string& text,
       std::initializer_list<std::pair<const char*, T>> choices) {
  for (const auto& [name, value] : choices) {
    if (text == name) return value;
  }
  std::fprintf(stderr, "unknown %s value '%s'\n", flag, text.c_str());
  std::exit(2);
}

/// Writes `text` to `path`; false on any IO failure.
bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0 && n == text.size();
}

/// One-line metrics digest: total messages/bytes over the four categories,
/// transport retransmits and the slowest rank's accumulated receive wait.
void print_metrics_summary(const MetricsReport& rep) {
  const char* cats[] = {"fp", "xy", "z", "other"};
  double msgs = 0, bytes = 0;
  for (const char* c : cats) {
    msgs += rep.total(std::string("cluster.messages.") + c);
    bytes += rep.total(std::string("cluster.bytes.") + c);
  }
  std::printf("  metrics: messages=%.0f bytes=%.0f retransmits=%.0f "
              "max_wait=%.3e s\n",
              msgs, bytes, rep.total("transport.retransmits"),
              rep.hist_sum_max("cluster.wait_time"));
}

CsrMatrix load_matrix(const std::string& name, MatrixScale scale) {
  if (name.size() > 4 && name.substr(name.size() - 4) == ".mtx") {
    CsrMatrix a = read_matrix_market_file(name);
    return a.has_symmetric_pattern() ? a : a.symmetrized_pattern();
  }
  for (const PaperMatrix m : all_paper_matrices()) {
    if (paper_matrix_name(m) == name) return make_paper_matrix(m, scale);
  }
  std::fprintf(stderr, "unknown matrix '%s' (not a .mtx path or a paper name)\n",
               name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string matrix = "s2D9pt2048";
  MatrixScale scale = MatrixScale::kSmall;
  Grid3dShape shape{2, 2, 4};
  Algorithm3d alg = Algorithm3d::kProposed;
  TreeKind tree = TreeKind::kBinary;
  MachineModel (*make_machine)() = &MachineModel::cori_haswell;
  Idx nrhs = 1;
  bool gpu = false, refine = false, csv = false;
  std::string trace_path;
  std::string metrics_path;
  std::string faults;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--matrix") {
      matrix = next();
    } else if (a == "--scale") {
      scale = pick<MatrixScale>("--scale", next(),
                                {{"tiny", MatrixScale::kTiny},
                                 {"small", MatrixScale::kSmall},
                                 {"medium", MatrixScale::kMedium}});
    } else if (a == "--shape") {
      const std::string s = next();
      if (std::sscanf(s.c_str(), "%dx%dx%d", &shape.px, &shape.py, &shape.pz) != 3) {
        usage(argv[0]);
      }
    } else if (a == "--alg") {
      alg = pick<Algorithm3d>("--alg", next(),
                              {{"new", Algorithm3d::kProposed},
                               {"baseline", Algorithm3d::kBaseline}});
    } else if (a == "--tree") {
      tree = pick<TreeKind>("--tree", next(),
                            {{"binary", TreeKind::kBinary}, {"flat", TreeKind::kFlat}});
    } else if (a == "--machine") {
      make_machine = pick<MachineModel (*)()>(
          "--machine", next(),
          {{"cori", &MachineModel::cori_haswell},
           {"perlmutter", &MachineModel::perlmutter},
           {"crusher", &MachineModel::crusher}});
    } else if (a == "--nrhs") {
      const std::string s = next();
      const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), nrhs);
      if (ec != std::errc() || end != s.data() + s.size() || nrhs < 1) {
        std::fprintf(stderr, "--nrhs wants a positive integer, got '%s'\n", s.c_str());
        return 2;
      }
    } else if (a == "--backend") {
      gpu = pick<bool>("--backend", next(), {{"cpu", false}, {"gpu", true}});
    } else if (a == "--refine") {
      refine = true;
    } else if (a == "--csv") {
      csv = true;
    } else if (a == "--trace") {
      trace_path = next();
    } else if (a == "--metrics") {
      metrics_path = next();
    } else if (a == "--faults") {
      faults = next();
    } else {
      usage(argv[0]);
    }
  }

  MachineModel machine = make_machine();
  RunOptions run;
  try {
    for (const std::string& key : apply_fault_spec(faults, machine, run)) {
      // The GPU discrete-event model injects memory faults only; anything
      // else would be silently ignored there.
      if (gpu && key != "sdc_rate" && key != "sdc_max_per_rank" && key != "abft") {
        std::fprintf(stderr,
                     "--backend gpu models only sdc_rate, sdc_max_per_rank and "
                     "abft faults, not '%s'\n",
                     key.c_str());
        return 2;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  try {
  const CsrMatrix a = load_matrix(matrix, scale);
  int levels = 0;
  while ((1 << levels) < shape.pz) ++levels;
  if (!csv) {
    std::printf("matrix %s: n=%d nnz=%lld; factoring with %d tracked ND levels...\n",
                matrix.c_str(), a.rows(), static_cast<long long>(a.nnz()), levels);
  }
  const FactoredSystem fs = analyze_and_factor(a, levels);

  std::vector<Real> b(static_cast<size_t>(a.rows()) * nrhs);
  for (size_t i = 0; i < b.size(); ++i) b[i] = 1.0 + 1e-3 * static_cast<Real>(i % 131);

  if (gpu) {
    GpuSolveConfig cfg;
    cfg.shape = shape;
    cfg.nrhs = nrhs;
    cfg.backend = GpuBackend::kGpu;
    cfg.trace = !trace_path.empty();
    cfg.metrics = !metrics_path.empty();
    cfg.abft = run.abft;
    const GpuSolveTimes t = simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, machine);
    if (!trace_path.empty() && !t.trace->write_chrome_json_file(trace_path)) {
      std::fprintf(stderr, "failed to write trace %s\n", trace_path.c_str());
      return 1;
    }
    if (cfg.metrics && !write_text_file(metrics_path, t.metrics->to_json())) {
      std::fprintf(stderr, "failed to write metrics %s\n", metrics_path.c_str());
      return 1;
    }
    if (csv) {
      std::printf("%s,%dx%dx%d,gpu,%s,%d,%.6e,%.6e,%.6e,%.6e\n", matrix.c_str(),
                  shape.px, shape.py, shape.pz, machine.name.c_str(),
                  static_cast<int>(nrhs), t.total, t.l_solve, t.u_solve, t.z_comm);
    } else {
      std::printf("GPU model on %s: total %.3e s (L %.3e, U %.3e, Z %.3e)\n",
                  machine.name.c_str(), t.total, t.l_solve, t.u_solve, t.z_comm);
    }
    if (cfg.metrics) {
      std::printf("  metrics: puts=%.0f bytes=%.0f tasks=%.0f\n",
                  t.metrics->total("gpu.puts"),
                  t.metrics->total("gpu.put_bytes.xy") +
                      t.metrics->total("gpu.put_bytes.z"),
                  t.metrics->total("gpu.tasks"));
    }
    if (cfg.abft || machine.perturb.sdc_active()) {
      std::printf("  sdc: injected=%lld detected=%lld corrected=%lld "
                  "refine_iters=%lld (abft overhead %.3e s)\n",
                  static_cast<long long>(t.sdc.injected),
                  static_cast<long long>(t.sdc.detected),
                  static_cast<long long>(t.sdc.corrected),
                  static_cast<long long>(t.sdc.refine_iters), t.abft_overhead);
    }
    return 0;
  }

  SolveConfig cfg;
  cfg.shape = shape;
  cfg.algorithm = alg;
  cfg.tree = tree;
  cfg.nrhs = nrhs;
  cfg.run = run;
  cfg.run.trace = !trace_path.empty() && !refine;
  cfg.run.metrics = !metrics_path.empty() && !refine;

  if (refine) {
    if (!metrics_path.empty()) {
      std::fprintf(stderr,
                   "note: --metrics is ignored with --refine (the refinement "
                   "result carries no per-solve run stats)\n");
    }
    const RefinementResult r = iterative_refinement(a, fs, b, cfg, machine);
    if (csv) {
      std::printf("%s,%dx%dx%d,refine,%s,%d,%.6e,%d,%.3e\n", matrix.c_str(), shape.px,
                  shape.py, shape.pz, machine.name.c_str(), static_cast<int>(nrhs),
                  r.modeled_solve_time, static_cast<int>(r.iterations()),
                  r.residual_history.back());
    } else {
      std::printf("refined in %d iterations to residual %.2e; modeled solve time "
                  "%.3e s\n",
                  static_cast<int>(r.iterations()), r.residual_history.back(),
                  r.modeled_solve_time);
    }
    return r.converged ? 0 : 1;
  }

  // With SDC injection or ABFT engaged, run the residual-verified wrapper:
  // it prices the end-of-solve check on the fault ledger and either throws
  // kSilentCorruption (exit 4) or repairs via refinement (sdc_repair).
  const bool sdc_engaged =
      run.abft || run.sdc_repair || machine.perturb.sdc_active();
  DistSolveOutcome out;
  Real resid = 0;
  bool repaired = false;
  if (sdc_engaged) {
    VerifiedSolveOutcome v = solve_system_3d_verified(a, fs, b, cfg, machine);
    resid = v.residual;
    repaired = v.repaired;
    out = std::move(v.solve);
  } else {
    out = solve_system_3d(fs, b, cfg, machine);
    resid = relative_residual(a, out.x, b, nrhs);
  }
  if (cfg.run.trace &&
      !out.run_stats.trace->write_chrome_json_file(trace_path)) {
    std::fprintf(stderr, "failed to write trace %s\n", trace_path.c_str());
    return 1;
  }
  if (cfg.run.metrics &&
      !write_text_file(metrics_path, out.run_stats.metrics->to_json())) {
    std::fprintf(stderr, "failed to write metrics %s\n", metrics_path.c_str());
    return 1;
  }
  if (csv) {
    std::printf("%s,%dx%dx%d,%s,%s,%d,%.6e,%.3e\n", matrix.c_str(), shape.px, shape.py,
                shape.pz, alg == Algorithm3d::kProposed ? "new" : "baseline",
                machine.name.c_str(), static_cast<int>(nrhs), out.makespan, resid);
  } else {
    std::printf("%s algorithm on %s (%s trees): modeled %.3e s, residual %.2e\n",
                alg == Algorithm3d::kProposed ? "proposed" : "baseline",
                machine.name.c_str(), tree == TreeKind::kBinary ? "binary" : "flat",
                out.makespan, resid);
    std::printf("  breakdown (mean/rank): FP %.3e, XY %.3e, Z %.3e\n",
                out.mean(&RankPhaseTimes::l_fp) + out.mean(&RankPhaseTimes::u_fp),
                out.mean(&RankPhaseTimes::l_xy) + out.mean(&RankPhaseTimes::u_xy),
                out.mean(&RankPhaseTimes::l_z) + out.mean(&RankPhaseTimes::z_time) +
                    out.mean(&RankPhaseTimes::u_z));
  }
  if (cfg.run.metrics) print_metrics_summary(*out.run_stats.metrics);
  if (!faults.empty()) {
    std::fputs(fault_summary(out.run_stats).c_str(), stdout);
    if (repaired) {
      std::printf("  sdc: residual gate tripped; repaired by refinement\n");
    }
  }
  // A refinement repair converges to the ABFT residual gate, not to working
  // accuracy — meeting the gate is the documented success criterion there.
  if (repaired) return resid <= machine.abft.residual_tol ? 0 : 1;
  return resid < 1e-9 ? 0 : 1;
  } catch (const FaultError& fe) {
    // Structured fault diagnostics — kind, rank, peer, tag, retries, vt and
    // the solver phase the report unwound through — on every path, with one
    // consistent exit code.
    std::fprintf(stderr, "%s\n", fe.report.to_string().c_str());
    return fe.report.kind == FaultKind::kSilentCorruption ? 4 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
