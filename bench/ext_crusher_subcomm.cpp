/// \file ext_crusher_subcomm.cpp
/// \brief Extension experiment: the paper's stated future work — "Adding
/// support for MPI subcommunicators in ROC-SHMEM will enable significantly
/// improved scalability of SpTRSV for large numbers of GPU nodes" (§3.4).
///
/// We project that claim by running the Crusher machine model with the
/// constraint lifted (a hypothetical ROC-SHMEM with subcommunicators,
/// enabling Px > 1) and comparing against the shipping Px = 1 limit.

#include "bench/bench_util.hpp"

using namespace sptrsv;
using namespace sptrsv::bench;

int main() {
  print_gpu_fault_banner();
  MachineModel crusher = MachineModel::crusher();
  MachineModel what_if = crusher;
  what_if.name = "crusher+subcomm";
  what_if.shmem_subcomm_support = true;  // the hypothetical ROC-SHMEM

  SystemCache cache;
  const FactoredSystem& fs =
      cache.get(PaperMatrix::kS1Mat0253872, /*nd_levels=*/6, bench_scale());

  std::printf("# Extension — projecting the paper's future work: ROC-SHMEM with\n");
  std::printf("# subcommunicators on Crusher (s1_mat_0_253872, 1 RHS)\n");
  Table t({"GPUs", "today (1x1xPz)", "with subcomm (Px x 1 x Pz)", "layout",
           "gain"});
  for (const int gpus : {8, 32, 64, 128, 256}) {
    // Today: all GPUs along z (if a power of two and within the tree).
    double today = -1;
    if ((gpus & (gpus - 1)) == 0 && gpus <= 64) {
      GpuSolveConfig cfg;
      cfg.shape = {1, 1, gpus};
      cfg.metrics = bench_json_enabled();
      const auto res = run_gpu_model(fs, cfg, crusher);
      bench_report_gpu("today_1x1x" + std::to_string(gpus), res);
      today = res.total;
    }
    // With subcommunicators: best Px in {1,2,4,8} x Pz split.
    double best = 1e300;
    int best_px = 1, best_pz = 1;
    for (const int px : {1, 2, 4, 8}) {
      if (gpus % px != 0) continue;
      const int pz = gpus / px;
      if ((pz & (pz - 1)) != 0 || pz > 64) continue;
      GpuSolveConfig cfg;
      cfg.shape = {px, 1, pz};
      cfg.metrics = bench_json_enabled();
      const auto res = run_gpu_model(fs, cfg, what_if);
      bench_report_gpu("subcomm_" + std::to_string(px) + "x1x" + std::to_string(pz),
                       res);
      const double v = res.total;
      if (v < best) {
        best = v;
        best_px = px;
        best_pz = pz;
      }
    }
    t.add_row({std::to_string(gpus), today < 0 ? "-" : fmt_time(today),
               fmt_time(best),
               std::to_string(best_px) + "x1x" + std::to_string(best_pz),
               today < 0 ? "-" : fmt_ratio(today / best)});
  }
  t.print();
  std::printf("\nWithout subcommunicators Crusher cannot exceed 64 GPUs (one per\n"
              "grid, tree depth 6); with them, Px multiplies the usable GPU count\n"
              "and keeps improving the solve — supporting the paper's claim.\n");
  return 0;
}
