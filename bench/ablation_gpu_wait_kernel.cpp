/// \file ablation_gpu_wait_kernel.cpp
/// \brief Ablation of the paper's two-kernel GPU design (§3.4): NVSHMEM
/// limits resident thread blocks, and a naive single SOLVE kernel has
/// blocks spin-wait while *holding* their slot; the paper adds a WAIT
/// kernel so blocks only occupy resources when they have work. Both
/// disciplines run under the same concurrency budget here, so the gap is
/// purely the cost of slot-holding spins.

#include "bench/bench_util.hpp"

using namespace sptrsv;
using namespace sptrsv::bench;

int main() {
  print_gpu_fault_banner();
  const MachineModel machine = MachineModel::perlmutter();
  SystemCache cache;
  std::printf("# Ablation — WAIT+SOLVE two-kernel design vs naive resident-spin\n");
  std::printf("# proposed GPU 3D SpTRSV on %s, 1 RHS\n", machine.name.c_str());
  for (const PaperMatrix which :
       {PaperMatrix::kS2D9pt2048, PaperMatrix::kNlpkkt80}) {
    const FactoredSystem& fs = cache.get(which, /*nd_levels=*/6, bench_scale());
    std::printf("\n## %s (n=%d)\n", paper_matrix_name(which).c_str(), fs.lu.n());
    Table t({"Px", "Pz", "resident-spin", "two-kernel", "speedup"});
    for (const auto& [px, pz] : {std::pair{1, 1}, std::pair{4, 1}, std::pair{1, 16},
                                 std::pair{4, 16}}) {
      GpuSolveConfig cfg;
      cfg.shape = {px, 1, pz};
      cfg.metrics = bench_json_enabled();
      cfg.schedule = GpuScheduleMode::kResidentSpin;
      const auto naive = run_gpu_model(fs, cfg, machine);
      cfg.schedule = GpuScheduleMode::kTwoKernel;
      const auto two = run_gpu_model(fs, cfg, machine);
      const std::string stem_tail = paper_matrix_name(which) + "_" +
                                    std::to_string(px) + "x1x" +
                                    std::to_string(pz);
      bench_report_gpu("spin_" + stem_tail, naive);
      bench_report_gpu("twok_" + stem_tail, two);
      t.add_row({std::to_string(px), std::to_string(pz), fmt_time(naive.total),
                 fmt_time(two.total), fmt_ratio(naive.total / two.total)});
    }
    t.print();
  }
  return 0;
}
