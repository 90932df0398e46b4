#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/sptrsv3d.hpp"
#include "gpusim/gpu_sptrsv.hpp"
#include "metrics/metrics.hpp"
#include "sparse/paper_matrices.hpp"
#include "test_support.hpp"
#include "trace/trace.hpp"

namespace sptrsv {
namespace {

/// Golden-fingerprint corpus: the clean-ledger fingerprint of a 2x2x2
/// deterministic solve of every Table-1 matrix, for both 3D algorithms,
/// two perturbation seeds, and the fault scenarios of kScenarios, pinned in
/// tests/golden_fingerprints.txt, plus the fault_fingerprint of one run per
/// fault class. The plain seed-0 solve also pins hashes of its solution
/// bits ("x0"), its clean-ledger Chrome trace ("trace0") and its metrics
/// report ("metrics0"); "grid3x2" pins the clean fingerprint on a 3x2x2
/// grid, where the L and U owner sets differ; "<matrix> gpu 0" pins the
/// time bits of the GPU model under both schedule modes. Any drift — a clock-model change, a reordered reduction, a
/// perturbation stream change, a fault-ledger field that moved — fails here
/// with the exact (matrix, algorithm, seed) that moved. Intentional changes
/// regenerate the corpus:
///
///   SPTRSV_GOLDEN_REGEN=tests/golden_fingerprints.txt ./build/tests/test_golden
///
/// (path relative to where the binary runs; see docs/TESTING.md).

/// FNV-1a over raw bytes, continuing from `h`.
std::uint64_t hash_bytes(const void* data, std::size_t len,
                         std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
std::uint64_t hash_string(const std::string& s) { return hash_bytes(s.data(), s.size()); }

/// Hash of every modeled time of a GPU-model solve.
std::uint64_t hash_gpu_times(const GpuSolveTimes& t, std::uint64_t h) {
  const double scalars[] = {t.l_solve, t.z_comm, t.u_solve, t.total};
  h = hash_bytes(scalars, sizeof scalars, h);
  h = hash_bytes(t.l_finish.data(), t.l_finish.size() * sizeof(double), h);
  return hash_bytes(t.u_finish.data(), t.u_finish.size() * sizeof(double), h);
}

std::string fp_hex(std::uint64_t fp) {
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << fp;
  return os.str();
}

/// The corpus's fault scenarios, one fault spec each, applied to the seed-0
/// perturbed solve. "abft0" arms ABFT with no faults, "sdc0" adds an
/// aggressive memory-fault rate, "degrade0" empties the spare pool under
/// one scheduled rank death absorbed by elastic degradation, "elastic0"
/// adds a spare-return event that re-expands the degraded world mid-solve,
/// "drop0" runs over a 5% frame-drop network and "crash0" absorbs one
/// scheduled death with a spare. Every scenario must be the plain "0" run's
/// clean twin (test::expect_clean_twin) — the corpus pins the
/// docs/ROBUSTNESS.md contract that verification, correction, recovery,
/// shrink-and-redistribute and re-expansion never touch the clean ledger —
/// and must fire as `ledger` demands (test::expect_ledger).
struct GoldenScenario {
  const char* token;
  const char* spec;
  const char* ledger;
  bool clean_row;  ///< pin "<token>": the clean fingerprint
  bool fault_row;  ///< pin "fault:<token>": the fault_fingerprint
};

const GoldenScenario kScenarios[] = {
    {"abft0", "abft", "", true, false},
    {"sdc0", "abft,sdc_rate=5e4", "sdc.injected>0", true, true},
    {"degrade0", "spare_ranks=0,degrade,crash=1@1e-5", "degradation.degrades>0", true,
     true},
    {"elastic0", "spare_ranks=0,degrade,crash=1@1e-5,return=1@8e-5",
     "elasticity.returns>0", true, true},
    {"drop0", "drop_prob=0.05", "transport.retransmits>0", false, true},
    {"crash0", "crash=1@1e-5", "recovery.spares_used=1", false, true},
};

/// "<matrix> <algorithm> <seed-token>" -> fingerprint hex, for all 186
/// corpus entries, computed fresh. Seed tokens "0"/"1" are plain perturbed
/// solves; "x0", "trace0", "metrics0" and "grid3x2" are described above;
/// the other tokens are the kScenarios rows.
std::map<std::string, std::string> compute_corpus() {
  std::map<std::string, std::string> out;
  for (const PaperMatrix pm : all_paper_matrices()) {
    const CsrMatrix a = make_paper_matrix(pm, MatrixScale::kTiny);
    const FactoredSystem fs = analyze_and_factor(a, 3);
    const std::vector<Real> b = test::random_rhs(a.rows(), 1, 42);
    {
      GpuSolveConfig gcfg;
      gcfg.shape = {2, 1, 2};
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (const GpuScheduleMode mode :
           {GpuScheduleMode::kTwoKernel, GpuScheduleMode::kResidentSpin}) {
        gcfg.schedule = mode;
        h = hash_gpu_times(
            simulate_solve_3d_gpu(fs.lu, fs.tree, gcfg, MachineModel::perlmutter()), h);
      }
      out[paper_matrix_name(pm) + " gpu 0"] = fp_hex(h);
    }
    for (const Algorithm3d alg : {Algorithm3d::kProposed, Algorithm3d::kBaseline}) {
      const std::string base = paper_matrix_name(pm) + " " +
                               (alg == Algorithm3d::kProposed ? "proposed" : "baseline");
      auto solve = [&](std::uint64_t seed, std::string_view spec,
                       Grid3dShape shape = {2, 2, 2}, bool observe = false) {
        SolveConfig cfg;
        cfg.shape = shape;
        cfg.algorithm = alg;
        const test::Scenario s = test::scenario(
            spec, test::perturbed_machine(),
            RunOptions{.seed = seed, .trace = observe, .metrics = observe});
        cfg.run = s.run;
        return solve_system_3d(fs, b, cfg, s.machine);
      };
      // Perturbations are seeded, so the perturbed clocks are part of what
      // the fingerprint pins — seeds 0 and 1 are distinct entries. Tracing
      // and metrics never touch the clean ledger, so the plain seed-0 solve
      // records both.
      const DistSolveOutcome plain = solve(0, "", {2, 2, 2}, /*observe=*/true);
      out[base + " 0"] = fp_hex(plain.run_stats.fingerprint());
      out[base + " x0"] =
          fp_hex(hash_bytes(plain.x.data(), plain.x.size() * sizeof(Real)));
      out[base + " trace0"] =
          fp_hex(hash_string(plain.run_stats.trace->chrome_json(/*fault_ledger=*/false)));
      out[base + " metrics0"] = fp_hex(hash_string(plain.run_stats.metrics->to_json()));
      out[base + " grid3x2"] =
          fp_hex(solve(0, "", {3, 2, 2}).run_stats.fingerprint());
      out[base + " 1"] = fp_hex(solve(1, "").run_stats.fingerprint());
      for (const GoldenScenario& g : kScenarios) {
        SCOPED_TRACE(base + " " + g.token);
        const DistSolveOutcome res = solve(0, g.spec);
        test::expect_clean_twin(plain, res);
        test::expect_ledger(res.run_stats, g.ledger);
        if (g.clean_row) out[base + " " + g.token] = fp_hex(res.run_stats.fingerprint());
        if (g.fault_row) {
          out[base + " fault:" + g.token] = fp_hex(res.run_stats.fault_fingerprint());
        }
      }
    }
  }
  return out;
}

TEST(GoldenFingerprints, MatchCorpus) {
  const std::map<std::string, std::string> computed = compute_corpus();

  if (const char* regen = std::getenv("SPTRSV_GOLDEN_REGEN");
      regen != nullptr && *regen != '\0') {
    std::ofstream out(regen);
    ASSERT_TRUE(out) << "cannot write " << regen;
    out << "# Golden clean-ledger fingerprints (tests/test_golden.cpp).\n"
        << "# <matrix> <algorithm> <seed-token: 0|1|abft0|sdc0|degrade0|elastic0|grid3x2> "
           "<fingerprint>\n"
        << "# Hash rows of the plain seed-0 solve: <matrix> <algorithm> <x0|trace0|metrics0> "
           "<hash>\n"
        << "# GPU-model rows: <matrix> gpu 0 <hash of the time bits, both schedule modes>\n"
        << "# Fault-ledger rows: <matrix> <algorithm> fault:<sdc0|degrade0|elastic0|drop0|crash0> "
           "<fault_fingerprint>\n"
        << "# Regenerate: SPTRSV_GOLDEN_REGEN=<path> ./build/tests/test_golden\n";
    for (const auto& [key, fp] : computed) out << key << " " << fp << "\n";
    GTEST_SKIP() << "regenerated " << computed.size() << " entries into " << regen;
  }

  std::ifstream in(GOLDEN_FILE);
  ASSERT_TRUE(in) << "missing golden corpus " << GOLDEN_FILE;
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string matrix, alg, seed, fp;
    ASSERT_TRUE(ls >> matrix >> alg >> seed >> fp) << "malformed line: " << line;
    golden[matrix + " " + alg + " " + seed] = fp;
  }

  ASSERT_EQ(golden.size(), computed.size())
      << "corpus entry count drifted — regenerate deliberately";
  for (const auto& [key, fp] : computed) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden entry for " << key;
    EXPECT_EQ(it->second, fp) << "fingerprint drifted for " << key;
  }
}

}  // namespace
}  // namespace sptrsv
