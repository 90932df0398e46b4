/// \file test_fault_scenarios.cpp
/// \brief The fault scenario grammar (runtime/fault_spec.hpp) and the
/// clean-twin property suite over it (docs/TESTING.md §Fault scenarios).
///
/// Each row of kRows is one scenario: a fault spec, the spec of its twin
/// (fault-free by default), a system, algorithms and seeds, and one
/// expectation. For every (algorithm, seed) the suite runs the twin, the
/// faulty run and a replay of the faulty run, and checks:
///  - the clean-twin property (test::expect_clean_twin): solution bits,
///    fingerprint, makespan, message counts and the clean trace export
///    equal the twin's, and the fault clock never runs behind;
///  - the replay reproduces the whole run, fault ledger included;
///  - a fault-free twin leaves the fault ledger all zero;
///  - `fires` rows: the named ledger conditions hold (at least one demands
///    a nonzero field, so no row passes vacuously) and the fault makespan
///    exceeds the clean one;
///  - `inert` rows: the fault ledger, fault_fingerprint and full-fidelity
///    trace equal the twin's.
/// A row registers under its `id`; rows that absorbed an earlier
/// standalone test keep that test's name.

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "sparse/paper_matrices.hpp"
#include "test_support.hpp"

namespace sptrsv {
namespace {

// ---------------------------------------------------------------------------
// The grammar.
// ---------------------------------------------------------------------------

TEST(FaultSpec, EachKeyLandsOnItsField) {
  MachineModel m = test::test_machine();
  RunOptions o;
  const std::vector<std::string> keys = apply_fault_spec(
      "drop_prob=0.1,dup_prob=0.2,corrupt_prob=0.3,reorder_prob=0.4,"
      "reorder_window=5e-6,crash_mtbf=1e-3,crash_max_per_rank=3,"
      "repair_mtbf=2e-3,repair_max_per_rank=4,sdc_rate=2e3,sdc_max_per_rank=5,"
      "spare_ranks=0,rebalance_fanout=2,straggler_lag=1e-5,"
      "abft,sdc_repair,degrade,rebalance",
      m, o);
  EXPECT_EQ(keys.size(), 18u);
  EXPECT_EQ(keys.front(), "drop_prob");
  EXPECT_EQ(keys.back(), "rebalance");
  EXPECT_EQ(m.perturb.drop_prob, 0.1);
  EXPECT_EQ(m.perturb.dup_prob, 0.2);
  EXPECT_EQ(m.perturb.corrupt_prob, 0.3);
  EXPECT_EQ(m.perturb.reorder_prob, 0.4);
  EXPECT_EQ(m.perturb.reorder_window, 5e-6);
  EXPECT_EQ(m.perturb.crash_mtbf, 1e-3);
  EXPECT_EQ(m.perturb.crash_max_per_rank, 3);
  EXPECT_EQ(m.perturb.repair_mtbf, 2e-3);
  EXPECT_EQ(m.perturb.repair_max_per_rank, 4);
  EXPECT_EQ(m.perturb.sdc_rate, 2e3);
  EXPECT_EQ(m.perturb.sdc_max_per_rank, 5);
  EXPECT_EQ(m.recovery.spare_ranks, 0);
  EXPECT_EQ(m.recovery.rebalance_fanout, 2);
  EXPECT_EQ(m.recovery.straggler_lag, 1e-5);
  EXPECT_TRUE(o.abft);
  EXPECT_TRUE(o.sdc_repair);
  EXPECT_TRUE(o.degrade);
  EXPECT_TRUE(o.rebalance);
}

TEST(FaultSpec, CrashAndReturnAppend) {
  MachineModel m = test::test_machine();
  m.perturb.crashes = {{0, 1.0}};
  RunOptions o;
  apply_fault_spec("crash=3@1e-4,return=3@5e-4,crash=5@2.5e-4", m, o);
  ASSERT_EQ(m.perturb.crashes.size(), 3u);
  EXPECT_EQ(m.perturb.crashes[1].rank, 3);
  EXPECT_EQ(m.perturb.crashes[1].vt, 1e-4);
  EXPECT_EQ(m.perturb.crashes[2].rank, 5);
  EXPECT_EQ(m.perturb.crashes[2].vt, 2.5e-4);
  ASSERT_EQ(m.perturb.returns.size(), 1u);
  EXPECT_EQ(m.perturb.returns[0].rank, 3);
  EXPECT_EQ(m.perturb.returns[0].vt, 5e-4);
}

TEST(FaultSpec, EmptySpecChangesNothing) {
  MachineModel m = test::test_machine();
  RunOptions o;
  EXPECT_TRUE(apply_fault_spec("", m, o).empty());
  EXPECT_FALSE(m.perturb.delivery_active() || m.perturb.crash_active() ||
               m.perturb.sdc_active());
  EXPECT_TRUE(m.perturb.returns.empty());
  EXPECT_EQ(m.perturb.repair_mtbf, 0.0);
  EXPECT_EQ(m.recovery.spare_ranks, test::test_machine().recovery.spare_ranks);
  EXPECT_FALSE(o.abft || o.sdc_repair || o.degrade || o.rebalance);
}

TEST(FaultSpec, SeventeenDigitValuesRoundTrip) {
  const double p = 0.1 * 0.123456789012345678;
  char spec[64];
  std::snprintf(spec, sizeof spec, "drop_prob=%.17g", p);
  const test::Scenario s = test::scenario(spec);
  EXPECT_EQ(std::memcmp(&s.machine.perturb.drop_prob, &p, sizeof p), 0);
}

TEST(FaultSpec, MalformedTokensThrowNamingTheToken) {
  const char* const bad[] = {
      "no_such_key=1",      // unknown key
      "drop_prob",          // missing value
      "drop_prob=",         // empty value
      "abft=1",             // extra value on a flag
      "crash=3",            // event without @
      "crash=@1e-4",        // event without a rank
      "crash=3@",           // event without a time
      "crash_mtbf=1e-3x",   // trailing garbage
      "crash_mtbf=abc",     // not a number
      "crash_mtbf= 1",      // leading space
      "crash_mtbf=inf",     // not finite
      "drop_prob=1.5",      // probability above 1
      "reorder_prob=-0.1",  // probability below 0
      "sdc_rate=-2",        // negative rate
      "spare_ranks=-1",     // negative count
      "spare_ranks=1.5",    // fractional count
      "crash=-1@1e-4",      // negative rank
      "return=2@-1",        // negative time
      "degrade,degrade",    // repeated flag
      "drop_prob=0.1,drop_prob=0.2",  // repeated scalar
  };
  for (const char* spec : bad) {
    MachineModel m = test::test_machine();
    RunOptions o;
    try {
      apply_fault_spec(spec, m, o);
      ADD_FAILURE() << "accepted malformed spec '" << spec << "'";
    } catch (const std::invalid_argument& e) {
      // The message names the offending token: the last one of the spec.
      std::string token = spec;
      token = token.substr(token.rfind(',') + 1);
      EXPECT_NE(std::string(e.what()).find("'" + token + "'"), std::string::npos)
          << spec << " -> " << e.what();
    }
  }
  for (const char* spec : {",", "abft,", ",abft", "abft,,degrade"}) {
    MachineModel m = test::test_machine();
    RunOptions o;
    EXPECT_THROW(apply_fault_spec(spec, m, o), std::invalid_argument) << spec;
  }
}

TEST(FaultSpec, SummaryListsOnlyFiredPartsAndBothMakespans) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 3);
  const auto b = test::random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  const test::Scenario s = test::scenario("drop_prob=0.05");
  const DistSolveOutcome out = solve_system_3d(fs, b, cfg, s.machine);
  const std::string text = fault_summary(out.run_stats, "# ");
  EXPECT_EQ(text.rfind("# transport: data_frames=", 0), 0u) << text;
  EXPECT_NE(text.find(" retransmits="), std::string::npos);
  EXPECT_EQ(text.find("recovery:"), std::string::npos);
  EXPECT_NE(text.find("# fault makespan "), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

// ---------------------------------------------------------------------------
// The clean-twin property suite.
// ---------------------------------------------------------------------------

/// The faulty machine of the lossy-network rows: drop / duplicate / corrupt
/// / reorder at rates the default retry budget absorbs.
constexpr const char* kLossy =
    "drop_prob=0.1,dup_prob=0.05,corrupt_prob=0.02,reorder_prob=0.05,"
    "reorder_window=5e-6";

enum class Expect { kFires, kInert };
/// What the faulty run's full-fidelity trace must show against the twin's
/// (inert rows always check kSame).
enum class FullTrace { kUnchecked, kSame, kMarked };

struct Row {
  const char* id;  ///< "Suite.Name" the row registers as
  /// Fault spec; "R@mid" in an event stands for half of rank R's clock in
  /// the fault-free run of the same system, algorithm and seed.
  std::string spec;
  Expect expect;
  /// Comma-separated test::expect_ledger conditions on the faulty run.
  const char* ledger = "";
  std::string twin = "";
  int system = -1;  ///< test::random_system seed; -1: tiny s2D9pt2048 on 2x2x2
  std::uint64_t rhs_seed = 42;
  std::vector<Algorithm3d> algs = {Algorithm3d::kProposed};
  std::vector<std::uint64_t> seeds = {0};
  bool perturbed = false;  ///< timing-perturbed base machine
  bool sparse_zreduce = true;
  FullTrace full_trace = FullTrace::kUnchecked;
};

const Row kRows[] = {
    {.id = "FaultScenarios.LossyNetworkProposedSparse",
     .spec = kLossy, .expect = Expect::kFires, .ledger = "transport.retransmits>0",
     .seeds = {1, 7, 23}},
    {.id = "FaultScenarios.LossyNetworkProposedDense",
     .spec = kLossy, .expect = Expect::kFires, .ledger = "transport.retransmits>0",
     .seeds = {1, 7, 23}, .sparse_zreduce = false},
    {.id = "FaultScenarios.LossyNetworkBaseline",
     .spec = kLossy, .expect = Expect::kFires, .ledger = "transport.retransmits>0",
     .algs = {Algorithm3d::kBaseline}, .seeds = {1, 7, 23}},
    {.id = "CrashRecovery.Solver2dBitIdenticalUnderCrash",
     .spec = "crash=1@mid", .expect = Expect::kFires, .ledger = "recovery.crashes>0",
     .system = 41, .rhs_seed = 14},
    {.id = "CrashRecovery.Proposed3dBitIdenticalUnderCrash",
     .spec = "crash=1@mid", .expect = Expect::kFires, .ledger = "recovery.crashes>0",
     .system = 7, .rhs_seed = 3},
    {.id = "CrashRecovery.Baseline3dBitIdenticalUnderCrash",
     .spec = "crash=1@mid", .expect = Expect::kFires, .ledger = "recovery.crashes>0",
     .system = 7, .rhs_seed = 3, .algs = {Algorithm3d::kBaseline}},
    // An MTBF far past the solve arms the crash stream (checkpoints are
    // priced) without a crash: no timing or delivery draw may move.
    {.id = "CrashRecovery.MtbfStreamNeverShiftsTimingOrDeliveryDraws",
     .spec = "crash_mtbf=10", .expect = Expect::kFires,
     .ledger = "recovery.checkpoints>0,recovery.crashes=0", .system = 11,
     .rhs_seed = 2, .seeds = {5}, .perturbed = true},
    {.id = "CrashRecovery.CleanTraceJsonByteIdenticalUnderCrash",
     .spec = "crash=1@mid", .expect = Expect::kFires, .ledger = "recovery.crashes>0",
     .system = 7, .rhs_seed = 3, .full_trace = FullTrace::kMarked},
    // ABFT with no faults: verification runs and is priced, but no flip
    // means no marker — even the full-fidelity trace is the twin's.
    {.id = "SdcAbft.ArmedWithoutFaultsIsCleanLedgerInvisible",
     .spec = "abft", .expect = Expect::kFires,
     .ledger = "sdc.checks>0,sdc.verify_time>0,sdc.injected=0",
     .full_trace = FullTrace::kSame},
    // Spares available: the crash takes the spare-adoption path, and the
    // armed degrade machinery must not fire or shift a single fault draw.
    {.id = "GracefulDegradation.ArmedWithoutTerminalCrashesIsInert",
     .spec = "crash=2@mid,degrade", .expect = Expect::kInert,
     .ledger =
         "recovery.spares_used=1,degradation.degrades=0,degradation.partitions_adopted=0",
     .twin = "crash=2@mid"},
    {.id = "ArmedInert.RepairMtbfWithoutCrashesIsBitwiseInvisible",
     .spec = "degrade,repair_mtbf=1e-4,rebalance_fanout=2", .expect = Expect::kInert,
     .twin = "degrade"},
    {.id = "FaultScenarios.SdcCorrectedByAbft",
     .spec = "sdc_rate=5e4,abft", .expect = Expect::kFires,
     .ledger = "sdc.injected>0,sdc.corrected>0",
     .algs = {Algorithm3d::kProposed, Algorithm3d::kBaseline}},
    {.id = "FaultScenarios.DegradeThenReturn",
     .spec = "spare_ranks=0,degrade,crash=1@1e-5,return=1@8e-5",
     .expect = Expect::kFires,
     .ledger = "degradation.degrades>0,elasticity.returns>0,recovery.spares_used=0",
     .algs = {Algorithm3d::kProposed, Algorithm3d::kBaseline}},
    {.id = "FaultScenarios.LoadAwareDegradeUnderLossAndMtbf",
     .spec = "spare_ranks=0,degrade,rebalance_fanout=2,crash=3@mid,drop_prob=0.05,"
             "crash_mtbf=1",
     .expect = Expect::kFires,
     .ledger = "degradation.degrades>0,transport.retransmits>0", .seeds = {0, 1}},
};

/// `spec` with every "R@mid" replaced by half of rank R's clean clock in
/// `plain` (%.17g, so the time parses back to the same double).
std::string resolve_mid(std::string spec, const DistSolveOutcome* plain) {
  for (std::size_t at = spec.find("@mid"); at != std::string::npos;
       at = spec.find("@mid")) {
    const std::size_t eq = spec.rfind('=', at);
    const auto rank = static_cast<std::size_t>(std::stoi(spec.substr(eq + 1)));
    EXPECT_LT(rank, plain->run_stats.ranks.size()) << spec;
    char t[32];
    std::snprintf(t, sizeof t, "@%.17g",
                  0.5 * plain->run_stats.ranks.at(rank).vtime);
    spec.replace(at, 4, t);
  }
  return spec;
}

void check_row(const Row& row) {
  test::RandomSystem sys;
  if (row.system < 0) {
    sys.a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
    sys.fs = analyze_and_factor(sys.a, 3);
    sys.shape = {2, 2, 2};
  } else {
    sys = test::random_system(static_cast<std::uint64_t>(row.system));
  }
  const auto b = test::random_rhs(sys.a.rows(), sys.nrhs, row.rhs_seed);
  const MachineModel base =
      row.perturbed ? test::perturbed_machine() : test::test_machine();
  for (const Algorithm3d alg : row.algs) {
    for (const std::uint64_t seed : row.seeds) {
      SCOPED_TRACE(testing::Message()
                   << (alg == Algorithm3d::kProposed ? "proposed" : "baseline")
                   << " seed " << seed);
      auto run = [&](const std::string& spec) {
        SolveConfig cfg;
        cfg.shape = sys.shape;
        cfg.algorithm = alg;
        cfg.nrhs = sys.nrhs;
        cfg.sparse_zreduce = row.sparse_zreduce;
        const test::Scenario s =
            test::scenario(spec, base, RunOptions{.seed = seed, .trace = true});
        cfg.run = s.run;
        return solve_system_3d(sys.fs, b, cfg, s.machine);
      };
      std::optional<DistSolveOutcome> plain;
      if ((row.spec + row.twin).find("@mid") != std::string::npos) plain = run("");
      const std::string spec = resolve_mid(row.spec, plain ? &*plain : nullptr);
      const std::string twin_spec = resolve_mid(row.twin, plain ? &*plain : nullptr);
      SCOPED_TRACE("spec '" + spec + "' twin '" + twin_spec + "'");

      const DistSolveOutcome twin = run(twin_spec);
      const DistSolveOutcome faulty = run(spec);
      test::expect_clean_twin(twin, faulty);
      const DistSolveOutcome replay = run(spec);
      EXPECT_TRUE(test::stats_identical(replay.run_stats, faulty.run_stats));
      EXPECT_EQ(replay.run_stats.fault_fingerprint(),
                faulty.run_stats.fault_fingerprint());
      if (twin_spec.empty()) {
        EXPECT_TRUE(test::ledger_all_zero(twin.run_stats));
        EXPECT_EQ(twin.run_stats.fault_makespan(), twin.run_stats.makespan());
      }
      test::expect_ledger(faulty.run_stats, row.ledger);
      const std::string twin_json = twin.run_stats.trace->chrome_json();
      const std::string faulty_json = faulty.run_stats.trace->chrome_json();
      if (row.expect == Expect::kFires) {
        EXPECT_NE(std::string(row.ledger).find('>'), std::string::npos)
            << "a fires row must demand a nonzero ledger field";
        EXPECT_GT(faulty.run_stats.fault_makespan(), faulty.run_stats.makespan());
      } else {
        EXPECT_TRUE(test::stats_identical(faulty.run_stats, twin.run_stats));
        EXPECT_EQ(faulty.run_stats.fault_fingerprint(),
                  twin.run_stats.fault_fingerprint());
        if (*row.ledger == '\0') {
          EXPECT_TRUE(test::ledger_all_zero(faulty.run_stats));
        }
      }
      if (row.expect == Expect::kInert || row.full_trace == FullTrace::kSame) {
        EXPECT_EQ(faulty_json, twin_json);
      } else if (row.full_trace == FullTrace::kMarked) {
        // Crash/restore/checkpoint markers ride the full-fidelity export
        // only.
        EXPECT_NE(faulty_json, twin_json);
        EXPECT_NE(faulty_json, faulty.run_stats.trace->chrome_json(false));
      }
    }
  }
}

class RowTest : public ::testing::Test {
 public:
  explicit RowTest(const Row* row) : row_(row) {}
  void TestBody() override { check_row(*row_); }

 private:
  const Row* row_;
};

const bool kRegistered = [] {
  for (const Row& row : kRows) {
    const std::string id = row.id;
    const std::size_t dot = id.find('.');
    ::testing::RegisterTest(id.substr(0, dot).c_str(), id.substr(dot + 1).c_str(),
                            nullptr, nullptr, __FILE__, __LINE__,
                            [&row]() -> ::testing::Test* { return new RowTest(&row); });
  }
  return true;
}();

}  // namespace
}  // namespace sptrsv
