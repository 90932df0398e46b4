#pragma once
/// \file fault_spec.hpp
/// \brief One scenario grammar for every fault front end, and one printer
/// for the fault ledger it produces (docs/ROBUSTNESS.md §Scenario spec).
///
/// A fault spec is a comma-separated list of `key=value` and bare `flag`
/// tokens, for example
///
///   drop_prob=0.01,crash_mtbf=1e-3,spare_ranks=0,degrade,crash=3@1e-4
///
/// Each key is the name of the model field it sets. The keys cover the
/// scenario (which faults, how often, how recovery may respond), not the
/// cost model:
///   - PerturbationModel: drop_prob, dup_prob, corrupt_prob, reorder_prob,
///     reorder_window, crash_mtbf, crash_max_per_rank, repair_mtbf,
///     repair_max_per_rank, sdc_rate, sdc_max_per_rank;
///   - RecoveryModel: spare_ranks, rebalance_fanout, straggler_lag;
///   - RunOptions flags: abft, sdc_repair, degrade, rebalance;
///   - repeatable events: crash=R@T and return=R@T (world rank R, clean
///     virtual time T on the solve clock).
/// `sptrsv_cli --faults`, the benches' SPTRSV_BENCH_FAULTS and the tests
/// all read this grammar.

#include <string>
#include <string_view>
#include <vector>

#include "runtime/cluster.hpp"

namespace sptrsv {

/// Applies `spec` on top of `machine` and `opts` and returns the keys it
/// named, in order. An empty spec changes nothing. Parsing is strict: an
/// unknown key, a missing or extra value, trailing garbage, a probability
/// outside [0, 1], a negative or non-finite number, or a repeated scalar
/// key throws std::invalid_argument naming the offending token.
std::vector<std::string> apply_fault_spec(std::string_view spec,
                                          MachineModel& machine, RunOptions& opts);

/// The run's fault ledger as text: one line per ledger part with a nonzero
/// field (every field of that part, merged over ranks), one line per rank
/// that ran overloaded after a degrade, then the clean and fault makespans.
/// Each line starts with `indent` and ends with a newline.
std::string fault_summary(const Cluster::Result& result,
                          std::string_view indent = "  ");

}  // namespace sptrsv
