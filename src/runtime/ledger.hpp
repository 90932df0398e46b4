#pragma once
/// \file ledger.hpp
/// \brief Field tables of the fault ledger (docs/ROBUSTNESS.md
/// §Two-ledger accounting).
///
/// Each per-class part of the fault ledger (TransportStats, RecoveryStats,
/// SdcStats, DegradationStats, ElasticityStats) is a padding-free run of
/// 8-byte fields described by one static table, `kFields`: per field, its
/// offset and name, how per-rank values merge, and the metric that mirrors
/// it. Merging, metric registration, Result::fault_fingerprint and the
/// fault_summary printer are loops over these tables, so a new field is one
/// table entry.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace sptrsv {

/// One fault-ledger field.
struct LedgerField {
  enum Kind : unsigned char {
    kCount,  ///< std::int64_t, summed over ranks
    kTime,   ///< double, summed over ranks
    kPeak,   ///< double, max over ranks
  };
  std::size_t offset;  ///< byte offset of the field in its stats struct
  const char* name;    ///< the member's name, as spelled in its struct
  Kind kind;
  /// Counter that mirrors a kCount field (every charge bumps both), or
  /// nullptr when the field has no metric.
  const char* metric;
};

/// The LedgerField of member `f` of stats struct `S`: its offset and name,
/// merge kind `kind` (kCount / kTime / kPeak) and mirroring metric.
#define SPTRSV_LEDGER_FIELD(S, f, kind, metric) \
  { offsetof(S, f), #f, LedgerField::kind, metric }

/// The 8-byte field at byte offset `off` of `stats`, read as a T (the
/// field's type is named by its table entry).
template <class T>
T ledger_get(const void* stats, std::size_t off) {
  T v{};
  std::memcpy(&v, static_cast<const char*>(stats) + off, sizeof v);
  return v;
}

/// Merges one rank's `from` into the running total `into`, field by field.
template <class Stats>
void ledger_merge(Stats& into, const Stats& from) {
  for (const LedgerField& f : Stats::kFields) {
    char* to = reinterpret_cast<char*>(&into) + f.offset;
    if (f.kind == LedgerField::kCount) {
      const auto sum = ledger_get<std::int64_t>(&into, f.offset) +
                       ledger_get<std::int64_t>(&from, f.offset);
      std::memcpy(to, &sum, sizeof sum);
    } else {
      const double x = ledger_get<double>(&into, f.offset);
      const double y = ledger_get<double>(&from, f.offset);
      const double merged = f.kind == LedgerField::kTime ? x + y : std::max(x, y);
      std::memcpy(to, &merged, sizeof merged);
    }
  }
}

}  // namespace sptrsv
