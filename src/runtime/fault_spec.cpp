#include "runtime/fault_spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <variant>

namespace sptrsv {

namespace {

/// One spec key: the model field it sets and how its value is read.
struct Key {
  enum Kind {
    kScalar,       ///< number >= 0, or a bare flag for bool fields
    kProbability,  ///< number in [0, 1]
    kEvent,        ///< repeatable R@T, appended to the schedule
  };
  const char* name;
  std::variant<double PerturbationModel::*, int PerturbationModel::*,
               double RecoveryModel::*, int RecoveryModel::*, bool RunOptions::*,
               std::vector<PerturbationModel::Crash> PerturbationModel::*,
               std::vector<PerturbationModel::NodeReturn> PerturbationModel::*>
      field;
  Kind kind = kScalar;
};

const Key kKeys[] = {
    {"drop_prob", &PerturbationModel::drop_prob, Key::kProbability},
    {"dup_prob", &PerturbationModel::dup_prob, Key::kProbability},
    {"corrupt_prob", &PerturbationModel::corrupt_prob, Key::kProbability},
    {"reorder_prob", &PerturbationModel::reorder_prob, Key::kProbability},
    {"reorder_window", &PerturbationModel::reorder_window},
    {"crash_mtbf", &PerturbationModel::crash_mtbf},
    {"crash_max_per_rank", &PerturbationModel::crash_max_per_rank},
    {"repair_mtbf", &PerturbationModel::repair_mtbf},
    {"repair_max_per_rank", &PerturbationModel::repair_max_per_rank},
    {"sdc_rate", &PerturbationModel::sdc_rate},
    {"sdc_max_per_rank", &PerturbationModel::sdc_max_per_rank},
    {"spare_ranks", &RecoveryModel::spare_ranks},
    {"rebalance_fanout", &RecoveryModel::rebalance_fanout},
    {"straggler_lag", &RecoveryModel::straggler_lag},
    {"abft", &RunOptions::abft},
    {"sdc_repair", &RunOptions::sdc_repair},
    {"degrade", &RunOptions::degrade},
    {"rebalance", &RunOptions::rebalance},
    {"crash", &PerturbationModel::crashes, Key::kEvent},
    {"return", &PerturbationModel::returns, Key::kEvent},
};

[[noreturn]] void reject(std::string_view token, const char* why) {
  throw std::invalid_argument("fault spec: '" + std::string(token) + "' " + why);
}

/// The whole of `text` as a non-negative, finite T.
template <class T>
T number(std::string_view text, std::string_view token) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || stop != end) reject(token, "is not a number");
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) reject(token, "is not finite");
  }
  if (v < 0) reject(token, "is negative");
  return v;
}

template <class T>
T* slot(MachineModel& m, RunOptions&, T PerturbationModel::*f) {
  return &(m.perturb.*f);
}
template <class T>
T* slot(MachineModel& m, RunOptions&, T RecoveryModel::*f) {
  return &(m.recovery.*f);
}
bool* slot(MachineModel&, RunOptions& o, bool RunOptions::*f) { return &(o.*f); }

using Value = std::optional<std::string_view>;

void set(bool& flag, Value v, std::string_view token) {
  if (v) reject(token, "takes no value");
  flag = true;
}

template <class T>
  requires std::is_arithmetic_v<T>
void set(T& field, Value v, std::string_view token) {
  if (!v) reject(token, "expects a value");
  field = number<T>(*v, token);
}

template <class Event>
void set(std::vector<Event>& events, Value v, std::string_view token) {
  const std::size_t at = v ? v->find('@') : std::string_view::npos;
  if (at == std::string_view::npos) reject(token, "expects RANK@TIME");
  events.push_back({number<int>(v->substr(0, at), token),
                    number<double>(v->substr(at + 1), token)});
}

}  // namespace

std::vector<std::string> apply_fault_spec(std::string_view spec,
                                          MachineModel& machine, RunOptions& opts) {
  std::vector<std::string> named;
  for (std::size_t begin = 0, comma = 0; !spec.empty() && comma != spec.npos;
       begin = comma + 1) {
    comma = spec.find(',', begin);
    const std::string_view token = spec.substr(begin, comma - begin);
    if (token.empty()) reject(spec, "has an empty token");
    const std::size_t eq = token.find('=');
    const std::string_view name = token.substr(0, eq);
    const Value value =
        eq == std::string_view::npos ? Value() : Value(token.substr(eq + 1));
    const Key* key = std::find_if(std::begin(kKeys), std::end(kKeys),
                                  [&](const Key& k) { return name == k.name; });
    if (key == std::end(kKeys)) reject(token, "names no fault-spec key");
    if (key->kind != Key::kEvent &&
        std::find(named.begin(), named.end(), name) != named.end()) {
      reject(token, "repeats a key");
    }
    std::visit([&](auto field) { set(*slot(machine, opts, field), value, token); },
               key->field);
    if (key->kind == Key::kProbability &&
        machine.perturb.*std::get<double PerturbationModel::*>(key->field) > 1.0) {
      reject(token, "is not a probability in [0, 1]");
    }
    named.emplace_back(name);
  }
  return named;
}

std::string fault_summary(const Cluster::Result& result, std::string_view indent) {
  std::string out;
  char buf[96];
  const FaultLedger total = result.fault_totals();
  FaultLedger::each_part([&](const char* part, std::span<const LedgerField> table,
                             std::size_t base) {
    const bool any = std::any_of(table.begin(), table.end(), [&](const LedgerField& f) {
      return ledger_get<std::uint64_t>(&total, base + f.offset) != 0;
    });
    if (!any) return;
    out.append(indent).append(part).append(":");
    for (const LedgerField& f : table) {
      if (f.kind == LedgerField::kCount) {
        std::snprintf(buf, sizeof buf, " %s=%lld", f.name,
                      static_cast<long long>(
                          ledger_get<std::int64_t>(&total, base + f.offset)));
      } else {
        std::snprintf(buf, sizeof buf, " %s=%.3e", f.name,
                      ledger_get<double>(&total, base + f.offset));
      }
      out += buf;
    }
    out += '\n';
  });
  // Post-shrink load picture: which survivors carry how many partitions'
  // worth of work (x1.00 = their own share only).
  for (std::size_t r = 0; r < result.ranks.size(); ++r) {
    const double m = result.ranks[r].degradation.overload_mult;
    if (m > 1.0) {
      std::snprintf(buf, sizeof buf, "rank %zu overload x%.2f\n", r, m);
      out.append(indent).append(buf);
    }
  }
  const double clean = result.makespan();
  const double faulty = result.fault_makespan();
  std::snprintf(buf, sizeof buf, "fault makespan %.3e s (clean %.3e s, +%.1f%%)\n",
                faulty, clean, clean > 0.0 ? 100.0 * (faulty - clean) / clean : 0.0);
  out.append(indent).append(buf);
  return out;
}

}  // namespace sptrsv
