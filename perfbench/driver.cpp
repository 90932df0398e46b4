/// \file driver.cpp
/// \brief Two-clock benchmark driver: one workload per invocation.
///
///   sptrsv_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                    [--spans FILE]
///
/// Measures the host wall clock (how long the simulator takes) and reads the
/// modeled LogGP clock (what the simulated machine would take) for one of
/// three fixed workloads (see README.md). Every layer is timed from outside,
/// by calls into its public functions. Human-readable lines start with '#';
/// the last line of stdout is one JSON object: with --trace 0 it carries the
/// end-to-end metrics, with --trace 1 the per-layer metrics.
///
/// Nothing here reads the environment: every RunOptions, MachineModel and
/// fault knob is pinned below.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/sptrsv3d.hpp"
#include "dist/solve_plan.hpp"
#include "factor/sptrsv_seq.hpp"
#include "factor/supernodal_lu.hpp"
#include "gpusim/gpu_sptrsv.hpp"
#include "ordering/etree.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/paper_matrices.hpp"
#include "symbolic/block_pattern.hpp"
#include "symbolic/colcounts.hpp"
#include "symbolic/supernodes.hpp"
#include "trace/trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace sptrsv;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Highest nearest-rank percentile with at least ten samples above it. With
/// fewer than 11 samples none exists, and the maximum is reported instead.
/// Returns (value, label).
std::pair<double, std::string> tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.size() < 11) return {v.empty() ? 0.0 : v.back(), "max (n<11)"};
  const size_t i = v.size() - 11;
  const double pct = 100.0 * static_cast<double>(i + 1) / static_cast<double>(v.size());
  char label[32];
  std::snprintf(label, sizeof(label), "p%.1f", pct);
  return {v[i], label};
}

// ---------------------------------------------------------------------------
// Host-time spans: name, start, end, parent. Kept in memory, written once as
// Chrome trace-event JSON (Perfetto-loadable).

class Spans {
 public:
  struct Rec {
    std::string name;
    double t0 = 0, t1 = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Spans& s, std::string name) : s_(s), id_(s.open(std::move(name))) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { s_.close(id_); }
    /// Elapsed host seconds since the span opened.
    double elapsed() const { return s_.now() - s_.recs_[static_cast<size_t>(id_)].t0; }

   private:
    Spans& s_;
    int id_;
  };

  double now() const { return seconds_since(origin_); }

  void write_json(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < recs_.size(); ++i) {
      const Rec& r = recs_[i];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,", r.t0 * 1e6,
                    (r.t1 - r.t0) * 1e6);
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << r.name << "\"," << buf
         << "\"args\":{\"id\":" << i << ",\"parent\":"
         << (r.parent < 0 ? std::string("null")
                          : "\"" + recs_[static_cast<size_t>(r.parent)].name + "\"")
         << "}}";
    }
    os << "\n]}\n";
    if (!os) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    recs_.push_back({std::move(name), now(), 0.0, parent});
    stack_.push_back(static_cast<int>(recs_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    recs_[static_cast<size_t>(id)].t1 = now();
    stack_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Rec> recs_;
  std::vector<int> stack_;
};

/// Pins the process to the last CPU it may run on and returns that CPU (-1
/// if affinity is unavailable). Only the run-token holder among the rank
/// threads is runnable, so the simulation is serial either way; on one CPU
/// every token handoff is a local wakeup instead of a cross-CPU one, whose
/// cost on a shared virtual machine varies several-fold from run to run.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? c : -1;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Pinned configuration.

struct Workload {
  const char* name;
  PaperMatrix matrix;
  int nd_levels;
  Grid3dShape shape;
  bool gpu;
  bool faults;
  int setup_reps;  ///< setups per run; setup_s is their median
  /// Distinct right-hand sides (and fault seeds) per run, and the minimum
  /// number of timed solves. cori-kkt-faults uses 11 so that tail_of never
  /// falls back to the maximum there, however slow the host.
  int slots;
};

const Workload kWorkloads[] = {
    {"cori-wide", PaperMatrix::kS2D9pt2048, 5, {16, 16, 8}, false, false, 3, 3},
    {"cori-kkt-faults", PaperMatrix::kNlpkkt80, 5, {4, 4, 8}, false, true, 2, 11},
    {"perlmutter-gpu", PaperMatrix::kS1Mat0253872, 6, {8, 1, 8}, true, false, 3, 1},
};

/// Every fault, transport, recovery and ABFT knob, spelled out so library
/// default changes cannot move the workload.
void pin_fault_knobs(MachineModel& m, const Workload& w) {
  PerturbationModel& p = m.perturb;
  p.latency_jitter = 0.0;
  p.delivery_delay = 0.0;
  p.compute_skew = 0.0;
  p.degradations.clear();
  p.drop_prob = w.faults ? 0.01 : 0.0;
  p.dup_prob = 0.0;
  p.corrupt_prob = 0.0;
  p.reorder_prob = 0.0;
  p.reorder_window = 0.0;
  p.link_faults.clear();
  p.crashes.clear();
  p.crash_mtbf = w.faults ? 0.02 : 0.0;
  p.crash_max_per_rank = 1;
  p.returns.clear();
  p.repair_mtbf = 0.0;
  p.repair_max_per_rank = 1;
  p.ckpt_faults.clear();
  p.mem_faults.clear();
  p.sdc_rate = w.faults ? 1e3 : 0.0;
  p.sdc_max_per_rank = 4;
  p.stalls.clear();

  m.transport.rto = 0.0;
  m.transport.backoff = 2.0;
  m.transport.max_retries = 12;
  m.transport.ack_bytes = 16.0;

  m.recovery.heartbeat_period = 100e-6;
  m.recovery.heartbeat_misses = 3;
  m.recovery.spare_ranks = w.faults ? w.shape.size() : 0;
  m.recovery.checkpoint_overhead = 1e-6;
  m.recovery.restore_overhead = 10e-6;
  m.recovery.replay_factor = 1.0;
  m.recovery.rebalance_fanout = 0;
  m.recovery.rank_work.clear();
  m.recovery.straggler_lag = 0.0;

  m.abft.check_overhead = 200e-9;
  m.abft.recompute_overhead = 2e-6;
  m.abft.residual_tol = 1e-6;
  m.abft.recompute_refail_prob = 0.0;
}

/// Cori Haswell (CPU workloads) or Perlmutter (GPU workload), every field
/// pinned.
MachineModel pinned_machine(const Workload& w) {
  MachineModel m;
  if (!w.gpu) {
    m.name = "cori-haswell";
    m.cpu_flop_rate = 3.0e9;
    m.mpi_overhead = 1.0e-6;
    m.net = {1.5e-6, 8.0e9};
    m.gpu_flop_rate = 5.0e11;
    m.gpu_sms = 16;
    m.gpu_gemm_boost_cap = 4.0;
    m.gpu_task_overhead = 2e-6;
    m.nvshmem_latency = 1e-6;
    m.nvshmem_latency_internode = 6e-6;
    m.bw_gpu_intranode = 300e9;
    m.bw_gpu_internode = 12.5e9;
    m.gpus_per_node = 0;
    m.shmem_subcomm_support = true;
  } else {
    m.name = "perlmutter";
    m.cpu_flop_rate = 6.0e9;
    m.mpi_overhead = 0.8e-6;
    m.net = {1.8e-6, 12.5e9};
    m.gpu_flop_rate = 1.1e11;
    m.gpu_sms = 24;
    m.gpu_gemm_boost_cap = 4.0;
    m.gpu_task_overhead = 1.5e-6;
    m.nvshmem_latency = 1.0e-6;
    m.nvshmem_latency_internode = 6.0e-6;
    m.bw_gpu_intranode = 300e9;
    m.bw_gpu_internode = 12.5e9;
    m.gpus_per_node = 4;
    m.shmem_subcomm_support = true;
  }
  pin_fault_knobs(m, w);
  return m;
}

/// Every RunOptions field. Deterministic always: free-running makespans
/// jitter by tens of percent between runs.
RunOptions pinned_run(bool faults, std::uint64_t seed, bool traced) {
  RunOptions o;
  o.deterministic = true;
  o.seed = seed;
  o.trace = traced;
  o.watchdog = true;
  o.vt_limit = std::numeric_limits<double>::infinity();
  o.schedule = SchedulePolicy::kFifo;
  o.schedule_seed = 0;
  o.priority_points = 2;
  o.delay_budget = 8;
  o.replay_schedule = nullptr;
  o.metrics = traced;
  o.metrics_period = 0.0;
  o.abft = faults;
  o.sdc_repair = false;
  o.degrade = faults;
  o.rebalance = false;
  return o;
}

SolveConfig pinned_solve(const Workload& w, RunOptions run) {
  SolveConfig c;
  c.shape = w.shape;
  c.algorithm = Algorithm3d::kProposed;
  c.tree = TreeKind::kBinary;
  c.sparse_zreduce = true;
  c.nrhs = 1;
  c.run = run;
  return c;
}

GpuSolveConfig pinned_gpu(const Workload& w, std::uint64_t seed, bool traced) {
  GpuSolveConfig c;
  c.shape = w.shape;
  c.nrhs = 1;
  c.backend = GpuBackend::kGpu;
  c.schedule = GpuScheduleMode::kTwoKernel;
  c.tree = TreeKind::kBinary;
  c.trace = traced;
  c.metrics = traced;
  c.abft = false;
  c.seed = seed;
  return c;
}

// ---------------------------------------------------------------------------
// Checks.

std::uint64_t ulp_distance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return ~std::uint64_t{0};
  auto key = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return (u & (std::uint64_t{1} << 63)) ? ~u : u | (std::uint64_t{1} << 63);
  };
  const std::uint64_t ka = key(a), kb = key(b);
  return ka > kb ? ka - kb : kb - ka;
}

/// Same-factor bound of the repository's differential oracle.
constexpr std::uint64_t kSameFactorUlp = std::uint64_t{1} << 17;

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

/// Fixed dense kernel (192^3 multiply-add, ~14 Mflop) independent of the
/// program under test: its time tracks host speed only. Median of 5.
double host_reference_s() {
  constexpr int n = 192;
  std::vector<double> a(n * n), b(n * n), c(n * n);
  for (int i = 0; i < n * n; ++i) {
    a[i] = 1.0 + (i % 7) * 0.125;
    b[i] = 2.0 - (i % 5) * 0.25;
  }
  std::vector<double> times;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    std::fill(c.begin(), c.end(), 0.0);
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i)
      for (int k = 0; k < n; ++k) {
        const double aik = a[i * n + k];
        for (int j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
      }
    times.push_back(seconds_since(t0));
    sink += c[(rep * 37) % (n * n)];
  }
  if (!std::isfinite(sink)) std::printf("# host reference sink %g\n", sink);
  return median(times);
}

// ---------------------------------------------------------------------------
// Metrics output.

struct MetricDef {
  const char* name;
  const char* unit;  ///< "vs" = modeled (virtual) seconds on the LogGP clock
};

/// End-to-end metrics (printed with --trace 0), all lower-is-better.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"solve_host_s.p50", "s"},     {"solve_host_s.tail", "s"},
    {"makespan_s", "vs"},       {"fault_makespan_s.p50", "vs"}, {"peak_rss_mb", "MB"},
};

/// Per-layer metrics (printed with --trace 1). A layer the workload does
/// not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"ordering.s", "s"},
    {"symbolic.s", "s"},
    {"symbolic.supernodes", "count"},
    {"symbolic.factor_nnz", "count"},
    {"factor.numeric_s", "s"},
    {"factor.seq_solve_s", "s"},
    {"dist.plan_s", "s"},
    {"runtime.spawn_s", "s"},
    {"runtime.ring_us_per_msg", "us"},
    {"runtime.host_us_per_msg", "us"},
    {"runtime.msgs", "count"},
    {"runtime.bytes", "count"},
    {"runtime.sched_grants", "count"},
    {"runtime.events_per_s", "1/s"},
    {"fault.delay_s", "vs"},
    {"transport.retransmits", "count"},
    {"transport.retrans_bytes", "count"},
    {"transport.acks", "count"},
    {"transport.goodput", "ratio"},
    {"recovery.crashes", "count"},
    {"recovery.checkpoints", "count"},
    {"recovery.checkpoint_bytes", "count"},
    {"recovery.time_s", "vs"},
    {"degrade.events", "count"},
    {"abft.checks", "count"},
    {"abft.injected", "count"},
    {"abft.corrected_ratio", "ratio"},
    {"abft.overhead_s", "vs"},
    {"comm.xy.msgs", "count"},
    {"comm.xy.bytes", "count"},
    {"comm.z.msgs", "count"},
    {"comm.z.bytes", "count"},
    {"tree.bcast_sends", "count"},
    {"tree.reduce_sends", "count"},
    {"zreduce.values", "count"},
    {"zreduce.exchanges", "count"},
    {"core.fp_s.mean", "vs"},
    {"core.xy_s.mean", "vs"},
    {"core.z_s.mean", "vs"},
    {"core.other_s.mean", "vs"},
    {"core.l_solve_s.max", "vs"},
    {"core.u_solve_s.max", "vs"},
    {"core.z_time_s.max", "vs"},
    {"core.imbalance", "ratio"},
    {"cp.fp_s", "vs"},
    {"cp.xy_s", "vs"},
    {"cp.z_s", "vs"},
    {"cp.other_s", "vs"},
    {"cp.wait_s", "vs"},
    {"cp.hops", "count"},
    {"trace.events", "count"},
    {"trace.overhead_s", "s"},
    {"trace.export_s", "s"},
    {"trace.critical_path_s", "s"},
    {"gpu.l_solve_s", "vs"},
    {"gpu.z_comm_s", "vs"},
    {"gpu.u_solve_s", "vs"},
    {"gpu.tasks", "count"},
    {"gpu.puts", "count"},
    {"gpu.put_bytes.xy", "count"},
    {"gpu.put_bytes.z", "count"},
    {"gpu.host_us_per_event", "us"},
    {"host.ref_kernel_s", "s"},
};

/// Metric values by name; only declared names are accepted.
class Report {
 public:
  void set(const std::string& name, double v) {
    if (unit_of(name) == nullptr) throw std::logic_error("undeclared metric " + name);
    vals_[name] = v;
  }

  /// '#'-prefixed listing of one table.
  template <size_t N>
  void print(const char* tag, const MetricDef (&defs)[N]) const {
    for (const MetricDef& d : defs) {
      std::printf("# %s %-28s %.9g %s\n", tag, d.name, get(d.name), d.unit);
    }
  }

  /// {"name": {"value": v, "unit": u}, ...} over one table.
  template <size_t N>
  std::string json(const MetricDef (&defs)[N]) const {
    std::string s = "{";
    for (size_t i = 0; i < N; ++i) {
      char num[48];
      std::snprintf(num, sizeof(num), "%.17g", get(defs[i].name));
      s += std::string(i ? ", \"" : "\"") + defs[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  static const char* unit_of(const std::string& name) {
    for (const MetricDef& d : kEndToEnd) if (name == d.name) return d.unit;
    for (const MetricDef& d : kPerLayer) if (name == d.name) return d.unit;
    return nullptr;
  }
  double get(const std::string& name) const {
    const auto it = vals_.find(name);
    return it == vals_.end() ? 0.0 : it->second;
  }
  std::map<std::string, double> vals_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_w = false, have_seed = false, have_sec = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_w = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
      have_sec = a.seconds > 0;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (!have_w || !have_seed || !have_sec || !have_trace) {
    throw std::invalid_argument(
        "usage: sptrsv_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--spans FILE]");
  }
  return a;
}

/// Right-hand side of one slot, a pure function of (seed, slot): uniform in
/// [0.5, 1.5]. The workload matrices are M-matrices, so a positive b gives an
/// entrywise positive x computed without cancellation; the elementwise ULP
/// check then measures summation-order error only. (With b in [-1, 1],
/// entries of x near zero differ by up to ~1e6 ULP between two correct
/// solvers.)
std::vector<Real> make_rhs(Idx n, std::uint64_t seed, int slot) {
  std::mt19937_64 rng(mix64(mix64(seed) + static_cast<std::uint64_t>(slot)));
  std::uniform_real_distribution<Real> uni(0.5, 1.5);
  std::vector<Real> b(static_cast<size_t>(n));
  for (auto& v : b) v = uni(rng);
  return b;
}

std::uint64_t slot_fault_seed(std::uint64_t seed, int slot) {
  return mix64(mix64(seed ^ (0xfa017ULL << 32)) + static_cast<std::uint64_t>(slot));
}

// ---------------------------------------------------------------------------
// The run.

struct SetupResult {
  FactoredSystem fs;
  double ordering_s = 0, symbolic_s = 0, factor_s = 0, total_s = 0;
};

/// Ordering, symbolic analysis and numeric factorization, layer by layer
/// (the same pipeline as analyze_and_factor(a, nd_levels)).
SetupResult setup_once(const CsrMatrix& a, int nd_levels, Spans& spans) {
  Spans::Scope total(spans, "setup");
  SetupResult r;
  NdOrdering nd;
  CsrMatrix pa;
  {
    Spans::Scope s(spans, "ordering");
    NdOptions opt;
    opt.levels = nd_levels;
    nd = nested_dissection(a, opt);
    pa = a.permuted_symmetric(nd.perm);
    r.ordering_s = s.elapsed();
  }
  SymbolicStructure sym;
  {
    Spans::Scope s(spans, "symbolic");
    const std::vector<Idx> parent = elimination_tree(pa);
    const std::vector<Nnz> counts = cholesky_col_counts(pa, parent);
    SupernodeOptions sn;
    sn.max_width = 96;
    for (Idx id = 0; id < nd.tree.num_nodes(); ++id) {
      sn.forced_breaks.push_back(nd.tree.node(id).col_begin);
      sn.forced_breaks.push_back(nd.tree.node(id).col_end);
    }
    sym = block_symbolic(pa, find_supernodes(parent, counts, sn));
    r.symbolic_s = s.elapsed();
  }
  {
    Spans::Scope s(spans, "factor");
    r.fs = FactoredSystem{factor_supernodal(pa, std::move(sym)), std::move(nd.perm),
                          std::move(nd.tree)};
    r.factor_s = s.elapsed();
  }
  r.total_s = total.elapsed();
  return r;
}

struct CpuSlot {
  std::vector<Real> b, ref_x, clean_x;
  std::uint64_t clean_fp = 0;
  double clean_makespan = 0;
  bool first_done = false;
  double makespan = 0, fault_makespan = 0;
  std::uint64_t fp = 0, fault_fp = 0;
  std::vector<Real> x;
};

int log2_exact(int v) {
  int l = 0;
  while ((1 << l) < v) ++l;
  return l;
}

int run(const Args& args) {
  const Workload* wp = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  const Workload& w = *wp;
  const MachineModel machine = pinned_machine(w);
  Workload fault_free = w;
  fault_free.faults = false;
  const MachineModel clean_machine = pinned_machine(fault_free);
  const int P = w.shape.size();
  Spans spans;
  Report rep;
  std::int64_t attempted = 0, failed = 0;
  bool invariants_ok = true;
  auto fail_check = [&](const std::string& what) {
    std::printf("# CHECK FAILED: %s\n", what.c_str());
    invariants_ok = false;
  };

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  const unsigned nproc = std::thread::hardware_concurrency();
  const int cpu = pin_to_one_cpu();
  std::printf("# nproc=%u pinned_cpu=%d compiler=%s build_type=%s\n", nproc, cpu,
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  const double ref_start = host_reference_s();
  std::printf("# host reference kernel (start): %.6f s\n", ref_start);

  // Inputs (the sparse module only generates them; untimed).
  const CsrMatrix a0 = make_paper_matrix(w.matrix, MatrixScale::kMedium);
  const CsrMatrix a = a0.has_symmetric_pattern() ? a0 : a0.symmetrized_pattern();
  const Idx n = a.rows();
  std::printf("# matrix=%s n=%lld nnz=%lld machine=%s shape=%dx%dx%d nd_levels=%d\n",
              paper_matrix_name(w.matrix).c_str(), static_cast<long long>(n),
              static_cast<long long>(a.nnz()), machine.name.c_str(), w.shape.px, w.shape.py,
              w.shape.pz, w.nd_levels);

  // --- setup: ordering + symbolic + numeric factor, several times ---
  std::vector<double> t_setup, t_ord, t_sym, t_fac;
  SetupResult setup;
  for (int r = 0; r < w.setup_reps; ++r) {
    setup = SetupResult{};  // free the previous factor: one copy at a time
    setup = setup_once(a, w.nd_levels, spans);
    t_setup.push_back(setup.total_s);
    t_ord.push_back(setup.ordering_s);
    t_sym.push_back(setup.symbolic_s);
    t_fac.push_back(setup.factor_s);
  }
  const FactoredSystem& fs = setup.fs;
  const double setup_s = median(t_setup);
  std::printf("# setup: %d reps, median %.4f s (ordering %.4f, symbolic %.4f, factor %.4f)\n",
              w.setup_reps, setup_s, median(t_ord), median(t_sym), median(t_fac));
  rep.set("ordering.s", median(t_ord));
  rep.set("symbolic.s", median(t_sym));
  rep.set("symbolic.supernodes", fs.lu.num_supernodes());
  rep.set("symbolic.factor_nnz", static_cast<double>(fs.lu.sym.blocked_lu_nnz()));
  rep.set("factor.numeric_s", median(t_fac));

  // --- dist: the proposed algorithm's per-grid plans (untimed inside solves) ---
  {
    std::vector<double> t_plan;
    for (int r = 0; r < 3; ++r) {
      Spans::Scope s(spans, "dist.plans");
      const NdTree coarse = coarsen_nd_tree(fs.tree, log2_exact(w.shape.pz));
      for (int z = 0; z < w.shape.pz; ++z) {
        const Solve2dPlan plan =
            make_grid_plan(fs.lu, coarse, z, w.shape.grid2d(), TreeKind::kBinary);
        if (plan.num_cols() <= 0) fail_check("empty grid plan");
      }
      t_plan.push_back(s.elapsed());
    }
    rep.set("dist.plan_s", median(t_plan));
  }

  // Timed solves run until --seconds have passed and every slot has run.
  auto more_solves = [&](int i, Clock::time_point start) {
    return i < w.slots || seconds_since(start) < args.seconds;
  };
  std::vector<double> solve_host;
  std::vector<double> t_seq;
  double makespan = 0, fault_makespan_p50 = 0;

  double spawn_s = 0, ring_us = 0;  // runtime probes (CPU workloads, --trace 1)

  if (!w.gpu) {
    // --- references per slot: sequential solve (+ clean twin under faults) ---
    std::vector<CpuSlot> slots(static_cast<size_t>(w.slots));
    {
      Spans::Scope s(spans, "references");
      for (int k = 0; k < w.slots; ++k) {
        CpuSlot& sl = slots[static_cast<size_t>(k)];
        sl.b = make_rhs(n, args.seed, k);
        {
          Spans::Scope q(spans, "factor.solve_system_seq");
          sl.ref_x = solve_system_seq(fs, sl.b);
          t_seq.push_back(q.elapsed());
        }
        if (w.faults) {
          Spans::Scope q(spans, "clean_twin.solve_system_3d");
          ++attempted;
          try {
            const DistSolveOutcome o = solve_system_3d(
                fs, sl.b, pinned_solve(w, pinned_run(false, 0, false)), clean_machine);
            sl.clean_x = o.x;
            sl.clean_fp = o.run_stats.fingerprint();
            sl.clean_makespan = o.run_stats.makespan();
          } catch (const std::exception& e) {
            // The slot's faulty solves then fail the two-ledger check.
            ++failed;
            fail_check(std::string("clean twin threw: ") + e.what());
          }
        }
      }
    }
    rep.set("factor.seq_solve_s", median(t_seq));

    // --- timed solves: cycle through the slots until the time is up ---
    const auto loop_start = Clock::now();
    for (int i = 0; more_solves(i, loop_start); ++i) {
      const int k = i % w.slots;
      CpuSlot& sl = slots[static_cast<size_t>(k)];
      ++attempted;
      const SolveConfig cfg =
          pinned_solve(w, pinned_run(w.faults, slot_fault_seed(args.seed, k), false));
      DistSolveOutcome o;
      bool ok = true;
      std::string why;
      {
        Spans::Scope s(spans, "core.solve_system_3d");
        try {
          o = solve_system_3d(fs, sl.b, cfg, machine);
        } catch (const std::exception& e) {
          ok = false;
          why = std::string("solve threw: ") + e.what();
        }
        solve_host.push_back(s.elapsed());
      }
      if (ok && (!o.run_stats.ok() || o.run_stats.fault.kind != FaultKind::kNone)) {
        ok = false;
        why = "solve returned a fault report: " + o.run_stats.error;
      }
      if (ok) {
        std::uint64_t worst = 0;
        for (size_t j = 0; j < o.x.size(); ++j) worst = std::max(worst, ulp_distance(o.x[j], sl.ref_x[j]));
        const double res = relative_residual(a, o.x, sl.b);
        if (worst > kSameFactorUlp) {
          ok = false;
          why = "x differs from the sequential solve by " + std::to_string(worst) + " ULP";
        } else if (!(res <= machine.abft.residual_tol)) {
          ok = false;
          why = "relative residual " + std::to_string(res) + " above the ABFT gate";
        } else if (w.faults && (o.x != sl.clean_x || o.run_stats.fingerprint() != sl.clean_fp ||
                                o.run_stats.makespan() != sl.clean_makespan)) {
          ok = false;
          why = "faulty solve differs from its clean twin (two-ledger invariant)";
        }
      }
      if (ok && !sl.first_done) {
        sl.first_done = true;
        sl.makespan = o.run_stats.makespan();
        sl.fault_makespan = o.run_stats.fault_makespan();
        sl.fp = o.run_stats.fingerprint();
        sl.fault_fp = o.run_stats.fault_fingerprint();
        sl.x = o.x;
      } else if (ok && (o.run_stats.fault_fingerprint() != sl.fault_fp || o.x != sl.x)) {
        ok = false;
        why = "repeated solve of the same slot is not bit-identical";
      }
      if (!ok) {
        ++failed;
        std::printf("# solve %d (slot %d) FAILED: %s\n", i, k, why.c_str());
      }
    }
    std::vector<double> fault_ms;
    for (const auto& sl : slots) {
      if (!sl.first_done) continue;
      if (makespan == 0) makespan = sl.makespan;
      if (sl.makespan != makespan) fail_check("clean makespan differs between right-hand sides");
      fault_ms.push_back(sl.fault_makespan);
    }
    fault_makespan_p50 = median(fault_ms);
    std::printf("# fault makespan per slot:");
    for (const double v : fault_ms) std::printf(" %.6e", v);
    std::printf("\n");

    // --- traced run: slot 0 again, with trace + metrics on ---
    if (args.trace && slots[0].first_done) {
      CpuSlot& sl = slots[0];
      const SolveConfig cfg =
          pinned_solve(w, pinned_run(w.faults, slot_fault_seed(args.seed, 0), true));
      ++attempted;
      DistSolveOutcome o;
      double traced_s = 0;
      try {
        Spans::Scope s(spans, "core.solve_system_3d[traced]");
        o = solve_system_3d(fs, sl.b, cfg, machine);
        traced_s = s.elapsed();
      } catch (const std::exception& e) {
        ++failed;
        fail_check(std::string("traced solve threw: ") + e.what());
      }
      const Cluster::Result& rs = o.run_stats;
      if (rs.trace != nullptr && rs.metrics != nullptr) {
        if (rs.makespan() != sl.makespan || rs.fingerprint() != sl.fp ||
            rs.fault_fingerprint() != sl.fault_fp || o.x != sl.x) {
          fail_check("tracing/metrics changed a clean- or fault-ledger bit");
        }
        Trace::CriticalPath cp;
        {
          Spans::Scope s(spans, "trace.critical_path");
          cp = rs.trace->critical_path();
          rep.set("trace.critical_path_s", s.elapsed());
        }
        const double cp_sum = cp.breakdown.total();
        std::printf("# critical path: makespan %.17g, partition sum %.17g (diff %.3g)\n",
                    rs.makespan(), cp_sum, cp_sum - rs.makespan());
        if (cp.breakdown.makespan != rs.makespan() ||
            std::abs(cp_sum - rs.makespan()) > 1e-12 * rs.makespan()) {
          fail_check("critical-path partition does not sum to the makespan");
        }
        {
          Spans::Scope s(spans, "trace.chrome_json");
          const std::string json = rs.trace->chrome_json();
          rep.set("trace.export_s", s.elapsed());
          std::printf("# trace export: %zu bytes\n", json.size());
        }
        const auto cat = [&](TimeCategory c) {
          return cp.breakdown.category[static_cast<int>(c)];
        };
        rep.set("cp.fp_s", cat(TimeCategory::kFp));
        rep.set("cp.xy_s", cat(TimeCategory::kXyComm));
        rep.set("cp.z_s", cat(TimeCategory::kZComm));
        rep.set("cp.other_s", cat(TimeCategory::kOther));
        rep.set("cp.wait_s", cp.breakdown.wait);
        rep.set("cp.hops", static_cast<double>(cp.edges.size()));
        const double events = static_cast<double>(rs.trace->num_events());
        rep.set("trace.events", events);
        rep.set("trace.overhead_s", traced_s - median(solve_host));

        // runtime: scheduler
        std::int64_t msgs = 0, bytes = 0, xy_m = 0, xy_b = 0, z_m = 0, z_b = 0;
        for (const RankStats& r : rs.ranks) {
          for (int c = 0; c < kNumTimeCategories; ++c) {
            msgs += r.messages[c];
            bytes += r.bytes[c];
          }
          xy_m += r.messages[static_cast<int>(TimeCategory::kXyComm)];
          xy_b += r.bytes[static_cast<int>(TimeCategory::kXyComm)];
          z_m += r.messages[static_cast<int>(TimeCategory::kZComm)];
          z_b += r.bytes[static_cast<int>(TimeCategory::kZComm)];
        }
        rep.set("runtime.host_us_per_msg", 1e6 * median(solve_host) / std::max<double>(1, msgs));
        rep.set("runtime.msgs", static_cast<double>(msgs));
        rep.set("runtime.bytes", static_cast<double>(bytes));
        rep.set("runtime.sched_grants", rs.metrics->total("sched.grants"));
        rep.set("runtime.events_per_s", events / median(solve_host));

        // runtime: fault stack
        const TransportStats tr = rs.transport_totals();
        const RecoveryStats rc = rs.recovery_stats();
        const SdcStats sdc = rs.sdc_stats();
        rep.set("fault.delay_s", rs.fault_makespan() - rs.makespan());
        rep.set("transport.retransmits", static_cast<double>(tr.retransmits));
        rep.set("transport.retrans_bytes", static_cast<double>(tr.retrans_bytes));
        rep.set("transport.acks", static_cast<double>(tr.acks));
        rep.set("transport.goodput", static_cast<double>(bytes) /
                    static_cast<double>(std::max<std::int64_t>(1, bytes + tr.retrans_bytes + tr.ack_bytes)));
        rep.set("recovery.crashes", static_cast<double>(rc.crashes));
        rep.set("recovery.checkpoints", static_cast<double>(rc.checkpoints));
        rep.set("recovery.checkpoint_bytes", static_cast<double>(rc.checkpoint_bytes));
        rep.set("recovery.time_s", rc.detect_time + rc.repair_time + rc.restore_time + rc.replay_time);
        rep.set("degrade.events", static_cast<double>(rs.degradation_stats().degrades));
        rep.set("abft.checks", static_cast<double>(sdc.checks));
        rep.set("abft.injected", static_cast<double>(sdc.injected));
        rep.set("abft.corrected_ratio", sdc.injected > 0 ? static_cast<double>(sdc.corrected) / sdc.injected : 0.0);
        rep.set("abft.overhead_s", sdc.verify_time + sdc.repair_time);

        // comm
        rep.set("comm.xy.msgs", static_cast<double>(xy_m));
        rep.set("comm.xy.bytes", static_cast<double>(xy_b));
        rep.set("comm.z.msgs", static_cast<double>(z_m));
        rep.set("comm.z.bytes", static_cast<double>(z_b));
        rep.set("tree.bcast_sends", rs.metrics->total("tree.bcast_sends"));
        rep.set("tree.reduce_sends", rs.metrics->total("tree.reduce_sends"));
        rep.set("zreduce.values", rs.metrics->total("zreduce.values"));
        rep.set("zreduce.exchanges", rs.metrics->total("zreduce.exchanges"));

        // core
        double l_max = 0, u_max = 0;
        for (const RankPhaseTimes& t : o.rank_times) {
          l_max = std::max(l_max, t.l_solve());
          u_max = std::max(u_max, t.u_solve());
        }
        rep.set("core.fp_s.mean", rs.mean_category(TimeCategory::kFp));
        rep.set("core.xy_s.mean", rs.mean_category(TimeCategory::kXyComm));
        rep.set("core.z_s.mean", rs.mean_category(TimeCategory::kZComm));
        rep.set("core.other_s.mean", rs.mean_category(TimeCategory::kOther));
        rep.set("core.l_solve_s.max", l_max);
        rep.set("core.u_solve_s.max", u_max);
        rep.set("core.z_time_s.max", o.max(&RankPhaseTimes::z_time));
        rep.set("core.imbalance", rs.vtime_spread().imbalance());
      }

      // --- runtime probes: empty-body spawn and a token ring (deterministic) ---
      const RunOptions probe = pinned_run(false, 0, false);
      std::vector<double> t_spawn, t_ring;
      const int laps = std::max(2, 16384 / P);
      for (int r = 0; r < 3; ++r) {
        {
          Spans::Scope s(spans, "runtime.spawn_probe");
          Cluster::run(P, clean_machine, [](Comm&) {}, probe);
          t_spawn.push_back(s.elapsed());
        }
        Spans::Scope s(spans, "runtime.ring_probe");
        const Cluster::Result res = Cluster::run(
            P, clean_machine,
            [laps](Comm& c) {
              const int me = c.rank(), p = c.size();
              for (int lap = 0; lap < laps; ++lap) {
                if (me == 0) {
                  c.send(1 % p, 0, {1.0});
                  c.recv(p - 1, 0);
                } else {
                  Message m = c.recv(me - 1, 0);
                  c.send((me + 1) % p, 0, std::move(m.data));
                }
              }
            },
            probe);
        t_ring.push_back(s.elapsed());
        if (res.makespan() <= 0) fail_check("ring probe made no progress");
      }
      spawn_s = median(t_spawn);
      ring_us = 1e6 * std::max(0.0, median(t_ring) - spawn_s) / (static_cast<double>(P) * laps);
    }
  } else {
    // --- GPU: the discrete-event model is the whole solve ---
    GpuSolveTimes first;
    bool have_first = false;
    const auto loop_start = Clock::now();
    for (int i = 0; more_solves(i, loop_start); ++i) {
      ++attempted;
      GpuSolveTimes t;
      bool ok = true;
      std::string why;
      {
        Spans::Scope s(spans, "gpusim.simulate_solve_3d_gpu");
        try {
          t = simulate_solve_3d_gpu(fs.lu, fs.tree,
                                    pinned_gpu(w, slot_fault_seed(args.seed, 0), false), machine);
        } catch (const std::exception& e) {
          ok = false;
          why = std::string("simulation threw: ") + e.what();
        }
        solve_host.push_back(s.elapsed());
      }
      if (ok) {
        bool finite = finite_positive(t.l_solve) && finite_positive(t.z_comm) &&
                      finite_positive(t.u_solve) && finite_positive(t.total);
        for (double v : t.l_finish) finite = finite && std::isfinite(v) && v >= 0;
        for (double v : t.u_finish) finite = finite && std::isfinite(v) && v >= 0;
        if (!finite) {
          ok = false;
          why = "a phase time is not finite and positive";
        } else if (have_first && (t.total != first.total || t.l_solve != first.l_solve ||
                                  t.u_solve != first.u_solve || t.z_comm != first.z_comm)) {
          ok = false;
          why = "repeated simulation is not bit-identical";
        } else if (!have_first) {
          first = t;
          have_first = true;
        }
      }
      if (!ok) {
        ++failed;
        std::printf("# simulation %d FAILED: %s\n", i, why.c_str());
      }
    }
    makespan = first.total;
    fault_makespan_p50 = first.total + first.abft_overhead;

    if (args.trace && have_first) {
      ++attempted;
      GpuSolveTimes t;
      double traced_s = 0;
      try {
        Spans::Scope s(spans, "gpusim.simulate_solve_3d_gpu[traced]");
        t = simulate_solve_3d_gpu(fs.lu, fs.tree,
                                  pinned_gpu(w, slot_fault_seed(args.seed, 0), true), machine);
        traced_s = s.elapsed();
      } catch (const std::exception& e) {
        ++failed;
        fail_check(std::string("traced simulation threw: ") + e.what());
      }
      if (t.trace != nullptr && t.metrics != nullptr) {
        if (t.total != first.total) fail_check("tracing changed the GPU makespan");
        const double events = static_cast<double>(t.trace->num_events());
        {
          Spans::Scope s(spans, "trace.chrome_json");
          const std::string json = t.trace->chrome_json();
          rep.set("trace.export_s", s.elapsed());
          std::printf("# trace export: %zu bytes\n", json.size());
        }
        rep.set("trace.events", events);
        rep.set("trace.overhead_s", traced_s - median(solve_host));
        rep.set("gpu.l_solve_s", t.l_solve);
        rep.set("gpu.z_comm_s", t.z_comm);
        rep.set("gpu.u_solve_s", t.u_solve);
        rep.set("gpu.tasks", t.metrics->total("gpu.tasks"));
        rep.set("gpu.puts", t.metrics->total("gpu.puts"));
        rep.set("gpu.put_bytes.xy", t.metrics->total("gpu.put_bytes.xy"));
        rep.set("gpu.put_bytes.z", t.metrics->total("gpu.put_bytes.z"));
        rep.set("gpu.host_us_per_event", 1e6 * median(solve_host) / std::max(1.0, events));
      }
    }
  }
  rep.set("runtime.spawn_s", spawn_s);
  rep.set("runtime.ring_us_per_msg", ring_us);

  const double ref_end = host_reference_s();
  std::printf("# host reference kernel (end): %.6f s (start %.6f s)\n", ref_end, ref_start);
  rep.set("host.ref_kernel_s", 0.5 * (ref_start + ref_end));

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  const auto [tail, tail_label] = tail_of(solve_host);
  rep.set("setup_s", setup_s);
  rep.set("solve_host_s.p50", median(solve_host));
  rep.set("solve_host_s.tail", tail);
  rep.set("makespan_s", makespan);
  rep.set("fault_makespan_s.p50", fault_makespan_p50);
  rep.set("peak_rss_mb", peak_rss_mb);

  std::printf("# solves: %zu timed (tail = %s), attempted %lld, failed %lld, fail_ratio %.4f\n",
              solve_host.size(), tail_label.c_str(), static_cast<long long>(attempted),
              static_cast<long long>(failed),
              attempted ? static_cast<double>(failed) / attempted : 0.0);
  rep.print("e2e  ", kEndToEnd);
  if (args.trace) rep.print("layer", kPerLayer);
  if (args.trace && !args.spans.empty()) {
    spans.write_json(args.spans);
    std::printf("# host spans: %s\n", args.spans.c_str());
  }

  const bool correct = invariants_ok && failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed),
              (args.trace ? rep.json(kPerLayer) : rep.json(kEndToEnd)).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sptrsv_perfbench: %s\n", e.what());
    return 2;
  }
}
