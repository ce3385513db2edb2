// Time-to-tolerance benchmark: solves one of four converging workloads
// repeatedly for a fixed host-time budget, checks every solution against
// the original system, and prints end-to-end metrics on two clocks
// (simulated seconds charged by the machine model, host wall seconds).
// With --trace 1 it instead attributes both clocks to the library's layers
// (graph, mpk, ortho, precond, core, sim) from SolveStats, PrecondStats,
// Machine counters, and host-time spans taken around public calls from
// this file only. See METRICS.md for the metric definitions.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE] [--scale X] [--wrong-x]
#ifdef _OPENMP
#include <omp.h>
#endif
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "blas/blas1.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "graph/partition.hpp"
#include "mpk/exec.hpp"
#include "mpk/plan.hpp"
#include "ortho/borth.hpp"
#include "ortho/tsqr.hpp"
#include "precond/precond.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "spans.hpp"

using namespace cagmres;
using perfbench::Span;
using perfbench::SpanRecorder;

namespace {

enum class Solver {
  kCaGmres,   ///< core::ca_gmres, solver defaults otherwise
  kGmresIlu,  ///< core::gmres (CGS), right-preconditioned with ILU(0)
};

/// One benchmark workload. Why each exists is recorded in BENCHMARK.json
/// and METRICS.md; the figures there come from these settings.
struct Workload {
  const char* name;
  const char* matrix;  ///< sparse::make_paper_matrix analog
  graph::Ordering ordering;
  int nodes;
  int gpus_per_node;
  Solver solver;
  int s;
  int m;
  double tol;
  bool faults;  ///< seeded node kill + kernel NaNs + transfer corruption
  /// Right-hand sides (and fault schedules) drawn per seed; a run reports
  /// means over them. As many as fit in one 15 s run.
  int cases;
};

const Workload kWorkloads[] = {
    {"cant_ca_1x3", "cant", graph::Ordering::kNatural, 1, 3, Solver::kCaGmres,
     15, 60, 1e-4, false, 16},
    {"cant_ca_2x4", "cant", graph::Ordering::kNatural, 2, 4, Solver::kCaGmres,
     15, 60, 1e-4, false, 16},
    {"g3_ilu_gmres_1x3", "g3_circuit", graph::Ordering::kKway, 1, 3,
     Solver::kGmresIlu, 1, 30, 1e-8, false, 8},
    {"cant_ca_2x4_faults", "cant", graph::Ordering::kNatural, 2, 4,
     Solver::kCaGmres, 15, 60, 1e-4, true, 16},
};

/// Host threading of every workload: three HostPool workers leave one of
/// four cores to the solver's own thread, and a single OpenMP thread keeps
/// kernels from competing with the workers. Repeated solves agreed most
/// closely with this pair (see METRICS.md).
constexpr int kHostWorkers = 3;
constexpr int kOmpThreads = 1;

/// A solution passes when ||b - A x|| / ||b|| in the original system is at
/// most this multiple of the solver tolerance. The solvers test their
/// residual in the balanced, permuted system; the factor absorbs the
/// change of norm back to the caller's space.
constexpr double kResidualFactor = 10.0;
/// Partition seed for make_problem: fixed so that the workload seed moves
/// only the right-hand side and the fault schedule.
constexpr std::uint64_t kPartitionSeed = 7;
/// Set-up is timed at least this often per run (its median is reported).
constexpr int kMinSetups = 9;
constexpr int kMaxReps = 400;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  double scale = 1.0;
  bool wrong_x = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE] [--scale X] "
               "[--wrong-x]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--wrong-x") {
      a.wrong_x = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = val == "1";
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
    } else if (key == "--spans-out") {
      a.spans_out = val;
    } else if (key == "--scale") {
      a.scale = std::strtod(val.c_str(), &end);
    } else {
      usage(("unknown argument " + key).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + key).c_str());
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0) || !(a.scale > 0.0)) usage("bad --seconds/--scale");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void set_omp_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

std::string fault_spec(std::uint64_t seed) {
  return "seed=" + std::to_string(seed) +
         ";nodekill:n1@t=0.02;nan:p=0.0005;corrupt:p=0.002";
}

/// A machine of the workload's shape with the given host threading. Every
/// knob the library would otherwise read from CAGMRES_* is set here.
std::unique_ptr<sim::Machine> make_machine(const Workload& w,
                                           std::uint64_t seed, int workers,
                                           bool faults) {
  auto m = std::make_unique<sim::Machine>(
      sim::Topology{w.nodes, w.gpus_per_node});
  m->set_host_workers(workers);
  m->set_sync_mode(sim::SyncMode::kEvent);
  m->set_hier_reduce(true);
  for (const sim::TrafficClass c :
       {sim::TrafficClass::kHalo, sim::TrafficClass::kReduce,
        sim::TrafficClass::kCkpt}) {
    m->set_codec(c, sim::CodecSpec{});
  }
  if (faults) sim::parse_fault_spec(fault_spec(seed), m->fault_injector());
  return m;
}

/// One right-hand side and, on the faulted workload, one fault schedule.
/// A run averages over several cases because the iterations to tolerance
/// change from one right-hand side to the next.
struct Case {
  std::uint64_t seed = 0;
  std::vector<double> b;
  double b_norm = 0.0;
};

/// The workload's inputs: generated once per process, not timed.
struct Inputs {
  sparse::CsrMatrix a;
  std::vector<Case> cases;
};

Inputs make_inputs(const Workload& w, const Args& args) {
  Inputs in;
  in.a = sparse::make_paper_matrix(w.matrix, args.scale);
  for (int i = 0; i < w.cases; ++i) {
    Case c;
    c.seed = args.seed * 64 + static_cast<std::uint64_t>(i);
    c.b = bench::make_rhs(in.a.n_rows, c.seed);
    c.b_norm = blas::nrm2(static_cast<int>(c.b.size()), c.b.data());
    in.cases.push_back(std::move(c));
  }
  return in;
}

/// One-time per-matrix preparation that a user pays before solving.
struct Prepared {
  core::Problem problem;
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<precond::PrecondHandle> handle;
  double setup_s = 0.0;  ///< make_problem + PrecondHandle::build
};

Prepared prepare(const Workload& w, const sparse::CsrMatrix& a,
                 const Case& c, int workers, SpanRecorder& rec) {
  Prepared p;
  p.machine = make_machine(w, c.seed, workers, w.faults);
  Span setup(rec, "setup");
  {
    Span s(rec, "core.make_problem");
    p.problem = core::make_problem(a, c.b, w.nodes * w.gpus_per_node,
                                   w.ordering, true, kPartitionSeed, w.nodes);
  }
  if (w.solver == Solver::kGmresIlu) {
    Span s(rec, "precond.build");
    p.handle = std::make_unique<precond::PrecondHandle>(
        precond::PrecondSpec{precond::PrecondKind::kIlu, 0, 0});
    p.handle->build(*p.machine, p.problem.a, p.problem.offsets);
  }
  p.setup_s = setup.seconds();
  return p;
}

struct Solve {
  core::SolveResult result;
  double wall_s = 0.0;
  bool ok = false;
  double rel_residual = 0.0;
  sim::Counters counters;  ///< machine counter deltas over the solve
  std::string error;
};

/// Runs the workload's solver on a prepared problem and applies the
/// correctness gate: no throw, converged, true residual within the bound.
Solve solve(const Workload& w, const sparse::CsrMatrix& a, const Case& c,
            Prepared& p, SpanRecorder& rec, bool wrong_x,
            const char* span_name) {
  Solve out;
  sim::Machine& m = *p.machine;
  const sim::Counters before = m.counters();
  core::SolverOptions so;
  so.m = w.m;
  so.s = w.s;
  so.tol = w.tol;
  so.precond = p.handle.get();
  try {
    Span s(rec, span_name);
    out.result = w.solver == Solver::kCaGmres
                     ? core::ca_gmres(m, p.problem, so)
                     : core::gmres(m, p.problem, so);
    out.wall_s = s.seconds();
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }
  out.counters = m.counters() - before;
  std::vector<double>& x = out.result.x;
  if (wrong_x) {
    for (double& e : x) e *= 1.5;
  }
  out.rel_residual = core::true_residual(a, c.b, x) / c.b_norm;
  out.ok = out.result.stats.converged && x.size() == c.b.size() &&
           std::isfinite(out.rel_residual) &&
           out.rel_residual <= kResidualFactor * w.tol;
  if (!out.ok && out.error.empty()) {
    out.error = out.result.stats.converged ? "true residual above bound"
                                           : "not converged";
  }
  return out;
}

/// Metrics in print order, each with its unit.
class MetricSink {
 public:
  void add(const std::string& name, double value, const char* unit) {
    rows_.push_back({name, value, unit});
  }
  void print(bool correct, int attempted, int failed) const {
    for (const Row& r : rows_) {
      std::printf("  %-36s %.9g %s\n", r.name.c_str(), r.value, r.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", r.name.c_str(),
                  std::isfinite(r.value) ? r.value : 0.0, r.unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
};

/// Timed repetitions of setup + solve; everything end-to-end comes from
/// here. An untimed warm-up solve of case 0 comes first (first-touch
/// allocation and thread start-up are not what a repeated solve costs);
/// then the cases run in turn until `seconds` of host time were measured
/// and each case ran once. Every repeated case must reproduce its
/// simulated seconds and iteration count exactly.
struct CaseRuns {
  std::vector<double> wall_s;
  std::optional<Solve> first;  ///< first passing solve (stats, counters)
};

struct RunSet {
  std::vector<double> setup_s;
  std::vector<CaseRuns> cases;
  int attempted = 0;
  int failed = 0;
  bool deterministic = true;
  std::string first_error;
};

RunSet run_set(const Workload& w, const Inputs& in, const Args& args,
               int n_cases, SpanRecorder& rec) {
  RunSet rs;
  rs.cases.resize(static_cast<std::size_t>(n_cases));
  double measured = 0.0;
  for (int rep = -1; (measured < args.seconds || rep < n_cases) &&
                     rs.attempted < kMaxReps;
       ++rep) {
    const int ci = rep < 0 ? 0 : rep % n_cases;
    const Case& c = in.cases[static_cast<std::size_t>(ci)];
    CaseRuns& cr = rs.cases[static_cast<std::size_t>(ci)];
    Prepared p = prepare(w, in.a, c, kHostWorkers, rec);
    Solve sv = solve(w, in.a, c, p, rec, args.wrong_x,
                     rep < 0 ? "solve.warmup" : "solve");
    ++rs.attempted;
    std::printf("# solve case=%d%s ok=%d iterations=%d sim_s=%.9g wall_s=%.6f "
                "setup_s=%.6f rel_residual=%.3g\n",
                ci, rep < 0 ? " warmup" : "", sv.ok ? 1 : 0,
                sv.result.stats.iterations, sv.result.stats.time_total,
                sv.wall_s, p.setup_s, sv.rel_residual);
    if (rep >= 0) {
      rs.setup_s.push_back(p.setup_s);
      measured += p.setup_s + sv.wall_s;
    }
    if (!sv.ok) {
      ++rs.failed;
      if (rs.first_error.empty()) rs.first_error = sv.error;
      continue;
    }
    if (rep >= 0) cr.wall_s.push_back(sv.wall_s);
    if (!cr.first) {
      cr.first = std::move(sv);
    } else if (sv.result.stats.time_total !=
                   cr.first->result.stats.time_total ||
               sv.result.stats.iterations !=
                   cr.first->result.stats.iterations) {
      rs.deterministic = false;
    }
  }
  while (static_cast<int>(rs.setup_s.size()) < kMinSetups) {
    rs.setup_s.push_back(
        prepare(w, in.a, in.cases.front(), kHostWorkers, rec).setup_s);
  }
  return rs;
}

bool all_cases_passed(const RunSet& rs) {
  for (const CaseRuns& cr : rs.cases) {
    if (!cr.first || cr.wall_s.empty()) return false;
  }
  return true;
}

/// Simulated seconds and iterations are means over the cases (each is
/// deterministic). Host seconds are the least wall seconds per iteration
/// over every timed solve, scaled to the mean iteration count: the host
/// cost of the average case's solve. Other tenants of a shared host only
/// ever add time, in bursts that can cover most of a run, so the fastest
/// solve is the steadiest estimate of what the code itself costs.
void report_end_to_end(const RunSet& rs, MetricSink& out) {
  double sim = 0.0, iters = 0.0;
  std::vector<double> wall_per_iter;
  for (const CaseRuns& cr : rs.cases) {
    const core::SolveStats& st = cr.first->result.stats;
    sim += st.time_total;
    iters += st.iterations;
    for (const double t : cr.wall_s) {
      wall_per_iter.push_back(t / std::max(st.iterations, 1));
    }
  }
  const double n = static_cast<double>(rs.cases.size());
  out.add("solve_sim_s", sim / n, "sim_s");
  out.add("solve_wall_s",
          *std::min_element(wall_per_iter.begin(), wall_per_iter.end()) *
              iters / n,
          "s");
  out.add("setup_s", median(rs.setup_s), "s");
  out.add("iterations", iters / n, "count");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
}

/// Per-call replay statistics for one public entry point.
struct CallStats {
  int calls = 0;
  double wall_s = 0.0;  ///< summed host seconds
  double sim_s = 0.0;   ///< summed simulated seconds
  std::int64_t msgs = 0;      ///< d2h + h2d + peer messages
  double bytes = 0.0;         ///< d2h + h2d + peer bytes
  std::int64_t d2h_msgs = 0;  ///< messages into the host (reductions)

  double per_call(double total) const { return calls ? total / calls : 0.0; }
  double wall_per_call() const { return per_call(wall_s); }
  double sim_per_call() const { return per_call(sim_s); }
  /// Host seconds the solve spent in this call, estimated from the solve's
  /// simulated time in the same layer at the replay's per-call rates.
  double solve_wall_estimate(double layer_sim_s) const {
    return sim_per_call() > 0.0 ? layer_sim_s / sim_per_call() * wall_per_call()
                                : 0.0;
  }
};

/// Times one public call under a span. host_wait_all drains the host pool
/// (so the wall interval covers the call's device closures) and closes the
/// call on the simulated clock.
template <typename F>
void replay_call(sim::Machine& m, SpanRecorder& rec, const char* name,
                 CallStats& cs, F&& fn) {
  const sim::Counters c0 = m.counters();
  const double t0 = m.clock().elapsed();
  {
    Span s(rec, name);
    fn();
    m.host_wait_all();
    cs.wall_s += s.seconds();
  }
  cs.sim_s += m.clock().elapsed() - t0;
  const sim::Counters d = m.counters() - c0;
  cs.msgs += d.d2h_msgs + d.h2d_msgs + d.peer_msgs;
  cs.bytes += d.d2h_bytes + d.h2d_bytes + d.peer_bytes;
  cs.d2h_msgs += d.d2h_msgs;
  ++cs.calls;
}

struct Replay {
  double plan_wall_s = 0.0;
  std::int64_t ghost_rows = 0;
  CallStats apply, borth, tsqr, spmv, precond;
};

/// Replays the workload's per-block public calls one at a time on its
/// prepared problem, on a fresh machine of the same shape and threading.
Replay layer_replay(const Workload& w, const Prepared& p, std::uint64_t seed,
                    SpanRecorder& rec) {
  Replay r;
  const core::Problem& prob = p.problem;
  std::unique_ptr<sim::Machine> mp = make_machine(w, seed, kHostWorkers, false);
  sim::Machine& m = *mp;
  const std::vector<int> rows = prob.rows_per_device();
  const core::SolverOptions defaults;
  Span root(rec, "replay");

  auto start_vector = [&](sim::DistMultiVec& v) {
    int row0 = 0;
    for (int d = 0; d < v.n_parts(); ++d) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        v.col(d, 0)[i] =
            prob.b[static_cast<std::size_t>(row0 + i)] / prob.b_norm;
      }
      row0 += v.local_rows(d);
    }
  };

  const bool ca = w.solver == Solver::kCaGmres;
  if (ca) {
    mpk::MpkPlan plan;
    {
      Span s(rec, "mpk.build_mpk_plan");
      plan = mpk::build_mpk_plan(prob.a, prob.offsets, w.s);
      r.plan_wall_s = s.seconds();
    }
    for (const mpk::MpkDevicePlan& d : plan.dev) {
      r.ghost_rows += static_cast<std::int64_t>(d.ext_global.size());
    }
    mpk::MpkExecutor exec(plan);
    sim::DistMultiVec v(rows, w.m + 1);
    constexpr int kCycles = 2;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      start_vector(v);
      for (int done = 1; done < w.m + 1;) {
        const int steps = std::min(w.s, w.m + 1 - done);
        replay_call(m, rec, "mpk.apply", r.apply,
                    [&] { exec.apply(m, v, done - 1, steps); });
        replay_call(m, rec, "ortho.borth", r.borth, [&] {
          ortho::borth(m, defaults.borth, v, done, done + steps);
        });
        replay_call(m, rec, "ortho.tsqr", r.tsqr, [&] {
          ortho::tsqr(m, defaults.tsqr, v, done, done + steps,
                      defaults.tsqr_opts);
        });
        done += steps;
      }
    }
  }

  // The one-hop SpMV every solver uses for residuals (and GMRES for every
  // Arnoldi step), on an s = 1 plan.
  {
    mpk::MpkPlan plan1;
    double plan1_wall = 0.0;
    {
      Span s(rec, "mpk.build_mpk_plan");
      plan1 = mpk::build_mpk_plan(prob.a, prob.offsets, 1);
      plan1_wall = s.seconds();
    }
    if (!ca) {
      r.plan_wall_s = plan1_wall;
      for (const mpk::MpkDevicePlan& d : plan1.dev) {
        r.ghost_rows += static_cast<std::int64_t>(d.ext_global.size());
      }
    }
    mpk::MpkExecutor exec(plan1);
    sim::DistMultiVec v(rows, 2);
    start_vector(v);
    constexpr int kSpmvCalls = 20;
    for (int i = 0; i < kSpmvCalls; ++i) {
      replay_call(m, rec, "mpk.spmv", r.spmv,
                  [&] { exec.spmv(m, v, i % 2, 1 - i % 2); });
    }
  }

  if (p.handle) {
    precond::PrecondHandle h(p.handle->spec());
    h.build(m, prob.a, prob.offsets);
    sim::DistMultiVec v(rows, 2);
    start_vector(v);
    constexpr int kApplies = 20;
    for (int i = 0; i < kApplies; ++i) {
      replay_call(m, rec, "precond.apply", r.precond,
                  [&] { h.apply(m, v, 0, v, 1); });
    }
  }
  return r;
}

/// Sum of charged intervals on device timelines (kernels and transfers).
double device_busy_from_trace(const sim::Trace& t) {
  double busy = 0.0;
  for (const sim::TraceEvent& e : t.events()) {
    if (e.device >= 0) busy += e.t_end - e.t_start;
  }
  return busy;
}

/// Per-layer attribution of case 0's solve.
/// The traced and baseline solves count as attempts, pass the same gate,
/// and must reproduce case 0's simulated seconds and iterations.
void report_per_layer(const Workload& w, const Inputs& in, const Args& args,
                      RunSet& rs, SpanRecorder& rec, MetricSink& out) {
  const Case& c = in.cases.front();
  const Solve& sv = *rs.cases.front().first;
  const core::SolveStats& st = sv.result.stats;
  const int ng = w.nodes * w.gpus_per_node;
  const double untraced_wall = median(rs.cases.front().wall_s);

  // graph: the partition make_problem builds, timed on its own.
  double partition_wall = 0.0;
  std::int64_t cross_edges = 0;
  {
    Span s(rec, "graph.make_partition");
    const graph::Partition part = graph::make_partition(
        in.a, ng, w.ordering, kPartitionSeed, w.nodes);
    partition_wall = s.seconds();
    cross_edges = w.nodes > 1 ? graph::cross_node_edges(in.a, part, w.nodes)
                              : 0;
  }

  // One traced solve: Machine::enable_trace on, for the overhead and the
  // per-device busy time.
  Prepared pt = prepare(w, in.a, c, kHostWorkers, rec);
  pt.machine->enable_trace(true);
  const Solve traced =
      solve(w, in.a, c, pt, rec, args.wrong_x, "solve.traced");
  const double busy = device_busy_from_trace(pt.machine->trace());
  pt.machine->trace().clear();

  // Plain single-threaded baseline: inline execution, one OpenMP thread.
  set_omp_threads(1);
  Prepared pb = prepare(w, in.a, c, 0, rec);
  const Solve base =
      solve(w, in.a, c, pb, rec, args.wrong_x, "solve.baseline");
  set_omp_threads(kOmpThreads);
  for (const Solve* extra : {&traced, &base}) {
    ++rs.attempted;
    if (!extra->ok) {
      ++rs.failed;
      if (rs.first_error.empty()) rs.first_error = extra->error;
    } else if (extra->result.stats.time_total != st.time_total ||
               extra->result.stats.iterations != st.iterations) {
      rs.deterministic = false;
    }
  }

  const Replay r = layer_replay(w, pb, c.seed, rec);

  out.add("graph.partition_wall_s", partition_wall, "s");
  out.add("graph.cross_node_edges", static_cast<double>(cross_edges), "count");

  out.add("mpk.sim_s", st.time_mpk, "sim_s");
  out.add("mpk.plan_wall_s", r.plan_wall_s, "s");
  out.add("mpk.ghost_rows", static_cast<double>(r.ghost_rows), "count");
  out.add("mpk.apply_wall_s", r.apply.wall_per_call(), "s");
  out.add("mpk.apply_msgs", r.apply.per_call(r.apply.msgs), "count");
  out.add("mpk.apply_bytes", r.apply.per_call(r.apply.bytes), "B");
  out.add("mpk.spmv_sim_s", st.time_spmv, "sim_s");
  out.add("mpk.spmv_wall_s", r.spmv.wall_per_call(), "s");

  out.add("ortho.borth_sim_s", st.time_borth, "sim_s");
  out.add("ortho.tsqr_sim_s", st.time_tsqr, "sim_s");
  out.add("ortho.borth_wall_s", r.borth.wall_per_call(), "s");
  out.add("ortho.tsqr_wall_s", r.tsqr.wall_per_call(), "s");
  // One BOrth and one TSQR call per replayed block.
  out.add("ortho.block_reductions",
          r.borth.per_call(r.borth.d2h_msgs + r.tsqr.d2h_msgs), "count");
  out.add("ortho.cholqr_breakdowns", st.cholqr_breakdowns, "count");
  out.add("ortho.reorth_blocks", st.reorth_blocks, "count");
  out.add("ortho.orth_sim_s", st.time_orth, "sim_s");

  const precond::PrecondHandle* h = pt.handle.get();
  out.add("precond.apply_sim_s", st.time_precond, "sim_s");
  out.add("precond.setup_sim_s", h ? h->stats().setup_seconds : 0.0, "sim_s");
  out.add("precond.apply_wall_s", r.precond.wall_per_call(), "s");
  std::vector<double> builds;
  for (const perfbench::SpanRecord& s : rec.spans()) {
    if (s.name == "precond.build") builds.push_back(s.end - s.start);
  }
  out.add("precond.build_wall_s", median(builds), "s");
  out.add("precond.applies",
          h ? static_cast<double>(h->stats().applies) : 0.0, "count");
  out.add("precond.max_levels",
          h ? std::max(h->stats().max_levels_l, h->stats().max_levels_u) : 0,
          "count");
  out.add("precond.fill_nnz", h ? static_cast<double>(h->stats().fill_nnz) : 0,
          "count");

  const core::RecoveryStats& rc = st.recovery;
  out.add("core.restarts", st.restarts, "count");
  out.add("core.other_sim_s", st.time_other, "sim_s");
  out.add("core.recovery.time_lost_s", rc.time_lost, "sim_s");
  out.add("core.recovery.rollbacks", rc.rollbacks, "count");
  out.add("core.recovery.blocks_replayed", rc.blocks_replayed, "count");
  out.add("core.recovery.repartitions", rc.repartitions, "count");
  out.add("core.recovery.partner_restores", rc.partner_restores, "count");
  out.add("core.recovery.transfer_retries",
          static_cast<double>(rc.transfer_retries), "count");
  const double blocks_run =
      static_cast<double>(st.block_sizes.size()) + rc.blocks_replayed;
  out.add("core.replay_ratio",
          blocks_run > 0.0 ? rc.blocks_replayed / blocks_run : 0.0, "ratio");
  out.add("sim.retry_ratio",
          st.traffic.pcie_msgs > 0
              ? static_cast<double>(rc.transfer_retries) /
                    static_cast<double>(st.traffic.pcie_msgs)
              : 0.0,
          "ratio");

  const core::TierTraffic& tt = st.traffic;
  out.add("sim.pcie_bytes", tt.pcie_bytes, "B");
  out.add("sim.pcie_msgs", static_cast<double>(tt.pcie_msgs), "count");
  out.add("sim.peer_bytes", tt.peer_bytes, "B");
  out.add("sim.peer_msgs", static_cast<double>(tt.peer_msgs), "count");
  out.add("sim.net_bytes", tt.net_bytes, "B");
  out.add("sim.net_msgs", static_cast<double>(tt.net_msgs), "count");
  for (int k = 0; k < sim::kKernelClasses; ++k) {
    const std::string kn = sim::kernel_name(static_cast<sim::Kernel>(k));
    out.add("sim.kernel_sim_s." + kn,
            sv.counters.kernel_seconds[static_cast<std::size_t>(k)], "sim_s");
  }
  for (int k = 0; k < sim::kKernelClasses; ++k) {
    const std::string kn = sim::kernel_name(static_cast<sim::Kernel>(k));
    out.add("sim.kernel_count." + kn,
            static_cast<double>(
                sv.counters.kernel_count[static_cast<std::size_t>(k)]),
            "count");
  }
  double dev_bytes = 0.0;
  for (const double b : sv.counters.dev_bytes) dev_bytes += b;
  out.add("sim.ops_per_byte",
          dev_bytes > 0.0 ? sv.counters.total_dev_flops() / dev_bytes : 0.0,
          "flop/B");
  out.add("sim.device_idle_share",
          traced.ok ? 1.0 - busy / (ng * traced.result.stats.time_total) : 0.0,
          "ratio");
  const double in_calls = r.apply.solve_wall_estimate(st.time_mpk) +
                          r.spmv.solve_wall_estimate(st.time_spmv) +
                          r.borth.solve_wall_estimate(st.time_borth) +
                          r.tsqr.solve_wall_estimate(st.time_tsqr) +
                          r.precond.solve_wall_estimate(st.time_precond);
  out.add("sim.host_overhead_wall_s", untraced_wall - in_calls, "s");
  out.add("sim.hostpool_speedup",
          base.ok && untraced_wall > 0.0 ? base.wall_s / untraced_wall : 0.0,
          "ratio");
  out.add("trace.overhead_wall_s",
          traced.ok ? traced.wall_s - untraced_wall : 0.0, "s");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *wp;

#ifdef _OPENMP
  const bool openmp = true;
#else
  const bool openmp = false;
#endif
  set_omp_threads(kOmpThreads);
  std::printf(
      "# perfbench {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"build_type\": \"%s\", \"openmp\": %s, "
      "\"host_workers\": %d, \"omp_threads\": %d, \"scale\": %g}\n",
      w.name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
      openmp ? "true" : "false", kHostWorkers, kOmpThreads, args.scale);

  const Inputs in = make_inputs(w, args);
  for (const Case& c : in.cases) {
    if (w.faults) std::printf("# faults \"%s\"\n", fault_spec(c.seed).c_str());
  }
  SpanRecorder rec(args.trace);
  // The traced run attributes one solve (case 0), so it times only that.
  RunSet rs = run_set(w, in, args, args.trace ? 1 : w.cases, rec);
  MetricSink out;
  const bool passed = all_cases_passed(rs);
  if (passed) {
    if (args.trace) {
      report_per_layer(w, in, args, rs, rec, out);
    } else {
      report_end_to_end(rs, out);
    }
  }
  if (rs.failed > 0) {
    std::fprintf(stderr, "perfbench: %d of %d solves failed the gate (%s)\n",
                 rs.failed, rs.attempted, rs.first_error.c_str());
  }
  if (!rs.deterministic) {
    std::fprintf(stderr,
                 "perfbench: solve_sim_s or iterations differ between "
                 "solves of one case\n");
  }
  if (args.trace && !args.spans_out.empty() &&
      !rec.write_json(args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_out.c_str());
    return 1;
  }
  const bool correct = passed && rs.failed == 0 && rs.deterministic;
  out.print(correct, rs.attempted, rs.failed);
  return rs.deterministic ? 0 : 1;
}
