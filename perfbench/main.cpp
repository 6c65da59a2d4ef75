// perfbench: host-throughput benchmark of the gnna simulator.
//
//   perfbench --workload <gcn-mesh|mpnn-quiet|sweep-observed> --seed <n>
//             --seconds <s> --trace <0|1> --fingerprints <file>
//             [--dataset-seed <d>]
//
// Each workload runs from a cold sim::Session in this process. With
// --trace 0 it times whole workload passes through sim::BatchRunner and
// reports the end-to-end metrics; with --trace 1 it reports per-layer
// metrics: pipeline stages timed around their public entry points, and the
// simulator layers timed in a replay of the barrier loop (replay.hpp).
// Every run's modeled output is checked against the pinned fingerprints.
// The last stdout line is one JSON object (see bench_lib.hpp,
// result_json); the lines before it are for people.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "accel/analysis.hpp"
#include "accel/compiler.hpp"
#include "accel/ir.hpp"
#include "accel/opt.hpp"
#include "accel/verify.hpp"
#include "bench_lib.hpp"
#include "gnn/model.hpp"
#include "graph/dataset.hpp"
#include "replay.hpp"
#include "sim/batch_runner.hpp"
#include "sim/session.hpp"
#include "sim/stats_json.hpp"

namespace {

using namespace gnna;
using perfbench::Fingerprint;
using perfbench::Metric;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

/// CPU seconds the calling thread has run: time it waited for a core, or
/// that the hypervisor took from it, does not count.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Run `fn`, add the calling thread's CPU milliseconds in it to `ms` and
/// count the call.
struct Stage {
  double ms = 0.0;
  std::uint64_t calls = 0;
};
template <typename Fn>
auto timed(Stage& s, Fn&& fn) {
  const double t0 = thread_cpu_seconds();
  auto r = fn();
  s.ms += (thread_cpu_seconds() - t0) * 1e3;
  ++s.calls;
  return r;
}

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string fingerprints;
  std::optional<std::uint64_t> dataset_seed;
};

/// About one replayed cycle in this many has its layers timed: often enough
/// for a stable split, rarely enough that the clock reads (tens of ns
/// each) add little to the replay.
constexpr std::uint32_t kSamplePeriod = 64;

/// Dataset seeds that --seed selects from. Every one has pinned
/// fingerprints, so each benchmark run is checked exactly. 2020 is the repo's
/// default seed (its goldens); the hold-out seed 4242 is not in the pool
/// and is run only on request (--dataset-seed 4242).
constexpr std::uint64_t kSeedPool[] = {2020, 2021, 2022, 2023};

/// mpnn-quiet simulates this many leading QM9_1000 molecules: about 24M
/// modeled cycles, so a pass takes a few seconds rather than the whole
/// set's ~20 s.
constexpr std::uint32_t kMpnnMolecules = 100;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <gcn-mesh|mpnn-quiet|"
               "sweep-observed> --seed <n> --seconds <s> --trace <0|1> "
               "--fingerprints <file> [--dataset-seed <d>]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 18) {
    usage(flag + " needs a whole number, got '" + text + "'");
  }
  return std::stoull(text);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string val = argv[++i];
    if (flag == "--workload") {
      o.workload = val;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, val);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(flag, val));
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") usage("--trace needs 0 or 1");
      o.trace = val == "1";
    } else if (flag == "--fingerprints") {
      o.fingerprints = val;
    } else if (flag == "--dataset-seed") {
      o.dataset_seed = parse_uint(flag, val);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || !have_seed) usage("--workload and --seed needed");
  if (o.fingerprints.empty()) usage("--fingerprints needed");
  if (o.seconds < 1) usage("--seconds must be at least 1");
  return o;
}

// ---------------------------------------------------------------- workloads

/// One program of a workload, as the cold pipeline builds it.
struct ProgramSpec {
  gnn::Benchmark benchmark;
  std::uint32_t molecules = 0;  // graph prefix length; 0 = whole dataset
  accel::AcceleratorConfig config;
};

/// One simulation of a workload pass.
struct RunSpec {
  std::string label;  // fingerprint key; an observed run shares its plain
                      // twin's key, since observing must not move a cycle
  std::size_t program = 0;  // index into Workload::programs
  accel::AcceleratorConfig config;
  bool observed = false;
};

struct Workload {
  std::string name;
  unsigned jobs = 1;
  std::vector<ProgramSpec> programs;
  std::vector<RunSpec> runs;
};

std::string clock_text(double ghz) {
  std::ostringstream os;
  os << ghz << "GHz";
  return os.str();
}

Workload make_workload(const Options& o) {
  Workload w;
  w.name = o.workload;
  const auto cpu = accel::AcceleratorConfig::cpu_iso_bw();
  const auto gpu = accel::AcceleratorConfig::gpu_iso_bw();
  if (o.workload == "gcn-mesh") {
    w.programs = {{gnn::Benchmark::kGcnCora, 0, gpu},
                  {gnn::Benchmark::kGatCora, 0, gpu}};
    w.runs = {{"GCN/Cora@gpu-iso-bw", 0, gpu, false},
              {"GAT/Cora@gpu-iso-bw", 1, gpu, false}};
  } else if (o.workload == "mpnn-quiet") {
    w.programs = {{gnn::Benchmark::kMpnnQm9, kMpnnMolecules, cpu}};
    w.runs = {{"MPNN/QM9_1000[:" + std::to_string(kMpnnMolecules) +
                   "]@cpu-iso-bw",
               0, cpu, false}};
  } else if (o.workload == "sweep-observed") {
    w.jobs = 2;
    w.programs = {{gnn::Benchmark::kGatCora, 0, cpu}};
    for (const auto sched :
         {mem::MemScheduler::kInOrder, mem::MemScheduler::kFrFcfs}) {
      for (const bool observed : {false, true}) {
        for (const double ghz : {1.2, 2.4}) {
          accel::AcceleratorConfig c = cpu.with_core_clock(ghz);
          c.mem_params.scheduler = sched;
          w.runs.push_back({"GAT/Cora@cpu-iso-bw/" +
                                std::string(mem::mem_scheduler_name(sched)) +
                                "/" + clock_text(ghz),
                            0, c, observed});
        }
      }
    }
  } else {
    usage("unknown workload '" + o.workload + "'");
  }
  return w;
}

std::string display_label(const RunSpec& r) {
  return r.label + (r.observed ? "+observed" : "");
}

/// The first `k` graphs of `full`, as a dataset of their own.
std::shared_ptr<const graph::Dataset> graph_prefix(const graph::Dataset& full,
                                                   std::uint32_t k) {
  auto d = std::make_shared<graph::Dataset>();
  d->spec = full.spec;
  d->spec.name += "[:" + std::to_string(k) + "]";
  d->spec.num_graphs = k;
  d->graphs.assign(full.graphs.begin(), full.graphs.begin() + k);
  d->undirected.assign(full.undirected.begin(), full.undirected.begin() + k);
  d->node_features.assign(full.node_features.begin(),
                          full.node_features.begin() + k);
  d->edge_features.assign(full.edge_features.begin(),
                          full.edge_features.begin() + k);
  d->spec.total_nodes = d->total_nodes();
  d->spec.total_edges = d->total_edges();
  return d;
}

// -------------------------------------------------------------- run checks

/// Pass/fail bookkeeping shared by every check in the process.
struct Checks {
  const perfbench::FingerprintTable* pins = nullptr;
  std::uint64_t dataset_seed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// First fingerprint seen per label; later runs must repeat it.
  std::map<std::string, Fingerprint> seen;
  std::vector<std::string> unpinned;

  /// Fold in the tallies of checks made on another thread.
  void merge(const Checks& other) {
    attempted += other.attempted;
    failed += other.failed;
    correct = correct && other.correct;
  }

  void fail(const std::string& what) {
    ++failed;
    correct = false;
    std::cout << ("FAILED " + what + "\n");
  }

  /// Check one run's modeled output; true when it is right.
  bool check(const std::string& label, const std::string& shown,
             const Fingerprint& got) {
    std::vector<std::string> diffs;
    if (const Fingerprint* pin = pins->find(dataset_seed, label)) {
      diffs = perfbench::compare_fingerprints(got, *pin);
    } else if (std::find(unpinned.begin(), unpinned.end(), label) ==
               unpinned.end()) {
      unpinned.push_back(label);
      std::cout << "fingerprint " << dataset_seed << ' ' << label << ' '
                << perfbench::format_fingerprint(got) << "   (unpinned)\n";
    }
    const auto [it, first] = seen.emplace(label, got);
    if (!first) {
      for (auto& d : perfbench::compare_fingerprints(got, it->second)) {
        diffs.push_back("not repeatable: " + d);
      }
    }
    if (diffs.empty()) return true;
    std::string msg = shown + ":";
    for (const auto& d : diffs) msg += " " + d + ";";
    fail(msg);
    return false;
  }
};

/// Run fn(0) on the calling thread and fn(1..threads-1) on threads of
/// their own; return when all have ended, rethrowing the first exception.
template <typename Fn>
void on_threads(unsigned threads, Fn&& fn) {
  std::vector<std::exception_ptr> errors(threads);
  const auto guarded = [&](unsigned t) {
    try {
      fn(t);
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> pool;  // joined on scope exit
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(guarded, t);
    guarded(0);
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// ------------------------------------------------------------ cold set-up

/// What the cold pipeline learns about each program of a workload.
struct ProgramInfo {
  std::uint64_t hash = 0;
  std::vector<std::string> phase_kinds;
};

struct SetupTimes {
  Stage dataset, compile, hash, roundtrip, verify, analysis, opt;
  double total_s = 0.0;  // CPU seconds of the set-up's thread
};

/// One cold pipeline: dataset generation, compile, IR hash, IR round trip,
/// verify, static analysis and optimize for every program of the
/// workload, through their public entry points. Checks each stage's
/// output; fills `info` on the first call and checks repeats against it.
SetupTimes cold_setup(const Workload& w, std::uint64_t dataset_seed,
                      Checks& checks, std::vector<ProgramInfo>& info) {
  SetupTimes st;
  const double t0 = thread_cpu_seconds();
  std::map<graph::DatasetId, std::shared_ptr<const graph::Dataset>> datasets;
  info.resize(w.programs.size());
  for (std::size_t i = 0; i < w.programs.size(); ++i) {
    const ProgramSpec& p = w.programs[i];
    ++checks.attempted;
    const graph::DatasetId id = gnn::benchmark_dataset(p.benchmark);
    auto& full = datasets[id];
    if (!full) {
      full = timed(st.dataset, [&] {
        return std::make_shared<const graph::Dataset>(
            graph::make_dataset(id, dataset_seed));
      });
    }
    const auto ds = p.molecules == 0 ? full : graph_prefix(*full, p.molecules);
    const std::string name = gnn::benchmark_name(p.benchmark);
    const accel::CompiledProgram prog = timed(st.compile, [&] {
      return accel::ProgramCompiler{}.compile(
          gnn::make_benchmark_model(p.benchmark), *ds);
    });
    const std::uint64_t h =
        timed(st.hash, [&] { return accel::ir::content_hash(prog); });
    const bool round_trips = timed(st.roundtrip, [&] {
      const std::string text = accel::ir::serialize(prog);
      return accel::ir::serialize(accel::ir::parse(text)) == text;
    });
    const accel::VerifyReport vr = timed(st.verify, [&] {
      return accel::verify_program(prog, p.config.tile_params, ds.get(),
                                   &p.config);
    });
    accel::AnalysisOptions ao;
    ao.dataset = ds.get();
    const accel::ProgramAnalysis pa = timed(
        st.analysis, [&] { return accel::analyze_program(prog, p.config, ao); });
    accel::opt::OptimizeOptions oo;
    oo.dataset = ds.get();
    oo.config = &p.config;
    const accel::opt::OptimizeResult opt = timed(
        st.opt, [&] { return accel::opt::optimize_program(prog, oo); });

    if (info[i].hash == 0) {
      info[i].hash = h;
      for (const auto& ph : prog.phases) {
        info[i].phase_kinds.push_back(perfbench::phase_kind_name(ph.kind));
      }
    }
    if (!round_trips) {
      checks.fail(name + ": IR round trip changed the program");
    } else if (!vr.ok()) {
      checks.fail(name + ": verify_program reported errors");
    } else if (!(pa.bound_cycles > 0.0)) {
      checks.fail(name + ": analyze_program gave no cycle bound");
    } else if (!opt.validated) {
      checks.fail(name + ": optimizer output not validated: " + opt.failure);
    } else if (info[i].hash != h) {
      checks.fail(name + ": IR content hash not repeatable");
    }
  }
  st.total_s = thread_cpu_seconds() - t0;
  return st;
}

// ----------------------------------------------------------------- passes

/// A workload's requests, resolved against one session. Benchmark
/// programs go through the session caches; molecule prefixes are compiled
/// through Session::compile.
std::vector<sim::RunRequest> prepare(const Workload& w, sim::Session& session,
                                     std::uint64_t dataset_seed, bool warm) {
  std::vector<std::shared_ptr<const accel::CompiledProgram>> programs;
  std::vector<std::shared_ptr<const graph::Dataset>> datasets;
  for (const ProgramSpec& spec : w.programs) {
    if (spec.molecules == 0) {
      programs.push_back(nullptr);
      datasets.push_back(nullptr);
      continue;
    }
    const auto full = session.dataset(gnn::benchmark_dataset(spec.benchmark),
                                      dataset_seed);
    sim::Session::Resolved r =
        session.compile(gnn::make_benchmark_model(spec.benchmark),
                        graph_prefix(*full, spec.molecules));
    programs.push_back(std::move(r.program));
    datasets.push_back(std::move(r.dataset));
  }
  std::vector<sim::RunRequest> requests;
  for (const RunSpec& run : w.runs) {
    sim::RunRequest req;
    if (programs[run.program]) {
      req.program = programs[run.program];
      req.dataset = datasets[run.program];
    } else {
      req.benchmark = w.programs[run.program].benchmark;
      req.seed = dataset_seed;
    }
    req.config = run.config;
    if (warm) (void)session.resolve(req);
    requests.push_back(std::move(req));
  }
  return requests;
}

/// Observability of an observed run: profiler, attribution and the
/// periodic sampler writing CSV rows into `out`.
accel::TraceOptions observed_trace(std::ostream* out) {
  accel::TraceOptions t;
  t.profile = true;
  t.attribution = true;
  t.sample_every = 1000;
  t.sample_out = out;
  return t;
}

struct PassResult {
  double batch_s = 0.0;  // BatchRunner::run
  // Per copy of the workload: seconds from the pass start until its last
  // result was written as stats JSON and checked.
  std::vector<double> copy_wall_s;
  // Process CPU time during BatchRunner::run.
  double cpu_s = 0.0;
  // Per request: CPU seconds of its worker thread in Session::run (0 for a
  // failed run).
  std::vector<double> run_cpu_s;
  std::uint64_t replica_cycles = 0;  // the first copy: the workload's own
  Stage stats_json;
  // First copy only: plain runs' records, and every run's stats (empty
  // stats for a failed run), in workload order.
  std::vector<perfbench::RunRecord> records;
  std::vector<accel::RunStats> stats;
};

/// One workload pass: `replicas` copies of the workload's runs through
/// `runner`, each result's stats JSON written and its fingerprint checked
/// as soon as it finishes. The copies of a run are queued next to each
/// other, so each worker gets the same mix of runs.
PassResult run_pass(const Workload& w,
                    const std::vector<sim::RunRequest>& prepared,
                    const std::vector<ProgramInfo>& info,
                    sim::BatchRunner& runner, Checks& checks,
                    unsigned replicas = 1) {
  PassResult pr;
  const std::size_t n = w.runs.size();
  // Observed runs sample into their own in-memory stream.
  std::vector<std::unique_ptr<std::ostringstream>> samples(n * replicas);
  std::vector<sim::RunRequest> requests;
  for (std::size_t i = 0; i < n * replicas; ++i) {
    requests.push_back(prepared[i / replicas]);
    if (!w.runs[i / replicas].observed) continue;
    samples[i] = std::make_unique<std::ostringstream>();
    requests[i].trace = observed_trace(samples[i].get());
  }

  pr.stats.resize(n);
  std::vector<double> done(n * replicas, 0.0);
  pr.run_cpu_s.assign(n * replicas, 0.0);
  // Each worker thread's CPU clock at the end of its last progress call, so
  // a run's CPU time excludes the callbacks. Pool threads start at 0; a
  // serial batch runs on this thread.
  std::map<std::thread::id, double> cpu_mark;
  cpu_mark[std::this_thread::get_id()] = thread_cpu_seconds();
  const auto t0 = Clock::now();
  // Progress calls are serialized, so the checks need no lock.
  runner.set_progress([&](std::size_t i, const sim::RunResult& res) {
    const RunSpec& spec = w.runs[i / replicas];
    double& mark = cpu_mark[std::this_thread::get_id()];
    const double run_cpu = thread_cpu_seconds() - mark;
    ++checks.attempted;
    done[i] = seconds_since(t0);
    if (!res.ok()) {
      checks.fail(display_label(spec) + ": " + res.error);
      mark = thread_cpu_seconds();
      return;
    }
    const accel::RunStats& rs = res.stats;
    std::ostringstream json;
    timed(pr.stats_json, [&] {
      sim::write_run_stats_json(json, rs);
      return 0;
    });
    if (json.str().empty() ||
        (spec.observed && (!rs.profile || !rs.attribution ||
                           samples[i]->str().empty()))) {
      checks.fail(display_label(spec) + ": stats JSON or observation missing");
    } else if (checks.check(spec.label, display_label(spec),
                            perfbench::fingerprint_of(rs))) {
      pr.run_cpu_s[i] = run_cpu;
      if (i % replicas == 0) {
        pr.replica_cycles += rs.cycles;
        pr.stats[i / replicas] = rs;
      }
    }
    done[i] = seconds_since(t0);
    mark = thread_cpu_seconds();
  });
  const double cpu0 = cpu_seconds();
  (void)runner.run(requests);
  pr.cpu_s = cpu_seconds() - cpu0;
  pr.batch_s = seconds_since(t0);
  runner.set_progress(nullptr);

  // A copy is complete when its last result is checked.
  std::vector<double> copy_done(replicas, 0.0);
  for (std::size_t i = 0; i < done.size(); ++i) {
    copy_done[i % replicas] = std::max(copy_done[i % replicas], done[i]);
  }
  pr.copy_wall_s = std::move(copy_done);
  for (std::size_t r = 0; r < n; ++r) {
    if (!w.runs[r].observed && pr.stats[r].cycles != 0) {
      pr.records.push_back({pr.stats[r], info[w.runs[r].program].phase_kinds});
    }
  }
  return pr;
}

std::string fixed(double v, int digits) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << v;
  return os.str();
}

/// "median (q1..q3, n=..)" of a per-pass series, for the human lines.
std::string spread_text(const std::vector<double>& v, int digits) {
  return fixed(perfbench::quantile(v, 0.5), digits) + " (q1 " +
         fixed(perfbench::quantile(v, 0.25), digits) + ", q3 " +
         fixed(perfbench::quantile(v, 0.75), digits) +
         ", n=" + std::to_string(v.size()) + ")";
}

// ----------------------------------------------------------- the two modes

/// Add `from`'s simulated cycles and host times to `into`.
void add_timing(perfbench::ReplayResult& into,
                const perfbench::ReplayResult& from) {
  into.cycles += from.cycles;
  into.sampled_cycles += from.sampled_cycles;
  into.loop_ns += from.loop_ns;
  for (auto [to, add] :
       {std::pair{&into.tile, &from.tile}, {&into.mem, &from.mem},
        {&into.noc, &from.noc}, {&into.barrier, &from.barrier},
        {&into.watchdog, &from.watchdog},
        {&into.clock_read, &from.clock_read}}) {
    to->sampled_ns += add->sampled_ns;
    to->calls += add->calls;
  }
}

/// Setup reps get this share of --seconds (at least kMinSetupReps reps).
/// A set-up takes milliseconds, so this is hundreds of reps per thread,
/// spread over seconds rather than caught in one fast or slow moment.
constexpr double kSetupShare = 0.15;
constexpr int kMinSetupReps = 3;

/// Cold set-ups repeated on `threads` threads at once, each rep timed on
/// its own; the programs every thread built must be identical.
std::vector<SetupTimes> setup_reps(const Workload& w, const Options& o,
                                   std::uint64_t dataset_seed, Checks& checks,
                                   std::vector<ProgramInfo>& info,
                                   unsigned threads) {
  std::vector<std::vector<SetupTimes>> reps(threads);
  std::vector<std::vector<ProgramInfo>> infos(threads);
  std::vector<Checks> local(threads);
  const auto t0 = Clock::now();
  on_threads(threads, [&](unsigned t) {
    local[t].pins = checks.pins;
    local[t].dataset_seed = checks.dataset_seed;
    while (static_cast<int>(reps[t].size()) < kMinSetupReps ||
           seconds_since(t0) < kSetupShare * o.seconds) {
      reps[t].push_back(cold_setup(w, dataset_seed, local[t], infos[t]));
    }
  });

  std::vector<SetupTimes> all;
  info = infos[0];
  for (unsigned t = 0; t < threads; ++t) {
    checks.merge(local[t]);
    for (std::size_t i = 0; i < info.size(); ++i) {
      if (infos[t][i].hash != info[i].hash) {
        checks.fail("IR content hash differs between set-up threads");
      }
    }
    all.insert(all.end(), reps[t].begin(), reps[t].end());
  }
  return all;
}

/// Worker threads of an end-to-end pass: every core of the host, at most
/// four. A single busy core runs at whatever boost clock the host grants
/// at that moment, which made single-threaded timings swing by a third;
/// with every core busy the clock sits at its all-core level.
unsigned host_workers() {
  return std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
}

std::vector<Metric> end_to_end(const Workload& w, const Options& o,
                               std::uint64_t dataset_seed, Checks& checks) {
  const auto start = Clock::now();
  const unsigned workers = host_workers();
  std::vector<ProgramInfo> info;
  const std::vector<SetupTimes> reps =
      setup_reps(w, o, dataset_seed, checks, info, workers);
  std::vector<double> setup_s;
  for (const auto& r : reps) setup_s.push_back(r.total_s);

  // Cold session, warmed with one resolve per request, then whole passes
  // until the time is up. Each pass runs enough replicas of the workload
  // to give every worker thread its share.
  //
  // Other tenants of the host slow single passes down by a third or more,
  // at moments no run can choose. So every run of a pass is timed on its
  // own, by its worker thread's CPU clock (waiting for a core does not
  // count), and each figure is a median over many samples: throughput
  // from every run's median CPU time (pass_throughput), the wall time over
  // every copy of every pass, the set-up time (CPU time too) over every
  // rep of every thread.
  const unsigned replicas = std::max(1U, workers / w.jobs);
  sim::Session session;
  sim::BatchRunner runner(session, replicas * w.jobs);
  const std::vector<sim::RunRequest> requests =
      prepare(w, session, dataset_seed, true);
  std::vector<perfbench::RunSamples> runs(w.runs.size());
  std::vector<double> wall;
  std::optional<std::uint64_t> modeled;
  std::uint64_t failed_before = checks.failed;
  while (wall.empty() || seconds_since(start) < o.seconds) {
    const PassResult pr =
        run_pass(w, requests, info, runner, checks, replicas);
    if (checks.failed != failed_before) break;  // outputs wrong: stop here
    for (std::size_t i = 0; i < pr.run_cpu_s.size(); ++i) {
      runs[i / replicas].cycles = pr.stats[i / replicas].cycles;
      runs[i / replicas].seconds.push_back(pr.run_cpu_s[i]);
    }
    wall.insert(wall.end(), pr.copy_wall_s.begin(), pr.copy_wall_s.end());
    if (!modeled) modeled = pr.replica_cycles;
    failed_before = checks.failed;
  }
  std::cout << "setup_s per rep: " << spread_text(setup_s, 4) << '\n';
  for (std::size_t r = 0; r < runs.size(); ++r) {
    std::cout << "cpu_s of " << display_label(w.runs[r]) << ": "
              << spread_text(runs[r].seconds, 4) << '\n';
  }
  std::cout << "wall_s per copy: " << spread_text(wall, 4) << '\n';
  return {
      {"sim_cycles_per_s", perfbench::pass_throughput(runs), "cycles/s"},
      {"wall_s", perfbench::quantile(wall, 0.5), "s"},
      {"setup_s", perfbench::quantile(setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"modeled_cycles", static_cast<double>(modeled.value_or(0)), "cycles"},
  };
}

std::vector<Metric> traced(const Workload& w, const Options& o,
                           std::uint64_t dataset_seed, Checks& checks) {
  const auto start = Clock::now();
  std::vector<ProgramInfo> info;
  const std::vector<SetupTimes> reps =
      setup_reps(w, o, dataset_seed, checks, info, host_workers());
  std::vector<Metric> m;
  const auto stage = [&](const std::string& name, Stage SetupTimes::*field) {
    std::vector<double> ms;
    for (const auto& r : reps) ms.push_back((r.*field).ms);
    m.push_back({name + "_ms", perfbench::quantile(ms, 0.5), "ms"});
    m.push_back({name + "_calls",
                 static_cast<double>((reps.front().*field).calls), "count"});
  };
  stage("graph.make_dataset", &SetupTimes::dataset);
  stage("accel.compile", &SetupTimes::compile);
  stage("accel.ir.content_hash", &SetupTimes::hash);
  stage("accel.ir.roundtrip", &SetupTimes::roundtrip);
  stage("accel.verify", &SetupTimes::verify);
  stage("accel.analysis", &SetupTimes::analysis);
  stage("accel.opt", &SetupTimes::opt);

  // One pass on a cold session: cache behavior and worker occupancy.
  sim::Session session;
  sim::BatchRunner runner(session, w.jobs);
  const std::vector<sim::RunRequest> requests =
      prepare(w, session, dataset_seed, false);
  const PassResult cold = run_pass(w, requests, info, runner, checks);
  m.push_back({"sim.stats_json_ms", cold.stats_json.ms, "ms"});
  m.push_back({"sim.stats_json_calls",
               static_cast<double>(cold.stats_json.calls), "count"});
  const sim::Session::CacheCounters cc = session.cache_counters();
  m.push_back({"sim.session.dataset_hits",
               static_cast<double>(cc.dataset_hits), "count"});
  m.push_back({"sim.session.dataset_misses",
               static_cast<double>(cc.dataset_misses), "count"});
  m.push_back({"sim.session.program_hits",
               static_cast<double>(cc.program_hits), "count"});
  m.push_back({"sim.session.program_misses",
               static_cast<double>(cc.program_misses), "count"});
  m.push_back({"sim.session.program_dedupes",
               static_cast<double>(cc.program_dedupes), "count"});
  m.push_back({"sim.batch.worker_busy_frac",
               cold.cpu_s / (cold.batch_s * runner.jobs()), "frac"});

  // Every host worker thread then runs the same sequence on the now-warm
  // session, so the timings see the same all-core clock as --trace 0:
  // serial plain and observed runs of every design point (observation
  // overhead, and the untraced side of the replay), then replays of the
  // plain design points while time is left. Each thread's first replay
  // round is checked against the cold pass; thread 0's first round gives
  // the exact idle counts.
  std::vector<std::size_t> plain;
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    if (!w.runs[i].observed) plain.push_back(i);
  }
  struct Share {
    Checks checks;
    double plain_s = 0.0;
    double observed_s = 0.0;
    double replay_s = 0.0;  // first round
    int rounds = 0;
    bool replay_ok = true;
    perfbench::ReplayResult sum;
  };
  const unsigned threads = host_workers();
  std::vector<Share> shares(threads);
  on_threads(threads, [&](unsigned t) {
    Share& sh = shares[t];
    sh.checks.pins = checks.pins;
    sh.checks.dataset_seed = checks.dataset_seed;
    for (const std::size_t i : plain) {
      sim::RunRequest req = requests[i];
      auto t0 = Clock::now();
      const accel::RunStats p = session.run(req);
      sh.plain_s += seconds_since(t0);
      std::ostringstream samples;
      req.trace = observed_trace(&samples);
      t0 = Clock::now();
      const accel::RunStats obs = session.run(req);
      sh.observed_s += seconds_since(t0);
      sh.checks.attempted += 2;
      (void)sh.checks.check(w.runs[i].label, display_label(w.runs[i]),
                            perfbench::fingerprint_of(p));
      (void)sh.checks.check(w.runs[i].label, w.runs[i].label + "+observed",
                            perfbench::fingerprint_of(obs));
    }
    while (sh.rounds == 0 || seconds_since(start) < o.seconds) {
      const auto round_start = Clock::now();
      for (const std::size_t i : plain) {
        const sim::Session::Resolved r = session.resolve(requests[i]);
        const perfbench::ReplayResult rr = perfbench::replay(
            *r.program, *r.dataset, w.runs[i].config, kSamplePeriod);
        if (sh.rounds == 0) {
          ++sh.checks.attempted;
          const auto diffs = perfbench::compare_fingerprints(
              rr.fingerprint, perfbench::fingerprint_of(cold.stats[i]));
          if (!diffs.empty() || cold.stats[i].cycles == 0) {
            sh.replay_ok = false;
            sh.checks.fail(w.runs[i].label +
                           ": replay does not reproduce the simulator "
                           "(trace void): " +
                           (diffs.empty() ? "no simulator result" : diffs[0]));
          }
          sh.sum.noc_idle_cycles += rr.noc_idle_cycles;
          sh.sum.quiet_cycles += rr.quiet_cycles;
          sh.sum.fingerprint.flit_hops += rr.fingerprint.flit_hops;
        }
        add_timing(sh.sum, rr);
      }
      if (sh.rounds == 0) sh.replay_s = seconds_since(round_start);
      ++sh.rounds;
    }
  });

  perfbench::ReplayResult sum;
  sum.noc_idle_cycles = shares[0].sum.noc_idle_cycles;
  sum.quiet_cycles = shares[0].sum.quiet_cycles;
  sum.fingerprint.flit_hops = shares[0].sum.fingerprint.flit_hops;
  double plain_s = 0.0;
  double observed_s = 0.0;
  double replay_s = 0.0;
  int rounds = 0;
  bool replay_ok = true;
  for (const Share& sh : shares) {
    checks.merge(sh.checks);
    plain_s += sh.plain_s;
    observed_s += sh.observed_s;
    replay_s += sh.replay_s;
    rounds += sh.rounds;
    replay_ok = replay_ok && sh.replay_ok;
    add_timing(sum, sh.sum);
  }
  m.push_back({"trace.observed_overhead_ratio", observed_s / plain_s, "ratio"});

  // Timer cost measured in the loop itself, under the same cache state.
  const double overhead_ns =
      sum.clock_read.sampled_ns /
      static_cast<double>(std::max<std::uint64_t>(sum.clock_read.calls, 1));
  const double first_round_cycles =
      static_cast<double>(sum.cycles) / static_cast<double>(rounds);
  double share_sum = 0.0;
  double noc_ns = 0.0;
  for (const auto& [name, layer] :
       {std::pair{std::string("noc.tick"), &sum.noc},
        {std::string("accel.tile.tick"), &sum.tile},
        {std::string("mem.tick"), &sum.mem},
        {std::string("accel.barrier_check"), &sum.barrier},
        {std::string("sim.watchdog_check"), &sum.watchdog}}) {
    const double ns = perfbench::scale_layer_ns(*layer, overhead_ns,
                                                sum.sampled_cycles, sum.cycles);
    if (layer == &sum.noc) noc_ns = ns;
    const double share = ns / sum.loop_ns;
    share_sum += share;
    m.push_back({name + "_ns_per_cycle",
                 ns / static_cast<double>(sum.cycles), "ns"});
    m.push_back({name + "_share", share, "frac"});
  }
  m.push_back({"sim.loop_other_share", 1.0 - share_sum, "frac"});
  m.push_back({"noc.host_ns_per_flit_hop",
               noc_ns / static_cast<double>(rounds) /
                   static_cast<double>(sum.fingerprint.flit_hops),
               "ns"});
  m.push_back({"sim.noc_idle_cycle_frac",
               static_cast<double>(sum.noc_idle_cycles) / first_round_cycles,
               "frac"});
  m.push_back({"sim.quiet_cycle_frac",
               static_cast<double>(sum.quiet_cycles) / first_round_cycles,
               "frac"});
  m.push_back({"trace.overhead_ratio", replay_s / plain_s, "ratio"});
  m.push_back({"trace.replay_ok", replay_ok ? 1.0 : 0.0, "bool"});
  m.push_back({"trace.timer_overhead_ns", overhead_ns, "ns"});

  // Modeled counts of the plain design points (exact).
  const perfbench::ModeledTotals t = perfbench::aggregate(cold.records);
  const auto count = [&](const std::string& name, double v,
                         const std::string& unit = "count") {
    m.push_back({name, v, unit});
  };
  count("noc.flit_hops", static_cast<double>(t.flit_hops));
  count("noc.packets_delivered", static_cast<double>(t.packets_delivered));
  count("noc.avg_packet_latency", t.avg_packet_latency, "cycles");
  count("mem.bytes_served", static_cast<double>(t.mem_bytes_served), "B");
  count("mem.row_hit_rate", t.mem_row_hit_rate, "frac");
  count("mem.queue_occupancy", t.mem_queue_occupancy, "entries");
  count("accel.gpe.actions", static_cast<double>(t.gpe_actions));
  count("accel.dna.macs", static_cast<double>(t.dna_macs));
  count("accel.agg.words_reduced", static_cast<double>(t.agg_words_reduced));
  count("accel.dnq.queue_switches", static_cast<double>(t.dnq_queue_switches));
  count("accel.alloc_stalls", static_cast<double>(t.alloc_stalls));
  count("accel.gpe_utilization", t.gpe_utilization, "frac");
  count("accel.dna_utilization", t.dna_utilization, "frac");
  count("accel.agg_utilization", t.agg_utilization, "frac");
  for (const auto& [kind, cycles] : t.kind_cycles) {
    count("sim." + kind + "_cycles", static_cast<double>(cycles), "cycles");
  }
  std::cout << "replay: " << rounds << " round(s) on " << threads
            << " thread(s), " << sum.sampled_cycles
            << " of " << sum.cycles << " cycles timed (period "
            << kSamplePeriod << "), timer overhead " << fixed(overhead_ns, 1)
            << " ns/call, traced replay " << fixed(replay_s, 3)
            << " s vs untraced Session::run " << fixed(plain_s, 3) << " s\n";
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  const Workload w = make_workload(o);

  std::ifstream pin_file(o.fingerprints);
  if (!pin_file) {
    std::cerr << "perfbench: cannot open " << o.fingerprints << '\n';
    return 2;
  }
  perfbench::FingerprintTable pins;
  try {
    pins = perfbench::FingerprintTable::parse(pin_file);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }

  Checks checks;
  checks.pins = &pins;
  checks.dataset_seed = o.dataset_seed.value_or(
      kSeedPool[o.seed % std::size(kSeedPool)]);
  std::cout << "workload " << w.name << ", seed " << o.seed
            << " -> dataset seed " << checks.dataset_seed << ", "
            << o.seconds << " s, trace " << (o.trace ? 1 : 0) << ", "
            << w.runs.size() << " run(s) per workload pass, " << w.jobs
            << " worker(s) per replica, " << host_workers()
            << " host worker(s)\n";

  std::vector<Metric> metrics;
  try {
    metrics = o.trace ? traced(w, o, checks.dataset_seed, checks)
                      : end_to_end(w, o, checks.dataset_seed, checks);
  } catch (const std::exception& e) {
    ++checks.attempted;
    checks.fail(std::string("benchmark aborted: ") + e.what());
    return 1;
  }
  for (const auto& [label, fp] : checks.seen) {
    std::cout << "fingerprint " << checks.dataset_seed << ' ' << label << ' '
              << perfbench::format_fingerprint(fp) << '\n';
  }
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << m.value << ' ' << m.unit
              << '\n';
  }
  std::cout << "failed_frac = " << checks.failed << '/' << checks.attempted
            << '\n';
  std::cout << perfbench::result_json(checks.correct, checks.attempted,
                                      checks.failed, metrics)
            << std::endl;
  return 0;
}
