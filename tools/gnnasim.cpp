// gnnasim — command-line driver for the GNN accelerator simulator.
//
//   gnnasim --list
//   gnnasim --benchmark GCN/Cora --config cpu-iso-bw --clock 2.4
//   gnnasim --benchmark MPNN/QM9_1000 --config gpu-iso-flops --energy
//   gnnasim --benchmark PGNN/DBLP_1 --threads 32 --partition block
//   gnnasim --batch runs.txt --jobs 4 --json results.json
//
// Prints a full run report: latency, utilizations, per-phase breakdown,
// and (with --energy) the estimated energy split. Batch mode runs every
// line of a manifest through the shared session caches, fanned across
// --jobs worker threads, and reports per-run latencies (machine-readable
// with --json).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "accel/energy.hpp"
#include "accel/ir.hpp"
#include "baseline/baselines.hpp"
#include "common/table.hpp"
#include "sim/batch_runner.hpp"
#include "sim/manifest.hpp"
#include "sim/session.hpp"
#include "sim/stats_json.hpp"
#include "trace/profiler.hpp"
#include "trace/trace.hpp"

namespace {

using namespace gnna;

void usage(std::ostream& os) {
  os << "usage: gnnasim [options]\n"
        "  --list                     list benchmarks and configurations\n"
        "  --emit-program <file>      compile the benchmark, write it as\n"
        "                             GNNA-IR text, and exit (no simulation)\n"
        "  --energy                   print the energy breakdown\n"
        "  --batch <manifest>         run one simulation per manifest line\n"
        "                             (key=value tokens; `gnnasim --help-batch'"
        " for the format);\n"
        "                             run flags below become per-line"
        " defaults\n"
        "  --jobs <n>                 worker threads for --batch (default 1)\n"
        "  --json <file>              write run stats as JSON (object for a\n"
        "                             single run, array for --batch)\n"
        "  --profile[=<file>]         aggregate a per-phase/per-unit profile;\n"
        "                             printed after the report, embedded in\n"
        "                             --json output, and (with =<file>) also\n"
        "                             written there as JSON for gnnatrace\n"
        "  --attribution=<file>       --attribution, and also write the stats\n"
        "                             JSON (per-tile totals + top-K hotspots)\n"
        "                             there for gnnatrace hotspots\n"
        "  --trace <file>             write a Chrome-trace JSON event log\n"
        "                             (open in chrome://tracing or Perfetto;\n"
        "                             per-run files <file>.runN in --batch)\n"
        "  --sample-every <cycles>    periodic utilization/occupancy samples\n"
        "  --sample-file <file>       CSV sidecar for the samples (default\n"
        "                             stderr; per-run files in --batch)\n"
        "  --watchdog <cycles>        progress watchdog threshold\n"
        "  --deadlock-report <file>   also write watchdog diagnostics here\n"
        "  --help                     this text\n"
        "run flags (the manifest keys of --help-batch; --benchmark is\n"
        "required unless --list or --batch):\n";
  sim::print_run_flags(os);
}

void usage_batch(std::ostream& os) {
  os << "batch manifest format: one run per line, `#' comments, tokens\n"
        "  benchmark=GCN/Cora config=gpu-iso-bw clock=1.2 threads=32 \\\n"
        "      partition=block seed=7 repeat=4 verify=0\n"
        "`benchmark' is required per line; `repeat=N' expands the line into\n"
        "N identical runs. config= is applied first and every other key on\n"
        "top of it, wherever it sits on the line. The run flags (gnnasim\n"
        "--help) are per-line defaults that a line overrides key by key.\n"
        "keys:\n";
  sim::print_manifest_keys(os);
}

/// "t.json" -> "t.run3.json" (suffix before the extension, if any).
std::string per_run_path(const std::string& path, std::size_t index) {
  const auto slash = path.find_last_of('/');
  const auto dot = path.find_last_of('.');
  const std::string suffix = ".run" + std::to_string(index);
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + suffix;
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

/// Owns the streams and sinks behind one run's TraceOptions; must outlive
/// the run (the sink's destructor closes the JSON document).
struct TraceFiles {
  std::ofstream trace_file;
  std::ofstream sample_file;
  std::optional<trace::ChromeTraceSink> sink;

  /// Fills `opts` from the CLI paths; returns false (with a message on
  /// stderr) if a file cannot be opened.
  bool open(const std::string& trace_path, const std::string& sample_path,
            Cycle sample_every, const std::string& deadlock_path,
            accel::TraceOptions& opts) {
    if (!trace_path.empty()) {
      trace_file.open(trace_path);
      if (!trace_file) {
        std::cerr << "error: cannot open " << trace_path << " for writing\n";
        return false;
      }
      sink.emplace(trace_file);
      opts.sink = &*sink;
    }
    if (sample_every > 0) {
      opts.sample_every = sample_every;
      if (!sample_path.empty()) {
        sample_file.open(sample_path);
        if (!sample_file) {
          std::cerr << "error: cannot open " << sample_path
                    << " for writing\n";
          return false;
        }
        opts.sample_out = &sample_file;
      } else {
        opts.sample_out = &std::cerr;
      }
    }
    opts.deadlock_report_path = deadlock_path;
    return true;
  }
};

void print_single_run_report(const accel::RunStats& rs, gnn::Benchmark b,
                             const accel::AcceleratorConfig& cfg,
                             bool want_energy) {
  std::cout << "benchmark : " << gnn::benchmark_name(b) << '\n';
  std::cout << "config    : " << cfg.name << " @ " << cfg.core_clock.ghz()
            << " GHz, " << cfg.tile_params.gpe_threads << " GPE threads\n\n";

  Table t({"Metric", "Value"});
  t.add_row({"latency", format_double(rs.millis, 3) + " ms (" +
                            std::to_string(rs.cycles) + " NoC cycles)"});
  t.add_row({"mean memory bandwidth",
             format_double(rs.mean_bandwidth_gbps, 1) + " GB/s (" +
                 format_percent(rs.bandwidth_utilization) + " of peak)"});
  if (rs.mem_scheduler == "frfcfs") {
    t.add_row({"mem scheduler",
               "frfcfs (row-hit rate " + format_percent(rs.mem_row_hit_rate) +
                   ", mean window occupancy " +
                   format_double(rs.mem_queue_occupancy, 1) + ")"});
  }
  t.add_row({"DNA utilization", format_percent(rs.dna_utilization)});
  t.add_row({"GPE utilization", format_percent(rs.gpe_utilization)});
  t.add_row({"AGG utilization", format_percent(rs.agg_utilization)});
  t.add_row({"work items retired", std::to_string(rs.tasks_completed)});
  t.add_row({"NoC packets", std::to_string(rs.packets_delivered)});
  t.add_row({"avg packet latency",
             format_double(rs.avg_packet_latency, 1) + " cycles"});
  const auto t7 = baseline::table7_row(b);
  t.add_row({"speedup vs CPU baseline", format_speedup(t7.cpu_ms / rs.millis)});
  t.add_row({"speedup vs GPU baseline", format_speedup(t7.gpu_ms / rs.millis)});
  t.print(std::cout);

  std::cout << "\nper-phase breakdown:\n";
  Table pt({"Phase", "Cycles", "Share", "Mem bytes"});
  for (const auto& ph : rs.phases) {
    pt.add_row({ph.name, std::to_string(ph.cycles),
                format_percent(static_cast<double>(ph.cycles) /
                               static_cast<double>(rs.cycles)),
                std::to_string(ph.mem_bytes_served)});
  }
  pt.print(std::cout);

  if (want_energy) {
    const accel::EnergyBreakdown e = accel::estimate_energy(rs, cfg);
    std::cout << "\nenergy breakdown (activity-counter model):\n";
    Table et({"Component", "uJ", "Share"});
    const auto add = [&](const std::string& n, double uj) {
      et.add_row({n, format_double(uj, 2), format_percent(uj / e.total_uj())});
    };
    add("DRAM", e.dram_uj);
    add("NoC", e.noc_uj);
    add("DNA", e.dna_uj);
    add("AGG", e.agg_uj);
    add("DNQ", e.dnq_uj);
    add("GPE", e.gpe_uj);
    add("leakage", e.leakage_uj);
    et.add_row({"total", format_double(e.total_uj(), 2), "100%"});
    et.print(std::cout);
    std::cout << "DRAM bytes wasted on 64B-line padding: "
              << format_percent(e.dram_waste_fraction) << '\n';
  }
}

bool write_json_file(const std::string& path,
                     const std::function<void(std::ostream&)>& emit) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot open " << path << " for writing\n";
    return false;
  }
  emit(out);
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  sim::RunSpec spec;
  bool want_energy = false;
  std::string batch_path;
  std::string json_path;
  bool profile = false;
  std::string profile_path;
  std::string attribution_path;
  unsigned jobs = 1;
  std::string trace_path;
  std::string sample_path;
  std::string deadlock_path;
  Cycle sample_every = 0;
  std::optional<Cycle> watchdog;
  std::string emit_program_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    try {
      if (sim::parse_run_flag(argc, argv, i, spec)) continue;
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 2;
    }
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    if (arg == "--help-batch") {
      usage_batch(std::cout);
      return 0;
    }
    if (arg == "--list") {
      std::cout << "benchmarks:\n";
      for (const gnn::Benchmark b : gnn::kAllBenchmarks) {
        std::cout << "  " << gnn::benchmark_name(b) << '\n';
      }
      std::cout << "configurations:\n  cpu-iso-bw\n  gpu-iso-bw\n"
                   "  gpu-iso-flops\n";
      return 0;
    }
    if (arg == "--energy") {
      want_energy = true;
    } else if (arg == "--batch") {
      const auto v = next();
      if (!v) {
        std::cerr << "error: --batch needs a manifest file\n";
        return 2;
      }
      batch_path = *v;
    } else if (arg == "--jobs") {
      const auto v = next();
      const auto parsed = v ? sim::parse_u64(*v) : std::nullopt;
      if (!parsed || *parsed < 1 || *parsed > 1024) {
        std::cerr << "error: --jobs needs a count in [1, 1024], got '"
                  << v.value_or("") << "'\n";
        return 2;
      }
      jobs = static_cast<unsigned>(*parsed);
    } else if (arg == "--json") {
      const auto v = next();
      if (!v) {
        std::cerr << "error: --json needs a file name\n";
        return 2;
      }
      json_path = *v;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg.rfind("--profile=", 0) == 0) {
      profile = true;
      profile_path = arg.substr(std::strlen("--profile="));
      if (profile_path.empty()) {
        std::cerr << "error: --profile= needs a file name\n";
        return 2;
      }
    } else if (arg.rfind("--attribution=", 0) == 0) {
      sim::set_run_key(spec, "attribution", "1");
      attribution_path = arg.substr(std::strlen("--attribution="));
      if (attribution_path.empty()) {
        std::cerr << "error: --attribution= needs a file name\n";
        return 2;
      }
    } else if (arg == "--trace") {
      const auto v = next();
      if (!v) {
        std::cerr << "error: --trace needs a file name\n";
        return 2;
      }
      trace_path = *v;
    } else if (arg == "--sample-every") {
      const auto v = next();
      const auto parsed = v ? sim::parse_u64(*v) : std::nullopt;
      if (!parsed) {
        std::cerr << "error: --sample-every needs a cycle count\n";
        return 2;
      }
      sample_every = *parsed;
    } else if (arg == "--sample-file") {
      const auto v = next();
      if (!v) {
        std::cerr << "error: --sample-file needs a file name\n";
        return 2;
      }
      sample_path = *v;
    } else if (arg == "--watchdog") {
      const auto v = next();
      const auto parsed = v ? sim::parse_u64(*v) : std::nullopt;
      if (!parsed) {
        std::cerr << "error: --watchdog needs a cycle count\n";
        return 2;
      }
      watchdog = *parsed;
    } else if (arg == "--deadlock-report") {
      const auto v = next();
      if (!v) {
        std::cerr << "error: --deadlock-report needs a file name\n";
        return 2;
      }
      deadlock_path = *v;
    } else if (arg == "--emit-program") {
      const auto v = next();
      if (!v || v->empty()) {
        std::cerr << "error: --emit-program needs an output file\n";
        return 2;
      }
      emit_program_path = *v;
    } else {
      std::cerr << "error: unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    }
  }

  // The single-run request; also checks the memory parameters the flags
  // set before any batch line builds on them.
  sim::RunRequest req;
  try {
    req = sim::make_request(spec);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  req.watchdog_cycles = watchdog;
  req.trace.profile = profile;

  sim::Session& session = sim::Session::global();

  // ---- Compile-only mode: emit the benchmark's program as GNNA-IR text.
  if (!emit_program_path.empty()) {
    if (!req.benchmark) {
      std::cerr << "error: --emit-program needs --benchmark\n";
      return 2;
    }
    if (!batch_path.empty() || !req.program_file.empty()) {
      std::cerr << "error: --emit-program excludes --batch and --program\n";
      return 2;
    }
    try {
      const sim::Session::Resolved r = session.resolve(req);
      accel::ir::save_file(*r.program, emit_program_path);
      char hash_buf[32];
      std::snprintf(hash_buf, sizeof hash_buf, "%016llx",
                    static_cast<unsigned long long>(r.hash));
      std::cout << "wrote " << emit_program_path << " ("
                << r.program->name << ", hash " << hash_buf << ")\n";
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
    return 0;
  }

  // ---- Batch mode: manifest -> BatchRunner -> summary table / JSON.
  if (!batch_path.empty()) {
    if (!req.program_file.empty()) {
      std::cerr << "error: --program is single-run only; use program= "
                   "manifest tokens in --batch mode\n";
      return 2;
    }
    std::ifstream manifest(batch_path);
    if (!manifest) {
      std::cerr << "error: cannot open manifest " << batch_path << '\n';
      return 2;
    }
    std::vector<sim::RunRequest> requests;
    try {
      requests = sim::parse_batch_manifest(manifest, spec, batch_path);
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 2;
    }
    if (requests.empty()) {
      std::cerr << "error: " << batch_path << " names no runs\n";
      return 2;
    }
    if (want_energy) {
      std::cerr << "warning: --energy is single-run only; ignored in "
                   "--batch mode\n";
    }
    for (sim::RunRequest& rq : requests) {
      rq.watchdog_cycles = watchdog;
      rq.trace.profile = profile;
    }

    // Per-run observability files (a shared sink would interleave events
    // from unrelated runs; per-run files keep each trace self-contained).
    std::vector<std::unique_ptr<TraceFiles>> trace_files(requests.size());
    if (!trace_path.empty() || sample_every > 0 || !deadlock_path.empty()) {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        trace_files[i] = std::make_unique<TraceFiles>();
        const std::string tp =
            trace_path.empty() ? "" : per_run_path(trace_path, i);
        const std::string sp =
            sample_path.empty() ? "" : per_run_path(sample_path, i);
        const std::string dp =
            deadlock_path.empty() ? "" : per_run_path(deadlock_path, i);
        if (!trace_files[i]->open(tp, sp, sample_every, dp,
                                  requests[i].trace)) {
          return 2;
        }
      }
    }

    sim::BatchRunner runner(session, jobs);
    runner.set_progress([&](std::size_t i, const sim::RunResult& r) {
      std::cerr << "[gnnasim] run " << i + 1 << '/' << requests.size() << ' '
                << gnn::benchmark_name(*requests[i].benchmark)
                << (r.ok() ? " done (" + format_double(r.stats.millis, 3) +
                                 " ms)"
                           : " FAILED")
                << '\n';
    });
    const std::vector<sim::RunResult> results = runner.run(requests);
    for (auto& tf : trace_files) {
      if (tf && tf->sink) tf->sink->close();
    }

    std::cout << "batch     : " << batch_path << " (" << results.size()
              << " runs, " << runner.jobs() << " jobs)\n\n";
    Table t({"#", "Benchmark", "Config", "GHz", "Thr", "Seed",
             "Latency (ms)", "Cycles"});
    std::size_t failures = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const sim::RunRequest& rq = requests[i];
      const sim::RunResult& r = results[i];
      t.add_row({std::to_string(i), gnn::benchmark_name(*rq.benchmark),
                 rq.config.name, format_double(rq.config.core_clock.ghz(), 1),
                 std::to_string(rq.config.tile_params.gpe_threads),
                 std::to_string(rq.seed),
                 r.ok() ? format_double(r.stats.millis, 3) : "error",
                 r.ok() ? std::to_string(r.stats.cycles) : r.error});
      if (!r.ok()) ++failures;
    }
    t.print(std::cout);
    const auto cc = session.cache_counters();
    std::cout << "\ncache     : " << cc.dataset_hits << '/'
              << cc.dataset_hits + cc.dataset_misses << " dataset hits, "
              << cc.program_hits << '/'
              << cc.program_hits + cc.program_misses + cc.program_dedupes
              << " program hits, " << cc.program_dedupes
              << " deduped by IR hash\n";

    if (!json_path.empty() &&
        !write_json_file(json_path, [&](std::ostream& os) {
          sim::write_batch_json(os, results);
        })) {
      return 2;
    }
    if (!profile_path.empty() &&
        !write_json_file(profile_path, [&](std::ostream& os) {
          sim::write_batch_json(os, results);
        })) {
      return 2;
    }
    if (!attribution_path.empty() &&
        !write_json_file(attribution_path, [&](std::ostream& os) {
          sim::write_batch_json(os, results);
        })) {
      return 2;
    }
    if (failures > 0) {
      std::cerr << "error: " << failures << " of " << results.size()
                << " runs failed\n";
      return 1;
    }
    return 0;
  }

  // ---- Single-run mode.
  if (!req.benchmark) {
    if (!req.program_file.empty()) {
      std::cerr << "error: --program also needs --benchmark (it names the "
                   "dataset the program runs against)\n";
      return 2;
    }
    usage(std::cerr);
    return 2;
  }

  // Observability outputs. The streams must outlive run(); the trace
  // sink's destructor closes the JSON document.
  TraceFiles tf;
  if (!tf.open(trace_path, sample_path, sample_every, deadlock_path,
               req.trace)) {
    return 2;
  }

  accel::RunStats rs;
  try {
    rs = session.run(req);
  } catch (const std::runtime_error& e) {
    // Watchdog diagnostics land here; the report is in the message (and in
    // --deadlock-report's file if given).
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  if (tf.sink) {
    tf.sink->close();
    std::cout << "trace: wrote " << tf.sink->events_written() << " events to "
              << trace_path << '\n';
  }

  print_single_run_report(rs, *req.benchmark, req.config, want_energy);

  if (rs.profile) {
    std::cout << '\n';
    trace::print_profile(std::cout, *rs.profile);
  }
  if (rs.attribution) {
    const trace::AttributionReport& ar = *rs.attribution;
    std::cout << "\nattribution: " << ar.tiles.size()
              << " tiles, busy max/mean "
              << format_double(ar.busy_max_mean(), 3) << ", flit gini "
              << format_double(ar.flit_gini(), 3) << ", top-"
              << ar.vertices.size()
              << " hotspots captured (gnnatrace hotspots for the tables)\n";
  }

  const auto emit_run = [&](std::ostream& os) {
    sim::write_run_stats_json(os, rs);
    os << '\n';
  };
  if (!json_path.empty() && !write_json_file(json_path, emit_run)) return 2;
  if (!profile_path.empty() && !write_json_file(profile_path, emit_run)) {
    return 2;
  }
  if (!attribution_path.empty() &&
      !write_json_file(attribution_path, emit_run)) {
    return 2;
  }
  return 0;
}
