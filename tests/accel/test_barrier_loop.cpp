// AcceleratorSim::run's barrier loop, observed from outside:
//  - pinned run statistics of untraced runs (every stats baseline under
//    tests/data has a profile attached, so none of them covers the
//    untraced path);
//  - a differential check against a reference loop that ticks the same
//    accel::Machine on every cycle, as the loop did before it skipped
//    quiet cycles and replayed doomed allocation retries (DESIGN.md §16).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "accel/compiler.hpp"
#include "accel/machine.hpp"
#include "accel/simulator.hpp"
#include "common/rng.hpp"
#include "gnn/model.hpp"
#include "graph/generator.hpp"

namespace gnna::accel {
namespace {

/// The first `k` molecules of QM9_1000 (dataset seed 2020).
graph::Dataset qm9_prefix(std::uint32_t k) {
  const graph::Dataset full =
      graph::make_dataset(graph::DatasetId::kQm9_1000, 2020);
  graph::Dataset d;
  d.spec = full.spec;
  d.spec.num_graphs = k;
  d.graphs.assign(full.graphs.begin(), full.graphs.begin() + k);
  d.undirected.assign(full.undirected.begin(), full.undirected.begin() + k);
  d.node_features.assign(full.node_features.begin(),
                         full.node_features.begin() + k);
  d.edge_features.assign(full.edge_features.begin(),
                         full.edge_features.begin() + k);
  d.spec.total_nodes = d.total_nodes();
  d.spec.total_edges = d.total_edges();
  return d;
}

graph::Dataset random_dataset(NodeId n, EdgeId e, std::uint32_t vf,
                              std::uint64_t seed) {
  Rng rng(seed);
  graph::Dataset ds;
  ds.spec = {"random", 1, n, e, vf, 0, 4};
  ds.graphs.push_back(graph::generate_random_graph(rng, n, e));
  ds.undirected.push_back(ds.graphs.back().symmetrized());
  ds.node_features.emplace_back(std::size_t{n} * vf, 0.5F);
  ds.edge_features.emplace_back();
  return ds;
}

/// Two tiles and one memory node on a 3x1 mesh.
AcceleratorConfig two_tile_config() {
  AcceleratorConfig c;
  c.name = "test-2tile";
  c.mesh_width = 3;
  c.mesh_height = 1;
  c.tile_coords = {{0, 0}, {1, 0}};
  c.mem_coords = {{2, 0}};
  return c;
}

RunStats run_untraced(const gnn::ModelSpec& model, const graph::Dataset& ds,
                      const AcceleratorConfig& cfg) {
  const CompiledProgram prog = ProgramCompiler{}.compile(model, ds);
  AcceleratorSim sim(cfg);
  return sim.run(prog, ds);
}

struct Pin {
  Cycle cycles;
  std::vector<Cycle> phase_cycles;
  std::uint64_t gpe_actions;
  std::uint64_t alloc_stalls;
  std::uint64_t dnq_queue_switches;
  std::uint64_t tasks_completed;
  double gpe_utilization;
  double dna_utilization;
  double agg_utilization;
};

void expect_pinned(const RunStats& rs, const Pin& pin) {
  EXPECT_EQ(rs.cycles, pin.cycles);
  ASSERT_EQ(rs.phases.size(), pin.phase_cycles.size());
  for (std::size_t i = 0; i < rs.phases.size(); ++i) {
    EXPECT_EQ(rs.phases[i].cycles, pin.phase_cycles[i]) << "phase " << i;
  }
  EXPECT_EQ(rs.gpe_actions, pin.gpe_actions);
  EXPECT_EQ(rs.alloc_stalls, pin.alloc_stalls);
  EXPECT_EQ(rs.dnq_queue_switches, pin.dnq_queue_switches);
  EXPECT_EQ(rs.tasks_completed, pin.tasks_completed);
  EXPECT_EQ(rs.gpe_utilization, pin.gpe_utilization);
  EXPECT_EQ(rs.dna_utilization, pin.dna_utilization);
  EXPECT_EQ(rs.agg_utilization, pin.agg_utilization);
}

TEST(BarrierLoopPins, MpnnQm9PrefixAt24Ghz) {
  const graph::Dataset ds = qm9_prefix(20);
  const RunStats rs =
      run_untraced(gnn::make_benchmark_model(gnn::Benchmark::kMpnnQm9), ds,
                   AcceleratorConfig::cpu_iso_bw());
  expect_pinned(rs, {4977125,
                     {4857, 1656330, 1656349, 1656324, 3265},
                     1502057, 1490017, 27, 1060,
                     0.90426963357359924, 0.9516538162091569,
                     0.0014626918150538715});
}

TEST(BarrierLoopPins, MpnnQm9PrefixAt12Ghz) {
  // Core clock below the NoC clock: every GPE/DNA/AGG cost is scaled by 2.
  const graph::Dataset ds = qm9_prefix(20);
  const RunStats rs =
      run_untraced(gnn::make_benchmark_model(gnn::Benchmark::kMpnnQm9), ds,
                   AcceleratorConfig::cpu_iso_bw().with_core_clock(1.2));
  expect_pinned(rs, {9713668,
                     {5661, 3234899, 3234918, 3234894, 3296},
                     1507144, 1495104, 27, 1060,
                     0.9298440094926036, 0.97522377746490818,
                     0.0014989188430158413});
}

TEST(BarrierLoopPins, GatTwoTilesFourThreads) {
  const graph::Dataset ds = random_dataset(120, 480, 16, 7);
  AcceleratorConfig cfg = two_tile_config();
  cfg.tile_params.gpe_threads = 4;
  const RunStats rs = run_untraced(gnn::make_gat(16, 4), ds, cfg);
  expect_pinned(rs, {24108,
                     {2876, 12641, 2688, 5903},
                     8784, 0, 0, 480,
                     0.40816326530612246, 0.29965156794425085,
                     0.11033681765389082});
}

// ------------------------------------------------------ reference loop

/// What the reference loop observed: the RunStats fields AcceleratorSim
/// derives from unit state, or the cycle at which its watchdog fired.
struct ReferenceRun {
  RunStats stats;
  bool deadlocked = false;
  Cycle deadlock_cycle = 0;
};

/// AcceleratorSim::run without verification, tracing or skipping: every
/// unit of the same Machine ticks on every cycle, with the default
/// round-robin work split.
ReferenceRun reference_run(const CompiledProgram& prog,
                           const graph::Dataset& ds,
                           const AcceleratorConfig& cfg,
                           Cycle watchdog_cycles = 2'000'000) {
  Machine m(cfg);
  ReferenceRun out;
  for (const PhaseSpec& phase : prog.phases) {
    m.begin_phase(prog, ds, phase);
    std::uint64_t last_sig = m.progress_signature();
    Cycle last_progress = m.now();
    while (!m.idle()) {
      m.tick_cycle();
      const std::uint64_t sig = m.progress_signature();
      if (sig != last_sig) {
        last_sig = sig;
        last_progress = m.now();
      } else if (m.now() - last_progress > watchdog_cycles) {
        out.deadlocked = true;
        out.deadlock_cycle = m.now();
        return out;
      }
    }
    out.stats.phases.push_back(m.phase_stats());
  }
  m.read_stats(out.stats);
  return out;
}

void expect_same_run(const RunStats& got, const RunStats& want) {
  EXPECT_EQ(got.cycles, want.cycles);
  ASSERT_EQ(got.phases.size(), want.phases.size());
  for (std::size_t i = 0; i < got.phases.size(); ++i) {
    EXPECT_EQ(got.phases[i].cycles, want.phases[i].cycles) << "phase " << i;
    EXPECT_EQ(got.phases[i].mem_bytes_served, want.phases[i].mem_bytes_served)
        << "phase " << i;
    EXPECT_EQ(got.phases[i].tasks, want.phases[i].tasks) << "phase " << i;
  }
  EXPECT_EQ(got.mem_bytes_requested, want.mem_bytes_requested);
  EXPECT_EQ(got.mem_bytes_served, want.mem_bytes_served);
  EXPECT_EQ(got.mem_row_hits, want.mem_row_hits);
  EXPECT_EQ(got.mem_row_misses, want.mem_row_misses);
  EXPECT_EQ(got.mem_queue_occupancy, want.mem_queue_occupancy);
  EXPECT_EQ(got.mem_queue_occupancy_max, want.mem_queue_occupancy_max);
  ASSERT_EQ(got.mem_banks.size(), want.mem_banks.size());
  for (std::size_t i = 0; i < got.mem_banks.size(); ++i) {
    EXPECT_EQ(got.mem_banks[i].row_hits, want.mem_banks[i].row_hits);
    EXPECT_EQ(got.mem_banks[i].row_misses, want.mem_banks[i].row_misses);
    EXPECT_EQ(got.mem_banks[i].busy_frac, want.mem_banks[i].busy_frac);
  }
  EXPECT_EQ(got.dna_utilization, want.dna_utilization);
  EXPECT_EQ(got.gpe_utilization, want.gpe_utilization);
  EXPECT_EQ(got.agg_utilization, want.agg_utilization);
  EXPECT_EQ(got.tasks_completed, want.tasks_completed);
  EXPECT_EQ(got.packets_delivered, want.packets_delivered);
  EXPECT_EQ(got.avg_packet_latency, want.avg_packet_latency);
  EXPECT_EQ(got.dnq_queue_switches, want.dnq_queue_switches);
  EXPECT_EQ(got.alloc_stalls, want.alloc_stalls);
  EXPECT_EQ(got.noc_flit_hops, want.noc_flit_hops);
  EXPECT_EQ(got.noc_flits_delivered, want.noc_flits_delivered);
  EXPECT_EQ(got.agg_words_reduced, want.agg_words_reduced);
  EXPECT_EQ(got.dna_macs, want.dna_macs);
  EXPECT_EQ(got.gpe_actions, want.gpe_actions);
  EXPECT_EQ(got.dnq_words, want.dnq_words);
}

// ------------------------------------------------------ the seeded matrix

enum class Model { kGcn, kGat, kMpnn, kPgnn };
enum class Config { kCpuIsoBw, kTwoTile, kGpuIsoBw };

const char* model_name(Model m) {
  switch (m) {
    case Model::kGcn: return "Gcn";
    case Model::kGat: return "Gat";
    case Model::kMpnn: return "Mpnn";
    case Model::kPgnn: return "Pgnn";
  }
  return "?";
}

const char* config_name(Config c) {
  switch (c) {
    case Config::kCpuIsoBw: return "CpuIsoBw";
    case Config::kTwoTile: return "TwoTile";
    case Config::kGpuIsoBw: return "GpuIsoBw";
  }
  return "?";
}

/// A small seeded workload for `m`: MPNN runs on QM9 molecules (its
/// queue-1 GRU model makes the DNQ stall), the others on a random graph.
struct Workload {
  graph::Dataset ds;
  gnn::ModelSpec model;
};

Workload make_workload(Model m) {
  switch (m) {
    case Model::kGcn:
      return {random_dataset(96, 384, 16, 11), gnn::make_gcn(16, 4)};
    case Model::kGat:
      return {random_dataset(96, 384, 16, 12), gnn::make_gat(16, 4)};
    case Model::kMpnn: {
      graph::Dataset ds = qm9_prefix(3);
      gnn::ModelSpec model = gnn::make_mpnn(
          ds.spec.vertex_features, ds.spec.edge_features,
          ds.spec.output_features, /*hidden=*/16, /*steps=*/2);
      return {std::move(ds), std::move(model)};
    }
    case Model::kPgnn:
      return {random_dataset(96, 240, 8, 13),
              gnn::make_pgnn(8, 4, /*hidden=*/8, /*hops=*/2)};
  }
  throw std::logic_error("unknown model");
}

AcceleratorConfig make_config(Config c, double core_ghz, bool frfcfs) {
  AcceleratorConfig cfg = c == Config::kCpuIsoBw   ? AcceleratorConfig::cpu_iso_bw()
                          : c == Config::kTwoTile ? two_tile_config()
                                                  : AcceleratorConfig::gpu_iso_bw();
  cfg = cfg.with_core_clock(core_ghz);
  if (frfcfs) cfg.mem_params.scheduler = mem::MemScheduler::kFrFcfs;
  // Scratchpads small enough that these small workloads keep GPE threads
  // retrying DNQ and AGG allocations, the path the loop replays.
  cfg.tile_params.dnq_data_bytes = 2 * 1024;
  cfg.tile_params.agg_data_bytes = 2 * 1024;
  cfg.tile_params.agg_ctrl_bytes = 4 * cfg.tile_params.agg_ctrl_entry_bytes;
  return cfg;
}

using MatrixPoint = std::tuple<Model, Config, double, bool>;

class BarrierLoopMatchesReference
    : public ::testing::TestWithParam<MatrixPoint> {};

TEST_P(BarrierLoopMatchesReference, FieldByField) {
  const auto& [model, config, ghz, frfcfs] = GetParam();
  const Workload w = make_workload(model);
  const AcceleratorConfig cfg = make_config(config, ghz, frfcfs);
  const CompiledProgram prog = ProgramCompiler{}.compile(w.model, w.ds);
  AcceleratorSim sim(cfg);
  const RunStats got = sim.run(prog, w.ds);
  const ReferenceRun want = reference_run(prog, w.ds, cfg);
  ASSERT_FALSE(want.deadlocked);
  expect_same_run(got, want.stats);
}

std::string matrix_point_name(
    const ::testing::TestParamInfo<MatrixPoint>& info) {
  const auto& [model, config, ghz, frfcfs] = info.param;
  return std::string(model_name(model)) + config_name(config) + "At" +
         std::to_string(static_cast<int>(ghz * 10 + 0.5)) +
         (frfcfs ? "Frfcfs" : "InOrder");
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BarrierLoopMatchesReference,
    ::testing::Combine(::testing::Values(Model::kGcn, Model::kGat,
                                         Model::kMpnn, Model::kPgnn),
                       ::testing::Values(Config::kCpuIsoBw, Config::kTwoTile,
                                         Config::kGpuIsoBw),
                       ::testing::Values(2.4, 1.7, 1.2),
                       ::testing::Bool()),
    matrix_point_name);

/// The cycle a watchdog report names ("... cycle N) ===").
Cycle reported_cycle(const std::string& what) {
  const std::string key = ", cycle ";
  const std::size_t at = what.find(key);
  if (at == std::string::npos) return kNeverCycle;
  return std::stoull(what.substr(at + key.size()));
}

TEST(BarrierLoop, WatchdogFiresAtTheReferenceCycle) {
  // 3 cycles fires during the first memory round trip; the longer limits
  // fire (or not) inside quiet stretches the loop jumps across, between
  // replayed retries on two tiles.
  struct Case {
    Model model;
    AcceleratorConfig cfg;
    Cycle limit;
    bool verify = true;
  };
  std::vector<Case> cases;
  for (const Model model : {Model::kGcn, Model::kMpnn, Model::kPgnn}) {
    for (const Cycle limit :
         {Cycle{3}, Cycle{40}, Cycle{150}, Cycle{600}, Cycle{2500}}) {
      cases.push_back({model, make_config(Config::kTwoTile, 1.7, false), limit});
    }
  }
  // Every thread retries a DNQ allocation that can never succeed (entries
  // wider than the DNQ, which verification rejects) while memory answers
  // at once. The first gap longer than 6 cycles then follows a replayed
  // retry and a progress-free tick: the watchdog must count from the
  // retry, not from that tick.
  AcceleratorConfig livelock = make_config(Config::kTwoTile, 2.4, false);
  livelock.tile_params.gpe_threads = 3;
  livelock.tile_params.dnq_data_bytes = 32;
  livelock.mem_params.latency_ns = 0.0;
  livelock.mem_params.bandwidth = Bandwidth::gb_per_s(10000.0);
  cases.push_back({Model::kGcn, livelock, 6, /*verify=*/false});

  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(model_name(c.model)) + " on " + c.cfg.name +
                 " at " + std::to_string(c.cfg.core_clock.ghz()) +
                 " GHz, watchdog " + std::to_string(c.limit));
    const Workload w = make_workload(c.model);
    const CompiledProgram prog = ProgramCompiler{}.compile(w.model, w.ds);
    const ReferenceRun want = reference_run(prog, w.ds, c.cfg, c.limit);
    AcceleratorSim sim(c.cfg);
    sim.set_watchdog_cycles(c.limit);
    sim.set_verify(c.verify);
    if (!want.deadlocked) {
      expect_same_run(sim.run(prog, w.ds), want.stats);
      continue;
    }
    try {
      (void)sim.run(prog, w.ds);
      ADD_FAILURE() << "watchdog did not fire; reference fired at cycle "
                    << want.deadlock_cycle;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(reported_cycle(e.what()), want.deadlock_cycle);
    }
  }
}

TEST(BarrierLoop, SamplerRowsLandOnMultiplesOfThePeriod) {
  for (const Config config : {Config::kCpuIsoBw, Config::kTwoTile}) {
    SCOPED_TRACE(config_name(config));
    const Workload w = make_workload(Model::kMpnn);
    const AcceleratorConfig cfg = make_config(config, 2.4, false);
    const CompiledProgram prog = ProgramCompiler{}.compile(w.model, w.ds);
    std::ostringstream csv;
    TraceOptions opts;
    opts.sample_every = 97;
    opts.sample_out = &csv;
    AcceleratorSim sim(cfg);
    sim.set_trace(opts);
    const RunStats rs = sim.run(prog, w.ds);
    expect_same_run(rs, reference_run(prog, w.ds, cfg).stats);

    std::istringstream lines(csv.str());
    std::string line;
    std::getline(lines, line);  // header
    Cycle rows = 0;
    while (std::getline(lines, line)) {
      ++rows;
      const Cycle cycle = std::stoull(line.substr(0, line.find(',')));
      EXPECT_EQ(cycle, rows * 97) << line;
    }
    EXPECT_EQ(rows, rs.cycles / 97);
  }
}

}  // namespace
}  // namespace gnna::accel
