// Host-side microbenchmarks (google-benchmark): how fast the simulator
// itself runs. Useful when extending the model — a regression here makes
// the Fig 8 sweep painful.
#include <benchmark/benchmark.h>

#include "accel/compiler.hpp"
#include "accel/simulator.hpp"
#include "common/rng.hpp"
#include "dataflow/spatial.hpp"
#include "gnn/functional.hpp"
#include "gnn/model.hpp"
#include "graph/generator.hpp"
#include "noc/network.hpp"

namespace {

using namespace gnna;

void BM_NocTickIdle(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  noc::MeshNetwork net(dim, dim);
  for (std::uint32_t y = 0; y < dim; ++y) {
    for (std::uint32_t x = 0; x < dim; ++x) (void)net.add_endpoint(x, y);
  }
  net.finalize();
  for (auto _ : state) net.tick();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NocTickIdle)->Arg(2)->Arg(4)->Arg(6);

void BM_NocTickLoaded(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  noc::MeshNetwork net(dim, dim);
  std::vector<EndpointId> eps;
  for (std::uint32_t y = 0; y < dim; ++y) {
    for (std::uint32_t x = 0; x < dim; ++x) eps.push_back(net.add_endpoint(x, y));
  }
  net.finalize();
  Rng rng(1);
  for (auto _ : state) {
    for (const EndpointId src : eps) {
      if (net.injection_queue_depth(src) < 4 && rng.next_bool(0.3)) {
        noc::Message m;
        m.src = src;
        m.dst = eps[rng.next_below(eps.size())];
        m.payload_bytes = 128;
        net.send(m);
      }
    }
    net.tick();
    for (const EndpointId ep : eps) {
      while (net.poll(ep)) {
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
  // Read as host time per flit hop, the unit of noc.host_ns_per_flit_hop.
  state.counters["flit_hops"] = benchmark::Counter(
      static_cast<double>(net.stats().flit_hops.value()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NocTickLoaded)->Arg(2)->Arg(4)->Arg(6);

void BM_MapperSearch(benchmark::State& state) {
  const dataflow::Mapper mapper(dataflow::SpatialArrayConfig::eyeriss());
  const dataflow::MatmulShape shape{19717, 19717, 16, 0.000114};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map(
        shape, Bandwidth::gb_per_s(68.0), Frequency::giga_hertz(2.4)));
  }
}
BENCHMARK(BM_MapperSearch);

void BM_GraphGeneration(benchmark::State& state) {
  const auto edges = static_cast<EdgeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(
        graph::generate_citation_graph(rng, edges / 2, edges));
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_GraphGeneration)->Arg(1000)->Arg(10000)->Arg(44338);

void BM_FunctionalGcn(benchmark::State& state) {
  Rng rng(3);
  const auto g = graph::generate_citation_graph(rng, 1000, 3000);
  const gnn::FunctionalExecutor exec(gnn::make_gcn(64, 7));
  const linalg::Matrix x = linalg::Matrix::random(rng, 1000, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.run(g, x, {}));
  }
}
BENCHMARK(BM_FunctionalGcn);

void BM_SimulatedCyclesPerSecond(benchmark::State& state) {
  // End-to-end simulator throughput on a small GCN workload.
  Rng rng(5);
  graph::Dataset ds;
  ds.spec = {"bench", 1, 200, 600, 16, 0, 4};
  ds.graphs.push_back(graph::generate_random_graph(rng, 200, 600));
  ds.undirected.push_back(ds.graphs[0].symmetrized());
  ds.node_features.emplace_back(200 * 16, 0.5F);
  ds.edge_features.emplace_back();
  const auto prog =
      accel::ProgramCompiler{}.compile(gnn::make_gcn(16, 4, 8), ds);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    accel::AcceleratorSim sim(accel::AcceleratorConfig::cpu_iso_bw());
    const accel::RunStats rs = sim.run(prog, ds);
    cycles += rs.cycles;
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatedCyclesPerSecond);

}  // namespace

BENCHMARK_MAIN();
