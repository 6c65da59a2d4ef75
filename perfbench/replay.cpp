#include "replay.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/addrmap.hpp"
#include "accel/tile.hpp"
#include "mem/memory.hpp"
#include "noc/network.hpp"

namespace perfbench {

namespace mem = gnna::mem;
namespace noc = gnna::noc;
using gnna::Cycle;
using gnna::EndpointId;

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

void charge(LayerTime& into, Clock::time_point a, Clock::time_point b) {
  into.sampled_ns += ns_between(a, b);
  ++into.calls;
}

}  // namespace

ReplayResult replay(const accel::CompiledProgram& prog,
                    const graph::Dataset& ds,
                    const accel::AcceleratorConfig& cfg,
                    std::uint32_t sample_period,
                    std::uint64_t watchdog_cycles) {
  // --- Build: AcceleratorSim::build, endpoint for endpoint.
  noc::MeshNetwork net(cfg.mesh_width, cfg.mesh_height, cfg.noc_params);
  struct TileEps {
    EndpointId gpe, agg, dnq;
  };
  std::vector<TileEps> tile_eps;
  for (const auto& [x, y] : cfg.tile_coords) {
    TileEps eps{};
    eps.gpe = net.add_endpoint(x, y);
    eps.agg = net.add_endpoint(x, y);
    eps.dnq = net.add_endpoint(x, y);
    tile_eps.push_back(eps);
  }
  std::vector<EndpointId> mem_eps;
  for (const auto& [x, y] : cfg.mem_coords) {
    mem_eps.push_back(net.add_endpoint(x, y));
  }
  net.finalize();
  const accel::AddressMap addr_map(mem_eps, cfg.interleave_bytes);
  std::vector<std::unique_ptr<accel::Tile>> tiles;
  for (const auto& eps : tile_eps) {
    tiles.push_back(std::make_unique<accel::Tile>(cfg, net, eps.gpe, eps.agg,
                                                  eps.dnq, addr_map));
  }
  std::vector<std::unique_ptr<mem::MemoryController>> mems;
  for (const EndpointId ep : mem_eps) {
    mems.push_back(std::make_unique<mem::MemoryController>(
        net, ep, cfg.mem_params, cfg.noc_clock));
  }

  // AcceleratorSim::everything_idle and ::progress_signature.
  const auto everything_idle = [&] {
    for (const auto& t : tiles) {
      if (!t->idle()) return false;
    }
    for (const auto& m : mems) {
      if (!m->idle()) return false;
    }
    return net.idle();
  };
  const auto progress_signature = [&] {
    std::uint64_t sig = net.stats().packets_sent.value() +
                        net.stats().packets_delivered.value();
    for (const auto& t : tiles) {
      sig += t->gpe().stats().actions.value();
      sig += t->dna().stats().entries_processed.value();
      sig += t->agg().stats().contributions.value();
    }
    return sig;
  };

  ReplayResult out;
  CycleSampler sampler(sample_period);
  const auto num_tiles = static_cast<std::uint32_t>(tiles.size());
  const auto loop_start = Clock::now();
  for (const accel::PhaseSpec& phase : prog.phases) {
    // Static round-robin work split (AcceleratorSim::run's default).
    const std::uint32_t num_items =
        phase.per_graph ? static_cast<std::uint32_t>(prog.graphs.size())
                        : prog.total_vertices();
    std::vector<std::vector<std::uint32_t>> work(num_tiles);
    for (std::uint32_t i = 0; i < num_items; ++i) {
      work[i % num_tiles].push_back(i);
    }
    const Cycle phase_start = net.now();
    for (std::uint32_t t = 0; t < num_tiles; ++t) {
      tiles[t]->begin_phase(prog, ds, phase, std::move(work[t]));
    }

    std::uint64_t last_sig = progress_signature();
    Cycle last_progress = net.now();
    while (true) {
      // Exact activity counts at the start of every cycle (untimed).
      const bool noc_idle = net.idle();
      bool mems_idle = true;
      for (const auto& m : mems) mems_idle = mems_idle && m->idle();

      std::uint64_t sig = 0;
      if (sampler.take()) {
        // Consecutive timestamps bracket each layer, so every interval
        // carries the cost of one clock read (removed when scaling).
        const auto t0 = Clock::now();
        const bool idle = everything_idle();
        const auto t1 = Clock::now();
        charge(out.barrier, t0, t1);
        if (idle) break;
        for (auto& t : tiles) t->tick();
        const auto t2 = Clock::now();
        for (auto& m : mems) m->tick();
        const auto t3 = Clock::now();
        net.tick();
        const auto t4 = Clock::now();
        sig = progress_signature();
        const auto t5 = Clock::now();
        const auto t6 = Clock::now();
        charge(out.tile, t1, t2);
        charge(out.mem, t2, t3);
        charge(out.noc, t3, t4);
        charge(out.watchdog, t4, t5);
        charge(out.clock_read, t5, t6);
        ++out.sampled_cycles;
      } else {
        if (everything_idle()) break;
        for (auto& t : tiles) t->tick();
        for (auto& m : mems) m->tick();
        net.tick();
        sig = progress_signature();
      }
      ++out.cycles;
      if (noc_idle) {
        ++out.noc_idle_cycles;
        if (mems_idle) ++out.quiet_cycles;
      }

      if (sig != last_sig) {
        last_sig = sig;
        last_progress = net.now();
      } else if (net.now() - last_progress > watchdog_cycles) {
        throw std::runtime_error("replay: no progress in phase " +
                                 phase.name);
      }
    }
    out.fingerprint.phase_cycles.push_back(net.now() - phase_start);
  }
  out.loop_ns = ns_between(loop_start, Clock::now());

  out.fingerprint.cycles = net.now();
  out.fingerprint.flit_hops = net.stats().flit_hops.value();
  out.fingerprint.packets_delivered = net.stats().packets_delivered.value();
  for (const auto& m : mems) {
    out.fingerprint.mem_bytes_served += m->stats().bytes_served.value();
  }
  return out;
}

}  // namespace perfbench
