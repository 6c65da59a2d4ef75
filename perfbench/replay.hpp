// Traced replay of AcceleratorSim::run's barrier loop, built from the
// simulator's public classes (MeshNetwork, Tile, MemoryController,
// AddressMap) so each layer's tick() and idle() can be timed from outside
// without adding a counter inside the simulator.
//
// The replay builds the mesh, tiles and memory nodes in the same order as
// AcceleratorSim::build, splits work round-robin, and calls Tile::tick,
// MemoryController::tick and MeshNetwork::tick in the simulator's order.
// It does not verify the program, attach tracers or sample. Its modeled
// output must equal the real run's exactly; perfbench checks that, so a
// replay that drifts from the simulator voids the trace.
#pragma once

#include <cstdint>

#include "accel/config.hpp"
#include "accel/program.hpp"
#include "bench_lib.hpp"
#include "graph/dataset.hpp"

namespace perfbench {

struct ReplayResult {
  Fingerprint fingerprint;          // modeled output of the replayed run
  std::uint64_t cycles = 0;         // simulated cycles (loop iterations)
  std::uint64_t noc_idle_cycles = 0;  // NoC idle at the start of the cycle
  std::uint64_t quiet_cycles = 0;   // NoC and every memory node idle
  std::uint64_t sampled_cycles = 0;
  // Per-layer host time over the sampled cycles; one timed interval per
  // layer per sampled cycle.
  LayerTime tile;      // Tile::tick, all tiles
  LayerTime mem;       // MemoryController::tick, all memory nodes
  LayerTime noc;       // MeshNetwork::tick
  LayerTime barrier;   // the everything-idle check (every idle() call)
  LayerTime watchdog;  // the progress-signature check
  LayerTime clock_read;  // an empty interval: the timer's own cost
  double loop_ns = 0.0;  // host time of the barrier loops
};

/// Replay `prog` over `ds` on `cfg` (round-robin work split, as the
/// benchmark's requests use). About one cycle in `sample_period` has its
/// layer calls timed; 0 times none. Throws std::runtime_error if a phase
/// makes no progress for `watchdog_cycles`.
[[nodiscard]] ReplayResult replay(const accel::CompiledProgram& prog,
                                  const graph::Dataset& ds,
                                  const accel::AcceleratorConfig& cfg,
                                  std::uint32_t sample_period,
                                  std::uint64_t watchdog_cycles = 2'000'000);

}  // namespace perfbench
