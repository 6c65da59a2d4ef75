// The whole accelerator of Fig 9: GPE/DNQ/DNA/AGG tiles and memory nodes
// on one mesh NoC. A Machine builds the hardware from an AcceleratorConfig
// and owns it; drivers run it phase by phase to global barriers
// (Algorithm 1). AcceleratorSim drives it event-driven (DESIGN.md §16);
// the barrier-loop test's reference loop ticks it every cycle.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <vector>

#include "accel/addrmap.hpp"
#include "accel/config.hpp"
#include "accel/program.hpp"
#include "accel/tile.hpp"
#include "graph/dataset.hpp"
#include "graph/partition.hpp"
#include "mem/memory.hpp"
#include "noc/network.hpp"
#include "trace/trace.hpp"

namespace gnna::accel {

struct PhaseStats;  // accel/simulator.hpp
struct RunStats;

class Machine {
 public:
  /// Builds the mesh: three NoC endpoints per tile (GPE, AGG, DNQ/DNA —
  /// the 7-port crossbar), then one per memory node, in config order.
  explicit Machine(const AcceleratorConfig& cfg);

  // Tiles and controllers hold references into the machine.
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Configure every tile for `phase` and hand each its share of the
  /// phase's work items: `owners[i]` names the tile of item i when it has
  /// one entry per item of a per-vertex phase (profile-guided
  /// partitioning), otherwise graph::static_owner under `policy` does.
  void begin_phase(
      const CompiledProgram& prog, const graph::Dataset& ds,
      const PhaseSpec& phase,
      graph::PartitionPolicy policy = graph::PartitionPolicy::kRoundRobin,
      std::span<const TileId> owners = {});

  /// One NoC cycle: every tile, then every memory controller, then the NoC.
  void tick_cycle() {
    for (auto& t : tiles_) t->tick();
    for (auto& m : mems_) m->tick();
    net_.tick();
  }

  /// Nothing in flight anywhere: the phase has reached its barrier.
  [[nodiscard]] bool idle() const {
    for (const auto& t : tiles_) {
      if (!t->idle()) return false;
    }
    for (const auto& m : mems_) {
      if (!m->idle()) return false;
    }
    return net_.idle();
  }

  /// The NoC is quiescent and every memory controller idle: until a tile
  /// sends something, their ticks only advance the clock.
  [[nodiscard]] bool quiet() const {
    if (!net_.quiescent()) return false;
    for (const auto& m : mems_) {
      if (!m->idle()) return false;
    }
    return true;
  }

  /// Moves whenever a unit makes progress (the watchdog's input).
  [[nodiscard]] std::uint64_t progress_signature() const {
    std::uint64_t sig = net_.stats().packets_sent.value() +
                        net_.stats().packets_delivered.value();
    for (const auto& t : tiles_) {
      sig += t->gpe().stats().actions.value();
      sig += t->dna().stats().entries_processed.value();
      sig += t->agg().stats().contributions.value();
    }
    return sig;
  }

  /// Event-driven part of the barrier loop (DESIGN.md §16); call only when
  /// quiet(). Replays the tiles' doomed allocation retries before `target`
  /// in (cycle, tile index) order and jumps the clock to the first cycle at
  /// which a tile must tick for real, or to `target`. Replayed retries are
  /// progress at the cycles they ran in: returns the cycle after the last
  /// one, or 0 when none was replayed.
  Cycle skip_quiet_cycles(Cycle target);

  /// Attach `sink` to the NoC, every memory controller and every tile's
  /// units.
  void set_tracing(trace::TraceSink* sink);

  /// Fill every RunStats field derived from unit state (cycles, memory,
  /// NoC, utilization, activity counters); leaves names, phases and the
  /// observability blocks alone.
  void read_stats(RunStats& rs) const;

  /// The PhaseStats of the phase begun last, read at its barrier.
  [[nodiscard]] PhaseStats phase_stats() const;

  /// Every tile's unit state, memory queue contents and in-flight NoC
  /// packets (deadlock diagnostics).
  void dump_state(std::ostream& os) const;

  [[nodiscard]] Cycle now() const { return net_.now(); }
  [[nodiscard]] const noc::MeshNetwork& net() const { return net_; }
  [[nodiscard]] const auto& tiles() const { return tiles_; }
  [[nodiscard]] const auto& mems() const { return mems_; }
  /// NoC endpoint id -> owning tile (trace::Attribution::kNoTile for
  /// memory endpoints).
  [[nodiscard]] const auto& ep_to_tile() const { return ep_to_tile_; }

 private:
  AcceleratorConfig cfg_;  // tiles keep a reference
  noc::MeshNetwork net_;
  std::vector<std::uint32_t> ep_to_tile_;
  std::unique_ptr<AddressMap> addr_map_;
  std::vector<std::unique_ptr<Tile>> tiles_;
  std::vector<std::unique_ptr<mem::MemoryController>> mems_;
  std::vector<Cycle> next_event_;  // per tile, scratch for skip_quiet_cycles

  // The phase begun last.
  const PhaseSpec* phase_ = nullptr;
  std::uint32_t phase_items_ = 0;
  Cycle phase_start_ = 0;
  std::uint64_t phase_served_ = 0;  // memory bytes served before it

  [[nodiscard]] std::uint64_t mem_bytes_served() const;
};

}  // namespace gnna::accel
