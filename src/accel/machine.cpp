#include "accel/machine.hpp"

#include <algorithm>

#include "accel/simulator.hpp"
#include "trace/attribution.hpp"

namespace gnna::accel {

Machine::Machine(const AcceleratorConfig& cfg)
    : cfg_(cfg), net_(cfg_.mesh_width, cfg_.mesh_height, cfg_.noc_params) {
  std::vector<EndpointId> tile_eps;  // GPE, AGG, DNQ/DNA of each tile
  for (const auto& [x, y] : cfg_.tile_coords) {
    const auto tile = static_cast<std::uint32_t>(tile_eps.size() / 3);
    for (int port = 0; port < 3; ++port) {
      tile_eps.push_back(net_.add_endpoint(x, y));
    }
    ep_to_tile_.insert(ep_to_tile_.end(), 3, tile);
  }
  std::vector<EndpointId> mem_eps;
  for (const auto& [x, y] : cfg_.mem_coords) {
    mem_eps.push_back(net_.add_endpoint(x, y));
    ep_to_tile_.push_back(trace::Attribution::kNoTile);
  }
  net_.finalize();

  addr_map_ = std::make_unique<AddressMap>(mem_eps, cfg_.interleave_bytes);
  for (std::size_t i = 0; i < tile_eps.size(); i += 3) {
    tiles_.push_back(std::make_unique<Tile>(cfg_, net_, tile_eps[i],
                                            tile_eps[i + 1], tile_eps[i + 2],
                                            *addr_map_));
  }
  for (const EndpointId ep : mem_eps) {
    mems_.push_back(std::make_unique<mem::MemoryController>(
        net_, ep, cfg_.mem_params, cfg_.noc_clock));
  }
  next_event_.resize(tiles_.size());
}

void Machine::begin_phase(const CompiledProgram& prog,
                          const graph::Dataset& ds, const PhaseSpec& phase,
                          graph::PartitionPolicy policy,
                          std::span<const TileId> owners) {
  const std::uint32_t num_items =
      phase.per_graph ? static_cast<std::uint32_t>(prog.graphs.size())
                      : prog.total_vertices();
  phase_ = &phase;
  phase_items_ = num_items;
  phase_start_ = now();
  phase_served_ = mem_bytes_served();
  // Algorithm 1's shared work queues, realized as a static split.
  const auto num_tiles = static_cast<TileId>(tiles_.size());
  const bool explicit_owners = !phase.per_graph && owners.size() == num_items;
  std::vector<std::vector<std::uint32_t>> work(num_tiles);
  for (std::uint32_t i = 0; i < num_items; ++i) {
    work[explicit_owners ? owners[i] % num_tiles
                         : graph::static_owner(i, num_items, num_tiles, policy)]
        .push_back(i);
  }
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    tiles_[t]->begin_phase(prog, ds, phase, std::move(work[t]));
  }
}

PhaseStats Machine::phase_stats() const {
  PhaseStats ps;
  ps.name = phase_->name;
  ps.cycles = now() - phase_start_;
  ps.mem_bytes_served = mem_bytes_served() - phase_served_;
  ps.tasks = phase_items_;
  return ps;
}

Cycle Machine::skip_quiet_cycles(Cycle target) {
  // The NoC is quiescent and every memory controller idle, so until a tile
  // sends something their ticks only advance the clock, and by tile
  // locality each tile evolves on its own. Jump to the first cycle at
  // which a tile must tick for real.
  const Cycle now = net_.now();
  bool all_idle = true;
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    next_event_[i] = tiles_[i]->next_event(now);
    all_idle = all_idle && tiles_[i]->idle();
  }
  if (all_idle || target <= now) return 0;

  // Tiles replay their doomed allocation retries in (cycle, tile index)
  // order, the order per-cycle ticks run them in, so no tile gets past the
  // first real event of any tile and progress is seen at the right cycle.
  bool replayed = false;
  for (;;) {
    std::size_t i = 0;
    for (std::size_t j = 1; j < tiles_.size(); ++j) {
      if (next_event_[j] < next_event_[i]) i = j;
    }
    if (next_event_[i] >= target) break;
    // Tile i may run up to the next event of every other tile, through
    // that cycle when the other tile ticks after it.
    Cycle horizon = target;
    for (std::size_t j = 0; j < tiles_.size(); ++j) {
      if (j == i || next_event_[j] == kNeverCycle) continue;
      horizon = std::min(horizon, next_event_[j] + (j > i ? 1 : 0));
    }
    const Cycle next = tiles_[i]->advance(next_event_[i], horizon);
    if (next == next_event_[i]) {  // a real event: tick it
      target = next;
      break;
    }
    next_event_[i] = next;
    replayed = true;
  }

  if (target > now) {
    net_.skip_to(target);
    for (auto& t : tiles_) t->skip_to(target);
  }
  if (!replayed) return 0;
  Cycle progress = 0;
  for (const auto& t : tiles_) {
    progress = std::max(progress, t->gpe().last_action_cycle() + 1);
  }
  return progress;
}

void Machine::set_tracing(trace::TraceSink* sink) {
  const Cycle* clock = net_.now_ptr();
  net_.set_tracer({sink, clock, trace::Category::kNoc, 0});
  for (std::size_t i = 0; i < mems_.size(); ++i) {
    mems_[i]->set_tracer({sink, clock, trace::Category::kMem,
                          static_cast<std::uint32_t>(i)});
  }
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    tiles_[i]->set_tracing(sink, static_cast<std::uint32_t>(i));
  }
}

std::uint64_t Machine::mem_bytes_served() const {
  std::uint64_t served = 0;
  for (const auto& m : mems_) served += m->stats().bytes_served.value();
  return served;
}

void Machine::read_stats(RunStats& rs) const {
  rs.cycles = net_.now();
  rs.seconds = cfg_.noc_clock.cycles_to_seconds(static_cast<double>(rs.cycles));
  rs.millis = rs.seconds * 1e3;

  rs.mem_scheduler = mem::mem_scheduler_name(cfg_.mem_params.scheduler);
  double occupancy_weight = 0.0;
  double occupancy_sum = 0.0;
  for (std::size_t mi = 0; mi < mems_.size(); ++mi) {
    const auto& m = mems_[mi];
    rs.mem_bytes_requested += m->stats().bytes_requested.value();
    rs.mem_bytes_served += m->stats().bytes_served.value();
    rs.mem_row_hits += m->row_hits();
    rs.mem_row_misses += m->row_misses();
    occupancy_sum += m->stats().queue_depth.sum();
    occupancy_weight += m->stats().queue_depth.weight();
    rs.mem_queue_occupancy_max =
        std::max(rs.mem_queue_occupancy_max, m->stats().queue_depth.max());
    for (std::size_t b = 0; b < m->stats().banks.size(); ++b) {
      const mem::BankStats& bs = m->stats().banks[b];
      RunStats::MemBankStats out;
      out.mem = static_cast<std::uint32_t>(mi);
      out.bank = static_cast<std::uint32_t>(b);
      out.row_hits = bs.row_hits.value();
      out.row_misses = bs.row_misses.value();
      out.busy_frac = rs.cycles > 0
                          ? bs.busy_cycles / static_cast<double>(rs.cycles)
                          : 0.0;
      rs.mem_banks.push_back(out);
    }
  }
  const std::uint64_t row_total = rs.mem_row_hits + rs.mem_row_misses;
  rs.mem_row_hit_rate =
      row_total > 0 ? static_cast<double>(rs.mem_row_hits) /
                          static_cast<double>(row_total)
                    : 0.0;
  rs.mem_queue_occupancy =
      occupancy_weight > 0.0 ? occupancy_sum / occupancy_weight : 0.0;
  rs.mean_bandwidth_gbps =
      rs.seconds > 0.0
          ? static_cast<double>(rs.mem_bytes_served) / rs.seconds / 1e9
          : 0.0;
  const double peak_gbps = cfg_.total_mem_bandwidth_gbps();
  rs.bandwidth_utilization =
      peak_gbps > 0.0 ? rs.mean_bandwidth_gbps / peak_gbps : 0.0;

  const double denom =
      static_cast<double>(rs.cycles) * static_cast<double>(tiles_.size());
  double dna_busy = 0.0;
  double gpe_busy = 0.0;
  double agg_busy = 0.0;
  for (const auto& t : tiles_) {
    dna_busy += t->dna().stats().busy_cycles;
    gpe_busy += t->gpe().stats().busy_cycles;
    agg_busy += t->agg().stats().busy_cycles;
    rs.tasks_completed += t->gpe().stats().tasks_completed.value();
    rs.dnq_queue_switches += t->dnq().stats().queue_switches.value();
    rs.alloc_stalls += t->gpe().stats().alloc_stalls.value();
    rs.agg_words_reduced += t->agg().stats().words_reduced.value();
    rs.dna_macs += t->dna().stats().macs.value();
    rs.gpe_actions += t->gpe().stats().actions.value();
    rs.dnq_words += t->dnq().stats().enqueued_words.value();
  }
  rs.noc_flit_hops = net_.stats().flit_hops.value();
  rs.noc_flits_delivered = net_.stats().flits_delivered.value();
  if (denom > 0.0) {
    rs.dna_utilization = dna_busy / denom;
    rs.gpe_utilization = gpe_busy / denom;
    rs.agg_utilization = agg_busy / denom;
  }
  rs.packets_delivered = net_.stats().packets_delivered.value();
  rs.avg_packet_latency = net_.stats().packet_latency.mean();
}

void Machine::dump_state(std::ostream& os) const {
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    os << "tile " << i << (tiles_[i]->idle() ? " [idle]" : " [BUSY]") << '\n';
    tiles_[i]->dump_state(os);
  }
  for (std::size_t i = 0; i < mems_.size(); ++i) {
    os << "mem " << i << (mems_[i]->idle() ? " [idle]" : " [BUSY]") << '\n';
    mems_[i]->dump_state(os);
  }
  net_.dump_state(os);
}

}  // namespace gnna::accel
