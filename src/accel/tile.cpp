#include "accel/tile.hpp"

#include <algorithm>
#include <cassert>

namespace gnna::accel {

Tile::Tile(const AcceleratorConfig& cfg, noc::MeshNetwork& net,
           EndpointId ep_gpe, EndpointId ep_agg, EndpointId ep_dnq,
           const AddressMap& addr_map)
    : cfg_(cfg),
      net_(net),
      ep_gpe_(ep_gpe),
      ep_agg_(ep_agg),
      ep_dnq_(ep_dnq),
      addr_map_(addr_map),
      scale_(cfg.noc_clock.ghz() / cfg.core_clock.ghz()),
      agg_(cfg.tile_params, net, ep_agg, addr_map, scale_),
      dnq_(cfg.tile_params),
      dna_(cfg.tile_params, net, ep_dnq, addr_map, scale_),
      gpe_(cfg.tile_params, net, ep_gpe, ep_agg, ep_dnq, addr_map, scale_) {}

void Tile::begin_phase(const CompiledProgram& prog, const graph::Dataset& ds,
                       const PhaseSpec& phase,
                       std::vector<std::uint32_t> work) {
  assert(idle() && "begin_phase on a busy tile");

  const TileParams& tp = cfg_.tile_params;
  const std::uint32_t q0 = Dnq::phase_queue0_bytes(tp, phase);
  dnq_.configure(q0, tp.dnq_data_bytes - q0);

  // DNA model timings from the NN-Dataflow-like mapper.
  std::vector<DnaModelTiming> models;
  const dataflow::Mapper mapper(tp.dna);
  // A model is a chain of matmuls; its initiation interval is the sum of
  // the best-mapping compute time of each stage.
  auto make_model = [&](const std::vector<dataflow::MatmulShape>& shapes,
                        std::uint32_t out_words) {
    DnaModelTiming m;
    m.out_words = out_words;
    for (const auto& s : shapes) {
      m.ii_core_cycles += static_cast<double>(
          mapper.map(s, std::nullopt, cfg_.core_clock).compute_cycles);
      m.macs_per_entry += s.total_macs();
    }
    return m;
  };
  if (phase.has_dna()) {
    models.push_back(make_model(phase.dna_shapes, phase.dna_out_words));
  }
  if (phase.has_dna2()) {
    assert(phase.has_dna() && "queue-1 model requires a queue-0 model");
    models.push_back(make_model(phase.dna2_shapes, phase.dna2_out_words));
  }
  dna_.configure(std::move(models), phase.weight_bytes);

  // Stream this tile's copy of the weights into the DNA, tagged so the
  // dispatcher can tell weight fills apart from DNQ entry fills.
  if (phase.weight_bytes > 0) {
    const Addr base = prog.memmap.region(phase.weight_region).base;
    addr_map_.for_each_segment(
        base, phase.weight_bytes,
        [&](EndpointId mem_ep, Addr a, std::uint64_t bytes) {
          noc::Message m;
          m.src = ep_dnq_;
          m.dst = mem_ep;
          m.kind = noc::MsgKind::kMemReadReq;
          m.payload_bytes = 0;
          m.a = a;
          m.b = bytes;
          m.c = kWeightTag;
          net_.send(m);
        });
  }

  gpe_.begin_phase(prog, ds, phase, std::move(work));
}

void Tile::set_tracing(trace::TraceSink* sink, std::uint32_t index) {
  const std::uint64_t* clock = net_.now_ptr();
  gpe_.set_tracer({sink, clock, trace::Category::kGpe, index});
  dnq_.set_tracer({sink, clock, trace::Category::kDnq, index});
  dna_.set_tracer({sink, clock, trace::Category::kDna, index});
  agg_.set_tracer({sink, clock, trace::Category::kAgg, index});
}

void Tile::dump_state(std::ostream& os) const {
  os << "  tile units: gpe " << (gpe_.idle() ? "idle" : "BUSY") << ", agg "
     << (agg_.idle() ? "idle" : "BUSY") << ", dnq "
     << (dnq_.empty() ? "empty" : "OCCUPIED") << ", dna "
     << (dna_.idle() ? "idle" : "BUSY") << '\n';
  gpe_.dump_state(os);
  dnq_.dump_state(os);
  dna_.dump_state(os);
  agg_.dump_state(os);
}

bool Tile::local(const noc::Message& msg) const {
  if (msg.kind == noc::MsgKind::kMemReadResp) {
    return addr_map_.is_memory(msg.src);
  }
  return msg.src == ep_gpe_ || msg.src == ep_agg_ || msg.src == ep_dnq_;
}

void Tile::tick() {
  // Everything a tile receives was sent by its own units or answers its
  // own memory requests (DESIGN.md §16). Without a message in flight a
  // tile therefore evolves on its own, which advance() relies on.
  while (auto msg = net_.poll(ep_gpe_)) {
    assert(local(*msg) && "message from another tile");
    gpe_.on_response(*msg);
  }
  while (auto msg = net_.poll(ep_agg_)) {
    assert(local(*msg) && "message from another tile");
    agg_.on_message(*msg);
  }
  // Dispatch DNQ/DNA endpoint traffic (weight fills vs entry fills).
  while (auto msg = net_.poll(ep_dnq_)) {
    assert(local(*msg) && "message from another tile");
    if (msg->kind == noc::MsgKind::kMemReadResp &&
        (msg->c & kWeightTag) != 0) {
      dna_.on_weight_data(msg->b);
    } else {
      dnq_.on_message(*msg);
    }
  }
  agg_.tick();
  dna_.tick(dnq_);
  gpe_.tick(agg_, dnq_);
}

Cycle Tile::next_event(Cycle now) const {
  return std::min({agg_.next_event(now), dna_.next_event(now, dnq_),
                   gpe_.next_event(now)});
}

Cycle Tile::advance(Cycle now, Cycle horizon) {
  // The AGG and DNA tick before the GPE, so a retry in the cycle of their
  // next event could already see the space they free.
  const Cycle units =
      std::min(agg_.next_event(now), dna_.next_event(now, dnq_));
  return std::min(
      units, gpe_.replay_retries(now, std::min(horizon, units), agg_, dnq_));
}

}  // namespace gnna::accel
