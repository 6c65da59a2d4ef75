#include "noc/network.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <stdexcept>

namespace gnna::noc {
namespace {

/// Opposite mesh direction (for credit returns across a link).
[[nodiscard]] std::uint32_t opposite(std::uint32_t port) {
  switch (port) {
    case kPortNorth:
      return kPortSouth;
    case kPortSouth:
      return kPortNorth;
    case kPortEast:
      return kPortWest;
    case kPortWest:
      return kPortEast;
    default:
      return port;
  }
}

/// Static names for send-side instant events (tracer names are not copied).
[[nodiscard]] constexpr const char* send_event_name(MsgKind k) {
  switch (k) {
    case MsgKind::kGeneric: return "send:generic";
    case MsgKind::kMemReadReq: return "send:mem_read_req";
    case MsgKind::kMemReadResp: return "send:mem_read_resp";
    case MsgKind::kMemWriteReq: return "send:mem_write_req";
    case MsgKind::kDnqWrite: return "send:dnq_write";
    case MsgKind::kDnaResult: return "send:dna_result";
    case MsgKind::kAggWrite: return "send:agg_write";
    case MsgKind::kAggResult: return "send:agg_result";
    case MsgKind::kControl: return "send:control";
  }
  return "send:?";
}

}  // namespace

Router::Router(std::uint32_t x, std::uint32_t y, std::uint32_t num_local_ports,
               const NocParams& params)
    : x_(x),
      y_(y),
      num_local_(num_local_ports),
      capacity_(params.input_buffer_flits),
      slots_(static_cast<std::size_t>(num_ports()) * capacity_),
      inputs_(num_ports()),
      outputs_(num_ports()) {}

MeshNetwork::MeshNetwork(std::uint32_t width, std::uint32_t height,
                         NocParams params)
    : width_(width), height_(height), params_(params) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("MeshNetwork: empty mesh");
  }
  if (params.input_buffer_flits == 0) {
    // No flit could ever be injected, so idle() would never return true.
    throw std::invalid_argument("MeshNetwork: zero-flit input buffers");
  }
  local_ports_per_router_.assign(
      static_cast<std::size_t>(width) * height, 0);
}

EndpointId MeshNetwork::add_endpoint(std::uint32_t x, std::uint32_t y) {
  if (finalized_) {
    throw std::logic_error("MeshNetwork: add_endpoint after finalize");
  }
  if (x >= width_ || y >= height_) {
    throw std::out_of_range("MeshNetwork: endpoint off the mesh");
  }
  std::uint32_t& locals = local_ports_per_router_[router_index(x, y)];
  if (kFirstLocalPort + locals == kMaxRouterPorts) {
    throw std::length_error("MeshNetwork: too many endpoints on one router");
  }
  EndpointState ep;
  ep.x = x;
  ep.y = y;
  ep.local_port = kFirstLocalPort + locals++;
  endpoints_.push_back(ep);
  return static_cast<EndpointId>(endpoints_.size() - 1);
}

void MeshNetwork::finalize() {
  if (finalized_) return;
  finalized_ = true;
  routers_.reserve(local_ports_per_router_.size());
  for (std::uint32_t y = 0; y < height_; ++y) {
    for (std::uint32_t x = 0; x < width_; ++x) {
      routers_.emplace_back(x, y, local_ports_per_router_[router_index(x, y)],
                            params_);
    }
  }
  // Mesh link credits: each output that has a neighbor starts with the
  // neighbor's full input buffer, and a flit leaving an input returns its
  // credit to that neighbor's opposite output. A local input returns it to
  // the endpoint injecting there.
  port_base_.reserve(routers_.size());
  for (std::uint32_t ri = 0; ri < routers_.size(); ++ri) {
    Router& r = routers_[ri];
    port_base_.push_back(static_cast<std::uint32_t>(credit_target_.size()));
    credit_target_.resize(credit_target_.size() + r.num_ports());
    const bool linked[] = {r.y() + 1 < height_, r.y() > 0,
                           r.x() + 1 < width_, r.x() > 0};
    for (std::uint32_t p = 0; p < kFirstLocalPort; ++p) {
      if (!linked[p]) continue;
      r.outputs_[p].credits = params_.input_buffer_flits;
      credit_target_[port_base_[ri] + p] = {neighbor(ri, p), opposite(p)};
    }
  }
  for (EndpointId e = 0; e < endpoints_.size(); ++e) {
    EndpointState& ep = endpoints_[e];
    ep.injection_credits = params_.input_buffer_flits;
    credit_target_[port_base_[router_index(ep.x, ep.y)] + ep.local_port]
        .endpoint = e;
  }
  // Route table: the cycle loop looks up one byte per head-of-line flit.
  route_table_.resize(routers_.size() * endpoints_.size());
  std::size_t entry = 0;
  for (const Router& r : routers_) {
    for (EndpointId dst = 0; dst < endpoints_.size(); ++dst) {
      route_table_[entry++] = static_cast<std::uint8_t>(route(r, dst));
    }
  }
}

void MeshNetwork::send(Message msg) {
  finalize();
  if (msg.src >= endpoints_.size() || msg.dst >= endpoints_.size()) {
    throw std::out_of_range("MeshNetwork::send: bad endpoint");
  }
  msg.seq = next_seq_++;
  msg.injected_at = now_;
  const std::uint32_t flits = msg.flit_count();
  EndpointState& src = endpoints_[msg.src];
  for (std::uint32_t i = 0; i < flits; ++i) {
    Flit f;
    f.seq = msg.seq;
    f.dst = msg.dst;
    f.index = i;
    f.head = (i == 0);
    f.tail = (i == flits - 1);
    src.injection.push_back(f);
  }
  inflight_.emplace(msg.seq, msg);
  stats_.packets_sent.add();
  if (tracer_.enabled()) {
    tracer_.instant(send_event_name(msg.kind),
                    (std::uint64_t{msg.src} << 32) | msg.dst,
                    msg.payload_bytes);
  }
}

std::optional<Message> MeshNetwork::poll(EndpointId ep) {
  EndpointState& e = endpoints_.at(ep);
  if (e.delivery.empty()) return std::nullopt;
  Message m = e.delivery.front();
  e.delivery.pop_front();
  return m;
}

const Message* MeshNetwork::peek(EndpointId ep) const {
  const EndpointState& e = endpoints_.at(ep);
  return e.delivery.empty() ? nullptr : &e.delivery.front();
}

std::size_t MeshNetwork::delivery_queue_depth(EndpointId ep) const {
  return endpoints_.at(ep).delivery.size();
}

std::size_t MeshNetwork::injection_queue_depth(EndpointId ep) const {
  return endpoints_.at(ep).injection.size();
}

std::uint32_t MeshNetwork::neighbor(std::uint32_t ri,
                                    std::uint32_t port) const {
  switch (port) {
    case kPortNorth:
      return ri + width_;
    case kPortSouth:
      return ri - width_;
    case kPortEast:
      return ri + 1;
    default:
      return ri - 1;
  }
}

std::uint32_t MeshNetwork::route(const Router& r, EndpointId dst) const {
  const EndpointState& d = endpoints_[dst];
  if (params_.routing == RoutingAlgorithm::kYX) {
    if (d.y > r.y()) return kPortNorth;
    if (d.y < r.y()) return kPortSouth;
    if (d.x > r.x()) return kPortEast;
    if (d.x < r.x()) return kPortWest;
    return d.local_port;
  }
  if (d.x > r.x()) return kPortEast;
  if (d.x < r.x()) return kPortWest;
  if (d.y > r.y()) return kPortNorth;
  if (d.y < r.y()) return kPortSouth;
  return d.local_port;
}

void MeshNetwork::apply_credits() {
  // Every credit is issued one cycle before it may be used, so all of
  // last tick's credits mature now.
  for (const std::uint32_t c : credits_) {
    const CreditTarget& t = credit_target_[c];
    if (t.endpoint != kInvalidEndpoint) {
      ++endpoints_[t.endpoint].injection_credits;
    } else {
      ++routers_[t.router].outputs_[t.port].credits;
    }
  }
  credits_.clear();
}

void MeshNetwork::phase_route() {
  const std::size_t num_eps = endpoints_.size();
  for (std::uint32_t ri = 0; ri < routers_.size(); ++ri) {
    Router& r = routers_[ri];
    if (r.buffered_flits_ == 0) continue;  // nothing to arbitrate
    const std::uint32_t ports = r.num_ports();
    const std::uint8_t* routes = &route_table_[ri * num_eps];

    // Head-of-line requests, one per non-empty input. An input asks for
    // exactly one output, so it wins at most one per cycle: each input
    // port drives one crossbar connection.
    std::array<std::uint32_t, kMaxRouterPorts> requesters{};  // per output
    std::uint32_t requested = 0;  // outputs with at least one request
    std::uint32_t heads = 0;      // inputs whose front flit is a head
    for (std::uint32_t i = 0; i < ports; ++i) {
      if (r.inputs_[i].count == 0) continue;
      const Flit& f = r.front(i);
      const std::uint32_t o = routes[f.dst];
      requested |= 1U << o;
      requesters[o] |= 1U << i;
      if (f.head) heads |= 1U << i;
    }

    // Outputs in ascending order, which fixes the push order of links_.
    for (; requested != 0; requested &= requested - 1) {
      const auto o = static_cast<std::uint32_t>(std::countr_zero(requested));
      Router::OutputState& out = r.outputs_[o];
      std::uint32_t wi = 0;
      if (out.locked_input >= 0) {
        wi = static_cast<std::uint32_t>(out.locked_input);
        if (((requesters[o] >> wi) & 1) == 0) continue;
      } else {
        // Round robin from rr_next; body flits only follow a lock.
        const std::uint32_t candidates = requesters[o] & heads;
        if (candidates == 0) continue;
        const std::uint32_t from_next = candidates & (~0U << out.rr_next);
        wi = static_cast<std::uint32_t>(
            std::countr_zero(from_next != 0 ? from_next : candidates));
      }
      const Flit f = r.front(wi);

      const bool is_mesh_out = o < kFirstLocalPort;
      if (is_mesh_out) {
        if (out.credits == 0) continue;  // stall: keep lock and rr_next
        --out.credits;
      }

      // Commit the move. The round-robin pointer advances only here — a
      // grant that stalled on credits keeps its priority next cycle
      // instead of silently rotating past a starved input.
      r.pop(wi);
      if (out.locked_input < 0) out.rr_next = (wi + 1) % ports;
      if (f.head) out.locked_input = static_cast<int>(wi);
      if (f.tail) out.locked_input = -1;
      credits_.push_back(port_base_[ri] + wi);

      LinkEntry le;
      le.ready_at = now_ + params_.link_delay;
      le.flit = f;
      if (is_mesh_out) {
        le.dst_router = neighbor(ri, o);
        le.dst_port = opposite(o);
        stats_.flit_hops.add();
      } else {
        le.to_endpoint = true;
        le.endpoint = f.dst;
      }
      links_.push_back(le);
    }
  }
}

void MeshNetwork::phase_arrive() {
  // links_ is sorted by ready_at because link_delay is constant.
  std::size_t n = links_.size();
  while (n-- > 0 && !links_.empty() && links_.front().ready_at <= now_) {
    const LinkEntry le = links_.front();
    links_.pop_front();
    if (le.to_endpoint) {
      EndpointState& ep = endpoints_[le.endpoint];
      ++ep.assembling_flits;
      stats_.flits_delivered.add();
      if (le.flit.tail) {
        auto it = inflight_.find(le.flit.seq);
        assert(it != inflight_.end());
        Message m = it->second;
        inflight_.erase(it);
        m.delivered_at = now_;
        assert(ep.assembling_flits == m.flit_count());
        ep.assembling_flits = 0;
        stats_.packets_delivered.add();
        stats_.packet_latency.add(
            static_cast<double>(m.delivered_at - m.injected_at));
        if (tracer_.enabled()) {
          // One duration event spanning the packet's time in the network.
          tracer_.complete(msg_kind_name(m.kind),
                           static_cast<double>(m.injected_at),
                           static_cast<double>(m.delivered_at - m.injected_at),
                           (std::uint64_t{m.src} << 32) | m.dst,
                           m.payload_bytes);
          // Attribution hook: flits, hop distance, and the owning work
          // item of the delivered packet.
          tracer_.packet(m.src, m.dst, m.owner, m.flit_count(),
                         hops_between(m.src, m.dst), m.payload_bytes);
        }
        ep.delivery.push_back(m);
      }
    } else {
      Router& dr = routers_[le.dst_router];
      assert(dr.can_accept(le.dst_port) && "credit protocol violated");
      dr.accept(le.dst_port, le.flit);
    }
  }
}

void MeshNetwork::phase_inject() {
  for (EndpointId e = 0; e < endpoints_.size(); ++e) {
    EndpointState& ep = endpoints_[e];
    if (ep.injection.empty() || ep.injection_credits == 0) continue;
    const Flit f = ep.injection.front();
    ep.injection.pop_front();
    --ep.injection_credits;
    LinkEntry le;
    le.ready_at = now_ + params_.link_delay;
    le.flit = f;
    le.dst_router = router_index(ep.x, ep.y);
    le.dst_port = ep.local_port;
    links_.push_back(le);
  }
}

void MeshNetwork::tick() {
  finalize();
  apply_credits();
  phase_route();
  phase_arrive();
  phase_inject();
  ++now_;
}

void MeshNetwork::skip_to(Cycle cycle) {
  assert(quiescent() && cycle >= now_);
  now_ = cycle;
}

bool MeshNetwork::idle() const {
  // inflight_ holds every packet from send() until tail ejection, so an
  // empty map already implies empty router buffers and injection queues;
  // delivery queues hold packets the components have not consumed yet.
  if (!links_.empty() || !inflight_.empty()) return false;
  for (const auto& ep : endpoints_) {
    if (!ep.delivery.empty()) return false;
  }
  return true;
}

void MeshNetwork::dump_state(std::ostream& os) const {
  os << "  noc: cycle=" << now_ << " inflight_packets=" << inflight_.size()
     << " links_in_flight=" << links_.size()
     << " pending_credits=" << credits_.size() << '\n';
  std::size_t shown = 0;
  for (const auto& [seq, m] : inflight_) {
    if (shown == 16) {
      os << "    ... " << inflight_.size() - shown << " more in-flight\n";
      break;
    }
    ++shown;
    os << "    packet seq=" << seq << ' ' << msg_kind_name(m.kind)
       << " src=" << m.src << " dst=" << m.dst << " flits=" << m.flit_count()
       << " injected_at=" << m.injected_at
       << " age=" << now_ - m.injected_at << '\n';
  }
  for (EndpointId e = 0; e < endpoints_.size(); ++e) {
    const EndpointState& ep = endpoints_[e];
    if (ep.injection.empty() && ep.delivery.empty() &&
        ep.assembling_flits == 0) {
      continue;
    }
    os << "    endpoint " << e << " @(" << ep.x << ',' << ep.y
       << "): injection_flits=" << ep.injection.size()
       << " injection_credits=" << ep.injection_credits
       << " undelivered_msgs=" << ep.delivery.size()
       << " assembling_flits=" << ep.assembling_flits << '\n';
  }
  // Per-port buffer occupancy for congested routers. Each input port has a
  // single buffer (one virtual channel per port — VCs are unnecessary for
  // deadlock freedom under dimension-order routing); "N=4/4" therefore
  // reads as "the north input VC is full". Output state names the blocked
  // resource: a wormhole lock (`locked=<input port>`) holds the output for
  // an in-flight packet, and credits=0 means the downstream buffer is full.
  const auto port_name = [](std::uint32_t p) -> std::string {
    switch (p) {
      case kPortNorth: return "N";
      case kPortSouth: return "S";
      case kPortEast: return "E";
      case kPortWest: return "W";
      default: return "L" + std::to_string(p - kFirstLocalPort);
    }
  };
  for (const Router& r : routers_) {
    if (r.buffered_flits() == 0) continue;
    os << "    router (" << r.x() << ',' << r.y() << "): buffered_flits="
       << r.buffered_flits() << " in=[";
    for (std::uint32_t p = 0; p < r.num_ports(); ++p) {
      os << (p == 0 ? "" : " ") << port_name(p) << '='
         << r.buffer_occupancy(p) << '/' << params_.input_buffer_flits;
    }
    os << "]\n";
    for (std::uint32_t p = 0; p < r.num_ports(); ++p) {
      const Router::OutputState& out = r.outputs_[p];
      const bool credit_starved = p < kFirstLocalPort && out.credits == 0;
      if (out.locked_input < 0 && !credit_starved) continue;
      os << "      out " << port_name(p) << ": ";
      if (out.locked_input >= 0) {
        os << "locked=" << port_name(static_cast<std::uint32_t>(
                               out.locked_input));
      } else {
        os << "unlocked";
      }
      if (p < kFirstLocalPort) {
        os << " credits=" << out.credits
           << (credit_starved ? " (downstream full)" : "");
      }
      os << '\n';
    }
  }
}

std::uint32_t MeshNetwork::hops_between(EndpointId a, EndpointId b) const {
  const EndpointState& ea = endpoints_.at(a);
  const EndpointState& eb = endpoints_.at(b);
  const auto dx = ea.x > eb.x ? ea.x - eb.x : eb.x - ea.x;
  const auto dy = ea.y > eb.y ? ea.y - eb.y : eb.y - ea.y;
  return dx + dy;
}

}  // namespace gnna::noc
