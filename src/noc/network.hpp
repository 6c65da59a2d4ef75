// Cycle-accurate 2D-mesh network (the Booksim substitute).
//
// MeshNetwork owns the routers, the inter-router links (modeled as delay
// lines), the endpoints, and the credit bookkeeping. Components interact
// only through send() / poll() on their EndpointId plus the global tick().
//
// Flow control: wormhole with credit-based backpressure between routers;
// endpoint injection is credited against the local input buffer; ejection
// is rate-limited to one flit per cycle per local port and reassembled
// messages land in an unbounded delivery queue (components model their own
// admission limits — e.g. the memory controller's 32-entry queue — on top).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/message.hpp"
#include "noc/router.hpp"
#include "trace/trace.hpp"

namespace gnna::noc {

/// Aggregate network statistics.
struct NocStats {
  Counter packets_sent;
  Counter packets_delivered;
  Counter flits_delivered;
  Counter flit_hops;
  Accumulator packet_latency;  // injection -> tail ejection, cycles
};

class MeshNetwork {
 public:
  MeshNetwork(std::uint32_t width, std::uint32_t height,
              NocParams params = {});

  /// Register an endpoint on the router at (x, y). Must precede finalize().
  EndpointId add_endpoint(std::uint32_t x, std::uint32_t y);

  /// Freeze topology and allocate routers. Called implicitly by the first
  /// send()/tick() if needed.
  void finalize();

  [[nodiscard]] std::uint32_t width() const { return width_; }
  [[nodiscard]] std::uint32_t height() const { return height_; }
  [[nodiscard]] std::size_t num_endpoints() const { return endpoints_.size(); }
  [[nodiscard]] Cycle now() const { return now_; }

  /// Inject a message (unbounded injection queue at the source endpoint;
  /// components that need backpressure check injection_queue_depth()).
  void send(Message msg);

  /// Retrieve the next fully-delivered message at `ep`, if any.
  [[nodiscard]] std::optional<Message> poll(EndpointId ep);

  /// Peek without consuming.
  [[nodiscard]] const Message* peek(EndpointId ep) const;

  [[nodiscard]] std::size_t delivery_queue_depth(EndpointId ep) const;
  [[nodiscard]] std::size_t injection_queue_depth(EndpointId ep) const;

  /// Advance one cycle.
  void tick();

  /// True when no flit is buffered, in flight, or awaiting injection and no
  /// message awaits delivery. Used by the runtime's global barriers.
  [[nodiscard]] bool idle() const;

  /// idle() with no credit awaiting return: until the next send(), tick()
  /// does nothing but advance now().
  [[nodiscard]] bool quiescent() const { return credits_.empty() && idle(); }

  /// Advance now() to `cycle` as that many tick()s would; requires
  /// quiescent().
  void skip_to(Cycle cycle);

  [[nodiscard]] const NocStats& stats() const { return stats_; }

  /// Attach an event tracer (packet send/deliver). Disabled by default.
  void set_tracer(trace::Tracer t) { tracer_ = t; }

  /// Stable pointer to the cycle counter, for stamping component tracers.
  [[nodiscard]] const Cycle* now_ptr() const { return &now_; }

  /// Packets injected but not yet fully ejected.
  [[nodiscard]] std::size_t inflight_packets() const {
    return inflight_.size();
  }

  /// Deadlock diagnostics: in-flight packets, endpoint queue depths, and
  /// router buffer occupancy (only non-empty state is printed).
  void dump_state(std::ostream& os) const;

  /// Manhattan router distance between two endpoints.
  [[nodiscard]] std::uint32_t hops_between(EndpointId a, EndpointId b) const;

  [[nodiscard]] const Router& router_at(std::uint32_t x,
                                        std::uint32_t y) const {
    return routers_.at(router_index(x, y));
  }

 private:
  struct EndpointState {
    std::uint32_t x = 0;
    std::uint32_t y = 0;
    std::uint32_t local_port = 0;  // absolute port index on the router
    std::deque<Flit> injection;    // segmented flits awaiting injection
    std::uint32_t injection_credits = 0;
    std::deque<Message> delivery;  // reassembled messages
    std::uint32_t assembling_flits = 0;  // flits of in-progress packet seen
  };

  struct LinkEntry {
    Cycle ready_at = 0;
    Flit flit;
    // Destination: either a router input port or an endpoint ejection.
    std::uint32_t dst_router = 0;
    std::uint32_t dst_port = 0;
    bool to_endpoint = false;
    EndpointId endpoint = kInvalidEndpoint;
  };

  // Where a flit leaving a router input returns its credit: the upstream
  // router's output port, or the injection credit of `endpoint` when the
  // input is a local port.
  struct CreditTarget {
    std::uint32_t router = 0;
    std::uint32_t port = 0;
    EndpointId endpoint = kInvalidEndpoint;
  };

  [[nodiscard]] std::uint32_t router_index(std::uint32_t x,
                                           std::uint32_t y) const {
    return y * width_ + x;
  }

  /// Router index of the mesh neighbor across direction `port` (N/S/E/W).
  [[nodiscard]] std::uint32_t neighbor(std::uint32_t ri,
                                       std::uint32_t port) const;

  /// Output port a flit at router (x, y) should take toward `dst`
  /// (dimension order per NocParams::routing, then the local port). Only
  /// finalize() calls it, to fill route_table_.
  [[nodiscard]] std::uint32_t route(const Router& r, EndpointId dst) const;

  void apply_credits();
  void phase_route();
  void phase_arrive();
  void phase_inject();

  std::uint32_t width_;
  std::uint32_t height_;
  NocParams params_;
  bool finalized_ = false;
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 1;

  std::vector<Router> routers_;
  std::vector<std::uint32_t> local_ports_per_router_;
  std::vector<EndpointState> endpoints_;
  // Built by finalize(): [router][dst endpoint] -> output port.
  std::vector<std::uint8_t> route_table_;
  // Built by finalize(): [port_base_[router] + input port] -> credit target.
  std::vector<std::uint32_t> port_base_;
  std::vector<CreditTarget> credit_target_;
  std::deque<LinkEntry> links_;  // in-flight flits (small, scanned)
  // Credits issued this cycle (credit_target_ indices); all of them become
  // usable at the start of the next tick.
  std::vector<std::uint32_t> credits_;
  std::unordered_map<std::uint64_t, Message> inflight_;
  NocStats stats_;
  trace::Tracer tracer_;
};

}  // namespace gnna::noc
