// Address-space interleaving across memory nodes, and the Dest descriptor
// that tells a producing unit (AGG / DNA) where its result goes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "noc/message.hpp"

namespace gnna::accel {

/// Maps physical addresses onto memory-node endpoints: page `interleave`
/// bytes wide, round-robin across controllers. Wide vertex-feature reads
/// stay within one page (one request to one controller) while successive
/// vertices spread across controllers.
class AddressMap {
 public:
  AddressMap(std::vector<EndpointId> mem_endpoints, std::uint64_t interleave)
      : mem_eps_(std::move(mem_endpoints)), interleave_(interleave) {}

  [[nodiscard]] EndpointId endpoint_for(Addr addr) const {
    return mem_eps_[(addr / interleave_) % mem_eps_.size()];
  }

  /// Split [addr, addr+bytes) at interleave boundaries and invoke
  /// fn(endpoint, addr, bytes) for each contiguous single-controller chunk.
  template <typename Fn>
  void for_each_segment(Addr addr, std::uint64_t bytes, Fn&& fn) const {
    while (bytes > 0) {
      const Addr page_end = (addr / interleave_ + 1) * interleave_;
      const std::uint64_t chunk =
          std::min<std::uint64_t>(bytes, page_end - addr);
      fn(endpoint_for(addr), addr, chunk);
      addr += chunk;
      bytes -= chunk;
    }
  }

  [[nodiscard]] std::size_t num_controllers() const { return mem_eps_.size(); }

  [[nodiscard]] bool is_memory(EndpointId ep) const {
    return std::find(mem_eps_.begin(), mem_eps_.end(), ep) != mem_eps_.end();
  }

 private:
  std::vector<EndpointId> mem_eps_;
  std::uint64_t interleave_;
};

/// Where a unit's result should be sent once complete. Configured at
/// allocation time (the paper's destination scratchpads).
struct Dest {
  enum class Kind : std::uint8_t {
    kNone,
    kMemWrite,  // write `bytes` at `addr`
    kDnqEntry,  // fill DNQ entry `handle` (same tile or remote)
    kAggEntry,  // contribute to AGG entry `handle`
  };
  Kind kind = Kind::kNone;
  EndpointId ep = kInvalidEndpoint;  // target NoC endpoint (DNQ/AGG dests)
  std::uint64_t handle = 0;          // DNQ/AGG entry handle
  Addr addr = 0;                     // memory destination
};

/// Tag marking DNA weight-fill responses on the DNQ/DNA endpoint.
inline constexpr std::uint64_t kWeightTag = std::uint64_t{1} << 63;

}  // namespace gnna::accel
