// Vertex -> tile assignment for multi-tile accelerator configurations.
//
// The paper shares the work queues across all GPEs; how vertices land on
// tiles determines NoC traffic locality. We provide the round-robin policy
// used by the evaluation plus alternatives exercised by the ablation
// benches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace gnna::graph {

enum class PartitionPolicy : std::uint8_t {
  kRoundRobin,    // vertex v -> tile v % T
  kBlock,         // contiguous ranges of ~N/T vertices
  kDegreeGreedy,  // heaviest-degree-first onto the lightest tile
  kProfileGuided  // rebalance from a prior run's measured per-vertex load
};

/// The one spelling of each policy, as manifests, CLI flags and --fix
/// snippets write it.
inline constexpr std::pair<PartitionPolicy, std::string_view>
    kPartitionNames[] = {
        {PartitionPolicy::kRoundRobin, "round-robin"},
        {PartitionPolicy::kBlock, "block"},
        {PartitionPolicy::kDegreeGreedy, "degree-greedy"},
        {PartitionPolicy::kProfileGuided, "profile-guided"},
};

[[nodiscard]] constexpr std::string_view partition_name(PartitionPolicy p) {
  for (const auto& [policy, name] : kPartitionNames) {
    if (policy == p) return name;
  }
  return "?";
}

[[nodiscard]] constexpr std::optional<PartitionPolicy> partition_by_name(
    std::string_view name) {
  for (const auto& [policy, n] : kPartitionNames) {
    if (n == name) return policy;
  }
  return std::nullopt;
}

/// Assignment of every vertex to a tile.
class Partition {
 public:
  Partition(std::vector<TileId> owner, TileId num_tiles)
      : owner_(std::move(owner)), num_tiles_(num_tiles) {}

  [[nodiscard]] TileId owner(NodeId v) const { return owner_.at(v); }
  [[nodiscard]] TileId num_tiles() const { return num_tiles_; }
  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(owner_.size());
  }

  /// Vertices owned by each tile, in ascending order.
  [[nodiscard]] std::vector<std::vector<NodeId>> by_tile() const {
    std::vector<std::vector<NodeId>> out(num_tiles_);
    for (NodeId v = 0; v < owner_.size(); ++v) out[owner_[v]].push_back(v);
    return out;
  }

 private:
  std::vector<TileId> owner_;
  TileId num_tiles_;
};

/// Partition `g`'s vertices over `num_tiles` tiles.
[[nodiscard]] inline Partition make_partition(const Graph& g, TileId num_tiles,
                                              PartitionPolicy policy) {
  if (num_tiles == 0) throw std::invalid_argument("num_tiles must be >= 1");
  const NodeId n = g.num_nodes();
  std::vector<TileId> owner(n, 0);
  switch (policy) {
    case PartitionPolicy::kRoundRobin:
      for (NodeId v = 0; v < n; ++v) {
        owner[v] = static_cast<TileId>(v % num_tiles);
      }
      break;
    case PartitionPolicy::kBlock: {
      const NodeId per = (n + num_tiles - 1) / num_tiles;
      for (NodeId v = 0; v < n; ++v) {
        owner[v] = static_cast<TileId>(per == 0 ? 0 : v / per);
      }
      break;
    }
    case PartitionPolicy::kDegreeGreedy: {
      std::vector<NodeId> order(n);
      std::iota(order.begin(), order.end(), NodeId{0});
      // Deterministic ordering: equal degrees break ties by lowest vertex
      // id, and std::min_element's first-minimum scan gives equal loads to
      // the lowest tile id. The assignment is therefore a pure function of
      // the degree sequence — identical across platforms and libstdc++
      // sort implementations.
      std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        const auto da = g.out_degree(a);
        const auto db = g.out_degree(b);
        return da != db ? da > db : a < b;
      });
      std::vector<std::uint64_t> load(num_tiles, 0);
      for (const NodeId v : order) {
        const auto lightest = static_cast<TileId>(std::distance(
            load.begin(), std::min_element(load.begin(), load.end())));
        owner[v] = lightest;
        load[lightest] += g.out_degree(v) + 1;
      }
      break;
    }
    case PartitionPolicy::kProfileGuided:
      // Needs measured per-vertex loads — use make_profile_partition().
      // Without a profile there is nothing to guide; fall back to the
      // round-robin baseline the profiling pass itself uses.
      for (NodeId v = 0; v < n; ++v) {
        owner[v] = static_cast<TileId>(v % num_tiles);
      }
      break;
  }
  return {std::move(owner), num_tiles};
}

/// Profile-guided partition: `loads[v]` is vertex v's measured cost from a
/// prior run's attribution block (e.g. GPE busy cycles). Heaviest vertex
/// first onto the currently-lightest tile (LPT greedy), ties broken
/// deterministically (equal loads: lowest vertex id first; equal tile
/// loads: lowest tile id). Vertices missing from the profile (loads
/// shorter than `n`, or zero entries — e.g. nodes added since the
/// profiling run, or vertices evicted from the bounded top-K table) fall
/// back to round-robin over the tiles so they stay evenly spread.
[[nodiscard]] inline Partition make_profile_partition(
    NodeId n, TileId num_tiles, const std::vector<double>& loads) {
  if (num_tiles == 0) throw std::invalid_argument("num_tiles must be >= 1");
  std::vector<TileId> owner(n, 0);
  std::vector<NodeId> profiled;
  profiled.reserve(std::min<std::size_t>(n, loads.size()));
  for (NodeId v = 0; v < n; ++v) {
    if (v < loads.size() && loads[v] > 0.0) profiled.push_back(v);
  }
  std::sort(profiled.begin(), profiled.end(), [&](NodeId a, NodeId b) {
    return loads[a] != loads[b] ? loads[a] > loads[b] : a < b;
  });
  std::vector<double> load(num_tiles, 0.0);
  for (const NodeId v : profiled) {
    const auto lightest = static_cast<TileId>(std::distance(
        load.begin(), std::min_element(load.begin(), load.end())));
    owner[v] = lightest;
    load[lightest] += loads[v];
  }
  NodeId next = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (v < loads.size() && loads[v] > 0.0) continue;
    owner[v] = static_cast<TileId>(next % num_tiles);
    ++next;
  }
  return {std::move(owner), num_tiles};
}

}  // namespace gnna::graph
