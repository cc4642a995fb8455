#pragma once

/// \file free_node_index.hpp
/// Placement index: the best node with a free foreign-job slot, in O(1).
///
/// ClusterSim places a job on the eligible node that is first in the order
/// (used slots asc, owner utilization asc, index asc), where a node is
/// eligible when it is up, has a free slot (used < slots per node) and its
/// idle flag matches the query. The order is total, so the answer is
/// unique and any structure that finds the minimum reproduces a linear
/// scan's choice exactly.
///
/// The index keeps two tournament trees (winner trees) over the node
/// array, one for idle nodes and one for non-idle nodes. A leaf holds its
/// node when the node is eligible for that tree, and every inner cell holds
/// the better of its two children, so the root is the answer.
///
/// The index reads the node fields through spans over the simulator's SoA
/// arrays, so it stores no copy of them. Changes are reported, not pushed:
///  * update(i) after node i's fields change: O(1), queued;
///  * invalidate() after a change to (nearly) every node, as a window tick
///    makes: O(1), and the next query rebuilds both trees in O(N);
///  * best() first applies the queued updates, each an O(log N) walk to the
///    root (or one O(N) rebuild when that is cheaper), then reads the root.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace ll::cluster {

class FreeNodeIndex {
 public:
  /// The node fields the placement order reads, one entry per node.
  struct Fields {
    std::span<const std::uint8_t> idle;  ///< recruitment-rule idle flag
    std::span<const std::uint8_t> down;  ///< crashed and not yet recovered
    std::span<const std::uint32_t> used;  ///< occupants + reserved slots
    std::span<const double> util;         ///< owner CPU (never NaN)
  };

  /// An index over no nodes: every query returns nullopt.
  FreeNodeIndex() = default;
  /// All four spans must have the same length and stay valid (and
  /// unresized) while the index is used. `slots_per_node` > 0.
  FreeNodeIndex(Fields fields, std::size_t slots_per_node);

  /// Node i's fields changed.
  void update(std::size_t i) {
    if (dirty_ || is_queued_[i] != 0) return;
    is_queued_[i] = 1;
    queued_.push_back(static_cast<std::uint32_t>(i));
  }

  /// Every node's fields may have changed.
  void invalidate() { dirty_ = true; }

  /// Best eligible node among the idle (`want_idle`) or non-idle nodes, or
  /// nullopt when none has a free slot.
  [[nodiscard]] std::optional<std::size_t> best(bool want_idle);

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  [[nodiscard]] std::uint32_t leaf(std::size_t i, std::uint8_t want_idle) const;
  [[nodiscard]] std::uint32_t better(std::uint32_t a, std::uint32_t b) const;
  void rebuild();
  void settle();

  Fields fields_;
  std::size_t slots_ = 1;
  std::size_t leaves_ = 1;  // power of two >= node count
  std::size_t depth_ = 0;   // log2(leaves_)
  // Winner trees, heap-indexed from 1; leaves at [leaves_, 2 * leaves_).
  std::vector<std::uint32_t> idle_tree_ = std::vector<std::uint32_t>(2, kNone);
  std::vector<std::uint32_t> busy_tree_ = std::vector<std::uint32_t>(2, kNone);
  std::vector<std::uint32_t> queued_;     // nodes updated since the last query
  std::vector<std::uint8_t> is_queued_;  // membership flags for queued_
  bool dirty_ = true;
};

}  // namespace ll::cluster
