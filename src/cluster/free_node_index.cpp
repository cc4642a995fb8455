#include "cluster/free_node_index.hpp"

#include <stdexcept>

namespace ll::cluster {

FreeNodeIndex::FreeNodeIndex(Fields fields, std::size_t slots_per_node)
    : fields_(fields), slots_(slots_per_node) {
  const std::size_t n = fields_.idle.size();
  if (fields_.down.size() != n || fields_.used.size() != n ||
      fields_.util.size() != n) {
    throw std::invalid_argument("FreeNodeIndex: field spans differ in length");
  }
  if (n >= kNone) {
    throw std::invalid_argument("FreeNodeIndex: too many nodes");
  }
  if (slots_per_node == 0) {
    throw std::invalid_argument("FreeNodeIndex: slots_per_node must be > 0");
  }
  while (leaves_ < n) {
    leaves_ *= 2;
    ++depth_;
  }
  idle_tree_.assign(2 * leaves_, kNone);
  busy_tree_.assign(2 * leaves_, kNone);
  is_queued_.assign(n, 0);
}

std::uint32_t FreeNodeIndex::leaf(std::size_t i, std::uint8_t want_idle) const {
  const bool eligible = fields_.down[i] == 0 && fields_.idle[i] == want_idle &&
                        fields_.used[i] < slots_;
  return eligible ? static_cast<std::uint32_t>(i) : kNone;
}

std::uint32_t FreeNodeIndex::better(std::uint32_t a, std::uint32_t b) const {
  if (a == kNone) return b;
  if (b == kNone) return a;
  if (fields_.used[a] != fields_.used[b]) {
    return fields_.used[a] < fields_.used[b] ? a : b;
  }
  const double ua = fields_.util[a];
  const double ub = fields_.util[b];
  if (ua < ub) return a;
  if (ub < ua) return b;
  return a < b ? a : b;
}

void FreeNodeIndex::rebuild() {
  const std::size_t n = fields_.idle.size();
  for (std::size_t i = 0; i < n; ++i) {
    idle_tree_[leaves_ + i] = leaf(i, 1);
    busy_tree_[leaves_ + i] = leaf(i, 0);
  }
  for (std::size_t k = leaves_; k-- > 1;) {
    idle_tree_[k] = better(idle_tree_[2 * k], idle_tree_[2 * k + 1]);
    busy_tree_[k] = better(busy_tree_[2 * k], busy_tree_[2 * k + 1]);
  }
}

void FreeNodeIndex::settle() {
  // One walk per queued node costs depth_ steps per tree; past leaves_ /
  // depth_ of them a full rebuild is no dearer.
  if (dirty_ || queued_.size() * depth_ >= leaves_) {
    rebuild();
  } else {
    for (const std::uint32_t i : queued_) {
      std::size_t k = leaves_ + i;
      idle_tree_[k] = leaf(i, 1);
      busy_tree_[k] = leaf(i, 0);
      for (k /= 2; k >= 1; k /= 2) {
        idle_tree_[k] = better(idle_tree_[2 * k], idle_tree_[2 * k + 1]);
        busy_tree_[k] = better(busy_tree_[2 * k], busy_tree_[2 * k + 1]);
      }
    }
  }
  for (const std::uint32_t i : queued_) is_queued_[i] = 0;
  queued_.clear();
  dirty_ = false;
}

std::optional<std::size_t> FreeNodeIndex::best(bool want_idle) {
  if (dirty_ || !queued_.empty()) settle();
  const std::uint32_t winner = (want_idle ? idle_tree_ : busy_tree_)[1];
  if (winner == kNone) return std::nullopt;
  return winner;
}

}  // namespace ll::cluster
