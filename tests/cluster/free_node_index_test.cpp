#include "cluster/free_node_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

namespace ll::cluster {
namespace {

/// Node fields owned by the test, viewed by the index.
struct Nodes {
  explicit Nodes(std::size_t n) : idle(n, 1), down(n, 0), used(n, 0), util(n, 0.0) {}

  FreeNodeIndex::Fields fields() const { return {idle, down, used, util}; }

  std::vector<std::uint8_t> idle;
  std::vector<std::uint8_t> down;
  std::vector<std::uint32_t> used;
  std::vector<double> util;
};

/// The reference: first node in a linear scan under (used, util, index).
std::optional<std::size_t> scan(const Nodes& nodes, bool want_idle,
                                std::size_t slots) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < nodes.idle.size(); ++i) {
    if (nodes.down[i] != 0) continue;
    if ((nodes.idle[i] != 0) != want_idle) continue;
    if (nodes.used[i] >= slots) continue;
    if (!best || nodes.used[i] < nodes.used[*best] ||
        (nodes.used[i] == nodes.used[*best] &&
         nodes.util[i] < nodes.util[*best])) {
      best = i;
    }
  }
  return best;
}

/// Draws node i's fields at random. A coarse utilization grid makes ties
/// common, so the index tie-break is exercised.
void randomize(Nodes& nodes, std::size_t i, std::size_t slots,
               std::mt19937_64& rng) {
  nodes.idle[i] = static_cast<std::uint8_t>(rng() % 2);
  nodes.down[i] = rng() % 8 == 0 ? 1 : 0;
  nodes.used[i] = static_cast<std::uint32_t>(rng() % (slots + 1));
  nodes.util[i] = static_cast<double>(rng() % 5) / 4.0;
}

void expect_matches(FreeNodeIndex& index, const Nodes& nodes,
                    std::size_t slots) {
  EXPECT_EQ(index.best(true), scan(nodes, true, slots));
  EXPECT_EQ(index.best(false), scan(nodes, false, slots));
}

TEST(FreeNodeIndex, MatchesLinearScanUnderRandomPointUpdates) {
  for (const std::size_t slots : {1u, 2u, 3u}) {
    for (const std::size_t n : {1u, 2u, 7u, 64u, 1000u}) {
      SCOPED_TRACE(testing::Message() << "slots=" << slots << " n=" << n);
      std::mt19937_64 rng(slots * 7919 + n);
      Nodes nodes(n);
      for (std::size_t i = 0; i < n; ++i) randomize(nodes, i, slots, rng);
      FreeNodeIndex index(nodes.fields(), slots);
      expect_matches(index, nodes, slots);
      for (int step = 0; step < 2000; ++step) {
        // A burst of 1-3 point updates between queries.
        const int burst = 1 + static_cast<int>(rng() % 3);
        for (int b = 0; b < burst; ++b) {
          const std::size_t i = rng() % n;
          randomize(nodes, i, slots, rng);
          index.update(i);
        }
        expect_matches(index, nodes, slots);
        if (HasFailure()) return;
      }
    }
  }
}

TEST(FreeNodeIndex, MatchesLinearScanAfterBulkChanges) {
  // A window tick rewrites every node and invalidates the index; a query
  // may also land mid-tick, with only a prefix of nodes rewritten.
  const std::size_t slots = 2;
  const std::size_t n = 300;
  std::mt19937_64 rng(42);
  Nodes nodes(n);
  FreeNodeIndex index(nodes.fields(), slots);
  for (int tick = 0; tick < 50; ++tick) {
    index.invalidate();
    const std::size_t mid = rng() % n;
    for (std::size_t i = 0; i < n; ++i) {
      randomize(nodes, i, slots, rng);
      index.update(i);
      if (i == mid) expect_matches(index, nodes, slots);
    }
    expect_matches(index, nodes, slots);
    // Many point updates in one go take the rebuild path too.
    for (std::size_t k = 0; k < n / 2; ++k) {
      const std::size_t i = rng() % n;
      randomize(nodes, i, slots, rng);
      index.update(i);
    }
    expect_matches(index, nodes, slots);
    if (HasFailure()) return;
  }
}

TEST(FreeNodeIndex, PrefersEmptierThenCoolerThenLowerIndex) {
  Nodes nodes(4);
  nodes.util = {0.5, 0.1, 0.1, 0.0};
  nodes.used = {0, 0, 0, 1};
  FreeNodeIndex index(nodes.fields(), 2);
  EXPECT_EQ(index.best(true), 1u);  // node 3 is cooler but shared
  nodes.down[1] = 1;
  index.update(1);
  EXPECT_EQ(index.best(true), 2u);
  nodes.used[2] = 2;  // full
  index.update(2);
  EXPECT_EQ(index.best(true), 0u);
  EXPECT_EQ(index.best(false), std::nullopt);
}

TEST(FreeNodeIndex, NegativeZeroTiesWithZero) {
  // -0.0 < 0.0 is false, so a scan keeps the lower index; so must the index.
  Nodes nodes(3);
  nodes.util = {0.0, -0.0, 0.0};
  FreeNodeIndex index(nodes.fields(), 1);
  EXPECT_EQ(index.best(true), 0u);
  nodes.util[0] = 0.25;
  index.update(0);
  EXPECT_EQ(index.best(true), 1u);
}

TEST(FreeNodeIndex, EmptyAndInvalidConfigurations) {
  FreeNodeIndex none;
  EXPECT_EQ(none.best(true), std::nullopt);
  EXPECT_EQ(none.best(false), std::nullopt);
  Nodes nodes(3);
  EXPECT_THROW(FreeNodeIndex(nodes.fields(), 0), std::invalid_argument);
  nodes.util.pop_back();
  EXPECT_THROW(FreeNodeIndex(nodes.fields(), 1), std::invalid_argument);
}

}  // namespace
}  // namespace ll::cluster
