/// Coordinator placement index and completion arming of the sharded engine.
///
/// ShardPlacement.*: the coordinator's FreeNodeIndex must pick the node a
/// brute-force scan over the quiescent node views picks (up, no occupant,
/// no reservation, idle flag as asked; lowest utilization, then lowest
/// index) after every placement, every transfer and every window, over
/// random states: crashes whose outage ends between a tick and the barrier,
/// reservations, storms, utilization ties and uneven shard slices.
///
/// ShardArming.*: a completion is scheduled only when it lands no later
/// than the shard's pending tick, which re-arms every occupied node first.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/scenario_builders.hpp"
#include "des/simulation.hpp"
#include "node/effective_rate.hpp"
#include "rng/rng.hpp"
#include "shard/sharded_sim.hpp"

namespace ll::shard {

/// Reaches the coordinator internals the tests drive directly.
struct PlacementProbe {
  ShardedClusterSim& sim;

  std::size_t best(bool want_idle) {
    return sim.best_target(sim.now(), want_idle);
  }
  void transfer(cluster::JobId id, std::size_t from, std::size_t to) {
    sim.start_transfer(id, from, to, sim.now());
  }
  [[nodiscard]] std::size_t node_of(cluster::JobId id) const {
    return sim.job_node_[id];
  }
  cluster::JobRecord& job(cluster::JobId id) { return sim.jobs_[id]; }
  des::Simulation& engine(std::size_t k) { return sim.mutable_engine(k); }
};

namespace {

using test_support::base_config;
using test_support::table;

constexpr auto kNoJob = ShardedClusterSim::kNoJob;
constexpr auto kNoNode = ShardedClusterSim::kNoNode;

/// The placement rule the index replaces, over the public node views.
std::size_t scan_best(const ShardedClusterSim& sim, bool want_idle) {
  std::size_t best = kNoNode;
  double best_util = 0.0;
  for (std::size_t i = 0; i < sim.node_count(); ++i) {
    const auto v = sim.node_view(i);
    if (v.down || v.occupant != kNoJob || v.reserved != 0) continue;
    if (v.idle != want_idle) continue;
    if (best == kNoNode || v.utilization < best_util) {
      best = i;
      best_util = v.utilization;
    }
  }
  return best;
}

/// Traces over a few utilization levels, so many nodes tie on util; 0.05
/// is idle under the instant recruitment rule, 0.3 and 0.8 are not.
std::vector<trace::CoarseTrace> tie_pool(rng::Stream stream) {
  constexpr double kLevels[] = {0.0, 0.0, 0.05, 0.3, 0.3, 0.8};
  std::vector<trace::CoarseTrace> pool;
  for (int p = 0; p < 5; ++p) {
    trace::CoarseTrace t(2.0);
    for (int w = 0; w < 400; ++w) {
      t.push({kLevels[stream.uniform_index(6)], 65536, false});
    }
    pool.push_back(std::move(t));
  }
  return pool;
}

cluster::ClusterConfig fault_config(core::PolicyKind policy, std::size_t nodes) {
  cluster::ClusterConfig cfg = base_config(policy, nodes);
  cfg.randomize_placement = true;
  cfg.faults.crash.arrivals = fault::ArrivalProcess::exponential(1.0 / 15.0);
  cfg.faults.crash.mean_downtime = 7.3;  // outages end off the tick grid
  cfg.faults.storm.arrivals = fault::ArrivalProcess::exponential(1.0 / 90.0);
  cfg.faults.storm.node_fraction = 0.3;
  cfg.faults.storm.duration = 25.0;
  cfg.faults.link.drop_probability = 0.2;
  cfg.faults.link.max_retries = 1;
  cfg.faults.horizon = 2000.0;
  return cfg;
}

void expect_index_matches_scan(PlacementProbe& probe, const char* where) {
  for (const bool want_idle : {true, false}) {
    SCOPED_TRACE(std::string(where) + (want_idle ? " idle" : " non-idle"));
    ASSERT_EQ(probe.best(want_idle), scan_best(probe.sim, want_idle));
  }
}

/// Random placements (through submit, between runs), random transfers and
/// whole windows, with the index checked against the scan after each.
void drive(core::PolicyKind policy, std::size_t shards, std::uint64_t seed,
           std::size_t* checks, std::size_t* down_seen) {
  rng::Stream stream(seed);
  const auto pool = tie_pool(stream.fork("pool"));
  const cluster::ClusterConfig cfg = fault_config(policy, 23);
  ShardedClusterSim sim(cfg, shards, pool, table(), stream.fork("sim"));
  PlacementProbe probe{sim};
  rng::Stream ops = stream.fork("ops");
  for (int round = 0; round < 120; ++round) {
    // A few placements through the real queue path.
    const std::size_t submits = ops.uniform_index(3);
    for (std::size_t s = 0; s < submits; ++s) {
      (void)sim.submit(20.0 + 40.0 * ops.uniform01());
      expect_index_matches_scan(probe, "after submit");
      ++*checks;
    }
    // A transfer of a random resident job to a random free node.
    std::vector<std::size_t> occupied;
    std::vector<std::size_t> free_nodes;
    for (std::size_t i = 0; i < sim.node_count(); ++i) {
      const auto v = sim.node_view(i);
      if (v.down) ++*down_seen;
      if (v.occupant != kNoJob) {
        const auto st = sim.jobs()[v.occupant].state;
        if (st != cluster::JobState::Checkpointing) occupied.push_back(i);
      } else if (!v.down && v.reserved == 0) {
        free_nodes.push_back(i);
      }
    }
    if (!occupied.empty() && !free_nodes.empty() && ops.uniform01() < 0.7) {
      const std::size_t from = occupied[ops.uniform_index(occupied.size())];
      const std::size_t to = free_nodes[ops.uniform_index(free_nodes.size())];
      probe.transfer(sim.node_view(from).occupant, from, to);
      expect_index_matches_scan(probe, "after transfer");
      ++*checks;
    }
    // Whole windows: the barrier's own placements and transfers, then the
    // refill at the next window's first placement.
    sim.run_for(sim.window_length() * static_cast<double>(1 + ops.uniform_index(3)));
    expect_index_matches_scan(probe, "after window");
    ++*checks;
    // The intent's own node never needs excluding: a resident job's node
    // always names it as occupant, so the index cannot return it.
    for (std::size_t id = 0; id < sim.jobs().size(); ++id) {
      const std::size_t node = probe.node_of(static_cast<cluster::JobId>(id));
      if (node == kNoNode) continue;
      ASSERT_EQ(sim.node_view(node).occupant, id);
    }
  }
}

TEST(ShardPlacement, IndexAgreesWithScanUnderFaultsAndTies) {
  std::size_t checks = 0;
  std::size_t down_seen = 0;
  for (const std::size_t k : {1u, 3u, 4u, 7u}) {
    for (const auto policy :
         {core::PolicyKind::LingerLonger, core::PolicyKind::PauseAndMigrate}) {
      SCOPED_TRACE("shards=" + std::to_string(k) +
                   " policy=" + std::to_string(static_cast<int>(policy)));
      drive(policy, k, 1000 + k, &checks, &down_seen);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(checks, 1000u);
  EXPECT_GT(down_seen, 0u) << "no crash was ever observed at a barrier";
}

TEST(ShardPlacement, OutageEndingAfterTheLastTickFreesTheNodeAtTheBarrier) {
  // One node crashes at t = 1 for 4.5 s: its last tick (t = 4) still sees it
  // down, so its shard leaves util 0 / non-idle until the tick at t = 6.
  // At a barrier in (5.5, 6) the scan counts it as a free non-idle node;
  // the index must too, although no shard touched the node since.
  cluster::ClusterConfig cfg =
      base_config(core::PolicyKind::LingerLonger, 2);
  cfg.faults.crash.arrivals = fault::ArrivalProcess::fixed({1.0});
  cfg.faults.crash.mean_downtime = 4.5;
  cfg.faults.crash.exponential_downtime = false;
  cfg.faults.horizon = 100.0;
  const auto pool = test_support::uniform_pool("BBBBBBBBBBBBBBBB", 0.5);
  for (const std::size_t k : {1u, 3u}) {
    ShardedClusterSim sim(cfg, k, pool, table(), rng::Stream(5).fork("sim"));
    PlacementProbe probe{sim};
    sim.run_for(5.0);
    std::size_t victim = kNoNode;
    for (std::size_t i = 0; i < sim.node_count(); ++i) {
      if (sim.node_view(i).down) victim = i;
    }
    ASSERT_NE(victim, kNoNode) << "the crash did not land";
    expect_index_matches_scan(probe, "during the outage");
    sim.run_for(0.8);  // barrier at 5.8: outage over, no tick since t = 4
    ASSERT_FALSE(sim.node_view(victim).down);
    EXPECT_EQ(sim.node_view(victim).utilization, 0.0);
    expect_index_matches_scan(probe, "after the outage");
    EXPECT_EQ(probe.best(false), victim) << "util 0 beats the busy owners";
  }
}

/// Records (time, tag) of every fire.
struct FireLog final : des::SimObserver {
  std::vector<std::pair<double, std::uint64_t>> fires;
  void on_fire(double time, des::EventId, std::uint64_t tag) override {
    fires.emplace_back(time, tag);
  }
};

/// One always-idle node (util 0) with no context-switch cost: a foreign
/// job runs at rate exactly 1, so completion times are exact.
cluster::ClusterConfig unit_rate_config() {
  cluster::ClusterConfig cfg = base_config(core::PolicyKind::LingerLonger, 1);
  cfg.context_switch = 0.0;
  return cfg;
}

TEST(ShardArming, FaultFreeRunCancelsNoCompletionEvents) {
  // Owners alternate 100-s idle and busy spells in opposite phases, so a
  // lingering guest outlives its linger time and finds an idle target.
  std::string a;
  std::string b;
  for (int i = 0; i < 600; ++i) {
    a += (i % 100 < 50) ? '.' : 'B';
    b += (i % 100 < 50) ? 'B' : '.';
  }
  const std::vector<trace::CoarseTrace> pool = {
      test_support::pattern_trace(a, 0.8), test_support::pattern_trace(b, 0.8)};
  // Lingering jobs migrate once their linger time runs out (long demands);
  // evicted ones migrate at once.
  const std::pair<core::PolicyKind, double> cases[] = {
      {core::PolicyKind::LingerLonger, 300.0},
      {core::PolicyKind::ImmediateEviction, 150.0}};
  for (const auto& [policy, demand] : cases) {
    for (const std::size_t k : {1u, 3u}) {
      const cluster::ClusterConfig cfg = base_config(policy, 12);
      ShardedClusterSim sim(cfg, k, pool, table(), rng::Stream(3).fork("sim"));
      for (int j = 0; j < 10; ++j) (void)sim.submit(demand);
      sim.run_until_all_complete(1e6);
      std::uint64_t cancelled = 0;
      for (std::size_t s = 0; s < k; ++s) {
        cancelled += sim.engine(s).events_cancelled();
      }
      EXPECT_EQ(cancelled, 0u) << "shards=" << k;
      EXPECT_EQ(sim.completions(), 10u);
      EXPECT_GT(sim.migrations_started(), 0u)
          << "policy=" << static_cast<int>(policy) << " shards=" << k;
    }
  }
}

TEST(ShardArming, CompletionOnTheNextTickFiresBeforeThatTick) {
  const auto pool = test_support::idle_pool(64);
  const cluster::ClusterConfig cfg = unit_rate_config();
  ASSERT_EQ(node::EffectiveRateTable::analytic(table(), cfg.context_switch)
                .foreign_rate(0.0),
            1.0);
  ShardedClusterSim sim(cfg, 1, pool, table(), rng::Stream(1).fork("sim"));
  PlacementProbe probe{sim};
  FireLog log;
  probe.engine(0).set_observer(&log);
  // Placed at t = 0 with 10 s of work: each tick k (t = 2k) re-arms it for
  // t = 10, which is past its pending tick until tick 4 arms it for exactly
  // t = 10 = the time of tick 5.
  const cluster::JobId id = sim.submit(10.0);
  sim.run_until_all_complete(1e3);
  probe.engine(0).set_observer(nullptr);
  ASSERT_TRUE(sim.jobs()[id].completion.has_value());
  EXPECT_EQ(*sim.jobs()[id].completion, 10.0);
  std::vector<std::uint64_t> at_ten;
  std::size_t completions = 0;
  for (const auto& [time, tag] : log.fires) {
    if (time == 10.0) at_ten.push_back(tag);
    if (tag == ShardedClusterSim::kTagCompletion) ++completions;
  }
  const std::vector<std::uint64_t> expected = {
      ShardedClusterSim::kTagCompletion, ShardedClusterSim::kTagTick};
  EXPECT_EQ(at_ten, expected) << "the completion must fire ahead of tick 5";
  EXPECT_EQ(completions, 1u);
  EXPECT_EQ(sim.engine(0).events_cancelled(), 0u);
}

TEST(ShardArming, ResidueReArmCompletesAtTheResidueTime) {
  // A completion that finds work left (an FP residue) re-arms for the rest.
  // Here the residue is injected: the job is given 1e-6 s more work than
  // its armed completion accounts for. Between ticks (t = 9) the re-arm is
  // scheduled directly; on a tick time (t = 10) it lies past the pending
  // tick, which re-arms it instead. Both finish at t + residue, as before.
  const auto pool = test_support::idle_pool(64);
  const cluster::ClusterConfig cfg = unit_rate_config();
  for (const double demand : {9.0, 10.0}) {
    ShardedClusterSim sim(cfg, 1, pool, table(), rng::Stream(1).fork("sim"));
    PlacementProbe probe{sim};
    const cluster::JobId id = sim.submit(demand);
    sim.run_for(8.5);  // tick 4 (t = 8) armed the completion at `demand`
    cluster::JobRecord& job = probe.job(id);
    const double left = job.remaining;  // as integrated at t = 8
    job.remaining += 1e-6;
    const double residue = (left + 1e-6) - left;
    sim.run_until_all_complete(1e3);
    ASSERT_TRUE(sim.jobs()[id].completion.has_value());
    EXPECT_EQ(*sim.jobs()[id].completion, demand + residue)
        << "demand=" << demand;
    EXPECT_EQ(sim.completions(), 1u);
  }
}

}  // namespace
}  // namespace ll::shard
