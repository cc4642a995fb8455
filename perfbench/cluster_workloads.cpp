/// \file cluster_workloads.cpp
/// `cluster_large` and `cluster_sharded`: one closed Linger-Longer run at
/// 10,000 nodes, on the monolithic engine (cluster::run_closed) and on the
/// windowed engine with K=4 shards over an explicit 4-worker runner
/// (shard::run_closed). Both take the same inputs so a change to either
/// coordinator can be measured against the other.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "cluster/experiment.hpp"
#include "exp/pool_cache.hpp"
#include "harness.hpp"
#include "node/effective_rate.hpp"
#include "obs/tracer.hpp"
#include "shard/experiment.hpp"
#include "util/runner.hpp"
#include "workload/burst_table.hpp"

namespace llbench {
namespace {

constexpr std::size_t kNodes = 10000;
constexpr std::size_t kJobs = 2500;
constexpr double kDemand = 600.0;
constexpr double kClosed = 1800.0;
constexpr std::size_t kPoolMachines = 32;  // `llsim cluster` defaults
constexpr double kPoolHours = 24.0;
constexpr std::size_t kShards = 4;
constexpr std::size_t kWorkers = 4;
constexpr int kSetupRepeats = 5;
/// Attribution self-test: busy-wait injected into every tick callback.
constexpr std::uint64_t kInjectNs = 1'000'000;

struct Inputs {
  ll::exp::TracePoolCache::PoolPtr pool;
  ll::cluster::ExperimentConfig cfg;
  HostSpeed host;              ///< brackets every timed set-up
  std::vector<double> setups;  ///< normalised time of each cold set-up
  double pool_s = 0.0;         ///< first TracePoolCache::standard call
  double pool_cached_s = 0.0;  ///< repeat call that hits the cache
};

/// One cold set-up: the trace pool from an empty cache plus the rate table,
/// followed by a host-speed sample.
void cold_setup(std::uint64_t seed, Inputs& in) {
  in.pool.reset();  // one pool alive at a time, as in a single set-up
  ll::exp::TracePoolCache cache;
  const auto t0 = Clock::now();
  in.pool = cache.standard(kPoolMachines, kPoolHours, seed + 1);
  in.pool_s = seconds_since(t0);
  const auto rates = ll::node::EffectiveRateTable::analytic(
      ll::workload::default_burst_table(), 100e-6);
  (void)rates.foreign_rate(0.5);
  const double wall = seconds_since(t0);
  in.host.sample();
  in.setups.push_back(in.host.scale(wall));
  const auto t1 = Clock::now();
  (void)cache.standard(kPoolMachines, kPoolHours, seed + 1);
  in.pool_cached_s = seconds_since(t1);
}

/// Set-up is repeated kSetupRepeats times here and again after the timed
/// calls, so its median spans the run.
Inputs set_up(std::uint64_t seed) {
  Inputs in;
  in.host.sample();
  for (int r = 0; r < kSetupRepeats; ++r) cold_setup(seed, in);
  in.cfg.cluster.node_count = kNodes;
  in.cfg.cluster.policy = ll::core::PolicyKind::LingerLonger;
  in.cfg.cluster.queue = ll::des::QueueBackend::kHeap;
  in.cfg.workload = ll::cluster::WorkloadSpec{kJobs, kDemand};
  in.cfg.seed = seed;
  return in;
}

/// The output digest both cluster workloads check: completions,
/// migrations, delivered CPU and throughput, at full precision.
std::string digest_of(const ll::cluster::ClusterReport& report,
                      double delivered_cpu) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "completed=%zu migrations=%zu delivered=%.17g "
                "throughput=%.17g", report.completed, report.migrations,
                delivered_cpu, report.throughput);
  return hex64(fnv1a(buf));
}

struct Call {
  ll::cluster::ClusterReport report;
  double wall_s = 0.0;
  double norm_s = 0.0;  ///< wall_s normalised to the reference host
  std::string digest;
};

/// Repeats `call` until the next call would overrun `seconds` (at least
/// two calls), each followed by a host-speed sample on `threads` threads,
/// checking every digest against the first.
template <typename F>
std::vector<Call> timed_calls(double seconds, std::size_t threads, Outcome& out,
                              F&& call) {
  HostSpeed host(threads);
  std::vector<Call> calls;
  const auto t0 = Clock::now();
  host.sample();
  while (calls.size() < 2 ||
         seconds_since(t0) + calls.back().wall_s <= seconds) {
    calls.push_back(call());
    host.sample();
    calls.back().norm_s = host.scale(calls.back().wall_s);
    out.check(calls.back().digest == calls.front().digest,
              "run digest " + calls.back().digest + " differs from first run " +
                  calls.front().digest);
  }
  return calls;
}

void put_end_to_end(std::uint64_t seed, Inputs& in, const std::vector<Call>& calls,
                    Outcome& out) {
  const double rss = peak_rss_mb();  // before the harness's extra set-ups
  in.host.sample();
  for (int r = 0; r < kSetupRepeats; ++r) cold_setup(seed, in);
  std::vector<double> walls, norms;
  for (const Call& c : calls) {
    walls.push_back(c.wall_s);
    norms.push_back(c.norm_s);
  }
  auto& m = out.metrics;
  m["setup_s"] = median(in.setups);
  m["run_s"] = median(norms);
  m["sims_per_s"] = 1.0 / m["run_s"];
  m["latency_p50_ms"] = quantile(norms, 0.5) * 1e3;
  m["peak_rss_mb"] = rss;
  out.digest = calls.front().digest;
  out.note("calls", static_cast<double>(walls.size()), "count");
  out.note("latency_p99_ms", quantile(norms, 0.99) * 1e3, "ms");
  out.note("run_s.raw", median(walls), "s");
  out.note("latency_p99_ms.raw", quantile(walls, 0.99) * 1e3, "ms");
  out.note("host.reference_s", median(in.host.samples()), "s");
  out.note("completed", static_cast<double>(calls.front().report.completed), "jobs");
  out.note("migrations", static_cast<double>(calls.front().report.migrations), "count");
}

// --- cluster_large ------------------------------------------------------

struct MonoRun {
  Call call;
  bool conserved = false;
};

/// One cluster::run_closed call; `observer` (optional) is attached for the
/// engine run and bracketed with start()/finish().
MonoRun mono_call(const Inputs& in, TagObserver* observer) {
  MonoRun run;
  double delivered = 0.0;
  ll::cluster::RunHooks hooks;
  hooks.on_start = [observer](ll::cluster::ClusterSim& sim) {
    if (!observer) return;
    sim.set_sim_observer(observer);
    observer->start(sim.engine());
  };
  hooks.on_finish = [&](ll::cluster::ClusterSim& sim) {
    const auto& e = sim.engine();
    delivered = sim.delivered_cpu();
    if (observer) {
      observer->finish();
      run.conserved = observer->conserved(e);
      sim.set_sim_observer(nullptr);
    } else {
      run.conserved = balanced(e);
    }
  };
  const auto t0 = Clock::now();
  run.call.report = ll::cluster::run_closed(in.cfg, *in.pool,
                                            ll::workload::default_burst_table(),
                                            kClosed, &hooks);
  run.call.wall_s = seconds_since(t0);
  run.call.digest = digest_of(run.call.report, delivered);
  return run;
}

/// Attribution self-test, on the workload scaled down 10x so the tick
/// callbacks' own run-to-run noise stays small against the delay: a
/// traced run, then one with kInjectNs busy-waited inside every tick
/// callback. The delay must show up in cluster.tick_s and not in
/// des.self_s.
void attribution_self_test(const Inputs& in, SpanLog& spans, Outcome& out) {
  Inputs small = in;
  small.cfg.cluster.node_count = kNodes / 10;
  small.cfg.workload.jobs = kJobs / 10;
  TagObserver base;
  TagObserver delayed;
  delayed.inject(ll::cluster::ClusterSim::kTagTick, kInjectNs);
  std::uint64_t s0 = spans.now_ns();
  const MonoRun a = mono_call(small, &base);
  spans.add("self-test: run_closed (1000 nodes)", s0, spans.now_ns());
  s0 = spans.now_ns();
  const MonoRun b = mono_call(small, &delayed);
  spans.add("self-test: run_closed (1000 nodes, tick delay)", s0, spans.now_ns());
  out.check(a.conserved && b.conserved && a.call.digest == b.call.digest,
            "self-test: injected run diverged from the plain run");

  const auto tick = ll::cluster::ClusterSim::kTagTick;
  const double expect = static_cast<double>(kInjectNs) * 1e-9 *
                        static_cast<double>(delayed.fires[tick]);
  const double grew = delayed.callback_s[tick] - base.callback_s[tick];
  const double self_shift = delayed.self_s() - base.self_s();
  out.note("selftest.expected_s", expect, "s");
  out.note("selftest.tick_grew_s", grew, "s");
  out.note("selftest.self_shift_s", self_shift, "s");
  out.check(std::abs(grew - expect) <= 0.1 * expect,
            "self-test: cluster.tick_s grew by " + std::to_string(grew) +
                " s, expected ~" + std::to_string(expect) + " s");
  out.check(std::abs(self_shift) <= 0.02 * expect + 0.25 * base.self_s(),
            "self-test: des.self_s moved by " + std::to_string(self_shift) + " s");
}

}  // namespace

Outcome run_cluster_large(const Options& opt) {
  Outcome out;
  Inputs in = set_up(opt.seed);
  if (!opt.trace) {
    const auto calls = timed_calls(opt.seconds, 1, out, [&] {
      MonoRun r = mono_call(in, nullptr);
      out.check(r.conserved, "des conservation violated");
      return r.call;
    });
    put_end_to_end(opt.seed, in, calls, out);
    return out;
  }

  // Traced mode: an untraced call, then a traced one.
  SpanLog spans;
  std::uint64_t s0 = spans.now_ns();
  const MonoRun plain = mono_call(in, nullptr);
  spans.add("cluster::run_closed (untraced)", s0, spans.now_ns());
  TagObserver obs;
  s0 = spans.now_ns();
  const MonoRun traced = mono_call(in, &obs);
  spans.add("cluster::run_closed", s0, spans.now_ns());
  for (const MonoRun* r : {&plain, &traced}) {
    out.check(r->conserved, "des conservation violated (observer vs engine)");
  }
  out.check(traced.call.digest == plain.call.digest,
            "traced run digest " + traced.call.digest + " differs from untraced " +
                plain.call.digest);
  out.digest = plain.call.digest;
  put_engine_metrics(obs, out);
  attribution_self_test(in, spans, out);

  auto& m = out.metrics;
  m["cluster.jobs_completed"] = static_cast<double>(traced.call.report.completed);
  m["cluster.migrations"] = static_cast<double>(traced.call.report.migrations);
  m["trace.pool_s"] = in.pool_s;
  m["trace.pool_cached_s"] = in.pool_cached_s;
  m["obs.trace_overhead"] = traced.call.wall_s / plain.call.wall_s - 1.0;
  spans.write_chrome_json(opt.trace_out);
  return out;
}

// --- cluster_sharded ----------------------------------------------------

namespace {

struct ShardRun {
  Call call;
  bool conserved = false;
  ll::shard::ShardStats stats;
  std::uint64_t logical_events = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t scheduled = 0;
};

ShardRun shard_call(const Inputs& in, ll::util::TaskRunner& runner,
                    ll::obs::Tracer* tracer) {
  ShardRun run;
  double delivered = 0.0;
  ll::shard::RunHooks hooks;
  hooks.on_start = [tracer](ll::shard::ShardedClusterSim& sim) {
    if (tracer) sim.set_tracer(tracer);
  };
  hooks.on_finish = [&](ll::shard::ShardedClusterSim& sim) {
    delivered = sim.delivered_cpu();
    run.stats = sim.stats();
    run.logical_events = sim.logical_events();
    run.conserved = true;
    for (std::size_t k = 0; k < sim.shard_count(); ++k) {
      const auto& e = sim.engine(k);
      run.conserved = run.conserved && balanced(e);
      run.fired += e.events_fired();
      run.cancelled += e.events_cancelled();
      run.scheduled += e.events_scheduled();
    }
    if (tracer) sim.set_tracer(nullptr);
  };
  const auto t0 = Clock::now();
  run.call.report = ll::shard::run_closed(in.cfg, kShards, *in.pool,
                                          ll::workload::default_burst_table(),
                                          kClosed, &runner, &hooks);
  run.call.wall_s = seconds_since(t0);
  run.call.digest = digest_of(run.call.report, delivered);
  return run;
}

/// Per-layer shard metrics from the tracer's "shard:<k>" window spans
/// (arg = window index) over the call's wall interval [t0, t1].
void put_shard_spans(const ll::obs::Tracer::Snapshot& snap, std::uint64_t t0,
                     std::uint64_t t1, Outcome& out) {
  struct Interval {
    std::uint64_t a, b;
  };
  std::vector<Interval> busy;
  std::map<std::uint64_t, std::vector<double>> per_window;
  for (const auto& e : snap.records) {
    if (e.rec.kind != ll::obs::TraceKind::kWallSpan) continue;
    if (snap.labels.at(e.rec.label).rfind("shard:", 0) != 0) continue;
    busy.push_back({e.rec.t0_ns, e.rec.t1_ns});
    per_window[e.rec.arg].push_back(static_cast<double>(e.rec.t1_ns - e.rec.t0_ns));
  }
  double busy_s = 0.0;
  for (const Interval& i : busy) busy_s += static_cast<double>(i.b - i.a) * 1e-9;
  // Wall time covered by at least one shard span (interval union).
  std::sort(busy.begin(), busy.end(),
            [](const Interval& x, const Interval& y) { return x.a < y.a; });
  double covered = 0.0;
  std::uint64_t cur_a = 0, cur_b = 0;
  bool open = false;
  for (const Interval& i : busy) {
    if (open && i.a <= cur_b) {
      cur_b = std::max(cur_b, i.b);
      continue;
    }
    if (open) covered += static_cast<double>(cur_b - cur_a) * 1e-9;
    cur_a = i.a;
    cur_b = i.b;
    open = true;
  }
  if (open) covered += static_cast<double>(cur_b - cur_a) * 1e-9;
  std::vector<double> imbalance;
  for (const auto& [window, durs] : per_window) {
    double sum = 0.0, mx = 0.0;
    for (const double d : durs) {
      sum += d;
      mx = std::max(mx, d);
    }
    if (sum > 0.0) imbalance.push_back(mx / (sum / static_cast<double>(durs.size())));
  }
  auto& m = out.metrics;
  m["shard.busy_s"] = busy_s;
  m["shard.serial_s"] = static_cast<double>(t1 - t0) * 1e-9 - covered;
  m["shard.imbalance_p50"] = quantile(imbalance, 0.5);
  m["shard.imbalance_p99"] = quantile(imbalance, 0.99);
}

}  // namespace

Outcome run_cluster_sharded(const Options& opt) {
  Outcome out;
  Inputs in = set_up(opt.seed);
  // Tracer and runner adapter outlive the runner: a worker suspended while
  // the adapter was attached reports its wake-up to it even after
  // set_observer(nullptr), up to the runner's destruction.
  SpanLog spans;
  const std::uint64_t tracer_origin = spans.now_ns();
  ll::obs::Tracer tracer;
  ll::obs::RunnerTraceAdapter adapter(&tracer);
  ll::util::TaskRunner runner(kWorkers);
  if (!opt.trace) {
    const auto calls = timed_calls(opt.seconds, kWorkers, out, [&] {
      ShardRun r = shard_call(in, runner, nullptr);
      out.check(r.conserved, "des conservation violated in a shard engine");
      return r.call;
    });
    put_end_to_end(opt.seed, in, calls, out);
    return out;
  }

  std::uint64_t s0 = spans.now_ns();
  const ShardRun plain = shard_call(in, runner, nullptr);
  spans.add("shard::run_closed (untraced)", s0, spans.now_ns());

  runner.set_observer(&adapter);
  const auto before = runner.stats();
  s0 = spans.now_ns();
  const std::uint64_t tr0 = tracer.now_ns();
  const ShardRun traced = shard_call(in, runner, &tracer);
  const std::uint64_t tr1 = tracer.now_ns();
  const int root = spans.add("shard::run_closed", s0, spans.now_ns());
  const auto after = runner.stats();
  runner.set_observer(nullptr);

  for (const ShardRun* r : {&plain, &traced}) {
    out.check(r->conserved, "des conservation violated in a shard engine");
    out.check(r->call.digest == plain.call.digest,
              "traced run digest " + r->call.digest + " differs from untraced " +
                  plain.call.digest);
  }
  out.check(after.executed > before.executed,
            "no shard window ran on the 4-worker runner");
  out.digest = plain.call.digest;

  const auto snap = tracer.snapshot();
  put_shard_spans(snap, tr0, tr1, out);
  spans.merge(snap, tracer_origin, root);

  auto& m = out.metrics;
  m["des.events_fired"] = static_cast<double>(traced.fired);
  m["des.events_cancelled"] = static_cast<double>(traced.cancelled);
  m["des.cancel_ratio"] = traced.scheduled > 0
                              ? static_cast<double>(traced.cancelled) /
                                    static_cast<double>(traced.scheduled)
                              : 0.0;
  m["cluster.jobs_completed"] = static_cast<double>(traced.call.report.completed);
  m["cluster.migrations"] = static_cast<double>(traced.call.report.migrations);
  m["shard.windows"] = static_cast<double>(traced.stats.windows);
  m["shard.mailbox_sent"] = static_cast<double>(traced.stats.mailbox_sent);
  m["shard.logical_events"] = static_cast<double>(traced.logical_events);
  m["shard.barrier_idle_s"] = static_cast<double>(traced.stats.barrier_wait_ns) * 1e-9;
  m["runner.tasks"] = static_cast<double>(after.executed - before.executed);
  m["runner.steals"] = static_cast<double>(after.stolen - before.stolen);
  m["runner.suspensions"] = static_cast<double>(after.suspensions - before.suspensions);
  m["trace.pool_s"] = in.pool_s;
  m["trace.pool_cached_s"] = in.pool_cached_s;
  m["obs.trace_overhead"] = traced.call.wall_s / plain.call.wall_s - 1.0;
  spans.write_chrome_json(opt.trace_out);
  return out;
}

}  // namespace llbench
