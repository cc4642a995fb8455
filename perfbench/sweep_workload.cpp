/// \file sweep_workload.cpp
/// `paper_sweep`: the paper's Figure 7 grid (4 policies x 2 workloads, 64
/// nodes, 5 replications, each an open plus a closed run) through
/// exp::run_sweep on a 4-worker runner. Eighty small simulations, so
/// per-simulation fixed cost, the engine and the runner dominate.

#include <array>
#include <memory>
#include <mutex>

#include "cluster/experiment.hpp"
#include "exp/drivers.hpp"
#include "exp/engine.hpp"
#include "exp/pool_cache.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/runner.hpp"
#include "workload/burst_table.hpp"

namespace llbench {
namespace {

constexpr std::size_t kNodes = 64;
constexpr std::size_t kPoolMachines = 64;
constexpr double kPoolHours = 24.0;
constexpr std::size_t kReplications = 5;
constexpr std::size_t kWorkers = 4;
constexpr double kClosed = 3600.0;  // exp::cluster_cell's default
constexpr std::size_t kSimsPerReplication = 2;  // one open + one closed run
constexpr int kSetupRepeats = 5;

constexpr std::array<ll::core::PolicyKind, 4> kPolicies{
    ll::core::PolicyKind::LingerLonger, ll::core::PolicyKind::LingerForever,
    ll::core::PolicyKind::ImmediateEviction, ll::core::PolicyKind::PauseAndMigrate};

/// Completion times of the cells of the sweep in flight, relative to its
/// start: each cell result is due when the sweep starts.
struct CellClock {
  Clock::time_point start;
  std::mutex mu;
  std::vector<double> done_s;
  TagObserver engine;  ///< folded per-cell totals (traced)

  bool conserved = true;  ///< every observed cell passed conservation
  std::size_t completed = 0, migrations = 0;  ///< summed over observed runs

  void record(const TagObserver* cell = nullptr, bool cell_conserved = true,
              std::size_t cell_completed = 0, std::size_t cell_migrations = 0) {
    const double t = seconds_since(start);
    std::scoped_lock lock(mu);
    done_s.push_back(t);
    if (cell) engine.add(*cell);
    conserved = conserved && cell_conserved;
    completed += cell_completed;
    migrations += cell_migrations;
  }
};

/// The fig07 spec. With `observe`, each cell runs the same open + closed
/// pair as exp::cluster_cell through cluster::run_open/run_closed with a
/// TagObserver attached, so the engine can be measured; the sweep JSON
/// must come out byte-identical either way.
ll::exp::ExperimentSpec make_spec(std::uint64_t seed,
                                  const ll::exp::TracePoolCache::PoolPtr& pool,
                                  CellClock* clock, bool observe) {
  const ll::workload::BurstTable& table = ll::workload::default_burst_table();
  ll::exp::ExperimentSpec spec;
  spec.name = "fig07: cluster performance (4 policies x 2 workloads)";
  spec.axes = {"workload", "policy"};
  spec.seed = seed;
  spec.replications = kReplications;
  const std::pair<const char*, ll::cluster::WorkloadSpec> workloads[] = {
      {"workload-1 (128 x 600 s)", ll::cluster::workload_1()},
      {"workload-2 (16 x 1800 s)", ll::cluster::workload_2()}};
  for (const auto& [name, work] : workloads) {
    for (const ll::core::PolicyKind policy : kPolicies) {
      ll::cluster::ExperimentConfig cfg;
      cfg.cluster.node_count = kNodes;
      cfg.cluster.policy = policy;
      cfg.workload = work;
      spec.add_cell(
          {{"workload", name}, {"policy", std::string(ll::core::to_string(policy))}},
          [cfg, pool, &table, clock, observe](std::uint64_t s) mutable {
            cfg.seed = s;
            if (!observe) {
              ll::exp::RunResult r = ll::exp::cluster_cell(cfg, pool, table, kClosed);
              if (clock) clock->record();
              return r;
            }
            TagObserver obs;
            ll::cluster::RunHooks hooks;
            hooks.on_start = [&obs](ll::cluster::ClusterSim& sim) {
              sim.set_sim_observer(&obs);
              obs.start(sim.engine());
            };
            bool conserved = true;
            hooks.on_finish = [&obs, &conserved](ll::cluster::ClusterSim& sim) {
              obs.finish();
              conserved = conserved && obs.conserved(sim.engine());
              sim.set_sim_observer(nullptr);
            };
            const auto open = ll::cluster::run_open(cfg, *pool, table, nullptr, &hooks);
            const auto closed = ll::cluster::run_closed(cfg, *pool, table, kClosed, &hooks);
            ll::exp::RunResult r = ll::exp::open_metrics(open);
            r.set("throughput", closed.throughput);
            clock->record(&obs, conserved, open.completed + closed.completed,
                          open.migrations + closed.migrations);
            return r;
          });
    }
  }
  return spec;
}

struct Sweep {
  std::string json;
  double wall_s = 0.0;
};

Sweep run_once(const ll::exp::ExperimentSpec& spec, CellClock* clock,
               const ll::exp::EngineOptions& options) {
  if (clock) clock->start = Clock::now();
  const auto t0 = Clock::now();
  const ll::exp::SweepResult result = ll::exp::run_sweep(spec, options);
  Sweep s;
  s.wall_s = seconds_since(t0);
  s.json = ll::exp::to_json(result);
  return s;
}

}  // namespace

Outcome run_paper_sweep(const Options& opt) {
  Outcome out;
  // Cold set-ups (trace pool from an empty cache), repeated here and again
  // after the timed sweeps so the median spans the run. Every set-up and
  // sweep is followed by a host-speed sample, on as many threads as it
  // keeps busy.
  HostSpeed host;
  HostSpeed sweep_host(kWorkers);
  host.sample();
  std::vector<double> setups;
  ll::exp::TracePoolCache::PoolPtr pool;
  double pool_s = 0.0, pool_cached_s = 0.0;
  const auto cold_setup = [&] {
    pool.reset();  // one pool alive at a time, as in a single set-up
    ll::exp::TracePoolCache cache;
    const auto t0 = Clock::now();
    pool = cache.standard(kPoolMachines, kPoolHours, opt.seed + 1);
    pool_s = seconds_since(t0);
    (void)ll::workload::default_burst_table();
    const double wall = seconds_since(t0);
    host.sample();
    setups.push_back(host.scale(wall));
    const auto t1 = Clock::now();
    (void)cache.standard(kPoolMachines, kPoolHours, opt.seed + 1);
    pool_cached_s = seconds_since(t1);
  };
  for (int r = 0; r < kSetupRepeats; ++r) cold_setup();

  // Tracer and runner adapter outlive the runner: a worker suspended while
  // the adapter was attached reports its wake-up to it even after
  // set_observer(nullptr), up to the runner's destruction.
  SpanLog spans;
  const std::uint64_t tracer_origin = spans.now_ns();
  ll::obs::Tracer tracer;
  ll::obs::RunnerTraceAdapter adapter(&tracer);
  ll::util::TaskRunner runner(kWorkers);
  ll::exp::EngineOptions options;
  options.runner = &runner;
  CellClock clock;
  const ll::exp::ExperimentSpec spec = make_spec(opt.seed, pool, &clock, false);
  const std::size_t sims =
      spec.cells.size() * kReplications * kSimsPerReplication;

  if (!opt.trace) {
    std::vector<Sweep> sweeps;
    std::vector<double> norms;  // sweep walls, normalised
    const auto t0 = Clock::now();
    sweep_host.sample();
    while (sweeps.size() < 2 || seconds_since(t0) + sweeps.back().wall_s <= opt.seconds) {
      const std::size_t first_cell = clock.done_s.size();
      sweeps.push_back(run_once(spec, &clock, options));
      sweep_host.sample();
      norms.push_back(sweep_host.scale(sweeps.back().wall_s));
      for (std::size_t i = first_cell; i < clock.done_s.size(); ++i) {
        clock.done_s[i] = sweep_host.scale(clock.done_s[i]);
      }
      out.check(sweeps.back().json == sweeps.front().json,
                "sweep JSON differs between timed sweeps");
    }
    const double rss = peak_rss_mb();  // before the untimed checks and set-ups
    // Untimed reference: the same spec on one worker must give the same bytes.
    ll::util::TaskRunner serial(1);
    ll::exp::EngineOptions one;
    one.runner = &serial;
    const Sweep reference = run_once(make_spec(opt.seed, pool, nullptr, false), nullptr, one);
    out.check(reference.json == sweeps.front().json,
              "4-worker sweep JSON differs from the 1-worker sweep");

    host.sample();
    for (int r = 0; r < kSetupRepeats; ++r) cold_setup();
    std::vector<double> walls;
    for (const Sweep& s : sweeps) walls.push_back(s.wall_s);
    auto& m = out.metrics;
    m["setup_s"] = median(setups);
    m["run_s"] = median(norms);
    m["sims_per_s"] = static_cast<double>(sims) / m["run_s"];
    m["latency_p50_ms"] = quantile(clock.done_s, 0.5) * 1e3;
    m["peak_rss_mb"] = rss;
    out.digest = hex64(fnv1a(sweeps.front().json));
    out.note("sweeps", static_cast<double>(sweeps.size()), "count");
    out.note("latency_p99_ms", quantile(clock.done_s, 0.99) * 1e3, "ms");
    out.note("run_s.raw", median(walls), "s");
    out.note("host.reference_s", median(sweep_host.samples()), "s");
    out.note("simulations", static_cast<double>(sims * sweeps.size()), "count");
    return out;
  }

  std::uint64_t s0 = spans.now_ns();
  const Sweep plain = run_once(spec, &clock, options);
  spans.add("exp::run_sweep (untraced)", s0, spans.now_ns());

  ll::obs::MetricRegistry registry;
  runner.set_observer(&adapter);
  ll::exp::EngineOptions traced_options = options;
  traced_options.tracer = &tracer;
  traced_options.metrics = &registry;
  CellClock traced_clock;
  const ll::exp::ExperimentSpec observed = make_spec(opt.seed, pool, &traced_clock, true);
  const auto before = runner.stats();
  s0 = spans.now_ns();
  const Sweep traced = run_once(observed, &traced_clock, traced_options);
  const int root = spans.add("exp::run_sweep", s0, spans.now_ns());
  const auto after = runner.stats();
  runner.set_observer(nullptr);
  out.check(traced_clock.conserved, "des conservation violated in a sweep cell");
  out.check(traced.json == plain.json,
            "observed sweep JSON differs from the exp::cluster_cell sweep");
  out.digest = hex64(fnv1a(plain.json));

  const auto snap = tracer.snapshot();
  spans.merge(snap, tracer_origin, root);
  std::vector<double> cell_ms;
  double cell_total_s = 0.0;
  for (const auto& e : snap.records) {
    if (e.rec.kind != ll::obs::TraceKind::kWallSpan) continue;
    if (snap.labels.at(e.rec.label).rfind("cell:", 0) != 0) continue;
    const double d = static_cast<double>(e.rec.t1_ns - e.rec.t0_ns) * 1e-9;
    cell_ms.push_back(d * 1e3);
    cell_total_s += d;
  }

  put_engine_metrics(traced_clock.engine, out);
  auto& m = out.metrics;
  m["cluster.jobs_completed"] = static_cast<double>(traced_clock.completed);
  m["cluster.migrations"] = static_cast<double>(traced_clock.migrations);
  m["exp.replications"] = static_cast<double>(registry.counter("exp.replications").value());
  m["exp.cell_ms_p50"] = quantile(cell_ms, 0.5);
  m["exp.cell_ms_p99"] = quantile(cell_ms, 0.99);
  m["exp.parallel_eff"] = cell_total_s / (static_cast<double>(kWorkers) * traced.wall_s);
  m["runner.tasks"] = static_cast<double>(after.executed - before.executed);
  m["runner.steals"] = static_cast<double>(after.stolen - before.stolen);
  m["runner.suspensions"] = static_cast<double>(after.suspensions - before.suspensions);
  m["trace.pool_s"] = pool_s;
  m["trace.pool_cached_s"] = pool_cached_s;
  m["obs.trace_overhead"] = traced.wall_s / plain.wall_s - 1.0;
  spans.write_chrome_json(opt.trace_out);
  return out;
}

}  // namespace llbench
