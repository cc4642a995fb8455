#include "exp/perf_report.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "cluster/experiment.hpp"
#include "des/simulation.hpp"
#include "exp/drivers.hpp"
#include "exp/engine.hpp"
#include "exp/pool_cache.hpp"
#include "exp/spec.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "shard/experiment.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/runner.hpp"
#include "util/table.hpp"
#include "workload/burst_table.hpp"

namespace ll::exp {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Scales a probe size, with a floor so --report-scale=0.01 in tests still
/// exercises the real code paths.
std::size_t scaled(double base, double scale, std::size_t floor_items) {
  const double n = base * scale;
  return std::max(floor_items, static_cast<std::size_t>(std::llround(n)));
}

PerfEntry finish_entry(PerfEntry entry, double wall_s, std::uint64_t items) {
  entry.wall_s = wall_s;
  entry.items = items;
  entry.items_per_s = wall_s > 0.0 ? static_cast<double>(items) / wall_s : 0.0;
  return entry;
}

/// Dispatch throughput: batches of deliberately tiny tasks, where per-task
/// scheduling overhead dominates (the shape bench/micro_steal.cpp gates).
PerfEntry probe_micro_steal(std::uint64_t seed, std::size_t workers,
                            double scale) {
  const std::size_t total = scaled(200000.0, scale, 1024);
  const std::size_t batch = std::min<std::size_t>(total, 4096);
  util::TaskRunner runner(workers);
  std::vector<std::uint64_t> slots(batch, 0);
  const util::TaskRunner::Stats before = runner.stats();
  const Clock::time_point t0 = Clock::now();
  std::size_t dispatched = 0;
  while (dispatched < total) {
    const std::size_t n = std::min(batch, total - dispatched);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t* slot = &slots[i];
      const std::uint64_t x = seed + dispatched + i;
      tasks.emplace_back([slot, x] { *slot = x * 2654435761u; });
    }
    runner.run(std::move(tasks));
    dispatched += n;
  }
  const double wall = seconds_since(t0);
  const util::TaskRunner::Stats after = runner.stats();
  PerfEntry entry;
  entry.name = "micro_steal";
  entry.runner_tasks = after.executed - before.executed;
  entry.runner_steals = after.stolen - before.stolen;
  entry.runner_suspensions = after.suspensions - before.suspensions;
  return finish_entry(std::move(entry), wall, total);
}

/// Load balance: one batch whose per-task work varies ~64x (the shape real
/// sweeps have — cells of different policies and cluster sizes), where
/// stealing pays through balance rather than dispatch rate.
PerfEntry probe_micro_runner(std::uint64_t seed, std::size_t workers,
                             double scale) {
  const std::size_t count = scaled(2048.0, scale, 64);
  util::TaskRunner runner(workers);
  std::vector<std::uint64_t> slots(count, 0);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // 64 << (i % 7) spans 64..4096 inner iterations: a 64x spread.
    const std::size_t spins = std::size_t{64} << (i % 7);
    std::uint64_t* slot = &slots[i];
    const std::uint64_t x0 = seed ^ (i * 0x9e3779b97f4a7c15ull);
    tasks.emplace_back([slot, x0, spins] {
      std::uint64_t x = x0 | 1;
      for (std::size_t s = 0; s < spins; ++s) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      *slot = x;
    });
  }
  const util::TaskRunner::Stats before = runner.stats();
  const Clock::time_point t0 = Clock::now();
  runner.run(std::move(tasks));
  const double wall = seconds_since(t0);
  const util::TaskRunner::Stats after = runner.stats();
  PerfEntry entry;
  entry.name = "micro_runner";
  entry.runner_tasks = after.executed - before.executed;
  entry.runner_steals = after.stolen - before.stolen;
  entry.runner_suspensions = after.suspensions - before.suspensions;
  return finish_entry(std::move(entry), wall, count);
}

/// Fully traced DES loop: schedule-and-fire with a TracingObserver on the
/// engine, the densest per-event instrumentation the repo attaches. Tracks
/// the tracer's per-record cost trajectory (bench/micro_obs.cpp gates the
/// absolute bound; this records the trend).
PerfEntry probe_micro_obs(std::uint64_t /*seed*/, double scale) {
  const std::size_t events = scaled(300000.0, scale, 1024);
  obs::Tracer tracer;
  obs::TracingObserver observer(&tracer);
  const Clock::time_point t0 = Clock::now();
  des::Simulation sim;
  sim.set_observer(&observer);
  std::size_t fired = 0;
  for (std::size_t i = 0; i < events; ++i) {
    sim.schedule_at(static_cast<double>((i * 7919) % 104729),
                    [&fired] { ++fired; }, /*tag=*/1);
  }
  sim.run();
  const double wall = seconds_since(t0);
  if (fired != events) {
    throw std::runtime_error("micro_obs probe lost events");
  }
  PerfEntry entry;
  entry.name = "micro_obs";
  return finish_entry(std::move(entry), wall, events);
}

/// DES-core churn on the calendar backend: a hold model over a large steady
/// pending population — every fired event is replaced by a fresh schedule,
/// and every 4th iteration cancels a recently issued id and schedules a
/// substitute. bench/micro_des.cpp gates the calendar-vs-heap speedup at
/// 1M pending; this entry records the calendar backend's absolute
/// schedule/fire/cancel trajectory.
PerfEntry probe_micro_des(std::uint64_t seed, double scale) {
  const std::size_t pending = scaled(50000.0, scale, 512);
  const std::size_t fires = scaled(300000.0, scale, 2048);
  des::Simulation sim(des::Simulation::Options{des::QueueBackend::kCalendar});
  std::uint64_t state = seed | 1;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  // Continuous holds in [1, 65): a quantized lattice would pile equal
  // timestamps into a handful of calendar buckets and measure the queue's
  // documented worst case instead of its steady state.
  const auto hold_delta = [&next] {
    return 1.0 + static_cast<double>(next() >> 11) * 0x1.0p-53 * 64.0;
  };
  std::vector<des::EventId> recent(1024, des::kNoEvent);
  for (std::size_t i = 0; i < pending; ++i) {
    recent[i % recent.size()] = sim.schedule_in(hold_delta(), [] {}, 1);
  }
  const Clock::time_point t0 = Clock::now();
  for (std::size_t f = 0; f < fires; ++f) {
    sim.step();
    recent[f % recent.size()] = sim.schedule_in(hold_delta(), [] {}, 1);
    if ((f & 3u) == 3u) {
      // Cancelling an already-fired id is a harmless no-op; replacing only
      // successful cancels keeps the pending population exactly constant.
      if (sim.cancel(recent[next() % recent.size()])) {
        sim.schedule_in(hold_delta(), [] {}, 1);
      }
    }
  }
  const double wall = seconds_since(t0);
  if (sim.events_scheduled() !=
      sim.events_fired() + sim.events_cancelled() + sim.pending_count()) {
    throw std::runtime_error("micro_des probe broke event conservation");
  }
  PerfEntry entry;
  entry.name = "micro_des";
  return finish_entry(std::move(entry), wall, fires);
}

/// A fig07-shaped sweep at reduced size (2 workloads x 2 policies, 16
/// nodes) through the real engine + cluster_cell path, including the
/// engine's runner-counter accounting. This is the end-to-end number: if
/// the simulator itself regresses, this entry moves while the micro probes
/// stay put.
PerfEntry probe_fig07(std::uint64_t seed, std::size_t workers, double scale) {
  const auto reps = scaled(2.0, scale, 1);
  const auto pool = TracePoolCache::shared().standard(8, 24.0, seed + 1);
  const workload::BurstTable& table = workload::default_burst_table();

  ExperimentSpec spec;
  spec.name = "perf-report fig07 probe";
  spec.axes = {"workload", "policy"};
  spec.seed = seed;
  spec.replications = reps;
  struct NamedWorkload {
    const char* name;
    cluster::WorkloadSpec workload;
  };
  for (const NamedWorkload& w :
       {NamedWorkload{"w1", cluster::workload_1()},
        NamedWorkload{"w2", cluster::workload_2()}}) {
    for (core::PolicyKind policy : {core::PolicyKind::LingerLonger,
                                    core::PolicyKind::ImmediateEviction}) {
      cluster::ExperimentConfig cfg;
      cfg.cluster.node_count = 16;
      cfg.cluster.policy = policy;
      cfg.workload = w.workload;
      spec.add_cell({{"workload", w.name},
                     {"policy", std::string(core::to_string(policy))}},
                    [cfg, pool, &table](std::uint64_t s) mutable {
                      cfg.seed = s;
                      return cluster_cell(cfg, pool, table);
                    });
    }
  }

  obs::MetricRegistry metrics;
  EngineOptions options;
  options.jobs = workers;
  options.metrics = &metrics;
  const Clock::time_point t0 = Clock::now();
  const SweepResult sweep = run_sweep(spec, options);
  const double wall = seconds_since(t0);

  PerfEntry entry;
  entry.name = "fig07";
  entry.runner_tasks = metrics.counter("exp.runner.tasks").value();
  entry.runner_steals = metrics.counter("exp.runner.steals").value();
  entry.runner_suspensions = metrics.counter("exp.runner.suspensions").value();
  return finish_entry(std::move(entry), wall,
                      sweep.cells.size() * spec.replications);
}

/// Sharded-engine trajectory: a closed-system run on the conservative
/// time-windowed engine (4 shards on a private runner), sized so the
/// window/barrier machinery — not job arithmetic — dominates. Records
/// windows-per-second; ext_scale_sharded gates invariance and speedup, this
/// entry records the engine's absolute cost trend.
PerfEntry probe_micro_shard(std::uint64_t seed, double scale) {
  const std::size_t nodes = scaled(2000.0, scale, 64);
  cluster::ExperimentConfig cfg;
  cfg.cluster.node_count = nodes;
  cfg.workload.jobs = std::max<std::size_t>(1, nodes / 4);
  cfg.workload.demand = 600.0;
  cfg.seed = seed;
  const auto pool = TracePoolCache::shared().standard(64, 24.0, seed + 1);
  const workload::BurstTable& table = workload::default_burst_table();

  shard::ShardStats stats;
  shard::RunHooks hooks;
  hooks.on_finish = [&stats](shard::ShardedClusterSim& sim) {
    stats = sim.stats();
  };
  util::TaskRunner runner(4);
  const Clock::time_point t0 = Clock::now();
  const cluster::ClusterReport report =
      shard::run_closed(cfg, 4, *pool, table, 1800.0, &runner, &hooks);
  const double wall = seconds_since(t0);
  if (report.completed == 0 || stats.windows == 0) {
    throw std::runtime_error("micro_shard probe did no work");
  }
  PerfEntry entry;
  entry.name = "micro_shard";
  const util::TaskRunner::Stats rs = runner.stats();
  entry.runner_tasks = rs.executed;
  entry.runner_steals = rs.stolen;
  entry.runner_suspensions = rs.suspensions;
  return finish_entry(std::move(entry), wall, stats.windows);
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string fmt3(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

PerfReport run_perf_report(std::uint64_t seed, std::size_t workers,
                           double scale) {
  PerfReport report;
  report.seed = seed;
  report.workers = workers == 0 ? util::TaskRunner::shared().thread_count()
                                : workers;
  report.scale = scale;
  report.entries.push_back(probe_micro_steal(seed, report.workers, scale));
  report.entries.push_back(probe_micro_obs(seed, scale));
  report.entries.push_back(probe_micro_des(seed, scale));
  report.entries.push_back(probe_micro_runner(seed, report.workers, scale));
  report.entries.push_back(probe_fig07(seed, report.workers, scale));
  report.entries.push_back(probe_micro_shard(seed, scale));
  return report;
}

void write_perf_report_json(const PerfReport& report, std::ostream& out) {
  out << "{\n"
      << "  \"tool\": \"llsim bench --report\",\n"
      << "  \"version\": \"" << util::json::escape(obs::current_git_describe())
      << "\",\n"
      << "  \"seed\": " << report.seed << ",\n"
      << "  \"config\": {\"workers\": " << report.workers
      << ", \"scale\": " << fmt(report.scale) << "},\n"
      << "  \"entries\": [\n";
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    const PerfEntry& e = report.entries[i];
    out << "    {\"name\": \"" << util::json::escape(e.name)
        << "\", \"wall_s\": " << fmt(e.wall_s) << ", \"items\": " << e.items
        << ", \"items_per_s\": " << fmt(e.items_per_s)
        << ", \"runner_tasks\": " << e.runner_tasks
        << ", \"runner_steals\": " << e.runner_steals
        << ", \"runner_suspensions\": " << e.runner_suspensions << "}"
        << (i + 1 < report.entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int check_perf_report(const PerfReport& current,
                      const std::string& baseline_json, double tolerance,
                      std::ostream& out, bool require_clean_baseline) {
  namespace json = util::json;
  struct BaselineEntry {
    double wall_s = 0.0;
    std::uint64_t items = 0;
    bool has_items = false;
  };
  std::map<std::string, BaselineEntry> baseline;
  bool same_shape = false;  // baseline ran the identical probe sizes
  try {
    const json::Value doc = json::parse(baseline_json);
    if (doc.kind() != json::Kind::kObject) {
      throw std::runtime_error("top level is not an object");
    }
    // A baseline stamped from a dirty working tree is not reproducible —
    // nobody can check out the bytes it measured. With
    // require_clean_baseline (the CI bench-report job's mode) that is a
    // loud failure; otherwise a warning, so local --check against a
    // just-generated baseline keeps working mid-edit.
    const json::Value* version = doc.find("version");
    if (version && version->kind() == json::Kind::kString) {
      const std::string& v = version->as_string();
      constexpr std::string_view kDirty = "-dirty";
      if (v.size() >= kDirty.size() &&
          v.compare(v.size() - kDirty.size(), kDirty.size(), kDirty) == 0) {
        if (require_clean_baseline) {
          out << "perf-report check: FAIL — baseline version '" << v
              << "' was generated from a dirty tree; regenerate the "
                 "committed baseline from a clean checkout "
                 "(llsim bench --report)\n";
          return 1;
        }
        out << "perf-report check: warning — baseline version '" << v
            << "' was generated from a dirty tree\n";
      }
    }
    const json::Value* entries = doc.find("entries");
    if (!entries || entries->kind() != json::Kind::kArray) {
      throw std::runtime_error("missing \"entries\" array");
    }
    for (const json::Value& e : entries->as_array()) {
      const json::Value* name = e.find("name");
      const json::Value* wall = e.find("wall_s");
      if (!name || name->kind() != json::Kind::kString || !wall ||
          wall->kind() != json::Kind::kNumber) {
        throw std::runtime_error("entry lacks string name / numeric wall_s");
      }
      BaselineEntry be;
      be.wall_s = wall->as_number();
      if (const json::Value* items = e.find("items");
          items && items->kind() == json::Kind::kNumber) {
        be.items = items->as_u64();
        be.has_items = true;
      }
      baseline[name->as_string()] = be;
    }
    // Structural fields (items) are a pure function of (seed, scale,
    // workers); compare them exactly only when the two reports ran the
    // same configuration. version and wall_s jitter are never diffed —
    // wall time is ratio-gated, version is informational.
    const json::Value* seed = doc.find("seed");
    const json::Value* config = doc.find("config");
    if (seed && seed->kind() == json::Kind::kNumber && config &&
        config->kind() == json::Kind::kObject) {
      const json::Value* workers = config->find("workers");
      const json::Value* scale = config->find("scale");
      same_shape = workers && workers->kind() == json::Kind::kNumber &&
                   scale && scale->kind() == json::Kind::kNumber &&
                   seed->as_u64() == current.seed &&
                   workers->as_u64() == current.workers &&
                   scale->as_number() == current.scale;
    }
  } catch (const std::exception& e) {
    out << "perf-report check: cannot parse baseline: " << e.what() << "\n";
    return 2;
  }

  bool breached = false;
  util::Table table(
      {"entry", "baseline wall s", "current wall s", "ratio", "verdict"});
  for (const PerfEntry& e : current.entries) {
    const auto it = baseline.find(e.name);
    if (it == baseline.end()) {
      table.add_row({e.name, "-", fmt3(e.wall_s), "-",
                     "FAIL (not in baseline — regenerate it)"});
      breached = true;
      continue;
    }
    const double base = it->second.wall_s;
    // Sub-microsecond baselines carry no signal; any positive wall passes.
    const double ratio = base > 1e-6 ? e.wall_s / base : 0.0;
    const bool slow = ratio > tolerance;
    const bool items_drift =
        same_shape && it->second.has_items && it->second.items != e.items;
    std::string verdict = "ok";
    if (slow) {
      verdict = "FAIL (slower than tolerance)";
    } else if (items_drift) {
      verdict = "FAIL (items " + std::to_string(e.items) + " != baseline " +
                std::to_string(it->second.items) + ")";
    }
    table.add_row({e.name, fmt3(base), fmt3(e.wall_s), fmt3(ratio), verdict});
    if (slow || items_drift) breached = true;
    baseline.erase(it);
  }
  for (const auto& [name, be] : baseline) {
    table.add_row({name, fmt3(be.wall_s), "-", "-",
                   "FAIL (baseline entry not produced)"});
    breached = true;
  }
  out << "perf-report check (tolerance " << fmt3(tolerance) << "x):\n"
      << table.render();
  out << (breached ? "perf-report check: FAIL\n" : "perf-report check: ok\n");
  return breached ? 1 : 0;
}

int run_perf_report_cli(const std::vector<std::string>& args,
                        std::ostream& out, std::ostream& err) {
  util::Flags flags("llsim bench --report",
                    "Run the perf-trajectory probes and write a "
                    "schema-validated BENCH_*.json report.");
  auto out_path = flags.add_string("out", "BENCH_cpp.json",
                                   "report output path");
  auto check_path = flags.add_string(
      "check", "", "baseline report to diff wall times against");
  auto tolerance = flags.add_double(
      "tolerance", 10.0,
      "max allowed current/baseline wall-time ratio per entry");
  auto scale = flags.add_double(
      "report-scale", 1.0, "probe-size multiplier (tests shrink it)");
  auto workers = flags.add_int("workers", 0,
                               "runner workers (0 = hardware concurrency)");
  auto seed = flags.add_uint64("seed", 42, "probe task-graph seed");
  auto require_clean = flags.add_bool(
      "require-clean-baseline", false,
      "fail the check when the baseline's version carries a -dirty suffix "
      "(the CI mode — committed baselines must come from a clean tree)");
  try {
    std::vector<const char*> argv{"llsim bench --report"};
    for (const std::string& a : args) argv.push_back(a.c_str());
    flags.parse(static_cast<int>(argv.size()), argv.data());
  } catch (const std::exception& e) {
    err << "llsim bench --report: " << e.what() << "\n";
    return 2;
  }

  const PerfReport report = run_perf_report(
      *seed, static_cast<std::size_t>(*workers), *scale);

  std::ofstream file(*out_path);
  if (!file) {
    err << "llsim bench --report: cannot open " << *out_path
        << " for writing\n";
    return 2;
  }
  write_perf_report_json(report, file);

  util::Table table({"entry", "wall s", "items", "items/s", "runner tasks",
                     "steals", "suspensions"});
  for (const PerfEntry& e : report.entries) {
    table.add_row({e.name, fmt3(e.wall_s), std::to_string(e.items),
                   fmt(e.items_per_s), std::to_string(e.runner_tasks),
                   std::to_string(e.runner_steals),
                   std::to_string(e.runner_suspensions)});
  }
  out << "perf report (seed " << report.seed << ", workers " << report.workers
      << ", scale " << fmt(report.scale) << "):\n"
      << table.render() << "wrote " << *out_path << "\n";

  if (check_path->empty()) return 0;
  std::ifstream baseline_file(*check_path);
  if (!baseline_file) {
    err << "llsim bench --report: cannot open baseline " << *check_path
        << "\n";
    return 2;
  }
  std::ostringstream baseline;
  baseline << baseline_file.rdbuf();
  return check_perf_report(report, baseline.str(), *tolerance, out,
                           *require_clean);
}

}  // namespace ll::exp
