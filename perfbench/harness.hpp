#pragma once

/// \file harness.hpp
/// Shared pieces of the llbench harness: wall clock, quantiles, the
/// measured-result record every workload fills, the in-memory span log
/// written out as Chrome trace JSON, and the engine observer that splits
/// event-loop time into per-tag callback time and engine self time.
///
/// Everything here observes the simulator from outside: it calls public
/// entry points and attaches only hooks the layers already expose
/// (des::SimObserver, obs::Tracer, TaskRunner::stats, Server::stats_json).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "des/simulation.hpp"
#include "obs/tracer.hpp"

namespace llbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]); 0 for
/// an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Host-speed normalisation. On the shared VMs this runs on, the same work
/// runs up to ~1.9x slower in some periods than in others, in phases that
/// can outlast a whole run, so no quantile taken inside one run removes
/// it. The slowdown is mostly in the memory system, and a fixed
/// memory-bound reference kernel (a pointer chase through an 8 MiB cycle
/// feeding a binary heap; perfbench code, independent of the simulator)
/// slows down with it. Each timed unit of work is bracketed by two timings
/// of the kernel, run on as many threads as the unit keeps busy; the
/// unit's wall time times kReferenceS over their mean is its time on a
/// host where the kernel takes kReferenceS, about its time on the 4-vCPU
/// VM described in README.md. A change to the simulator moves the
/// normalised time exactly as much as the raw time.
inline constexpr double kReferenceS = 0.035;

class HostSpeed {
 public:
  explicit HostSpeed(std::size_t threads = 1) : threads_(threads) {}
  /// Times the reference kernel once (on `threads` threads at once). Call
  /// it before the first timed unit and after each one.
  void sample();
  /// kReferenceS over the mean of the last two samples: the factor that
  /// turns the wall time of the unit between them into normalised time
  /// (divide a rate by it).
  [[nodiscard]] double factor() const;
  [[nodiscard]] double scale(double wall_s) const { return wall_s * factor(); }
  /// kReferenceS over the median of every sample so far: the factor for
  /// work that is not bracketed unit by unit, but tracks the host's speed
  /// over a whole run.
  [[nodiscard]] double run_factor() const;
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::size_t threads_;
  std::vector<double> samples_;
  std::uint64_t sink_ = 0;  ///< keeps the kernel's result alive
};

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// FNV-1a over a byte string, for output digests.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 1469598103934665603ull);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// What one workload run measured. `metrics` holds every metric the
/// workload defines (end-to-end in untraced mode, per-layer in traced
/// mode); run.py selects and labels them from BENCHMARK.json.
struct Outcome {
  std::map<std::string, double> metrics;
  /// Human-readable rows (name, value, unit) printed before the result.
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output digest of the run (cluster workloads and paper_sweep), checked
  /// against the recorded seed-42 value by run.py.
  std::string digest;

  /// Records one output check; a failure is counted and explained.
  void check(bool ok, const std::string& what);
  void note(const std::string& name, double value, const std::string& unit);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path (traced runs)
};

/// Harness spans, kept in memory and written once at the end of the run.
/// Spans of one request share `req`; `parent` indexes the causing span
/// (-1 for roots).
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  [[nodiscard]] std::uint64_t now_ns() const { return ns_at(Clock::now()); }
  [[nodiscard]] std::uint64_t ns_at(Clock::time_point t) const;
  /// Records a span and returns its index (for children's `parent`).
  int add(std::string name, std::uint64_t t0_ns, std::uint64_t t1_ns,
          int parent = -1, std::uint64_t req = 0, int tid = 0);
  /// Merges the wall spans of an obs::Tracer snapshot, re-based onto this
  /// log's clock (`tracer_origin_ns` = now_ns() at tracer construction),
  /// as children of `parent`.
  void merge(const ll::obs::Tracer::Snapshot& snap,
             std::uint64_t tracer_origin_ns, int parent);
  /// Chrome trace-event JSON (the subset tools/lltrace validates).
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t t0_ns;
    std::uint64_t t1_ns;
    int parent;
    std::uint64_t req;
    int tid;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Engine observer of the traced runs: counts schedule / fire / cancel (for
/// the conservation check and the des.* counters) and brackets every
/// callback in wall time per tag. After inject(), it busy-waits a fixed
/// time inside each callback of one tag (the attribution self-test).
class TagObserver final : public ll::des::SimObserver {
 public:
  static constexpr std::size_t kTags = 8;

  void inject(std::uint64_t tag, std::uint64_t delay_ns) {
    inject_tag_ = tag;
    inject_ns_ = delay_ns;
  }
  /// Marks the engine-run window [start, finish] (RunHooks). The observer
  /// is attached after construction, so start() takes the engine's
  /// counters as the baseline the hooks count from.
  void start(const ll::des::Simulation& engine);
  void finish() { run_s_ += seconds_since(run_t0_); }
  /// Conservation: the observed schedule/fire/cancel counts match the
  /// engine's counters since start(), and those balance against pending.
  [[nodiscard]] bool conserved(const ll::des::Simulation& engine) const;

  void on_schedule(double, ll::des::EventId, std::uint64_t) override;
  void on_fire(double, ll::des::EventId, std::uint64_t tag) override;
  void on_fire_done(double, ll::des::EventId, std::uint64_t tag) override;
  void on_cancel(ll::des::EventId, std::uint64_t) override;

  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t fires[kTags] = {};
  double callback_s[kTags] = {};

  /// Engine-run wall time minus time inside callbacks.
  [[nodiscard]] double self_s() const;
  [[nodiscard]] double run_s() const { return run_s_; }
  /// Folds another observer's totals into this one (sweep cells).
  void add(const TagObserver& other);

 private:
  std::uint64_t inject_tag_ = 0;
  std::uint64_t inject_ns_ = 0;
  Clock::time_point fire_t0_{};
  Clock::time_point run_t0_{};
  std::uint64_t pending_ = 0;
  // Engine counters minus observed counts at start(): both advance in step.
  std::uint64_t off_scheduled_ = 0, off_fired_ = 0, off_cancelled_ = 0;
  double run_s_ = 0.0;
};

/// Engine conservation: scheduled == fired + cancelled + pending.
[[nodiscard]] bool balanced(const ll::des::Simulation& engine);

/// Adds the des.* and cluster.* per-layer metrics of an observer.
void put_engine_metrics(const TagObserver& obs, Outcome& out);

// Workloads (one translation unit each).
Outcome run_cluster_large(const Options& opt);
Outcome run_cluster_sharded(const Options& opt);
Outcome run_paper_sweep(const Options& opt);
Outcome run_serve_open(const Options& opt);

}  // namespace llbench
