#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <queue>
#include <stdexcept>
#include <thread>

#include "cluster/cluster_sim.hpp"
#include "util/json.hpp"

namespace llbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (values[hi] == values[lo]) return values[lo];  // also +inf == +inf
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

constexpr std::uint32_t kReferenceSlots = 1u << 21;

/// The reference kernel's 8 MiB cycle: a full-period LCG permutation of
/// kReferenceSlots slots, past the per-core L2.
const std::vector<std::uint32_t>& reference_cycle() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(kReferenceSlots);
    for (std::uint32_t i = 0; i < kReferenceSlots; ++i) {
      v[i] = (i * 1103515245u + 12345u) & (kReferenceSlots - 1);
    }
    return v;
  }();
  return next;
}

/// The reference kernel: a chase through the cycle feeding a 64 Ki-entry
/// binary heap.
std::uint64_t reference_kernel(const std::vector<std::uint32_t>& next) {
  std::priority_queue<std::uint64_t> heap;
  std::uint64_t s = 1;
  std::uint32_t p = 0;
  for (int i = 0; i < 200000; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    p = next[p];
    heap.push(s ^ p);
    if (heap.size() > 65536) heap.pop();
  }
  return heap.top() + p;
}

}  // namespace

void HostSpeed::sample() {
  const std::vector<std::uint32_t>& next = reference_cycle();
  // Untimed sequential pass: whatever the timed work before this sample
  // left in the caches, the kernel starts from the same cache state.
  std::uint64_t warm = 0;
  for (const std::uint32_t v : next) warm += v;
  std::atomic<std::uint64_t> sink{warm};
  const auto t0 = Clock::now();
  std::vector<std::thread> others;
  for (std::size_t t = 1; t < threads_; ++t) {
    others.emplace_back([&] { sink += reference_kernel(next); });
  }
  sink += reference_kernel(next);
  for (std::thread& t : others) t.join();
  samples_.push_back(seconds_since(t0));
  sink_ = sink.load();
}

double HostSpeed::factor() const {
  if (samples_.size() < 2) throw std::logic_error("HostSpeed: unit not bracketed");
  const std::size_t n = samples_.size();
  return kReferenceS / (0.5 * (samples_[n - 2] + samples_[n - 1]));
}

double HostSpeed::run_factor() const {
  if (samples_.empty()) throw std::logic_error("HostSpeed: no samples");
  return kReferenceS / median(samples_);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "llbench: CHECK FAILED: %s\n", what.c_str());
}

void Outcome::note(const std::string& name, double value, const std::string& unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-24s %14.6g %s", name.c_str(), value,
                unit.c_str());
  notes.emplace_back(buf);
}

// --- SpanLog -----------------------------------------------------------

std::uint64_t SpanLog::ns_at(Clock::time_point t) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count());
}

int SpanLog::add(std::string name, std::uint64_t t0_ns, std::uint64_t t1_ns,
                 int parent, std::uint64_t req, int tid) {
  spans_.push_back(Span{std::move(name), t0_ns, std::max(t0_ns, t1_ns), parent,
                        req, tid});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::merge(const ll::obs::Tracer::Snapshot& snap,
                    std::uint64_t tracer_origin_ns, int parent) {
  for (const auto& e : snap.records) {
    if (e.rec.kind != ll::obs::TraceKind::kWallSpan) continue;
    add(snap.labels.at(e.rec.label), tracer_origin_ns + e.rec.t0_ns,
        tracer_origin_ns + e.rec.t1_ns, parent, e.rec.arg,
        1 + static_cast<int>(e.tid));
  }
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"traceEvents\": [\n";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f", s.tid,
                  static_cast<double>(s.t0_ns) / 1e3,
                  static_cast<double>(s.t1_ns - s.t0_ns) / 1e3);
    out << "{\"name\": \"" << ll::util::json::escape(s.name)
        << "\", \"ph\": \"X\", " << buf << ", \"args\": {\"parent\": "
        << s.parent << ", \"req\": " << s.req << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// --- TagObserver -------------------------------------------------------

void TagObserver::start(const ll::des::Simulation& engine) {
  off_scheduled_ = engine.events_scheduled() - scheduled;
  off_fired_ = engine.events_fired() - fired;
  off_cancelled_ = engine.events_cancelled() - cancelled;
  pending_ = engine.pending_count();
  peak_pending = std::max(peak_pending, pending_);
  run_t0_ = Clock::now();
}

bool balanced(const ll::des::Simulation& engine) {
  return engine.events_scheduled() ==
         engine.events_fired() + engine.events_cancelled() + engine.pending_count();
}

bool TagObserver::conserved(const ll::des::Simulation& engine) const {
  return balanced(engine) &&
         engine.events_scheduled() == off_scheduled_ + scheduled &&
         engine.events_fired() == off_fired_ + fired &&
         engine.events_cancelled() == off_cancelled_ + cancelled &&
         engine.pending_count() == pending_;
}

void TagObserver::on_schedule(double, ll::des::EventId, std::uint64_t) {
  ++scheduled;
  peak_pending = std::max(peak_pending, ++pending_);
}

void TagObserver::on_fire(double, ll::des::EventId, std::uint64_t tag) {
  ++fired;
  --pending_;
  ++fires[tag % kTags];
  fire_t0_ = Clock::now();
  if (inject_ns_ > 0 && tag == inject_tag_) {
    const auto until = fire_t0_ + std::chrono::nanoseconds(inject_ns_);
    while (Clock::now() < until) {
    }
  }
}

void TagObserver::on_fire_done(double, ll::des::EventId, std::uint64_t tag) {
  callback_s[tag % kTags] += seconds_since(fire_t0_);
}

void TagObserver::on_cancel(ll::des::EventId, std::uint64_t) {
  ++cancelled;
  --pending_;
}

double TagObserver::self_s() const {
  double callbacks = 0.0;
  for (const double s : callback_s) callbacks += s;
  return run_s_ - callbacks;
}

void TagObserver::add(const TagObserver& other) {
  scheduled += other.scheduled;
  fired += other.fired;
  cancelled += other.cancelled;
  peak_pending = std::max(peak_pending, other.peak_pending);
  for (std::size_t t = 0; t < kTags; ++t) {
    fires[t] += other.fires[t];
    callback_s[t] += other.callback_s[t];
  }
  run_s_ += other.run_s_;
}

void put_engine_metrics(const TagObserver& obs, Outcome& out) {
  using ll::cluster::ClusterSim;
  auto& m = out.metrics;
  m["des.events_fired"] = static_cast<double>(obs.fired);
  m["des.events_cancelled"] = static_cast<double>(obs.cancelled);
  m["des.cancel_ratio"] =
      obs.scheduled > 0 ? static_cast<double>(obs.cancelled) /
                              static_cast<double>(obs.scheduled)
                        : 0.0;
  m["des.peak_pending"] = static_cast<double>(obs.peak_pending);
  m["des.self_s"] = obs.self_s();
  m["des.ns_per_event"] =
      obs.fired > 0 ? obs.self_s() * 1e9 / static_cast<double>(obs.fired) : 0.0;
  m["cluster.tick_s"] = obs.callback_s[ClusterSim::kTagTick];
  m["cluster.tick_fires"] = static_cast<double>(obs.fires[ClusterSim::kTagTick]);
  m["cluster.completion_s"] = obs.callback_s[ClusterSim::kTagCompletion];
  m["cluster.completion_fires"] =
      static_cast<double>(obs.fires[ClusterSim::kTagCompletion]);
  m["cluster.recheck_s"] = obs.callback_s[ClusterSim::kTagRecheck];
  m["cluster.migration_s"] = obs.callback_s[ClusterSim::kTagMigration];
}

}  // namespace llbench
