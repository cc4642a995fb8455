/// \file serve_workload.cpp
/// `serve_open`: an in-process serve::Server (default queue, batch and cache
/// settings, 2-worker runner) driven open-loop over 2 TCP connections to
/// localhost. Requests arrive as a Poisson process drawn from the seed;
/// half reuse a hot set of 32 seeds (cache reads), half use fresh seeds
/// (misses that simulate and write into the LRU). Latency is timed from
/// each request's scheduled send time, so a stalled generator or server
/// shows up in every request queued behind it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "exp/pool_cache.hpp"
#include "harness.hpp"
#include "rng/rng.hpp"
#include "serve/scenario.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/runner.hpp"

namespace llbench {
namespace {

namespace json = ll::util::json;

constexpr std::size_t kConnections = 2;
constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kHotSeeds = 32;
constexpr double kHotShare = 0.5;
constexpr double kLoRate = 300.0;
constexpr double kHiRate = 1200.0;
/// The max-rate ladder: fixed rates from kHiRate upward by kLadderStep.
constexpr double kLadderStep = 1.15;
constexpr std::size_t kLadderSteps = 8;
constexpr double kLimitMs = 50.0;
constexpr double kDrainTimeoutS = 2.0;
constexpr int kSetupRepeats = 4;
/// Phase lengths as shares of --seconds: lo, hi, each saturation burst and
/// each ladder step; the traced run repeats hi twice at kTracedShare.
constexpr double kLoShare = 0.4;
constexpr double kHiShare = 0.15;
constexpr double kBurstShare = 0.05;
constexpr double kStepShare = 0.05;
constexpr double kTracedShare = 0.2;
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Offline miss timings: kTimedBatches batches of kTimedSims / kTimedBatches,
/// spread over the run.
constexpr std::size_t kTimedSims = 320;
constexpr std::size_t kTimedBatches = 10;
/// Offline timing seeds live far above every served seed range.
constexpr std::uint64_t kOfflineSeedBase = 1ull << 62;
constexpr std::size_t kCheckWorkers = 4;
/// Saturation: requests kept in flight per connection (2 x 64 stays below
/// the default admission bound of 256, so nothing is refused), in
/// kBursts bursts spread over the run.
constexpr std::size_t kSaturateWindow = 64;
constexpr int kBursts = 6;

/// llload's default scenario shape (8 nodes, 16 jobs x 60 s, 4 machines x
/// 0.05 days, LL); only the seed varies.
ll::serve::ScenarioRequest scenario(std::uint64_t seed) {
  ll::serve::ScenarioRequest req;
  req.policy = ll::core::PolicyKind::LingerLonger;
  req.nodes = 8;
  req.jobs = 16;
  req.demand = 60.0;
  req.machines = 4;
  req.days = 0.05;
  req.seed = seed;
  return req;
}

std::string request_line(std::uint64_t id, std::uint64_t seed) {
  return "{\"id\": " + std::to_string(id) +
         ", \"op\": \"run\", \"params\": {\"policy\": \"LL\", \"nodes\": 8, "
         "\"jobs\": 16, \"demand\": 60, \"machines\": 4, \"days\": 0.05, "
         "\"seed\": " + std::to_string(seed) + "}}\n";
}

/// Request seeds: the hot set and a fresh range, both derived from the
/// benchmark seed and disjoint from each other.
struct SeedPlan {
  std::uint64_t base;
  std::uint64_t next_fresh = kHotSeeds;
  explicit SeedPlan(std::uint64_t seed) : base((seed % (1ull << 36)) << 24) {}
  std::uint64_t hot(std::size_t i) const { return base + i; }
  std::uint64_t fresh() { return base + next_fresh++; }
};

int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() to the in-process server failed");
  }
  // The generator must not batch requests behind unacknowledged ones.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send() to the server failed");
    off += static_cast<std::size_t>(n);
  }
}

/// Runs `work(c)` for both connections at once, connection 1 on its own
/// thread, and rethrows the first failure after both finished.
template <typename F>
void on_both_connections(F&& work) {
  static_assert(kConnections == 2);
  std::exception_ptr failure;
  std::thread other([&] {
    try {
      work(1);
    } catch (...) {
      failure = std::current_exception();
    }
  });
  try {
    work(0);
  } catch (...) {
    other.join();
    throw;
  }
  other.join();
  if (failure) std::rethrow_exception(failure);
}

/// One planned request of a phase.
struct Planned {
  double due_s;        ///< offset from the phase start
  std::uint64_t seed;
};

/// What one connection saw during one phase.
struct ConnResult {
  std::vector<double> latency_ms;  ///< +inf for refused / timed-out requests
  std::vector<double> late_ms;     ///< send time minus due time
  std::vector<std::pair<double, std::size_t>> backlog;  ///< (t, outstanding)
  std::uint64_t rejected = 0, errors = 0, timeouts = 0;
  std::map<std::string, std::uint64_t> results;  ///< key -> result digest
  bool inconsistent = false;  ///< one key served with two different results
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;  ///< (due, done) ns
};

/// Drives one connection through its share of a phase's schedule: sends
/// each request when due, reads responses in between, then waits up to
/// kDrainTimeoutS for stragglers.
ConnResult drive(int fd, const std::vector<Planned>& plan, Clock::time_point start,
                 std::uint64_t id_base, bool keep_spans) {
  ConnResult r;
  std::map<std::uint64_t, double> outstanding;  // id -> due_s
  std::string buffer;
  char chunk[1 << 16];
  std::size_t next = 0;
  const double end_s = plan.empty() ? 0.0 : plan.back().due_s;
  for (;;) {
    double now_s = seconds_since(start);
    while (next < plan.size() && plan[next].due_s <= now_s) {
      const std::uint64_t id = id_base + next;
      send_all(fd, request_line(id, plan[next].seed));
      now_s = seconds_since(start);
      r.late_ms.push_back((now_s - plan[next].due_s) * 1e3);
      outstanding.emplace(id, plan[next].due_s);
      r.backlog.emplace_back(plan[next].due_s, outstanding.size());
      ++next;
    }
    if (next == plan.size() &&
        (outstanding.empty() || now_s > end_s + kDrainTimeoutS)) {
      break;
    }
    double wait_s = next < plan.size() ? plan[next].due_s - now_s
                                       : end_s + kDrainTimeoutS - now_s;
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, std::max(0, static_cast<int>(wait_s * 1e3)));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("server closed the connection");
    buffer.append(chunk, static_cast<std::size_t>(n));
    const double done_s = seconds_since(start);
    std::size_t from = 0;
    for (std::size_t nl; (nl = buffer.find('\n', from)) != std::string::npos;
         from = nl + 1) {
      const json::Value doc = json::parse(std::string_view(buffer).substr(from, nl - from));
      const auto it = outstanding.find(doc.find("id")->as_u64());
      if (it == outstanding.end()) continue;
      const std::string& status = doc.find("status")->as_string();
      if (status == "ok") {
        r.latency_ms.push_back((done_s - it->second) * 1e3);
        const std::uint64_t digest = fnv1a(doc.find("result")->as_string());
        const auto [slot, fresh] = r.results.emplace(doc.find("key")->as_string(), digest);
        if (!fresh && slot->second != digest) r.inconsistent = true;
        if (keep_spans) {
          r.spans.emplace_back(static_cast<std::uint64_t>(it->second * 1e9),
                               static_cast<std::uint64_t>(done_s * 1e9));
        }
      } else {
        (status == "rejected" ? r.rejected : r.errors) += 1;
        r.latency_ms.push_back(kInf);
      }
      outstanding.erase(it);
    }
    buffer.erase(0, from);
  }
  r.timeouts = outstanding.size();
  r.latency_ms.insert(r.latency_ms.end(), outstanding.size(), kInf);
  return r;
}

struct Phase {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::uint64_t sent = 0, rejected = 0, errors = 0, timeouts = 0;
  bool growing = false;  ///< backlog grew across the window

  [[nodiscard]] double p(double q) const { return quantile(latency_ms, q); }
  /// Share of requests answered within kLimitMs (refused and timed-out
  /// requests count as over the limit).
  [[nodiscard]] double share_within() const {
    const auto n = std::count_if(latency_ms.begin(), latency_ms.end(),
                                 [](double ms) { return ms <= kLimitMs; });
    return latency_ms.empty() ? 0.0
                              : static_cast<double>(n) / static_cast<double>(latency_ms.size());
  }
  [[nodiscard]] bool within_limit() const {
    return !growing && rejected + errors + timeouts == 0 && p(0.99) <= kLimitMs;
  }
};

/// The serve client: 2 connections, the seed plan, and every result seen.
class Client {
 public:
  Client(int port, std::uint64_t seed) : seeds_(seed), rng_(seed) {
    for (std::size_t c = 0; c < kConnections; ++c) fds_[c] = connect_local(port);
  }
  ~Client() {
    for (const int fd : fds_) ::close(fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Requests every hot seed once, one at a time (cache fill).
  void warm() {
    for (std::size_t i = 0; i < kHotSeeds; ++i) {
      fold(drive(fds_[0], {{0.0, seeds_.hot(i)}}, Clock::now(), next_id_++, false));
    }
  }

  /// Closed loop: each connection keeps `window` requests in flight for
  /// `seconds`. Returns answered requests per second.
  double saturate(double seconds, std::size_t window);

  /// Runs an open-loop Poisson phase at `rate` requests/s for `seconds`;
  /// with `spans`, every answered request is logged as a span.
  Phase run(double rate, double seconds, SpanLog* spans = nullptr);

  [[nodiscard]] const std::map<std::string, std::uint64_t>& results() const {
    return results_;
  }
  [[nodiscard]] bool inconsistent() const { return inconsistent_; }

 private:
  void fold(const ConnResult& r) {
    for (const auto& [key, digest] : r.results) {
      const auto [slot, fresh] = results_.emplace(key, digest);
      if (!fresh && slot->second != digest) inconsistent_ = true;
    }
    inconsistent_ = inconsistent_ || r.inconsistent;
  }

  SeedPlan seeds_;
  ll::rng::Stream rng_;
  int fds_[kConnections] = {-1, -1};
  std::uint64_t next_id_ = 1;
  std::uint64_t phase_ = 0;
  std::map<std::string, std::uint64_t> results_;
  bool inconsistent_ = false;
};

Phase Client::run(double rate, double seconds, SpanLog* spans) {
  const bool keep_spans = spans != nullptr;
  // Per-connection Poisson streams at rate/K superpose to rate.
  std::vector<Planned> plans[kConnections];
  ll::rng::Stream phase_rng = rng_.fork("phase", phase_++);
  for (std::size_t c = 0; c < kConnections; ++c) {
    ll::rng::Stream arrivals = phase_rng.fork("arrivals", c);
    for (double t = 0.0;;) {
      t += -std::log(1.0 - arrivals.uniform01()) / (rate / kConnections);
      if (t >= seconds) break;
      const bool hot = arrivals.uniform01() < kHotShare;
      const std::uint64_t seed =
          hot ? seeds_.hot(static_cast<std::size_t>(arrivals.uniform01() * kHotSeeds))
              : seeds_.fresh();
      plans[c].push_back({t, seed});
    }
  }
  Phase ph;
  ConnResult results[kConnections];
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const std::uint64_t span_origin = spans ? spans->ns_at(start) : 0;
  on_both_connections([&](std::size_t c) {
    results[c] = drive(fds_[c], plans[c], start, next_id_ + (c << 32), keep_spans);
  });
  next_id_ += 1ull << 33;

  std::vector<std::pair<double, std::size_t>> backlog;
  for (std::size_t c = 0; c < kConnections; ++c) {
    const ConnResult& r = results[c];
    fold(r);
    ph.latency_ms.insert(ph.latency_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
    ph.late_ms.insert(ph.late_ms.end(), r.late_ms.begin(), r.late_ms.end());
    backlog.insert(backlog.end(), r.backlog.begin(), r.backlog.end());
    ph.sent += plans[c].size();
    ph.rejected += r.rejected;
    ph.errors += r.errors;
    ph.timeouts += r.timeouts;
    if (spans) {
      std::uint64_t req = (c << 32) + 1;
      for (const auto& [due, done] : r.spans) {
        spans->add("serve.request", span_origin + due, span_origin + done, -1, req++,
                   static_cast<int>(c));
      }
    }
  }
  // Backlog: mean outstanding requests (per connection, at send time) in
  // the first vs the last quarter of the window.
  double first = 0.0, last = 0.0;
  std::size_t n_first = 0, n_last = 0;
  for (const auto& [t, depth] : backlog) {
    if (t < seconds / 4) {
      first += static_cast<double>(depth);
      ++n_first;
    } else if (t >= 3 * seconds / 4) {
      last += static_cast<double>(depth);
      ++n_last;
    }
  }
  if (n_first > 0 && n_last > 0) {
    ph.growing = last / static_cast<double>(n_last) >
                 2.0 * first / static_cast<double>(n_first) + 8.0;
  }
  return ph;
}

/// Keeps `window` requests of `seeds` in flight on one connection until
/// `seconds` pass, then drains; returns the answered count.
std::uint64_t pump(int fd, const std::vector<std::uint64_t>& seeds, double seconds,
                   std::size_t window, std::uint64_t id_base) {
  std::size_t sent = 0, answered = 0;
  std::string buffer;
  char chunk[1 << 16];
  const auto start = Clock::now();
  bool open = true;
  while (answered < sent || open) {
    open = open && seconds_since(start) < seconds && sent < seeds.size();
    while (open && sent - answered < window && sent < seeds.size()) {
      send_all(fd, request_line(id_base + sent, seeds[sent]));
      ++sent;
    }
    if (answered == sent) break;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("server closed the connection");
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t from = 0;
    for (std::size_t nl; (nl = buffer.find('\n', from)) != std::string::npos;
         from = nl + 1) {
      if (json::parse(std::string_view(buffer).substr(from, nl - from))
              .find("status")->as_string() != "ok") {
        throw std::runtime_error("request refused in the saturation phase");
      }
      ++answered;
    }
    buffer.erase(0, from);
  }
  return answered;
}

double Client::saturate(double seconds, std::size_t window) {
  // Enough seeds for a rate well above capacity; unused fresh seeds are
  // harmless.
  const auto per_conn = static_cast<std::size_t>(10000.0 * seconds);
  std::vector<std::uint64_t> seeds[kConnections];
  ll::rng::Stream sat = rng_.fork("saturate", phase_++);
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (std::size_t i = 0; i < per_conn; ++i) {
      seeds[c].push_back(sat.uniform01() < kHotShare
                             ? seeds_.hot(static_cast<std::size_t>(sat.uniform01() * kHotSeeds))
                             : seeds_.fresh());
    }
  }
  std::uint64_t answered[kConnections] = {};
  const auto t0 = Clock::now();
  on_both_connections([&](std::size_t c) {
    answered[c] = pump(fds_[c], seeds[c], seconds, window, next_id_ + (c << 32));
  });
  const double wall = seconds_since(t0);
  next_id_ += 1ull << 33;
  return static_cast<double>(answered[0] + answered[1]) / wall;
}

/// One cold server start: fresh trace-pool cache, server up, both
/// connections open and the hot set cached.
struct Running {
  std::unique_ptr<ll::serve::Server> server;
  std::unique_ptr<Client> client;
};

Running start(ll::util::TaskRunner& runner, std::uint64_t seed) {
  ll::exp::TracePoolCache::shared().clear();
  Running r;
  ll::serve::ServerConfig config;
  config.runner = &runner;
  r.server = std::make_unique<ll::serve::Server>(config);
  r.server->start();
  r.client = std::make_unique<Client>(r.server->port(), seed);
  r.client->warm();
  return r;
}

void stop(Running& r) {
  r.client.reset();
  r.server->shutdown();
  r.server.reset();
}

/// Offline byte-equality: every distinct (config, seed) served must equal a
/// fresh ScenarioRequest::run(), checked on a 4-worker runner.
void check_offline(const Client& client, Outcome& out) {
  const std::string config = ll::serve::format_key(scenario(0).config_digest(), 0);
  const std::string prefix = config.substr(0, config.find(':') + 1);
  struct Item {
    std::uint64_t seed = 0;
    std::uint64_t served = 0;
    bool ok = false;
  };
  std::vector<Item> items;
  std::size_t foreign = 0;  // keys of another config: never requested
  for (const auto& [key, digest] : client.results()) {
    if (key.rfind(prefix, 0) != 0) {
      ++foreign;
      continue;
    }
    items.push_back({std::stoull(key.substr(prefix.size())), digest, false});
  }
  ll::util::TaskRunner pool(kCheckWorkers);
  std::vector<std::function<void()>> tasks;
  for (Item& item : items) {
    tasks.emplace_back([&item, &pool] {
      item.ok = fnv1a(scenario(item.seed).run(&pool)) == item.served;
    });
  }
  pool.run(std::move(tasks));

  const auto mismatched = static_cast<std::uint64_t>(
      std::count_if(items.begin(), items.end(), [](const Item& i) { return !i.ok; }));
  out.attempted += client.results().size();
  out.failed += mismatched + foreign;
  if (mismatched + foreign > 0) {
    std::fprintf(stderr, "llbench: CHECK FAILED: %llu served results differ from "
                 "offline ScenarioRequest::run()\n",
                 static_cast<unsigned long long>(mismatched + foreign));
  }
  out.check(!client.inconsistent(), "one key was served with two different results");
}

/// The miss shape's cost: times of `count` offline ScenarioRequest::run
/// calls, one at a time on a 1-worker runner, with fresh seeds that are
/// never served (`*next` numbers them). The batch is bracketed by
/// host-speed samples; `walls` gets raw times, `norms` normalised ones.
void time_misses(std::uint64_t seed, std::size_t count, std::uint64_t* next,
                 HostSpeed& host, std::vector<double>& walls,
                 std::vector<double>& norms) {
  ll::util::TaskRunner serial(1);
  const std::size_t first = walls.size();
  host.sample();
  for (std::size_t i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    (void)scenario(kOfflineSeedBase + (seed % (1ull << 40)) * kTimedSims + (*next)++)
        .run(&serial);
    walls.push_back(seconds_since(t0));
  }
  host.sample();
  for (std::size_t i = first; i < walls.size(); ++i) norms.push_back(host.scale(walls[i]));
}

/// Counts a fixed-rate phase's requests into attempted/failed: refused,
/// failed and timed-out requests are failures here.
void count(const Phase& ph, Outcome& out) {
  out.attempted += ph.sent;
  out.failed += ph.rejected + ph.errors + ph.timeouts;
}

double stat_field(const std::string& stats, const char* name) {
  return json::parse(stats).find(name)->as_number();
}

/// The maximum rate: fixed ladder rates upward from kHiRate until a step
/// misses the limit (p99 over kLimitMs, a refusal or timeout, or a growing
/// backlog). The result interpolates, between the last passing and the
/// first failing rate, where the share of requests within kLimitMs crosses
/// 0.99; it is 0 when even kHiRate fails.
double ladder(Client& client, const Phase& hi, double step_seconds) {
  if (!hi.within_limit()) return 0.0;
  double pass_rate = kHiRate;
  double pass_share = hi.share_within();
  for (std::size_t step = 1; step <= kLadderSteps; ++step) {
    const double rate = kHiRate * std::pow(kLadderStep, static_cast<double>(step));
    const Phase ph = client.run(rate, step_seconds);
    if (ph.within_limit()) {
      pass_rate = rate;
      pass_share = ph.share_within();
      continue;
    }
    const double fail_share = ph.share_within();
    if (fail_share >= 0.99 || pass_share <= fail_share) return pass_rate;
    const double frac = std::clamp((pass_share - 0.99) / (pass_share - fail_share), 0.0, 1.0);
    return pass_rate + (rate - pass_rate) * frac;
  }
  return pass_rate;
}

}  // namespace

Outcome run_serve_open(const Options& opt) {
  Outcome out;
  ll::util::TaskRunner runner(kServerWorkers);

  // The miss shape's offline cost, sampled at kTimedBatches points of the
  // run so that its median spans the run's host noise.
  HostSpeed host;
  std::vector<double> sim_walls, sim_norms;
  std::uint64_t sim_next = 0;
  const auto time_some = [&] {
    time_misses(opt.seed, kTimedSims / kTimedBatches, &sim_next, host, sim_walls,
                sim_norms);
  };
  time_some();
  // Cold server starts, repeated here and again after the load phases so
  // the median spans the run; the last start here serves the load. Each is
  // followed by a host-speed sample.
  std::vector<double> setups;
  Running live;
  const auto cold_starts = [&] {
    host.sample();
    for (int r = 0; r < kSetupRepeats; ++r) {
      if (live.server) stop(live);
      const auto t0 = Clock::now();
      live = start(runner, opt.seed);
      const double wall = seconds_since(t0);
      host.sample();
      setups.push_back(host.scale(wall));
    }
  };
  cold_starts();
  Client& client = *live.client;

  if (!opt.trace) {
    // Capacity: saturation bursts between the phases, upper quartile. A
    // burst is not bracketed by kernel samples (two samples around a
    // 1-second burst through the connections and the dispatcher do not
    // track it); the run's capacity is normalised by the run's median
    // kernel time instead.
    std::vector<double> bursts;
    const auto burst = [&] {
      bursts.push_back(client.saturate(kBurstShare * opt.seconds, kSaturateWindow));
      time_some();
    };
    const Phase lo = client.run(kLoRate, kLoShare * opt.seconds);
    time_some();
    burst();
    const Phase hi = client.run(kHiRate, kHiShare * opt.seconds);
    time_some();
    burst();
    count(lo, out);
    count(hi, out);
    const double rss = peak_rss_mb();
    const double max_rate = ladder(client, hi, kStepShare * opt.seconds);
    for (int b = 2; b < kBursts; ++b) burst();
    check_offline(client, out);
    time_some();
    cold_starts();
    const double capacity_raw = quantile(bursts, 0.75);
    const double capacity = capacity_raw / host.run_factor();

    auto& m = out.metrics;
    m["setup_s"] = median(setups);
    m["run_s"] = median(sim_norms);
    m["sims_per_s"] = capacity;
    m["latency_p50_ms"] = lo.p(0.5);
    m["peak_rss_mb"] = rss;
    out.note("latency_p50_ms.lo", lo.p(0.5), "ms");
    out.note("latency_p99_ms.lo", lo.p(0.99), "ms");
    out.note("latency_p50_ms.hi", hi.p(0.5), "ms");
    out.note("latency_p99_ms.hi", hi.p(0.99), "ms");
    out.note("max_rate_rps", max_rate, "1/s");
    out.note("capacity_rps", capacity, "1/s");
    out.note("capacity_rps.raw", capacity_raw, "1/s");
    out.note("run_s.raw", median(sim_walls), "s");
    out.note("host.reference_s", median(host.samples()), "s");
    out.note("hi.requests", static_cast<double>(hi.sent), "count");
    out.note("hi.backlog_growing", hi.growing ? 1.0 : 0.0, "flag");
    out.note("gen.late_ms_p99.hi", quantile(hi.late_ms, 0.99), "ms");
    stop(live);
    return out;
  }

  // Traced mode: the hi phase untraced, then again with per-request spans.
  SpanLog spans;
  const Phase plain = client.run(kHiRate, kTracedShare * opt.seconds);
  const auto before = live.server->stats();
  const auto runner_before = runner.stats();
  const Phase traced = client.run(kHiRate, kTracedShare * opt.seconds, &spans);
  const auto after = live.server->stats();
  const auto runner_after = runner.stats();
  const std::string stats = live.server->stats_json();
  count(plain, out);
  count(traced, out);
  check_offline(client, out);
  time_some();

  // Trace-pool cost for one request's pool, cold and cached.
  ll::exp::TracePoolCache cache;
  auto t0 = Clock::now();
  (void)cache.standard(4, 0.05 * 24.0, opt.seed + 1);
  const double pool_s = seconds_since(t0);
  t0 = Clock::now();
  (void)cache.standard(4, 0.05 * 24.0, opt.seed + 1);
  const double pool_cached_s = seconds_since(t0);

  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses = static_cast<double>(after.cache_misses - before.cache_misses);
  const double batches = static_cast<double>(after.batches - before.batches);
  auto& m = out.metrics;
  m["serve.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  m["serve.batches"] = batches;
  m["serve.mean_batch"] = batches > 0 ? (hits + misses) / batches : 0.0;
  m["serve.rejected"] = static_cast<double>(after.requests_rejected - before.requests_rejected);
  m["serve.server_p99_ms"] = stat_field(stats, "latency_p99_ms");
  m["serve.sim_ms"] = median(sim_walls) * 1e3;
  m["gen.late_ms_p99"] = quantile(traced.late_ms, 0.99);
  m["runner.tasks"] = static_cast<double>(runner_after.executed - runner_before.executed);
  m["runner.steals"] = static_cast<double>(runner_after.stolen - runner_before.stolen);
  m["runner.suspensions"] =
      static_cast<double>(runner_after.suspensions - runner_before.suspensions);
  m["trace.pool_s"] = pool_s;
  m["trace.pool_cached_s"] = pool_cached_s;
  m["obs.trace_overhead"] = traced.p(0.5) / plain.p(0.5) - 1.0;
  stop(live);
  spans.write_chrome_json(opt.trace_out);
  return out;
}

}  // namespace llbench
