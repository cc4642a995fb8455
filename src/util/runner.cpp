#include "util/runner.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <optional>
#include <thread>

#include "util/ring_deque.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>  // _mm_pause
#endif

namespace ll::util {
namespace {

std::atomic<std::uint64_t> g_threads_created{0};

/// One spin-loop breath: tells the core we are busy-waiting so it yields
/// pipeline resources to the sibling hyperthread (and saves power).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Absolute steady_clock ns — the RunnerObserver timestamp base.
inline std::uint64_t observer_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

struct TaskRunner::Impl {
  /// Concurrently published run() calls (external callers + nested run()
  /// depth). Overflow falls back to inline execution — correct, just
  /// sequential.
  static constexpr std::size_t kMaxBatches = 64;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  /// Idle-escalation bounds: failed scans spin (`cpu_relax`) this many
  /// times, then yield this many times, then suspend on epoch_.wait().
  static constexpr std::size_t kSpinBound = 32;
  static constexpr std::size_t kYieldBound = 8;

  /// One in-flight run() call. Lives on the calling thread's stack; the
  /// hazard-pointer protocol below keeps it safe to scan from workers.
  struct Batch {
    std::vector<std::function<void()>>* tasks = nullptr;
    std::vector<std::exception_ptr> errors;  // per task, disjoint slots
    // Task indices, one deque per worker slot. std::deque because
    // RingDeque is neither movable nor copyable.
    std::deque<RingDeque<std::size_t>> queues;
    // Remaining task count. The release half of each decrement publishes
    // that task's errors[] write; the caller acquire-loads 0 before
    // reading them. notify_all on the last decrement wakes the caller.
    std::atomic<std::size_t> unfinished{0};
  };

  explicit Impl(std::size_t threads) {
    if (threads == 0) {
      threads = std::thread::hardware_concurrency();
      if (threads == 0) threads = 4;
    }
    slots = threads;
    for (auto& s : batch_slots) s.store(nullptr, std::memory_order_relaxed);
    if (threads > 1) {
      hazards = std::make_unique<std::atomic<const Batch*>[]>(threads - 1);
      for (std::size_t w = 0; w + 1 < threads; ++w) {
        hazards[w].store(nullptr, std::memory_order_relaxed);
      }
      workers.reserve(threads - 1);
      for (std::size_t slot = 1; slot < threads; ++slot) {
        workers.emplace_back([this, slot] { worker_loop(slot); });
        g_threads_created.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  ~Impl() {
    stop.store(true, std::memory_order_release);
    wake_all();
    for (std::thread& t : workers) t.join();
  }

  /// Bumps the wake epoch and wakes one suspended worker. The bump is what
  /// prevents lost wakeups: a worker reads the epoch *before* its final
  /// failed scan, so a publish racing that scan changes the value and its
  /// epoch_.wait() returns immediately.
  void wake_one() noexcept {
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_one();
  }

  void wake_all() noexcept {
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_all();
  }

  /// Publishes `batch` into a free global slot (kNoSlot when all taken).
  std::size_t claim_slot(Batch* batch) noexcept {
    for (std::size_t i = 0; i < kMaxBatches; ++i) {
      Batch* expected = nullptr;
      if (batch_slots[i].compare_exchange_strong(expected, batch,
                                                 std::memory_order_seq_cst,
                                                 std::memory_order_relaxed)) {
        return i;
      }
    }
    return kNoSlot;
  }

  /// After unpublishing, waits until no worker still pins `batch` — only
  /// then may the caller's stack frame (which owns the batch) unwind. The
  /// window is tiny: a pin outlives unfinished==0 only across an
  /// empty-deque scan or the final decrement+notify.
  void drain_hazards(const Batch* batch) noexcept {
    for (std::size_t w = 0; w + 1 < slots; ++w) {
      while (hazards[w].load(std::memory_order_seq_cst) == batch) {
        cpu_relax();
      }
    }
  }

  void execute(Batch& batch, std::size_t index) {
    std::exception_ptr error;
    try {
      (*batch.tasks)[index]();
    } catch (...) {
      error = std::current_exception();
    }
    if (error) batch.errors[index] = std::move(error);
    stats_executed.fetch_add(1, std::memory_order_relaxed);
    if (batch.unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      batch.unfinished.notify_all();
    }
  }

  /// Sequential fallback (threads == 1, single-task batches, batch-slot
  /// overflow): same contract — every task runs, lowest-index rethrow.
  void run_inline(std::vector<std::function<void()>>& tasks) {
    std::exception_ptr first;
    for (auto& task : tasks) {
      try {
        task();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
      stats_executed.fetch_add(1, std::memory_order_relaxed);
    }
    if (first) std::rethrow_exception(first);
  }

  /// One thief pass: scan published batches; per batch try the own-slot
  /// deque LIFO, then steal FIFO from the other slots in pseudo-random
  /// order. On success the worker executes the task while its hazard slot
  /// still pins the batch, then clears the pin. Returns false when a full
  /// scan found nothing.
  bool try_run_one(std::size_t slot, std::uint64_t& rng) {
    thieves.fetch_add(1, std::memory_order_acq_rel);
    Batch* found = nullptr;
    std::size_t index = 0;
    std::atomic<const Batch*>& hazard = hazards[slot - 1];
    for (std::size_t i = 0; i < kMaxBatches && !found; ++i) {
      Batch* b = batch_slots[i].load(std::memory_order_acquire);
      if (b == nullptr) continue;
      // Hazard protocol: announce, then revalidate. After the seq_cst
      // announce, any caller that unpublishes this batch will see our pin
      // in drain_hazards and spin until we clear it; if the revalidation
      // fails the batch may already be gone and we must not touch it.
      hazard.store(b, std::memory_order_seq_cst);
      if (batch_slots[i].load(std::memory_order_seq_cst) != b) {
        hazard.store(nullptr, std::memory_order_release);
        continue;
      }
      if (auto idx = b->queues[slot].pop_bottom()) {
        found = b;
        index = *idx;
      } else {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t start = static_cast<std::size_t>(rng >> 33) % slots;
        for (std::size_t k = 0; k < slots && !found; ++k) {
          const std::size_t victim = (start + k) % slots;
          if (victim == slot) continue;
          if (auto idx = b->queues[victim].steal_top()) {
            stats_stolen.fetch_add(1, std::memory_order_relaxed);
            notify([slot](RunnerObserver& o) { o.on_steal(slot); });
            found = b;
            index = *idx;
          }
        }
      }
      if (!found) hazard.store(nullptr, std::memory_order_release);
    }
    if (!found) {
      thieves.fetch_sub(1, std::memory_order_acq_rel);
      return false;
    }
    actives.fetch_add(1, std::memory_order_relaxed);
    // Leaving thief mode with work in hand: if we were the last thief,
    // wake one sleeper so there is always a scout while work may remain —
    // this is the cascade that fans a fresh batch out to the whole pool
    // from the single wake_one() the publisher paid.
    if (thieves.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      wake_one();
    }
    execute(*found, index);
    hazard.store(nullptr, std::memory_order_release);
    actives.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  /// Worker state machine: scan → (found: execute, reset) | (miss: spin ×
  /// kSpinBound → yield × kYieldBound → suspend on epoch.wait). The epoch
  /// is sampled before each scan, so a publish between sample and wait
  /// makes the wait a no-op.
  void worker_loop(std::size_t slot) {
    std::uint64_t rng = 0x9e3779b97f4a7c15ull * (slot + 1);
    std::size_t spins = 0;
    std::size_t yields = 0;
    for (;;) {
      const std::uint32_t ep = epoch.load(std::memory_order_acquire);
      if (stop.load(std::memory_order_acquire)) return;
      if (try_run_one(slot, rng)) {
        spins = 0;
        yields = 0;
        continue;
      }
      if (spins < kSpinBound) {
        ++spins;
        cpu_relax();
        continue;
      }
      if (yields < kYieldBound) {
        ++yields;
        std::this_thread::yield();
        continue;
      }
      stats_suspensions.fetch_add(1, std::memory_order_relaxed);
      // The observer is re-read after waking: it may have been detached
      // (and destroyed) while this worker slept.
      const bool timed = observer.load(std::memory_order_acquire) != nullptr;
      const std::uint64_t t0 = timed ? observer_now_ns() : 0;
      epoch.wait(ep, std::memory_order_acquire);
      if (timed) {
        notify([slot, t0](RunnerObserver& o) {
          o.on_suspend(slot, t0, observer_now_ns());
        });
      }
      spins = 0;
      yields = 0;
    }
  }

  std::size_t slots = 1;
  std::vector<std::thread> workers;
  // Published batches, scanned lock-free by every worker.
  std::array<std::atomic<Batch*>, kMaxBatches> batch_slots;
  // Per pool worker (index slot-1): the batch it is currently inside.
  std::unique_ptr<std::atomic<const Batch*>[]> hazards;
  std::atomic<bool> stop{false};
  // Sleep/wake epoch (32-bit: futex fast path on Linux).
  alignas(64) std::atomic<std::uint32_t> epoch{0};
  // Global activity census (workers executing / workers scanning).
  alignas(64) std::atomic<std::size_t> actives{0};
  std::atomic<std::size_t> thieves{0};
  // Cumulative scheduler counters (TaskRunner::stats()).
  alignas(64) std::atomic<std::uint64_t> stats_executed{0};
  std::atomic<std::uint64_t> stats_stolen{0};
  std::atomic<std::uint64_t> stats_suspensions{0};
  // Attached scheduler observer (nullptr = detached). Release store in
  // set_observer pairs with the acquire loads at the call sites.
  std::atomic<RunnerObserver*> observer{nullptr};
  // Worker-side observer calls in flight; set_observer waits for zero.
  std::atomic<std::size_t> observer_calls{0};

  /// Calls `fn(observer)` if an observer is attached (worker-side hooks:
  /// on_steal, on_suspend).
  /// The seq_cst increment-then-load here and exchange-then-load in
  /// set_observer are a Dekker pair: either this load sees the new
  /// observer, or set_observer sees the call in flight and waits for it,
  /// so a detached observer is never called again.
  template <typename F>
  void notify(F&& fn) {
    if (observer.load(std::memory_order_relaxed) == nullptr) return;
    observer_calls.fetch_add(1, std::memory_order_seq_cst);
    if (RunnerObserver* o = observer.load(std::memory_order_seq_cst)) fn(*o);
    observer_calls.fetch_sub(1, std::memory_order_release);
  }

  /// The scheduling core of TaskRunner::run() (the public wrapper adds the
  /// observer's batch bracket).
  void run_batch(std::vector<std::function<void()>>& tasks) {
    if (slots == 1 || tasks.size() == 1) {
      // Nothing to parallelize: skip publication entirely. Scheduling-only
      // change, so results are identical to the pooled path by contract.
      run_inline(tasks);
      return;
    }

    Batch batch;
    batch.tasks = &tasks;
    batch.errors.resize(tasks.size());
    batch.unfinished.store(tasks.size(), std::memory_order_relaxed);
    // Deal indices round-robin, one fixed-capacity deque per worker slot.
    // All pushes happen before publication, so capacity == the dealt share
    // and push_bottom can never hit a full ring.
    const std::size_t share = (tasks.size() + slots - 1) / slots;
    for (std::size_t s = 0; s < slots; ++s) batch.queues.emplace_back(share);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      (void)batch.queues[i % slots].push_bottom(i);
    }

    const std::size_t claimed = claim_slot(&batch);
    if (claimed == kNoSlot) {
      run_inline(tasks);
      return;
    }
    wake_one();

    // The caller is worker 0: drain the own deque LIFO, then steal the
    // other slots FIFO. A failed full pass means every remaining task is
    // in flight on a pool worker — fall through to the completion wait.
    for (;;) {
      if (auto idx = batch.queues[0].pop_bottom()) {
        execute(batch, *idx);
        continue;
      }
      std::optional<std::size_t> idx;
      for (std::size_t v = 1; v < slots && !idx; ++v) {
        idx = batch.queues[v].steal_top();
      }
      if (!idx) break;
      stats_stolen.fetch_add(1, std::memory_order_relaxed);
      notify([](RunnerObserver& o) { o.on_steal(0); });
      execute(batch, *idx);
    }
    std::size_t left = batch.unfinished.load(std::memory_order_acquire);
    while (left != 0) {
      batch.unfinished.wait(left, std::memory_order_acquire);
      left = batch.unfinished.load(std::memory_order_acquire);
    }

    // Unpublish, then wait out any worker still scanning this batch before
    // the stack frame that owns it unwinds.
    batch_slots[claimed].store(nullptr, std::memory_order_seq_cst);
    drain_hazards(&batch);

    for (const std::exception_ptr& error : batch.errors) {
      if (error) std::rethrow_exception(error);
    }
  }
};

TaskRunner::TaskRunner(std::size_t threads)
    : impl_(std::make_unique<Impl>(threads)) {}

TaskRunner::~TaskRunner() = default;

std::size_t TaskRunner::thread_count() const { return impl_->slots; }

TaskRunner::Stats TaskRunner::stats() const {
  Stats s;
  s.executed = impl_->stats_executed.load(std::memory_order_relaxed);
  s.stolen = impl_->stats_stolen.load(std::memory_order_relaxed);
  s.suspensions = impl_->stats_suspensions.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t TaskRunner::total_threads_created() {
  return g_threads_created.load(std::memory_order_relaxed);
}

TaskRunner& TaskRunner::shared() {
  static TaskRunner runner;
  return runner;
}

void TaskRunner::run(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;  // documented no-op: no publication, no wake
  RunnerObserver* obs = impl_->observer.load(std::memory_order_acquire);
  if (!obs) {
    impl_->run_batch(tasks);
    return;
  }
  // Batch bracket: the observer hears about the batch (task count + wall
  // interval) even when a task throws — the span is real work either way.
  const std::size_t count = tasks.size();
  const std::uint64_t t0 = observer_now_ns();
  try {
    impl_->run_batch(tasks);
  } catch (...) {
    obs->on_batch(count, t0, observer_now_ns());
    throw;
  }
  obs->on_batch(count, t0, observer_now_ns());
}

RunnerObserver* TaskRunner::set_observer(RunnerObserver* observer) {
  RunnerObserver* previous =
      impl_->observer.exchange(observer, std::memory_order_seq_cst);
  // Wait out worker calls that loaded `previous` before the exchange, so
  // the caller may destroy it as soon as this returns.
  while (impl_->observer_calls.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  return previous;
}

}  // namespace ll::util
