#include "util/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

namespace ll::util {
namespace {

TEST(TaskRunner, RunsEveryTaskExactlyOnce) {
  TaskRunner runner(4);
  std::vector<std::atomic<int>> hits(100);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  runner.run(std::move(tasks));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskRunner, EmptyBatchIsANoop) {
  TaskRunner runner(2);
  EXPECT_NO_THROW(runner.run({}));
}

TEST(TaskRunner, SingleThreadSpawnsNoWorkersAndRunsInline) {
  const std::uint64_t before = TaskRunner::total_threads_created();
  TaskRunner runner(1);
  EXPECT_EQ(runner.thread_count(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    tasks.push_back([&seen, i] { seen[i] = std::this_thread::get_id(); });
  }
  runner.run(std::move(tasks));
  for (const auto& id : seen) EXPECT_EQ(id, caller);
  EXPECT_EQ(TaskRunner::total_threads_created(), before);
}

TEST(TaskRunner, ZeroSelectsHardwareConcurrency) {
  TaskRunner runner(0);
  EXPECT_GE(runner.thread_count(), 1u);
}

TEST(TaskRunner, BoundsWorkerThreadsToPoolSize) {
  TaskRunner runner(3);
  const std::uint64_t before = TaskRunner::total_threads_created();
  std::mutex mu;
  std::set<std::thread::id> ids;
  for (int round = 0; round < 4; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 64; ++i) {
      tasks.push_back([&mu, &ids] {
        const std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      });
    }
    runner.run(std::move(tasks));
  }
  // Caller + at most 2 pool threads, created once, reused across batches.
  EXPECT_LE(ids.size(), 3u);
  EXPECT_LE(TaskRunner::total_threads_created() - before, 2u);
}

TEST(TaskRunner, RethrowsLowestIndexExceptionAfterDraining) {
  TaskRunner runner(4);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.push_back([&ran, i] {
      ran.fetch_add(1);
      if (i == 20) throw std::runtime_error("late failure");
      if (i == 7) throw std::invalid_argument("early failure");
    });
  }
  try {
    runner.run(std::move(tasks));
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "early failure");  // index 7 beats index 20
  }
  EXPECT_EQ(ran.load(), 32);  // a failure never cancels the rest
}

TEST(TaskRunner, UsableAgainAfterAnException) {
  TaskRunner runner(2);
  std::vector<std::function<void()>> bad;
  bad.push_back([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(runner.run(std::move(bad)), std::runtime_error);

  std::atomic<int> ran{0};
  std::vector<std::function<void()>> good;
  for (int i = 0; i < 16; ++i) good.push_back([&ran] { ran.fetch_add(1); });
  runner.run(std::move(good));
  EXPECT_EQ(ran.load(), 16);
}

TEST(TaskRunner, NestedRunDoesNotDeadlock) {
  TaskRunner runner(2);
  std::atomic<int> inner_ran{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&runner, &inner_ran] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 8; ++j) {
        inner.push_back([&inner_ran] { inner_ran.fetch_add(1); });
      }
      runner.run(std::move(inner));
    });
  }
  runner.run(std::move(outer));
  EXPECT_EQ(inner_ran.load(), 32);
}

/// Counts suspension callbacks; the other hooks are ignored.
struct SuspendCounter : RunnerObserver {
  std::atomic<int> suspends{0};
  void on_batch(std::size_t, std::uint64_t, std::uint64_t) override {}
  void on_steal(std::size_t) override {}
  void on_suspend(std::size_t, std::uint64_t, std::uint64_t) override {
    suspends.fetch_add(1);
  }
};

/// Runs tiny batches until every pool worker of `runner` has suspended at
/// least once since the call, then gives them a moment to reach the wait.
void put_workers_to_sleep(TaskRunner& runner) {
  const std::uint64_t before = runner.stats().suspensions;
  const std::uint64_t workers = runner.thread_count() - 1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (runner.stats().suspensions < before + workers &&
         std::chrono::steady_clock::now() < deadline) {
    std::vector<std::function<void()>> batch(2, [] {});
    runner.run(std::move(batch));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(runner.stats().suspensions, before + workers)
      << "idle workers never reached the suspend state";
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(TaskRunner, DetachedObserverIsNotCalledByWorkersThatSleptWithIt) {
  TaskRunner runner(4);
  SuspendCounter observer;
  runner.set_observer(&observer);
  put_workers_to_sleep(runner);
  runner.set_observer(nullptr);
  const int at_detach = observer.suspends.load();
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> wake(16, [&ran] { ran.fetch_add(1); });
  runner.run(std::move(wake));  // wakes the sleepers
  put_workers_to_sleep(runner);
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(observer.suspends.load(), at_detach);
}

TEST(TaskRunner, ObserverMayBeDestroyedWhileWorkersSleep) {
  // The sanitizer presets turn a call on the destroyed observer into a
  // heap-use-after-free report.
  TaskRunner runner(4);
  auto observer = std::make_unique<SuspendCounter>();
  runner.set_observer(observer.get());
  put_workers_to_sleep(runner);
  runner.set_observer(nullptr);
  observer.reset();
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> wake(16, [&ran] { ran.fetch_add(1); });
  runner.run(std::move(wake));
  put_workers_to_sleep(runner);
  EXPECT_EQ(ran.load(), 16);
}

TEST(TaskRunner, SharedRunnerIsAProcessSingleton) {
  TaskRunner& a = TaskRunner::shared();
  TaskRunner& b = TaskRunner::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.thread_count(), 1u);
}

}  // namespace
}  // namespace ll::util
