// The federation's persistent worker pool (DESIGN.md §12).
//
// FederationEngine starts W-1 worker threads on its first run_epochs call
// and keeps them, parked or spinning, until it is destroyed.  Each epoch
// the caller publishes a go generation (release) and waits for a done
// countdown (acquire); the mailbox flip runs serially in between.  This
// suite pins what that lifetime has to keep:
//   - stepping one epoch per call reuses the same pool and digests like a
//     single serial call;
//   - between calls the caller may read (and audit) every shard, as the
//     perfbench federation workload does after each epoch;
//   - destruction never hangs, whether the pool never started or has been
//     parked in atomic::wait for a while;
//   - the worker count still clamps to [1, K].
// Under `scripts/check.sh --tsan` it is also the race probe for the
// go/done edges: the serial reads here race with nothing only if those
// edges order them against the workers.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "wrtring/federation.hpp"

namespace wrt::wrtring {
namespace {

constexpr std::uint64_t kSeed = 20261017;
constexpr std::int64_t kEpochs = 12;

FederationConfig pool_config(std::uint32_t workers) {
  FederationConfig config;
  config.shards = 8;
  config.worker_threads = workers;
  config.rings = 16;
  config.stations_per_ring = 8;
  config.epoch_slots = 16;
  config.saturated_per_ring = 2;
  config.crossing_flows_per_ring = 1;
  config.crossing_rate_per_slot = 0.02;
  config.backbone_premium_capacity = 2.0;
  return config;
}

std::uint64_t serial_digest() {
  FederationEngine federation(pool_config(1), kSeed);
  EXPECT_TRUE(federation.init().ok());
  federation.run_epochs(kEpochs);
  return federation.digest();
}

/// Runs `body` on its own thread and reports whether it returned within
/// `limit`.  On a timeout the thread is abandoned, so a hang fails the
/// test instead of stalling the suite.
bool finishes_within(std::chrono::milliseconds limit,
                     std::function<void()> body) {
  auto finished = std::make_shared<std::promise<void>>();
  std::future<void> done = finished->get_future();
  std::thread runner([finished, body = std::move(body)] {
    body();
    finished->set_value();
  });
  if (done.wait_for(limit) != std::future_status::ready) {
    runner.detach();
    return false;
  }
  runner.join();
  return true;
}

/// Threads in this process, or -1 where /proc is unavailable.
int thread_count() {
  std::error_code error;
  std::filesystem::directory_iterator tasks("/proc/self/task", error);
  if (error) return -1;
  int count = 0;
  for (const auto& entry : tasks) {
    (void)entry;
    ++count;
  }
  return count;
}

/// Threads the federation added over `baseline`, once joined threads have
/// left /proc (a thread can outlive its join there by a few microseconds).
int extra_threads(int baseline, int expected) {
  int extra = thread_count() - baseline;
  for (int retry = 0; retry < 100 && extra != expected; ++retry) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    extra = thread_count() - baseline;
  }
  return extra;
}

TEST(FederationPoolTest, SteppedRunsMatchOneSerialCall) {
  const std::uint64_t reference = serial_digest();
  for (const std::uint32_t workers : {2U, 4U, 8U}) {
    FederationEngine federation(pool_config(workers), kSeed);
    ASSERT_TRUE(federation.init().ok());
    for (std::int64_t e = 0; e < kEpochs; ++e) federation.run_epochs(1);
    EXPECT_EQ(federation.epochs_run(), kEpochs);
    EXPECT_EQ(federation.digest(), reference) << "W=" << workers;
  }
}

TEST(FederationPoolTest, MixedCallSizesMatchOneSerialCall) {
  FederationEngine federation(pool_config(4), kSeed);
  ASSERT_TRUE(federation.init().ok());
  for (const std::int64_t epochs : {1, 3, 0, 2, 6}) {
    federation.run_epochs(epochs);
  }
  EXPECT_EQ(federation.digest(), serial_digest());
}

TEST(FederationPoolTest, SerialReadsBetweenStepsSeeWholeEpochs) {
  FederationEngine federation(pool_config(4), kSeed);
  ASSERT_TRUE(federation.init().ok());
  std::uint64_t last_digest = 0;
  for (std::int64_t e = 0; e < kEpochs; ++e) {
    std::uint64_t posted_before = 0;
    for (std::uint32_t s = 0; s < federation.shard_count(); ++s) {
      posted_before += federation.shard(s).counters().crossings_posted;
    }
    federation.run_epochs(1);

    const FederationStats stats = federation.stats();
    EXPECT_EQ(stats.ring_slots,
              static_cast<std::uint64_t>(federation.ring_count()) *
                  static_cast<std::uint64_t>(federation.now_slots()));
    const std::uint64_t digest = federation.digest();
    EXPECT_NE(digest, last_digest) << "epoch " << e;
    last_digest = digest;
    for (std::uint32_t r = 0; r < federation.ring_count(); ++r) {
      const util::Status status = federation.ring_engine(r).check_invariants();
      EXPECT_TRUE(status.ok()) << "epoch " << e << " ring " << r << ": "
                               << (status.ok() ? "" : status.error().message);
    }
    // Every frame posted before this epoch was drained at its start, so
    // it is now injected, dropped, tail-dropped or still inside a shard.
    std::uint64_t accounted = 0;
    for (std::uint32_t s = 0; s < federation.shard_count(); ++s) {
      const FederationShard& shard = federation.shard(s);
      accounted += shard.counters().crossings_injected +
                   shard.counters().crossing_drops +
                   shard.backbone().tail_drops() + shard.in_flight();
    }
    EXPECT_EQ(posted_before, accounted) << "epoch " << e;
  }
  EXPECT_GT(federation.stats().crossings.crossings_delivered, 0U);
  EXPECT_EQ(federation.digest(), serial_digest());
}

TEST(FederationPoolTest, DestroyingAnEngineThatNeverRanReturns) {
  EXPECT_TRUE(finishes_within(std::chrono::seconds(10), [] {
    FederationEngine federation(pool_config(4), kSeed);
    ASSERT_TRUE(federation.init().ok());
  }));
  EXPECT_TRUE(finishes_within(std::chrono::seconds(10), [] {
    FederationEngine never_initialized(pool_config(4), kSeed);
  }));
}

TEST(FederationPoolTest, ParkedWorkersWakeAndShutDown) {
  EXPECT_TRUE(finishes_within(std::chrono::seconds(20), [] {
    auto federation =
        std::make_unique<FederationEngine>(pool_config(4), kSeed);
    ASSERT_TRUE(federation->init().ok());
    federation->run_epochs(kEpochs / 2);
    // Long past the spin budget: every worker is parked in atomic::wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    federation->run_epochs(kEpochs / 2);
    EXPECT_EQ(federation->digest(), serial_digest());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    federation.reset();
  }));
}

TEST(FederationPoolTest, WorkersStartLazilyAndClampToShardCount) {
  const int baseline = thread_count();
  if (baseline < 0) GTEST_SKIP() << "no /proc/self/task";
  const auto K = static_cast<int>(pool_config(0).shards);
  // worker_threads = 0 means one per shard; more than K clamps to K; the
  // caller is worker 0, so the pool holds W-1 threads.
  for (const std::uint32_t workers : {0U, 3U, 64U, 1U}) {
    const int expected =
        workers == 0 ? K - 1 : std::min(static_cast<int>(workers), K) - 1;
    {
      FederationEngine federation(pool_config(workers), kSeed);
      ASSERT_TRUE(federation.init().ok());
      EXPECT_EQ(extra_threads(baseline, 0), 0)
          << "W=" << workers << ": init must not start workers";
      federation.run_epochs(kEpochs / 2);
      EXPECT_EQ(extra_threads(baseline, expected), expected)
          << "W=" << workers;
      federation.run_epochs(kEpochs / 2);
      EXPECT_EQ(extra_threads(baseline, expected), expected)
          << "W=" << workers << ": the pool is reused, not regrown";
      EXPECT_EQ(federation.digest(), serial_digest()) << "W=" << workers;
    }
    EXPECT_EQ(extra_threads(baseline, 0), 0)
        << "W=" << workers << ": destruction joins every worker";
  }
}

}  // namespace
}  // namespace wrt::wrtring
