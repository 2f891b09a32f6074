// Coroutine-frame recycling (sim::FramePool, task.h). Every simulated
// activation is a coroutine frame; the engine recycles them through one
// pool per shard so the message path stops allocating once a run reaches
// steady state. This binary replaces the global operator new/delete with
// counting versions (in the style of perfbench's allocation counter) so the
// tests can assert on exact allocation counts:
//
//  * a migration-heavy counting run makes no more global allocations at 2N
//    ops than at N ops — frames come from the pool, not the heap;
//  * same-seed runs in one process make identical counts (pools live and
//    die with their engine, so nothing carries over between runs);
//  * frames created at set-up and freed in a run, and frames that outlive
//    their engine, are all returned;
//  * each size class retains at most FramePool::kMaxFree free blocks;
//  * under kThreads, frames freed on another shard's worker thread stay
//    race-free (the TSan CI job runs this binary);
//  * the engine's cross-shard inboxes keep their buffers between windows,
//    so a longer sharded run does not allocate per window either.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "apps/workload.h"
#include "sim/engine.h"
#include "sim/sharded_engine.h"
#include "sim/task.h"

namespace {

// Relaxed atomics: kThreads runs allocate on shard worker threads.
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::uint64_t frees() { return g_frees.load(std::memory_order_relaxed); }
std::int64_t outstanding() {
  return static_cast<std::int64_t>(allocs() - frees());
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace cm::sim {
namespace {

using apps::CountingConfig;
using apps::RunStats;
using core::Mechanism;
using core::Scheme;

CountingConfig migration_cfg(long ops_per_requester) {
  CountingConfig cfg;
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  cfg.requesters = 16;
  cfg.think = 0;
  cfg.ops_per_requester = ops_per_requester;
  return cfg;
}

struct Counted {
  RunStats stats;
  std::uint64_t allocs;
};

Counted counted_run(const CountingConfig& cfg) {
  const std::uint64_t a0 = allocs();
  RunStats stats = apps::run_counting(cfg);
  return {std::move(stats), allocs() - a0};
}

// A run allocates one block per frame only up to the peak number of frames
// live at once; a longer run may reach a slightly higher peak (3 more
// blocks here), but never allocates per activation. With frames on the heap
// the extra 1,600 ops made 81,592 more allocations, 51 per op.
constexpr std::uint64_t kPeakSlack = 8;

TEST(FramePool, DoublingTheRunAddsNoAllocations) {
  const Counted n = counted_run(migration_cfg(100));
  const Counted n2 = counted_run(migration_cfg(200));
  ASSERT_EQ(n.stats.total_exited, 16 * 100);
  ASSERT_EQ(n2.stats.total_exited, 16 * 200);
  ASSERT_GT(n2.stats.runtime.migrations, n.stats.runtime.migrations + 1000);
  EXPECT_LE(n2.allocs, n.allocs + kPeakSlack)
      << "activations beyond the first N ops allocated frames on the heap";
}

TEST(FramePool, SameSeedRunsMakeIdenticalCounts) {
  const Counted a = counted_run(migration_cfg(50));
  const Counted b = counted_run(migration_cfg(50));
  EXPECT_EQ(a.stats.completed_at, b.stats.completed_at);
  EXPECT_EQ(a.stats.events_executed, b.stats.events_executed);
  EXPECT_EQ(a.allocs, b.allocs);
}

Task<int> leaf(int x) { co_return x; }

Task<void> wait_then_finish(Engine& eng, int* done) {
  auto aw = suspend_to([&eng](std::coroutine_handle<> h) {
    eng.after(5, [h] { h.resume(); });
  });
  co_await aw;
  *done += co_await leaf(1);
}

TEST(FramePool, SetupFramesDyingInARunAreFreed) {
  const std::int64_t before = outstanding();
  int done = 0;
  {
    Engine eng;
    // Created with no pool current: global blocks, freed inside the run
    // onto the shard's lists, and released when the engine dies.
    for (int i = 0; i < 3; ++i) detach(wait_then_finish(eng, &done));
    EXPECT_EQ(FramePool::current(), nullptr);
    eng.run();
    EXPECT_EQ(FramePool::current(), nullptr);
  }
  EXPECT_EQ(done, 3);
  EXPECT_EQ(outstanding(), before);
}

TEST(FramePool, FramesOutlivingTheirEngineAreFreed) {
  const std::int64_t before = outstanding();
  std::optional<Task<int>> survivor;
  {
    Engine eng;
    eng.after(1, [&survivor] {
      EXPECT_NE(FramePool::current(), nullptr);
      survivor.emplace(leaf(7));  // allocated inside the run, never started
    });
    eng.run();
  }
  ASSERT_TRUE(survivor.has_value());
  survivor.reset();  // no pool current: straight back to global delete
  EXPECT_EQ(outstanding(), before);
}

TEST(FramePool, EachClassRetainsAtMostTheCap) {
  constexpr unsigned kBurst = FramePool::kMaxFree + 36;
  auto pool = std::make_unique<FramePool>();
  const FramePool::Scope scope(*pool);
  std::vector<Task<int>> burst;
  burst.reserve(kBurst);
  auto fill = [&burst] {
    const std::uint64_t a0 = allocs();
    for (unsigned i = 0; i < kBurst; ++i) burst.push_back(leaf(1));
    return allocs() - a0;
  };
  EXPECT_EQ(fill(), kBurst);
  const std::uint64_t f0 = frees();
  burst.clear();
  EXPECT_EQ(frees() - f0, kBurst - FramePool::kMaxFree);
  EXPECT_EQ(fill(), kBurst - FramePool::kMaxFree);
  burst.clear();
}

TEST(FramePool, ThreadedShardsFreeFramesAcrossWorkers) {
  CountingConfig cfg = migration_cfg(20);
  cfg.mesh = false;  // mesh link contention is single-shard only
  cfg.nshards = 4;
  cfg.shard_backend = ShardBackend::kSequential;
  const std::int64_t before = outstanding();
  const RunStats seq = apps::run_counting(cfg);
  cfg.shard_backend = ShardBackend::kThreads;
  const RunStats thr = apps::run_counting(cfg);
  EXPECT_EQ(outstanding(), before);
  ASSERT_GT(thr.cross_shard_msgs, 0U);
  EXPECT_EQ(thr.total_exited, 16 * 20);
  EXPECT_EQ(thr.completed_at, seq.completed_at);
  EXPECT_EQ(thr.events_executed, seq.events_executed);
  EXPECT_EQ(thr.runtime.migrations, seq.runtime.migrations);
}

// Two processors on two shards bounce one event back and forth through the
// inboxes, one crossing per window. The capture is a single pointer, so
// the cross-shard std::function stores it inline and the only allocations
// left are queue and inbox growth, which must not scale with the windows.
struct PingPong {
  Engine* eng;
  int left;
};

struct Bounce {
  PingPong* pp;
  void operator()() const {
    if (pp->left-- == 0) return;
    const ProcId other = pp->eng->current_home() == 0 ? 1 : 0;
    pp->eng->after_on(other, 5, Bounce{pp});
  }
};

std::uint64_t ping_pong_allocs(int rounds) {
  const std::uint64_t a0 = allocs();
  Engine eng;
  eng.configure_shards(2, 2);
  PingPong pp{&eng, rounds};
  eng.at_on(0, 1, Bounce{&pp});
  ShardedEngine(eng, ShardOptions{ShardBackend::kSequential, 5, 1}).run();
  EXPECT_EQ(pp.left, -1);
  EXPECT_EQ(eng.cross_shard_msgs(), static_cast<std::uint64_t>(rounds));
  EXPECT_GE(eng.window_count(), static_cast<std::uint64_t>(rounds));
  return allocs() - a0;
}

TEST(EngineInbox, DoublingTheWindowsAddsNoAllocations) {
  const std::uint64_t n = ping_pong_allocs(200);
  const std::uint64_t n2 = ping_pong_allocs(400);
  EXPECT_LE(n2, n + kPeakSlack)
      << "cross-shard windows reallocated the inbox buffers";
}

}  // namespace
}  // namespace cm::sim
