// Allocation behaviour of the coherence protocol. Misses, invalidation
// rounds, writebacks and lock handoffs name recycled transaction records
// and send closures small enough for std::function's local buffer, so once
// a run has reached its peak number of concurrent transactions, further
// protocol traffic allocates nothing. This binary replaces the global
// operator new/delete with counting versions (as frame_pool_test does) and
// asserts on that:
//
//  * doubling a shared-memory counting run's ops adds at most a few
//    allocations (a slightly higher peak), not a few per miss;
//  * doubling the rounds of a contended SpinLock, or the writes under a
//    SeqLock with parked readers, does the same, which also covers the wake
//    lists that keep their capacity across handoffs;
//  * no transaction record is live once the engine drains.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "apps/workload.h"
#include "net/constant_net.h"
#include "shmem/coherent_memory.h"
#include "shmem/sync.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/task.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cm::shmem {
namespace {

using core::Mechanism;
using sim::ProcId;
using sim::Task;

// A longer run may reach a slightly higher peak of concurrent transactions,
// frames or waiters, and each new peak grows a table once; it never
// allocates per message. With shared_ptr one-shots and heap closures the
// protocol made about 136 allocations per counting op.
constexpr std::uint64_t kPeakSlack = 8;

struct CountedRun {
  apps::RunStats stats;
  std::uint64_t allocs;
};

CountedRun counting_run(long ops_per_requester) {
  apps::CountingConfig cfg;
  cfg.scheme = {Mechanism::kSharedMemory, false, false};
  cfg.requesters = 16;
  cfg.ops_per_requester = ops_per_requester;
  const std::uint64_t a0 = allocs();
  apps::RunStats stats = apps::run_counting(cfg);
  return {std::move(stats), allocs() - a0};
}

TEST(ShmemAlloc, DoublingACountingRunAddsAtMostAFewAllocations) {
  const CountedRun n = counting_run(25);
  const CountedRun n2 = counting_run(50);
  ASSERT_EQ(n.stats.total_exited, 16 * 25);
  ASSERT_EQ(n2.stats.total_exited, 16 * 50);
  ASSERT_GT(n2.stats.shmem.misses(), n.stats.shmem.misses() + 1000);
  ASSERT_GT(n2.stats.shmem.invalidations, n.stats.shmem.invalidations + 500);
  ASSERT_GT(n2.stats.shmem.limitless_traps, n.stats.shmem.limitless_traps);
  EXPECT_LE(n2.allocs, n.allocs + kPeakSlack)
      << "coherence traffic beyond the first N ops allocated on the heap";
}

struct World {
  sim::Engine eng;
  sim::Machine machine;
  net::ConstantNetwork net;
  CoherentMemory mem;

  explicit World(ProcId nprocs, CacheParams cp = {})
      : machine(eng, nprocs), net(eng), mem(machine, net, cp) {}
};

Task<> contend(World* w, SpinLock* lock, ProcId p, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await lock->acquire(p);
    // Hold the lock longer than a miss takes, so the others park on its
    // wake list, and leave a gap after releasing so they win it in turn.
    co_await w->machine.compute(p, 400);
    co_await lock->release(p);
    co_await w->machine.compute(p, 200);
  }
}

std::uint64_t lock_run_allocs(int rounds, std::uint64_t* invalidations) {
  const std::uint64_t a0 = allocs();
  World w(8);
  SpinLock lock(w.mem, 7);
  for (ProcId p = 0; p < 7; ++p) sim::detach(contend(&w, &lock, p, rounds));
  w.eng.run();
  *invalidations = w.mem.stats().invalidations;
  return allocs() - a0;
}

TEST(ShmemAlloc, DoublingSpinLockHandoffsAddsAtMostAFewAllocations) {
  std::uint64_t inv_n = 0;
  std::uint64_t inv_2n = 0;
  const std::uint64_t n = lock_run_allocs(40, &inv_n);
  const std::uint64_t n2 = lock_run_allocs(80, &inv_2n);
  ASSERT_GT(inv_2n, inv_n + 100);
  EXPECT_LE(n2, n + kPeakSlack)
      << "lock handoffs beyond the first N rounds allocated on the heap";
}

Task<> seq_writer(World* w, SeqLock* sl, ProcId p, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await sl->begin_write(p);
    co_await w->machine.compute(p, 400);  // readers park meanwhile
    co_await sl->end_write(p);
    co_await w->machine.compute(p, 200);
  }
}

Task<> seq_reader(World* w, SeqLock* sl, const bool* done, ProcId p) {
  while (!*done) {
    const std::uint64_t v = co_await sl->begin_read(p);
    co_await w->machine.compute(p, 50);
    (void)co_await sl->validate(p, v);
  }
}

Task<> finish(Task<> body, bool* done) {
  co_await std::move(body);
  *done = true;
}

std::uint64_t seqlock_run_allocs(int rounds, std::uint64_t* misses) {
  const std::uint64_t a0 = allocs();
  World w(8);
  SeqLock sl(w.mem, 7);
  bool done = false;
  sim::detach(finish(seq_writer(&w, &sl, 0, rounds), &done));
  for (ProcId p = 1; p < 7; ++p) sim::detach(seq_reader(&w, &sl, &done, p));
  w.eng.run();
  *misses = w.mem.stats().misses();
  return allocs() - a0;
}

TEST(ShmemAlloc, DoublingSeqLockWritesAddsAtMostAFewAllocations) {
  std::uint64_t miss_n = 0;
  std::uint64_t miss_2n = 0;
  const std::uint64_t n = seqlock_run_allocs(40, &miss_n);
  const std::uint64_t n2 = seqlock_run_allocs(80, &miss_2n);
  ASSERT_GT(miss_2n, miss_n + 100);
  EXPECT_LE(n2, n + kPeakSlack)
      << "seqlock writes beyond the first N rounds allocated on the heap";
}

Task<> sweep(World* w, ProcId p, std::vector<Addr> lines) {
  for (const Addr a : lines) co_await w->mem.write(p, a, 4);
  for (const Addr a : lines) co_await w->mem.read(p, a, 4);
}

TEST(ShmemAlloc, NoTransactionIsLiveOnceTheEngineDrains) {
  // Misses, MSHR merges, prefetches, invalidations and (with a 256-byte
  // direct-mapped cache) dirty writebacks all take records.
  World w(6, CacheParams{256, 1});
  std::vector<Addr> lines;
  for (unsigned i = 0; i < 40; ++i) {
    lines.push_back(w.mem.alloc(static_cast<ProcId>(3 + i % 3), 16));
  }
  w.mem.prefetch(0, lines[0], 16);
  for (ProcId p = 0; p < 3; ++p) sim::detach(sweep(&w, p, lines));
  EXPECT_EQ(w.mem.live_transactions(), 3u);  // one request each, in flight
  w.eng.run_bounded(200);
  EXPECT_GT(w.mem.live_transactions(), 0u);
  w.eng.run();
  EXPECT_GT(w.mem.stats().writebacks, 0u);
  EXPECT_GT(w.mem.stats().invalidations, 0u);
  EXPECT_GT(w.mem.stats().mshr_merges, 0u);
  EXPECT_EQ(w.mem.live_transactions(), 0u);
}

}  // namespace
}  // namespace cm::shmem
