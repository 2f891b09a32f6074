// Shared-memory golden results. Each case runs one deterministic scenario
// through the coherence protocol and compares every observable it produces
// (ops, network words and messages, engine events, completion time and all
// MemStats counters) against constants pinned before the protocol's
// plumbing was rewritten around recycled transaction records. Any change to
// the protocol's event order, message count or timing moves at least one of
// them, so these tests make "simulated behaviour is unchanged" a ctest
// check instead of a hand diff of bench output.
//
// On a mismatch gtest prints the actual record in the same initializer form
// as the constants below; a deliberate behaviour change re-pins by pasting
// it (and says why in the change log).
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "apps/workload.h"
#include "net/constant_net.h"
#include "shmem/coherent_memory.h"
#include "shmem/sync.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/task.h"

namespace cm::shmem {

/// Everything a scenario pins. `ops` is scenario-defined (operations inside
/// the measurement window for app runs, completed accesses otherwise).
struct Pinned {
  long ops;
  std::uint64_t words;
  std::uint64_t messages;
  std::uint64_t events;
  sim::Cycles completed_at;
  MemStats mem;
};

bool operator==(const MemStats& a, const MemStats& b) {
  return a.read_hits == b.read_hits && a.read_misses == b.read_misses &&
         a.write_hits == b.write_hits && a.write_misses == b.write_misses &&
         a.upgrades == b.upgrades && a.invalidations == b.invalidations &&
         a.fetches == b.fetches && a.writebacks == b.writebacks &&
         a.evictions == b.evictions &&
         a.limitless_traps == b.limitless_traps &&
         a.prefetches == b.prefetches && a.mshr_merges == b.mshr_merges;
}

bool operator==(const Pinned& a, const Pinned& b) {
  return a.ops == b.ops && a.words == b.words && a.messages == b.messages &&
         a.events == b.events && a.completed_at == b.completed_at &&
         a.mem == b.mem;
}

void PrintTo(const Pinned& p, std::ostream* os) {
  const MemStats& m = p.mem;
  *os << "{" << p.ops << ", " << p.words << ", " << p.messages << ", "
      << p.events << ", " << p.completed_at << ",\n {" << m.read_hits << ", "
      << m.read_misses << ", " << m.write_hits << ", " << m.write_misses
      << ", " << m.upgrades << ", " << m.invalidations << ", " << m.fetches
      << ", " << m.writebacks << ", " << m.evictions << ", "
      << m.limitless_traps << ", " << m.prefetches << ", " << m.mshr_merges
      << "}}";
}

namespace {

using core::Mechanism;
using sim::ProcId;
using sim::Task;

Pinned pinned(const apps::RunStats& s) {
  return {s.ops,          s.words,        s.messages, s.events_executed,
          s.completed_at, s.shmem};
}

struct World {
  sim::Engine eng;
  sim::Machine machine;
  net::ConstantNetwork net;
  CoherentMemory mem;
  long ops = 0;

  World(ProcId nprocs, CacheParams cp, ProtocolParams pp = {})
      : machine(eng, nprocs), net(eng), mem(machine, net, cp, pp) {}

  Pinned drain() {
    eng.run();
    return {ops,           net.stats().words, net.stats().messages,
            eng.events_executed(), eng.now(), mem.stats()};
  }
};

// --- SM counting network with LimitLESS (5 hardware pointers) -------------

TEST(ShmemGolden, CountingLimitless5) {
  apps::CountingConfig cfg;
  cfg.scheme = {Mechanism::kSharedMemory, false, false};
  cfg.limitless_pointers = 5;
  cfg.requesters = 16;
  cfg.window = {2'000, 20'000};
  const Pinned kGolden{66, 23206, 6813, 14960, 26480,
                       {196, 963, 343, 1288, 652, 656, 1232, 0, 0, 179, 0, 0}};
  EXPECT_EQ(pinned(apps::run_counting(cfg)), kGolden);
}

// --- SM B-tree, half inserts, small nodes so splits happen ----------------

TEST(ShmemGolden, BTreeWithInserts) {
  apps::BTreeConfig cfg;
  cfg.scheme = {Mechanism::kSharedMemory, false, false};
  cfg.requesters = 8;
  cfg.nkeys = 2'000;
  cfg.max_entries = 10;
  cfg.insert_ratio = 0.5;
  cfg.window = {2'000, 20'000};
  const Pinned kGolden{78, 15280, 3948, 7563, 25472,
                       {1179, 1356, 306, 577, 117, 24, 304, 0, 9, 72, 0, 0}};
  EXPECT_EQ(pinned(apps::run_btree(cfg)), kGolden);
}

// --- Prefetch plus MSHR merges -------------------------------------------

Task<> prefetch_and_read(World* w, ProcId p, Addr a, unsigned bytes) {
  w->mem.prefetch(p, a, bytes);
  co_await w->mem.read(p, a, bytes);
  ++w->ops;
}

Task<> write_behind(World* w, ProcId p, Addr a, unsigned bytes) {
  // Merges with the prefetch's read transaction, then issues the upgrade.
  co_await w->mem.write(p, a, bytes);
  ++w->ops;
}

TEST(ShmemGolden, PrefetchAndMshrMerge) {
  World w(6, CacheParams{});
  const Addr a = w.mem.alloc(2, 160);
  const Addr b = w.mem.alloc(3, 64);
  sim::detach(prefetch_and_read(&w, 0, a, 160));
  sim::detach(write_behind(&w, 0, a + 32, 16));
  sim::detach(prefetch_and_read(&w, 1, a, 160));
  sim::detach(write_behind(&w, 4, b, 64));
  sim::detach(prefetch_and_read(&w, 5, b, 64));
  const Pinned kGolden{5, 300, 80, 128, 403,
                       {0, 48, 0, 5, 0, 4, 4, 0, 0, 0, 24, 22}};
  EXPECT_EQ(w.drain(), kGolden);
}

// --- Dirty evictions and their writebacks --------------------------------

Task<> sweep(World* w, ProcId p, std::vector<Addr> lines, bool write) {
  for (const Addr a : lines) {
    if (write) {
      co_await w->mem.write(p, a, 4);
    } else {
      co_await w->mem.read(p, a, 4);
    }
    ++w->ops;
  }
}

TEST(ShmemGolden, DirtyEvictionWriteback) {
  // A 256-byte direct-mapped cache: 16 sets, so the 48-line sweeps keep
  // evicting dirty lines that must be written back home.
  World w(5, CacheParams{256, 1});
  std::vector<Addr> lines;
  for (unsigned i = 0; i < 48; ++i) {
    lines.push_back(w.mem.alloc(static_cast<ProcId>(2 + i % 3), 16));
  }
  sim::detach(sweep(&w, 0, lines, /*write=*/true));
  sim::detach(sweep(&w, 1, lines, /*write=*/false));
  sim::detach(sweep(&w, 2, lines, /*write=*/true));
  const Pinned kGolden{144, 1596, 376, 706, 2998,
                       {0, 48, 0, 96, 0, 0, 38, 61, 95, 0, 0, 0}};
  EXPECT_EQ(w.drain(), kGolden);
}

// --- An invalidation round that overflows the hardware pointers ----------

Task<> contend(World* w, SpinLock* lock, ProcId p, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await lock->acquire(p);
    co_await w->machine.compute(p, 20);
    co_await lock->release(p);
    ++w->ops;
  }
}

TEST(ShmemGolden, SpinLockInvalidationRounds) {
  ProtocolParams pp;
  pp.hw_sharer_pointers = 2;
  World w(8, CacheParams{}, pp);
  SpinLock lock(w.mem, 7);
  for (ProcId p = 0; p < 7; ++p) sim::detach(contend(&w, &lock, p, 3));
  const Pinned kGolden{21, 292, 80, 161, 2190,
                       {14, 7, 28, 14, 7, 6, 13, 0, 0, 6, 0, 0}};
  EXPECT_EQ(w.drain(), kGolden);
}

}  // namespace
}  // namespace cm::shmem
