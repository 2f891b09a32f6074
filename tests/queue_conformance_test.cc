// Conformance suite for the engine's two event-queue backends.
//
// The calendar/arena hot path (QueueBackend::kCalendar) and the legacy
// binary heap of std::functions (kHeap) must implement one contract:
// events fire in (time, insertion-sequence) order, equal timestamps FIFO,
// and run()/run_until()/run_bounded()/idle()/pending() observe identical
// states. The heap is the reference implementation; these tests pit the
// two against each other on hand-built schedules, randomized schedules
// (including events scheduled from inside handlers), and the full fig2 /
// table1_2 workload configurations, where the exported metric JSON must be
// byte-identical across backends.

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/workload.h"
#include "core/metrics.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/sharded_engine.h"

namespace cm::sim {
namespace {

class QueueConformance : public ::testing::TestWithParam<QueueBackend> {};

INSTANTIATE_TEST_SUITE_P(Backends, QueueConformance,
                         ::testing::Values(QueueBackend::kCalendar,
                                           QueueBackend::kHeap),
                         [](const auto& info) {
                           return info.param == QueueBackend::kCalendar
                                      ? "Calendar"
                                      : "Heap";
                         });

TEST_P(QueueConformance, EqualTimestampsFireInInsertionOrder) {
  Engine eng(GetParam());
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    eng.at(100, [&order, i] { order.push_back(i); });
  }
  eng.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST_P(QueueConformance, InterleavedTimesStillFifoWithinATime) {
  Engine eng(GetParam());
  std::vector<std::pair<Cycles, int>> order;
  // Alternate between two timestamps so same-time events are separated by
  // other insertions — FIFO must hold per timestamp, not just globally.
  for (int i = 0; i < 32; ++i) {
    const Cycles t = (i % 2 == 0) ? 10 : 20;
    eng.at(t, [&order, t, i] { order.emplace_back(t, i); });
  }
  eng.run();
  ASSERT_EQ(order.size(), 32u);
  int last10 = -1;
  int last20 = -1;
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (order[k].first == 10) {
      EXPECT_LT(last10, order[k].second);
      last10 = order[k].second;
      EXPECT_LT(k, 16u);  // all t=10 events precede all t=20 events
    } else {
      EXPECT_LT(last20, order[k].second);
      last20 = order[k].second;
    }
  }
}

TEST_P(QueueConformance, EventsScheduledFromHandlersKeepOrdering) {
  Engine eng(GetParam());
  std::vector<int> order;
  eng.at(10, [&] {
    order.push_back(0);
    eng.at(10, [&] { order.push_back(1); });  // same time, scheduled later
    eng.after(5, [&] { order.push_back(3); });
  });
  eng.at(10, [&] { order.push_back(2); });  // pre-scheduled, earlier seq...
  eng.run();
  // ...but seq 2's handler-scheduled sibling (seq for push 1) is later
  // still, so: 0 (first at 10), 2 (second at 10), 1 (third at 10), 3 (15).
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
  EXPECT_EQ(order[3], 3);
}

// A deterministic xorshift so the "random" schedules are identical across
// both backends and across runs.
struct Rand {
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

struct Fired {
  Cycles t;
  int id;
  bool operator==(const Fired&) const = default;
};

// Drive one engine through a randomized schedule: a seed set of events, a
// fraction of which schedule follow-up events (some at the current time,
// some ahead) from inside their handlers. Interleave run_until /
// run_bounded and snapshot (now, pending, idle) at every checkpoint.
struct Observed {
  std::vector<Fired> fired;
  std::vector<std::tuple<Cycles, std::size_t, bool>> checkpoints;
};

Observed drive(QueueBackend backend, std::uint64_t seed) {
  Engine eng(backend);
  Observed obs;
  Rand rng{seed};
  int next_id = 0;
  // Self-referential scheduling needs a stable callable; recursion depth is
  // bounded by `budget`.
  struct Spawner {
    Engine* eng;
    Observed* obs;
    Rand* rng;
    int* next_id;
    void spawn(int budget) const {
      const int id = (*next_id)++;
      const Cycles t = eng->now() + (rng->next() % 400);
      eng->at(t, [this, id, budget] {
        obs->fired.push_back({eng->now(), id});
        if (budget > 0 && rng->next() % 4 == 0) spawn(budget - 1);
        if (budget > 0 && rng->next() % 8 == 0) {
          // Same-time follow-up: lands at now() with a later seq.
          const int fid = (*next_id)++;
          eng->at(eng->now(), [this, fid] {
            obs->fired.push_back({eng->now(), fid});
          });
        }
      });
    }
  };
  Spawner sp{&eng, &obs, &rng, &next_id};
  for (int i = 0; i < 200; ++i) sp.spawn(3);
  while (!eng.idle()) {
    if (rng.next() % 2 == 0) {
      eng.run_until(eng.now() + rng.next() % 150);
    } else {
      eng.run_bounded(1 + rng.next() % 16);
    }
    obs.checkpoints.emplace_back(eng.now(), eng.pending(), eng.idle());
  }
  return obs;
}

TEST(QueueAgreement, RandomizedSchedulesAgreeAcrossBackends) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1993ull}) {
    const Observed cal = drive(QueueBackend::kCalendar, seed);
    const Observed heap = drive(QueueBackend::kHeap, seed);
    ASSERT_EQ(cal.fired.size(), heap.fired.size()) << "seed " << seed;
    EXPECT_EQ(cal.fired, heap.fired) << "seed " << seed;
    EXPECT_EQ(cal.checkpoints, heap.checkpoints) << "seed " << seed;
  }
}

TEST(QueueAgreement, LargeMonotoneBurstsAgree) {
  // Stress the calendar's far heap: bursts mostly beyond the wheel's span
  // followed by full drains, repeated so the wheel re-anchors many times.
  // The schedule (deltas from now) is generated once and replayed into
  // both backends.
  Engine cal(QueueBackend::kCalendar);
  Engine heap(QueueBackend::kHeap);
  std::vector<Fired> a;
  std::vector<Fired> b;
  Rand rng{99};
  int id = 0;
  for (int round = 0; round < 5; ++round) {
    std::vector<Cycles> deltas(3'000);
    for (Cycles& d : deltas) d = rng.next() % 100'000;
    for (const Cycles d : deltas) {
      const int eid = id++;
      cal.at(cal.now() + d, [&a, &cal, eid] { a.push_back({cal.now(), eid}); });
      heap.at(heap.now() + d,
              [&b, &heap, eid] { b.push_back({heap.now(), eid}); });
    }
    cal.run();
    heap.run();
    ASSERT_EQ(cal.now(), heap.now()) << "round " << round;
  }
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);
  EXPECT_EQ(cal.events_executed(), heap.events_executed());
}

// Pits CalendarQueue directly against HeapEventQueue: one randomized
// stream of pushes and pops, replayed into both, with every peek, pop and
// size compared. The stream is shaped to hit each internal path of the
// wheel: labels drawn from several lanes, so they are not monotone at equal
// t; pushes at the current cycle while its batch is still draining; deltas
// on both sides of the wheel's span (4095, 4096, 4097) and far beyond it;
// wheel pushes landing on a time already held by the far heap; and pushes
// right after a peek, which may land before the peeked time.
void direct_agreement(std::uint64_t seed) {
  CalendarQueue cal;
  HeapEventQueue heap;
  Rand rng{seed};
  std::vector<std::uint64_t> lane_cnt(6, 0);
  std::vector<Cycles> far_targets;  // times first pushed beyond the wheel
  Cycles now = 0;
  std::uint32_t idx = 0;
  auto push = [&](Cycles t) {
    const std::uint64_t lane = rng.next() % lane_cnt.size();
    const std::uint64_t seq = (lane << 40) | lane_cnt[lane]++;
    cal.push(t, seq, idx, 0);
    heap.push(t, seq, idx, {});
    ++idx;
  };
  for (int round = 0; round < 4'000; ++round) {
    // Peek, then push: the pushes below may land before the peeked time.
    if (!heap.empty()) {
      ASSERT_EQ(cal.min_time(), heap.min_time()) << "round " << round;
    }
    const int pushes = static_cast<int>(rng.next() % 4);
    for (int i = 0; i < pushes; ++i) {
      const std::uint64_t pick = rng.next() % 16;
      Cycles d = 0;
      if (pick < 3) {
        d = 0;  // same cycle: into the draining batch (or the slot)
      } else if (pick < 9) {
        d = 1 + rng.next() % 64;
      } else if (pick < 12) {
        d = 4095 + rng.next() % 3;  // last slot, first and second beyond
      } else if (pick < 14) {
        d = 4096 + rng.next() % 200'000;
        far_targets.push_back(now + d);
      } else if (!far_targets.empty()) {
        // Revisit a far time: from inside the wheel's span once the clock
        // has caught up, so the far heap and a slot tie at that t.
        const Cycles t = far_targets[rng.next() % far_targets.size()];
        d = t >= now ? t - now : 0;
      }
      push(now + d);
    }
    const int pops = static_cast<int>(rng.next() % 4);
    for (int i = 0; i < pops && !heap.empty(); ++i) {
      ASSERT_EQ(cal.size(), heap.size());
      ASSERT_EQ(cal.min_time(), heap.min_time()) << "round " << round;
      const EventKey k = cal.pop_move();
      const HeapEvent e = heap.pop_move();
      ASSERT_EQ(std::pair(k.t, k.seq), std::pair(e.t, e.seq))
          << "round " << round;
      ASSERT_EQ(k.idx, static_cast<std::uint32_t>(e.home));
      now = k.t;
    }
  }
  while (!heap.empty()) {
    ASSERT_EQ(cal.min_time(), heap.min_time());
    const EventKey k = cal.pop_move();
    const HeapEvent e = heap.pop_move();
    ASSERT_EQ(std::pair(k.t, k.seq), std::pair(e.t, e.seq));
  }
  EXPECT_TRUE(cal.empty());
  EXPECT_GT(idx, 5'000U);
}

TEST(QueueAgreement, CalendarMatchesHeapKeyForKey) {
  for (std::uint64_t seed : {3ull, 11ull, 2024ull}) {
    SCOPED_TRACE(seed);
    direct_agreement(seed);
  }
}

// min_time() is a peek: run_until stops on it, and the caller may then
// schedule something earlier than the time it peeked. The later event sits
// in the wheel (100) or in the far heap (5,000 and 100,000 cycles ahead).
TEST_P(QueueConformance, PushAfterPeekMayLandBeforeThePeekedTime) {
  for (const Cycles later : {Cycles{100}, Cycles{5'000}, Cycles{100'000}}) {
    Engine eng(GetParam());
    std::vector<Cycles> fired;
    auto record = [&eng, &fired] { fired.push_back(eng.now()); };
    eng.at(10, record);
    eng.at(10 + later, record);
    eng.at(10 + later, record);
    eng.run_until(50);
    ASSERT_EQ(eng.now(), 10U);
    eng.at(eng.now() + 1, record);
    eng.at(eng.now() + 1, record);
    eng.run();
    EXPECT_EQ(fired, (std::vector<Cycles>{10, 11, 11, 10 + later, 10 + later}))
        << "later = " << later;
  }
}

// The sharded form of the same trap: the window loop peeks every shard,
// and the next window's inbox merge pushes events earlier than a shard's
// peeked next time.
TEST_P(QueueConformance, InboxEventsMayLandBeforeAShardsPeekedTime) {
  for (const Cycles later : {Cycles{100}, Cycles{100'000}}) {
    Engine eng(GetParam());
    eng.configure_shards(2, 2);  // proc 0 on shard 0, proc 1 on shard 1
    std::vector<std::pair<Cycles, int>> on1;
    auto mark = [&eng, &on1](int id) {
      return [&eng, &on1, id] { on1.emplace_back(eng.now(), id); };
    };
    eng.at_on(1, 10 + later, mark(0));
    eng.at_on(0, 10, [&eng, &mark] {
      eng.at_on(1, 15, mark(1));  // crosses shards: merged at the barrier
      eng.at_on(1, 16, mark(2));
    });
    ShardedEngine(eng, ShardOptions{ShardBackend::kSequential, 5, 1}).run();
    const std::vector<std::pair<Cycles, int>> want{
        {15, 1}, {16, 2}, {10 + later, 0}};
    EXPECT_EQ(on1, want) << "later = " << later;
    EXPECT_EQ(eng.cross_shard_msgs(), 2U);
  }
}

}  // namespace
}  // namespace cm::sim

namespace cm::apps {
namespace {

// The strongest conformance statement: the full fig2 / table1_2 workloads
// produce byte-identical metric exports (every counter, cycle total, and
// checker report field) whichever backend runs them. The bench goldens
// (bench/golden/, `ctest -L golden`) pin the calendar backend to the
// committed outputs; this pins the two backends to each other at test
// speed.
std::string metrics_json(const RunStats& s, const char* label) {
  core::MetricsRegistry reg;
  put_run_stats(reg.record(label), s);
  return reg.to_json();
}

TEST(WorkloadAgreement, Fig2CountingConfigIsByteIdenticalAcrossBackends) {
  CountingConfig cfg;
  cfg.scheme = core::Scheme{core::Mechanism::kMigration, false, false};
  cfg.requesters = 16;
  cfg.window = Window{5'000, 40'000};
  cfg.queue_backend = sim::QueueBackend::kCalendar;
  const RunStats cal = run_counting(cfg);
  cfg.queue_backend = sim::QueueBackend::kHeap;
  const RunStats heap = run_counting(cfg);
  EXPECT_EQ(metrics_json(cal, "fig2"), metrics_json(heap, "fig2"));
  EXPECT_EQ(cal.events_executed, heap.events_executed);
  EXPECT_EQ(cal.completed_at, heap.completed_at);
}

TEST(WorkloadAgreement, Table12BTreeWithCheckerIsByteIdenticalAcrossBackends) {
  BTreeConfig cfg;
  cfg.scheme = core::Scheme{core::Mechanism::kRpc, false, false};
  cfg.requesters = 8;
  cfg.nkeys = 500;
  cfg.window = Window{5'000, 30'000};
  cfg.check = true;  // checker reports must agree byte-for-byte too
  cfg.queue_backend = sim::QueueBackend::kCalendar;
  const RunStats cal = run_btree(cfg);
  cfg.queue_backend = sim::QueueBackend::kHeap;
  const RunStats heap = run_btree(cfg);
  EXPECT_EQ(metrics_json(cal, "table1_2"), metrics_json(heap, "table1_2"));
  EXPECT_EQ(cal.btree_digest, heap.btree_digest);
  EXPECT_EQ(cal.check_violations.size(), heap.check_violations.size());
}

}  // namespace
}  // namespace cm::apps
