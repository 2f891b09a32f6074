#include "layers.h"

#include <chrono>
#include <vector>

#include "apps/workload.h"
#include "core/object.h"
#include "core/runtime.h"
#include "net/mesh_net.h"
#include "shmem/coherent_memory.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/rng.h"
#include "sim/task.h"
#include "traced.h"

namespace perfbench {

using cm::core::Ctx;
using cm::core::ObjectId;
using cm::sim::Cycles;
using cm::sim::ProcId;
using cm::sim::Task;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// counting_cm64's machine: 24 balancers, then 64 requester processors.
constexpr ProcId kCm64Procs = 24 + 64;
constexpr ProcId kCm64Home = 24;
// counting_rpc1024's machine: 80 balancers, then 1,024 requesters.
constexpr ProcId kRpc1024Procs = 80 + 1024;

// ---- sim: event queue hold model ----

struct Hold {
  cm::sim::Engine* eng;
  cm::sim::Rng rng{1};
  std::uint64_t left = 0;
};

struct Tick {
  Hold* h;
  void operator()() const {
    if (h->left == 0) return;
    --h->left;
    h->eng->after(1 + h->rng.below(512), Tick{h});
  }
};

// ---- sim: coroutine create/resume/destroy ----

Task<long> leaf(long x) { co_return x + 1; }

Task<long> stub(long x) {
  const long y = co_await leaf(x);
  co_return y;
}

// ---- core / shmem: the micro_substrates shapes ----

Task<> hopper(cm::core::Runtime* rt, std::vector<ObjectId> objs, ProcId home,
              int rounds) {
  Ctx ctx{rt, home};
  for (int r = 0; r < rounds; ++r) {
    for (const auto obj : objs) co_await rt->migrate(ctx, obj, 8);
    co_await rt->return_home(ctx, home, 2);
  }
}

Task<> ping(cm::core::Runtime* rt, ObjectId obj, ProcId caller, int n) {
  Ctx ctx{rt, caller};
  for (int i = 0; i < n; ++i) {
    (void)co_await rt->call(ctx, obj, cm::core::CallOpts{10, 8, false},
                            [rt](Ctx& c) -> Task<int> {
                              co_await rt->compute(c, 120);
                              co_return 0;
                            });
  }
}

Task<> toucher(cm::shmem::CoherentMemory* mem, cm::shmem::Addr a, int n) {
  for (int i = 0; i < n; ++i) {
    co_await mem->write(kCm64Home, a, 16);
    co_await mem->write(kCm64Home + 1, a, 16);  // ping-pong
  }
}

Task<> reader(cm::shmem::CoherentMemory* mem, cm::shmem::Addr a, int n) {
  for (int i = 0; i < n; ++i) co_await mem->read(kCm64Home, a, 16);
}

/// A bare machine on the mesh: the pieces every runtime driver needs.
struct Bench {
  explicit Bench(ProcId nprocs)
      : machine(eng, nprocs),
        net(eng, nprocs, cm::net::MeshConfig{}),
        rt(machine, net, objects, cm::core::CostModel::software()) {}
  cm::sim::Engine eng;
  cm::sim::Machine machine;
  cm::net::MeshNetwork net;
  cm::core::ObjectSpace objects;
  cm::core::Runtime rt;
};

}  // namespace

double queue_ns(unsigned depth) {
  constexpr std::uint64_t kEvents = 2'000'000;
  cm::sim::Engine eng;
  Hold h{&eng};
  h.left = kEvents;
  for (unsigned i = 0; i < depth; ++i) eng.at(1 + h.rng.below(512), Tick{&h});
  const auto t0 = Clock::now();
  eng.run();
  return seconds_since(t0) * 1e9 / static_cast<double>(eng.events_executed());
}

double resume_ns() {
  constexpr long kTasks = 2'000'000;
  long done = 0;
  const auto t0 = Clock::now();
  for (long i = 0; i < kTasks; ++i) {
    Task<long> t = stub(i);
    t.start();
    done += t.done() ? 1 : 0;
  }
  const double s = seconds_since(t0);
  return done == kTasks ? s * 1e9 / static_cast<double>(kTasks) : 0.0;
}

double migrate_ns() {
  constexpr int kRounds = 20'000;
  Bench b(kCm64Procs);
  // One balancer per stage of the 8-wide network: a token's path.
  std::vector<ObjectId> path;
  for (ProcId stage = 0; stage < 6; ++stage) {
    path.push_back(b.objects.create(stage * 4));
  }
  const double moves = static_cast<double>(kRounds) * (path.size() + 1);
  cm::sim::detach(hopper(&b.rt, path, kCm64Home, kRounds));
  const auto t0 = Clock::now();
  b.eng.run();
  return seconds_since(t0) * 1e9 / moves;
}

double call_ns() {
  constexpr int kCalls = 50'000;
  Bench b(kRpc1024Procs);
  const ObjectId obj = b.objects.create(0);
  cm::sim::detach(ping(&b.rt, obj, kRpc1024Procs - 1, kCalls));
  const auto t0 = Clock::now();
  b.eng.run();
  return seconds_since(t0) * 1e9 / kCalls;
}

double shmem_write_moving_ns() {
  constexpr int kRounds = 50'000;
  Bench b(kCm64Procs);
  cm::shmem::CoherentMemory mem(b.machine, b.net);
  const cm::shmem::Addr a = mem.alloc(0, 16);
  cm::sim::detach(toucher(&mem, a, kRounds));
  const auto t0 = Clock::now();
  b.eng.run();
  return seconds_since(t0) * 1e9 / (2.0 * kRounds);
}

double shmem_read_hit_ns() {
  constexpr int kReads = 1'000'000;
  Bench b(kCm64Procs);
  cm::shmem::CoherentMemory mem(b.machine, b.net);
  const cm::shmem::Addr a = mem.alloc(0, 16);
  cm::sim::detach(reader(&mem, a, kReads));
  const auto t0 = Clock::now();
  b.eng.run();
  return seconds_since(t0) * 1e9 / kReads;
}

double optional_overhead(OptionalLayer layer, std::uint64_t seed,
                         bool on_first) {
  const Workload& w = *find_workload("counting_cm64");
  const cm::apps::Window win{20'000, 1'000'000};
  // Host seconds per simulated cycle of one run, layer on or off.
  auto per_cycle = [&](bool on) {
    const auto t0 = Clock::now();
    if (layer == OptionalLayer::kTracer) {
      Assembly a(w, seed, nullptr, on);
      const SimResult r = a.run(win);
      return seconds_since(t0) / static_cast<double>(r.completed_at);
    }
    cm::apps::CountingConfig cfg = counting_config(w, seed, win);
    if (on) {
      switch (layer) {
        case OptionalLayer::kCheck: cfg.check = true; break;
        case OptionalLayer::kLocator:
          cfg.locator.mode = cm::loc::Locality::kDistributed;
          break;
        case OptionalLayer::kPolicy:
          cfg.policy.enabled = true;
          cfg.policy.observe_only = true;
          break;
        case OptionalLayer::kFt: cfg.ft.enabled = true; break;
        case OptionalLayer::kTracer: break;
      }
    }
    const cm::apps::RunStats r = cm::apps::run_counting(cfg);
    return seconds_since(t0) / static_cast<double>(r.completed_at);
  };
  if (on_first) {
    const double on = per_cycle(true);
    return on / per_cycle(false);
  }
  const double off = per_cycle(false);
  return per_cycle(true) / off;
}

double shard_speedup(unsigned shards, std::uint64_t seed, bool* identical) {
  const Workload& w = *find_workload("counting_rpc1024");
  cm::apps::CountingConfig cfg =
      counting_config(w, seed, cm::apps::Window{20'000, 300'000});
  cfg.mesh = false;  // multi-shard runs drop mesh link contention
  auto timed = [&cfg](unsigned n, double* wall) {
    cm::apps::CountingConfig c = cfg;
    c.nshards = n;
    c.shard_backend = n == 1 ? cm::sim::ShardBackend::kSequential
                             : cm::sim::ShardBackend::kThreads;
    const auto t0 = Clock::now();
    cm::apps::RunStats r = cm::apps::run_counting(c);
    *wall = seconds_since(t0);
    return r;
  };
  double one = 0.0;
  double many = 0.0;
  const cm::apps::RunStats a = timed(1, &one);
  const cm::apps::RunStats b = timed(shards, &many);
  *identical = same_simulation(sim_result_of(a, w), sim_result_of(b, w));
  return one / many;
}

}  // namespace perfbench
