// Host-side microbenchmarks (google-benchmark) for the simulator
// substrates: how fast the simulation itself runs. Useful when sizing
// larger experiments; not part of the paper reproduction.
#include <benchmark/benchmark.h>

#include <memory>

#include "apps/workload.h"
#include "core/object.h"
#include "core/runtime.h"
#include "net/constant_net.h"
#include "net/mesh_net.h"
#include "shmem/cache.h"
#include "shmem/coherent_memory.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/rng.h"

using namespace cm;

namespace {

void BM_EngineScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      eng.at(static_cast<sim::Cycles>(i % 97), [&fired] { ++fired; });
    }
    eng.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(100000);

// Hold model: a fixed number of pending events, each of which reschedules
// itself on firing. Delays are 1-512 cycles, with a 5 % tail 32 k-256 k
// cycles ahead (beyond the calendar wheel's span), the shape of the large
// RPC workload's timeouts and think phases.
struct HoldTick {
  sim::Engine* eng;
  sim::Rng* rng;
  void operator()() const {
    const sim::Cycles d = rng->below(20) == 0
                              ? rng->between(32 * 1024, 256 * 1024)
                              : rng->between(1, 512);
    eng->after(d, HoldTick{eng, rng});
  }
};

void BM_EngineHold(benchmark::State& state) {
  constexpr std::size_t kBatch = 10'000;
  sim::Engine eng;
  sim::Rng rng(3);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    eng.at(rng.between(1, 512), HoldTick{&eng, &rng});
  }
  for (auto _ : state) eng.run_bounded(kBatch);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_EngineHold)->Arg(64)->Arg(1024);

void BM_CacheInstallLookup(benchmark::State& state) {
  shmem::Cache cache;
  sim::Rng rng(1);
  for (auto _ : state) {
    const shmem::Line line = rng.below(16384);
    if (cache.lookup(line) == shmem::LineState::kInvalid) {
      benchmark::DoNotOptimize(cache.install(line, shmem::LineState::kShared));
    }
    benchmark::DoNotOptimize(cache.lookup(line));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheInstallLookup);

void BM_MeshRouting(benchmark::State& state) {
  sim::Engine eng;
  net::MeshNetwork net(eng, 64, {});
  sim::Rng rng(2);
  for (auto _ : state) {
    const auto a = static_cast<sim::ProcId>(rng.below(64));
    const auto b = static_cast<sim::ProcId>(rng.below(64));
    benchmark::DoNotOptimize(net.latency(a, b, 8));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeshRouting);

sim::Task<> ping(core::Runtime* rt, core::ObjectId obj, int n) {
  core::Ctx ctx{rt, 0};
  for (int i = 0; i < n; ++i) {
    (void)co_await rt->call(ctx, obj, core::CallOpts{4, 2, false},
                            [rt](core::Ctx& c) -> sim::Task<int> {
                              co_await rt->compute(c, 10);
                              co_return 0;
                            });
  }
}

void BM_SimulatedRpc(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::Machine machine(eng, 2);
    net::ConstantNetwork net(eng);
    core::ObjectSpace objects;
    core::Runtime rt(machine, net, objects, core::CostModel::software());
    const auto obj = objects.create(1);
    sim::detach(ping(&rt, obj, 100));
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_SimulatedRpc);

sim::Task<> hopper(core::Runtime* rt, std::vector<core::ObjectId> objs,
                   int rounds) {
  core::Ctx ctx{rt, 0};
  for (int r = 0; r < rounds; ++r) {
    for (const auto obj : objs) co_await rt->migrate(ctx, obj, 8);
    co_await rt->return_home(ctx, 0, 2);
  }
}

void BM_SimulatedMigration(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::Machine machine(eng, 9);
    net::ConstantNetwork net(eng);
    core::ObjectSpace objects;
    core::Runtime rt(machine, net, objects, core::CostModel::software());
    std::vector<core::ObjectId> objs;
    for (sim::ProcId p = 1; p < 9; ++p) objs.push_back(objects.create(p));
    sim::detach(hopper(&rt, objs, 20));
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetItemsProcessed(state.iterations() * 160);
}
BENCHMARK(BM_SimulatedMigration);

sim::Task<> toucher(shmem::CoherentMemory* mem, shmem::Addr a, int n) {
  for (int i = 0; i < n; ++i) {
    co_await mem->write(1, a, 16);
    co_await mem->write(2, a, 16);  // ping-pong
  }
}

void BM_CoherenceMigratoryLine(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::Machine machine(eng, 4);
    net::ConstantNetwork net(eng);
    shmem::CoherentMemory mem(machine, net);
    const shmem::Addr a = mem.alloc(0, 16);
    sim::detach(toucher(&mem, a, 50));
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_CoherenceMigratoryLine);

void BM_FullCountingNetworkRun(benchmark::State& state) {
  for (auto _ : state) {
    apps::CountingConfig cfg;
    cfg.scheme = core::Scheme{core::Mechanism::kMigration, false, false};
    cfg.requesters = 16;
    cfg.window = apps::Window{5'000, 30'000};
    const auto r = run_counting(cfg);
    benchmark::DoNotOptimize(r.ops);
  }
}
BENCHMARK(BM_FullCountingNetworkRun);

void BM_FullBTreeRun(benchmark::State& state) {
  for (auto _ : state) {
    apps::BTreeConfig cfg;
    cfg.scheme = core::Scheme{core::Mechanism::kMigration, false, true};
    cfg.nkeys = 2'000;
    cfg.window = apps::Window{5'000, 30'000};
    const auto r = run_btree(cfg);
    benchmark::DoNotOptimize(r.ops);
  }
}
BENCHMARK(BM_FullBTreeRun);

}  // namespace

BENCHMARK_MAIN();
