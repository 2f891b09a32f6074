#include "apps/workload.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <vector>

#include "apps/btree.h"
#include "apps/counting_network.h"
#include "check/report.h"
#include "core/object.h"
#include "core/runtime.h"
#include "net/constant_net.h"
#include "net/faulty_net.h"
#include "net/mesh_net.h"
#include "shmem/coherent_memory.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/rng.h"
#include "sim/task.h"
#include "sim/tracer.h"

namespace cm::apps {

namespace {

using core::Ctx;
using core::Mechanism;
using sim::Cycles;
using sim::ProcId;
using sim::Task;

/// Shared control block for a measurement run. The measurement window is
/// half-open, [warm_at, end_at), for BOTH the op counter and the traffic
/// snapshots: the warm/end snapshot events carry lane-0 labels (scheduled
/// at setup time), so they run before any same-cycle runtime event — an op
/// or word landing exactly on a boundary cycle is therefore counted by
/// exactly one window.
///
/// Sharded runs (DESIGN.md §12): every mutable field a requester touches
/// mid-run lives in its shard's ShardCtl slice, indexed by the engine's
/// ambient shard, so kThreads workers never share a counter; run totals sum
/// the slices after the engine drains. The sums are shard-count invariant:
/// each op / word is counted on the shard of the event that produced it,
/// and event placement is a pure function of the simulation's causal
/// history.
struct ShardCtl {
  bool stop = false;
  long ops = 0;
  // Fail-stop bookkeeping: operations abandoned with a typed core::FtError.
  long lost_ops = 0;
  std::uint64_t words_at_warm = 0;
  std::uint64_t msgs_at_warm = 0;
  std::uint64_t words_at_end = 0;
  std::uint64_t msgs_at_end = 0;
};

struct RunCtl {
  Cycles warm_at = 0;
  Cycles end_at = 0;
  std::vector<ShardCtl> shard;  // indexed by engine shard
  // Live-requester count, decremented from any shard; the detector to shut
  // down when the last requester exits (its periodic sweep would otherwise
  // keep the event queue alive forever).
  std::atomic<unsigned> live{0};
  ft::FtLayer* ftl = nullptr;

  [[nodiscard]] long total_ops() const {
    long n = 0;
    for (const ShardCtl& sc : shard) n += sc.ops;
    return n;
  }
  [[nodiscard]] long total_lost_ops() const {
    long n = 0;
    for (const ShardCtl& sc : shard) n += sc.lost_ops;
    return n;
  }
  [[nodiscard]] std::uint64_t window_words() const {
    std::uint64_t n = 0;
    for (const ShardCtl& sc : shard) n += sc.words_at_end - sc.words_at_warm;
    return n;
  }
  [[nodiscard]] std::uint64_t window_msgs() const {
    std::uint64_t n = 0;
    for (const ShardCtl& sc : shard) n += sc.msgs_at_end - sc.msgs_at_warm;
    return n;
  }
  [[nodiscard]] std::uint64_t warm_words() const {
    std::uint64_t n = 0;
    for (const ShardCtl& sc : shard) n += sc.words_at_warm;
    return n;
  }
  [[nodiscard]] std::uint64_t warm_msgs() const {
    std::uint64_t n = 0;
    for (const ShardCtl& sc : shard) n += sc.msgs_at_warm;
    return n;
  }
};

/// The calling context's slice of the control block.
ShardCtl& my_shard(RunCtl& ctl, const sim::Engine& eng) {
  return ctl.shard[eng.current_shard()];
}

/// A requester finished: the last one out stops the failure detector so the
/// engine can drain.
void requester_exit(RunCtl& ctl) {
  if (ctl.live.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      ctl.ftl != nullptr) {
    ctl.ftl->stop();
  }
}

void count_op(RunCtl& ctl, const sim::Engine& eng) {
  const Cycles now = eng.now();
  if (now >= ctl.warm_at && now < ctl.end_at) ++my_shard(ctl, eng).ops;
}

/// Config combinations the conservative windows cannot serve (global FIFO
/// timelines, cross-shard mutable state, zero-lookahead paths) are rejected
/// loudly rather than silently desharded.
void require_for_shards(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "workload: multi-shard run rejected: %s\n", what);
  std::abort();
}

/// Lowest-numbered processor living on shard `s` — where that shard's
/// window snapshot events are homed.
ProcId first_proc_of_shard(const sim::Engine& eng, ProcId nprocs, unsigned s) {
  for (ProcId p = 0; p < nprocs; ++p) {
    if (eng.shard_of(p) == s) return p;
  }
  return 0;
}

Task<> counting_requester(core::Runtime* rt, CountingNetwork* cn,
                          Mechanism mech, ProcId home, std::uint64_t seed,
                          Cycles think, long fixed_ops, RunCtl* ctl) {
  Ctx ctx{rt, home};
  sim::Rng rng(seed);
  const sim::Engine& eng = rt->machine().engine();
  for (long done = 0; !my_shard(*ctl, eng).stop; ++done) {
    if (fixed_ops > 0 && done >= fixed_ops) break;
    // Each request enters on a (deterministically) random wire, as counting
    // network clients do in practice.
    const auto wire = static_cast<unsigned>(rng.below(cn->width()));
    try {
      (void)co_await cn->get_next(ctx, mech, wire);
      // Bring the value (and, under migration, the activation) back home.
      co_await rt->return_home(ctx, home, 2);
      count_op(*ctl, eng);
    } catch (const core::FtError&) {
      // Only thrown with fault tolerance installed: the operation touched a
      // lost object or exhausted its retry budget. Abandon it gracefully
      // and carry on from home.
      ++my_shard(*ctl, eng).lost_ops;
      ctx.proc = home;
    }
    if (think > 0) co_await rt->machine().sleep(think);
  }
  requester_exit(*ctl);
}

Task<> btree_requester(core::Runtime* rt, DistributedBTree* bt,
                       Mechanism mech, ProcId home, Cycles think,
                       double insert_ratio, std::uint64_t key_space,
                       double affinity, std::uint64_t slice_base,
                       std::uint64_t slice_size, std::uint64_t seed,
                       long fixed_ops, RunCtl* ctl) {
  Ctx ctx{rt, home};
  sim::Rng rng(seed);
  const sim::Engine& eng = rt->machine().engine();
  for (long done = 0; !my_shard(*ctl, eng).stop; ++done) {
    if (fixed_ops > 0 && done >= fixed_ops) break;
    // Key skew: the affinity test must not touch the RNG when the knob is
    // off, so affinity == 0 draws stay bit-identical to the pre-knob runs.
    std::uint64_t key;
    if (affinity > 0.0 && rng.uniform() < affinity) {
      key = slice_base + rng.below(slice_size);
    } else {
      key = rng.below(key_space);
    }
    try {
      if (rng.uniform() < insert_ratio) {
        (void)co_await bt->insert(ctx, mech, key, key);
      } else {
        (void)co_await bt->lookup(ctx, mech, key);
      }
      count_op(*ctl, eng);
    } catch (const core::FtError&) {
      // See counting_requester. B-tree crash scenarios re-home node state
      // (never condemn it — an ObjectLostError unwinding past a held node
      // lock would strand its waiters), so this catch only fires on
      // retry-budget exhaustion.
      ++my_shard(*ctl, eng).lost_ops;
      ctx.proc = home;
    }
    if (think > 0) co_await rt->machine().sleep(think);
  }
  requester_exit(*ctl);
}

}  // namespace

RunStats run_counting(const CountingConfig& cfg) {
  sim::Engine eng(cfg.queue_backend);
  CountingNetwork::Params np;
  np.width = cfg.width;
  np.first_balancer_proc = 0;

  // Balancers occupy the first B processors; requesters get their own.
  const unsigned balancers =
      BitonicWiring::build(cfg.width).balancers.size();
  const auto nprocs = static_cast<ProcId>(balancers + cfg.requesters);
  if (cfg.nshards > 1) {
    require_for_shards(cfg.scheme.mechanism == Mechanism::kRpc ||
                           cfg.scheme.mechanism == Mechanism::kMigration ||
                           cfg.scheme.mechanism ==
                               Mechanism::kThreadMigration,
                       "mechanism must route all cross-processor work "
                       "through the network (kRpc/kMigration/"
                       "kThreadMigration)");
    require_for_shards(!cfg.scheme.replication,
                       "software replication keeps cross-shard copy tables");
    require_for_shards(!cfg.faults.active(), "chaos runs are single-shard");
    require_for_shards(!cfg.ft.enabled, "ft runs are single-shard");
    require_for_shards(cfg.locator.mode != loc::Locality::kDistributed,
                       "the distributed locator is single-shard");
    require_for_shards(!cfg.policy.enabled || cfg.policy.observe_only,
                       "an actuating placement policy mutates global "
                       "placement tables; multi-shard policy runs are "
                       "observe-only");
  }
  // Shards must be carved before anything schedules or sizes per-shard
  // state (tracer buffers, checker logs, network stat slots).
  eng.configure_shards(cfg.nshards, nprocs);
  std::unique_ptr<sim::Tracer> tracer;
  if (!cfg.trace_path.empty()) {
    tracer = std::make_unique<sim::Tracer>(eng);
    eng.set_tracer(tracer.get());
  }
  sim::Machine machine(eng, nprocs);
  std::unique_ptr<check::Checker> checker;
  if (cfg.check) {
    checker = std::make_unique<check::Checker>(eng, nprocs, cfg.check_cfg);
    eng.set_checker(checker.get());
  }
  net::ConstantNetwork constant_net(eng);
  // Multi-shard runs drop mesh link contention: its per-link FIFO timeline
  // is one global, order-sensitive structure no conservative window can
  // partition (documented on MeshNetwork::min_cross_latency).
  net::MeshConfig mesh_cfg;
  mesh_cfg.contention = eng.shards() == 1;
  net::MeshNetwork mesh_net(eng, nprocs, mesh_cfg);
  net::Network& base_network =
      cfg.mesh ? static_cast<net::Network&>(mesh_net)
               : static_cast<net::Network&>(constant_net);
  // Chaos mode: only an active fault plan installs the fault injector and
  // the reliable transport, so fault-free runs stay bit-identical.
  const bool chaos = cfg.faults.active();
  net::FaultyNetwork faulty_net(eng, base_network, cfg.faults);
  net::Network& network =
      chaos ? static_cast<net::Network&>(faulty_net) : base_network;
  std::unique_ptr<shmem::CoherentMemory> mem;
  if (cfg.scheme.mechanism == Mechanism::kSharedMemory) {
    shmem::ProtocolParams pp;
    pp.hw_sharer_pointers = cfg.limitless_pointers;
    mem = std::make_unique<shmem::CoherentMemory>(machine, network,
                                                  shmem::CacheParams{}, pp);
  }
  core::ObjectSpace objects;
  core::Runtime rt(machine, network, objects, cfg.scheme.cost_model());
  if (chaos) rt.enable_reliability(cfg.reliable);
  // Distributed object location: constructed before the application so its
  // create-hook catches every object. In oracle mode the Locator is inert
  // and the run is bit-identical to one without it.
  std::unique_ptr<loc::Locator> locator;
  if (cfg.locator.mode == loc::Locality::kDistributed) {
    locator = std::make_unique<loc::Locator>(rt, cfg.locator);
  }
  CountingNetwork cn(rt, mem.get(), np);

  // Placement policy: constructed only when enabled (the null-by-default
  // pattern), after the application so `set_policy` sees every balancer.
  std::unique_ptr<policy::PolicyEngine> pol;
  if (cfg.policy.enabled) {
    pol = std::make_unique<policy::PolicyEngine>(rt, cfg.policy);
    cn.set_policy(pol.get());
    if (locator != nullptr) locator->set_chooser(&pol->chooser());
    pol->start();
  }

  // Fail-stop tolerance: constructed after the application so the balancer
  // objects exist when a suspicion scans for a dead processor's population.
  std::unique_ptr<ft::FtLayer> ftl;
  if (cfg.ft.enabled) {
    ftl = std::make_unique<ft::FtLayer>(rt, cfg.ft, locator.get());
    ftl->note_plan(cfg.faults);
    ftl->start();
  }

  const bool fixed = cfg.ops_per_requester > 0;
  RunCtl ctl;
  ctl.warm_at = fixed ? 0 : cfg.window.warmup;
  ctl.end_at = fixed ? ~Cycles{0} : cfg.window.warmup + cfg.window.measure;
  ctl.shard.resize(eng.shards());
  ctl.live = cfg.requesters;
  ctl.ftl = ftl.get();

  for (unsigned i = 0; i < cfg.requesters; ++i) {
    const ProcId home = static_cast<ProcId>(balancers + i);
    sim::detach(counting_requester(&rt, &cn, cfg.scheme.mechanism, home,
                                   cfg.seed * 7919 + i, cfg.think,
                                   cfg.ops_per_requester, &ctl));
  }
  if (!fixed) {
    // One warm/end snapshot pair per shard, homed on that shard and reading
    // its own traffic slot; run totals are the slice sums, which match the
    // single-shard numbers because every send is slotted by the shard that
    // executed it. Chaos runs (single-shard) keep reading the merged stats
    // so the fault decorator's override stays in the loop.
    for (unsigned s = 0; s < eng.shards(); ++s) {
      ShardCtl& sc = ctl.shard[s];
      const ProcId snap_home = first_proc_of_shard(eng, nprocs, s);
      const bool merged = eng.shards() == 1;
      eng.at_on(snap_home, ctl.warm_at, [&network, &sc, s, merged] {
        const net::NetStats& ns =
            merged ? network.stats() : network.stats_of_shard(s);
        sc.words_at_warm = ns.words;
        sc.msgs_at_warm = ns.messages;
      });
      eng.at_on(snap_home, ctl.end_at, [&network, &sc, s, merged] {
        const net::NetStats& ns =
            merged ? network.stats() : network.stats_of_shard(s);
        sc.words_at_end = ns.words;
        sc.msgs_at_end = ns.messages;
        sc.stop = true;
      });
    }
  }
  {
    sim::ShardedEngine driver(
        eng, sim::ShardOptions{cfg.shard_backend,
                               base_network.min_cross_latency(), cfg.seed});
    driver.run();
  }

  RunStats out;
  out.ops = ctl.total_ops();
  out.window = fixed ? eng.last_dispatch_time() : cfg.window.measure;
  out.words = fixed ? network.stats().words - ctl.warm_words()
                    : ctl.window_words();
  out.messages = fixed ? network.stats().messages - ctl.warm_msgs()
                       : ctl.window_msgs();
  if (mem != nullptr) out.shmem = mem->stats();
  out.migrations = rt.stats().migrations;
  out.remote_calls = rt.stats().remote_calls;
  out.runtime = rt.stats();
  out.net = network.stats();
  out.completed_at = eng.last_dispatch_time();
  // Exclude the driver's own snapshot events (2 per shard) so the count
  // covers workload events only and is identical at every shard count.
  out.events_executed =
      eng.events_executed() - (fixed ? 0 : 2ull * eng.shards());
  out.clamped_events = eng.clamped_events();
  out.cross_shard_msgs = eng.cross_shard_msgs();
  out.window_count = eng.window_count();
  out.total_exited = cn.total_exited();
  out.step_property = cn.has_step_property();
  if (pol != nullptr) {
    out.policy_enabled = true;
    out.policy = pol->stats();
  }
  if (ftl != nullptr) {
    out.ft_enabled = true;
    out.ft = ftl->stats();
    out.ft_lost_ops = ctl.total_lost_ops();
  }
  if (locator != nullptr) {
    out.locator_enabled = true;
    out.loc = locator->stats();
  }
  if (checker != nullptr) {
    checker->finalize();
    out.checker_enabled = true;
    out.check = checker->stats();
    out.check_violations = checker->records();
  }
  if (tracer != nullptr && tracer->write_chrome_json(cfg.trace_path)) {
    out.trace_path = cfg.trace_path;
  }
  return out;
}

RunStats run_btree(const BTreeConfig& cfg) {
  sim::Engine eng(cfg.queue_backend);
  const auto nprocs = static_cast<ProcId>(cfg.node_procs + cfg.requesters);
  if (cfg.nshards > 1) {
    require_for_shards(cfg.scheme.mechanism == Mechanism::kRpc ||
                           cfg.scheme.mechanism == Mechanism::kMigration ||
                           cfg.scheme.mechanism ==
                               Mechanism::kThreadMigration,
                       "mechanism must route all cross-processor work "
                       "through the network (kRpc/kMigration/"
                       "kThreadMigration)");
    require_for_shards(!cfg.scheme.replication,
                       "software replication keeps cross-shard copy tables");
    require_for_shards(!cfg.faults.active(), "chaos runs are single-shard");
    require_for_shards(!cfg.ft.enabled, "ft runs are single-shard");
    require_for_shards(cfg.locator.mode != loc::Locality::kDistributed,
                       "the distributed locator is single-shard");
    require_for_shards(cfg.insert_ratio == 0.0,
                       "B-tree splits mutate tree topology no single shard "
                       "owns; multi-shard runs are lookup-only");
    require_for_shards(!cfg.policy.enabled || cfg.policy.observe_only,
                       "an actuating placement policy mutates global "
                       "placement tables; multi-shard policy runs are "
                       "observe-only");
  }
  eng.configure_shards(cfg.nshards, nprocs);
  std::unique_ptr<sim::Tracer> tracer;
  if (!cfg.trace_path.empty()) {
    tracer = std::make_unique<sim::Tracer>(eng);
    eng.set_tracer(tracer.get());
  }
  sim::Machine machine(eng, nprocs);
  std::unique_ptr<check::Checker> checker;
  if (cfg.check) {
    checker = std::make_unique<check::Checker>(eng, nprocs, cfg.check_cfg);
    eng.set_checker(checker.get());
  }
  net::ConstantNetwork constant_net(eng);
  // See run_counting: multi-shard runs drop mesh link contention.
  net::MeshConfig mesh_cfg;
  mesh_cfg.contention = eng.shards() == 1;
  net::MeshNetwork mesh_net(eng, nprocs, mesh_cfg);
  net::Network& base_network =
      cfg.mesh ? static_cast<net::Network&>(mesh_net)
               : static_cast<net::Network&>(constant_net);
  const bool chaos = cfg.faults.active();
  net::FaultyNetwork faulty_net(eng, base_network, cfg.faults);
  net::Network& network =
      chaos ? static_cast<net::Network&>(faulty_net) : base_network;
  std::unique_ptr<shmem::CoherentMemory> mem;
  if (cfg.scheme.mechanism == Mechanism::kSharedMemory) {
    shmem::ProtocolParams pp;
    pp.hw_sharer_pointers = cfg.limitless_pointers;
    mem = std::make_unique<shmem::CoherentMemory>(machine, network,
                                                  shmem::CacheParams{}, pp);
  }
  core::ObjectSpace objects;
  core::Runtime rt(machine, network, objects, cfg.scheme.cost_model());
  if (chaos) rt.enable_reliability(cfg.reliable);
  // See run_counting: the locator precedes the application so B-tree nodes
  // (including ones born later in splits) get directory entries.
  std::unique_ptr<loc::Locator> locator;
  if (cfg.locator.mode == loc::Locality::kDistributed) {
    locator = std::make_unique<loc::Locator>(rt, cfg.locator);
  }

  DistributedBTree::Params bp;
  bp.max_entries = cfg.max_entries;
  bp.node_procs = cfg.node_procs;
  bp.seed = cfg.seed;
  bp.replication = cfg.scheme.replication;
  DistributedBTree bt(rt, mem.get(), bp);

  // The paper builds a 10,000-key tree first; we load even keys so later
  // random inserts (any key in [0, 2n)) hit a 50% fresh-key rate.
  std::vector<std::uint64_t> keys(cfg.nkeys);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 2 * i;
  bt.bulk_load(keys);

  // Placement policy: after bulk_load so every node of the built tree is
  // registered at once; split-born nodes register from alloc_node.
  std::unique_ptr<policy::PolicyEngine> pol;
  if (cfg.policy.enabled) {
    pol = std::make_unique<policy::PolicyEngine>(rt, cfg.policy);
    bt.set_policy(pol.get());
    if (locator != nullptr) locator->set_chooser(&pol->chooser());
    pol->start();
  }

  // Fail-stop tolerance: after bulk_load so every node object (and the
  // replicated root, if any) exists before a crash can be suspected.
  std::unique_ptr<ft::FtLayer> ftl;
  if (cfg.ft.enabled) {
    ftl = std::make_unique<ft::FtLayer>(rt, cfg.ft, locator.get());
    ftl->note_plan(cfg.faults);
    ftl->start();
  }

  const bool fixed = cfg.ops_per_requester > 0;
  RunCtl ctl;
  ctl.warm_at = fixed ? 0 : cfg.window.warmup;
  ctl.end_at = fixed ? ~Cycles{0} : cfg.window.warmup + cfg.window.measure;
  ctl.shard.resize(eng.shards());
  ctl.live = cfg.requesters;
  ctl.ftl = ftl.get();

  const std::uint64_t key_space = 2 * static_cast<std::uint64_t>(cfg.nkeys);
  const std::uint64_t slice =
      std::max<std::uint64_t>(1, key_space / cfg.requesters);
  for (unsigned i = 0; i < cfg.requesters; ++i) {
    const ProcId home = static_cast<ProcId>(cfg.node_procs + i);
    sim::detach(btree_requester(&rt, &bt, cfg.scheme.mechanism, home,
                                cfg.think, cfg.insert_ratio, key_space,
                                cfg.key_affinity, i * slice, slice,
                                cfg.seed * 1000003 + i,
                                cfg.ops_per_requester, &ctl));
  }
  if (!fixed) {
    // See run_counting: one snapshot pair per shard, homed on that shard.
    for (unsigned s = 0; s < eng.shards(); ++s) {
      ShardCtl& sc = ctl.shard[s];
      const ProcId snap_home = first_proc_of_shard(eng, nprocs, s);
      const bool merged = eng.shards() == 1;
      eng.at_on(snap_home, ctl.warm_at, [&network, &sc, s, merged] {
        const net::NetStats& ns =
            merged ? network.stats() : network.stats_of_shard(s);
        sc.words_at_warm = ns.words;
        sc.msgs_at_warm = ns.messages;
      });
      eng.at_on(snap_home, ctl.end_at, [&network, &sc, s, merged] {
        const net::NetStats& ns =
            merged ? network.stats() : network.stats_of_shard(s);
        sc.words_at_end = ns.words;
        sc.msgs_at_end = ns.messages;
        sc.stop = true;
      });
    }
  }
  {
    sim::ShardedEngine driver(
        eng, sim::ShardOptions{cfg.shard_backend,
                               base_network.min_cross_latency(), cfg.seed});
    driver.run();
  }

  RunStats out;
  out.ops = ctl.total_ops();
  out.window = fixed ? eng.last_dispatch_time() : cfg.window.measure;
  out.words = fixed ? network.stats().words - ctl.warm_words()
                    : ctl.window_words();
  out.messages = fixed ? network.stats().messages - ctl.warm_msgs()
                       : ctl.window_msgs();
  if (mem != nullptr) out.shmem = mem->stats();
  out.migrations = rt.stats().migrations;
  out.remote_calls = rt.stats().remote_calls;
  out.runtime = rt.stats();
  out.net = network.stats();
  out.completed_at = eng.last_dispatch_time();
  // See run_counting: driver snapshot events excluded for shard-invariance.
  out.events_executed =
      eng.events_executed() - (fixed ? 0 : 2ull * eng.shards());
  out.clamped_events = eng.clamped_events();
  out.cross_shard_msgs = eng.cross_shard_msgs();
  out.window_count = eng.window_count();
  out.btree_keys = bt.num_keys();
  out.btree_digest = bt.digest_host();
  out.invariants_ok = bt.check_invariants();
  if (pol != nullptr) {
    out.policy_enabled = true;
    out.policy = pol->stats();
  }
  if (ftl != nullptr) {
    out.ft_enabled = true;
    out.ft = ftl->stats();
    out.ft_lost_ops = ctl.total_lost_ops();
  }
  if (locator != nullptr) {
    out.locator_enabled = true;
    out.loc = locator->stats();
  }
  if (checker != nullptr) {
    checker->finalize();
    out.checker_enabled = true;
    out.check = checker->stats();
    out.check_violations = checker->records();
  }
  if (tracer != nullptr && tracer->write_chrome_json(cfg.trace_path)) {
    out.trace_path = cfg.trace_path;
  }
  return out;
}

void put_run_stats(core::Metrics& m, const RunStats& s) {
  m.put("ops", s.ops);
  m.put("window", s.window);
  m.put("words", s.words);
  m.put("messages", s.messages);
  m.put("throughput_per_1000", s.throughput_per_1000());
  m.put("words_per_10", s.words_per_10());
  m.put("cache_hit_rate", s.shmem.hit_rate());
  m.put("completed_at", s.completed_at);
  m.put("sim.events_executed", s.events_executed);
  m.put("sim.clamped_events", s.clamped_events);
  m.put("sim.cross_shard_msgs", s.cross_shard_msgs);
  m.put("sim.window_count", s.window_count);
  m.put("total_exited", s.total_exited);
  m.put("step_property", s.step_property);
  m.put("btree_keys", static_cast<std::uint64_t>(s.btree_keys));
  char digest[32];
  std::snprintf(digest, sizeof digest, "0x%016" PRIx64, s.btree_digest);
  m.put("btree_digest", digest);
  m.put("invariants_ok", s.invariants_ok);
  if (!s.trace_path.empty()) m.put("trace", s.trace_path);
  if (s.ft_enabled) {
    ft::put_ft_stats(m, s.ft);
    m.put("ft.lost_ops", s.ft_lost_ops);
  }
  if (s.policy_enabled) policy::put_policy_stats(m, s.policy);
  if (s.locator_enabled) loc::put_loc_stats(m, s.loc);
  if (s.checker_enabled) check::put_check_stats(m, s.check);
  core::put_rt_stats(m, s.runtime);
  core::put_net_stats(m, s.net);
}

}  // namespace cm::apps
