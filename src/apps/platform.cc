#include "apps/platform.h"

#include <cstdio>
#include <cstdlib>

#include "sim/sharded_engine.h"

namespace cm::apps {

namespace {

using core::Mechanism;
using sim::Cycles;
using sim::ProcId;

/// A config the platform cannot run is rejected loudly, with a one-line
/// diagnostic, rather than run into a hang or silently desharded.
void require(bool ok, const char* what, const char* prefix = "") {
  if (ok) return;
  std::fprintf(stderr, "workload: %s%s\n", prefix, what);
  std::abort();
}

}  // namespace

Platform::Platform(const PlatformConfig& cfg, ProcId app_procs,
                   unsigned requesters, const char* app_shard_veto)
    : cfg_(cfg),
      app_procs_(app_procs),
      requesters_(requesters),
      warm_at_(fixed() ? 0 : cfg.window.warmup),
      end_at_(fixed() ? ~Cycles{0} : cfg.window.warmup + cfg.window.measure),
      eng_(cfg.queue_backend),
      nprocs_(check_and_carve(app_shard_veto)),
      tracer_(cfg.trace_path.empty() ? nullptr
                                     : std::make_unique<sim::Tracer>(eng_)),
      machine_(eng_, nprocs_),
      checker_(cfg.check ? std::make_unique<check::Checker>(eng_, nprocs_,
                                                            cfg.check_cfg)
                         : nullptr),
      constant_net_(eng_),
      // Multi-shard runs drop mesh link contention: its per-link FIFO
      // timeline is one global, order-sensitive structure no conservative
      // window can partition (documented on MeshNetwork::min_cross_latency).
      mesh_net_(eng_, nprocs_, {.contention = eng_.shards() == 1}),
      base_network_(cfg.mesh ? static_cast<net::Network&>(mesh_net_)
                             : static_cast<net::Network&>(constant_net_)),
      // Chaos mode: only an active fault plan installs the fault injector
      // and the reliable transport, so fault-free runs stay bit-identical.
      faulty_net_(eng_, base_network_, cfg.faults),
      network_(cfg.faults.active() ? static_cast<net::Network&>(faulty_net_)
                                   : base_network_),
      mem_(cfg.scheme.mechanism == Mechanism::kSharedMemory
               ? std::make_unique<shmem::CoherentMemory>(
                     machine_, network_, shmem::CacheParams{},
                     shmem::ProtocolParams{.hw_sharer_pointers =
                                               cfg.limitless_pointers})
               : nullptr),
      rt_(machine_, network_, objects_, cfg.scheme.cost_model()) {
  // No constructor above consults the engine's tracer or checker (they are
  // first read when something is sent), so installing them here is the
  // same as installing them as they were built.
  eng_.set_tracer(tracer_.get());
  eng_.set_checker(checker_.get());
  if (cfg.faults.active()) rt_.enable_reliability(cfg.reliable);
  // Distributed object location: constructed before the application so its
  // create-hook catches every object (split-born B-tree nodes included). In
  // oracle mode there is no Locator and the run is bit-identical to one
  // without the subsystem.
  if (cfg.locator.mode == loc::Locality::kDistributed) {
    locator_ = std::make_unique<loc::Locator>(rt_, cfg.locator);
  }
}

/// Check the config against what the platform can run, then carve the
/// shards. Shards must be carved before anything schedules or sizes
/// per-shard state (tracer buffers, checker logs, network stat slots).
ProcId Platform::check_and_carve(const char* app_shard_veto) {
  require(requesters_ > 0, "a run needs at least one requester");
  require(cfg_.faults.nic_fail_at.empty() || cfg_.ft.enabled,
          "a planned NIC death needs the ft layer (only its suspicion "
          "cancels the retransmissions to a dead NIC)");
  if (cfg_.nshards > 1) {
    // What the conservative windows cannot serve: global FIFO timelines,
    // cross-shard mutable state, zero-lookahead paths.
    const char* const shards = "multi-shard run rejected: ";
    const Mechanism m = cfg_.scheme.mechanism;
    require(m == Mechanism::kRpc || m == Mechanism::kMigration ||
                m == Mechanism::kThreadMigration,
            "mechanism must route all cross-processor work through the "
            "network (kRpc/kMigration/kThreadMigration)",
            shards);
    require(!cfg_.scheme.replication,
            "software replication keeps cross-shard copy tables", shards);
    require(!cfg_.faults.active(), "chaos runs are single-shard", shards);
    require(!cfg_.ft.enabled, "ft runs are single-shard", shards);
    require(cfg_.locator.mode != loc::Locality::kDistributed,
            "the distributed locator is single-shard", shards);
    require(app_shard_veto == nullptr, app_shard_veto, shards);
    require(!cfg_.policy.enabled || cfg_.policy.observe_only,
            "an actuating placement policy mutates global placement tables; "
            "multi-shard policy runs are observe-only",
            shards);
  }
  const auto nprocs = static_cast<ProcId>(app_procs_ + requesters_);
  eng_.configure_shards(cfg_.nshards, nprocs);
  return nprocs;
}

/// Fail-stop tolerance: constructed after the application so every object
/// (and the replicated B-tree root, if any) exists when a suspicion scans
/// a dead processor's population.
void Platform::start_ft() {
  if (!cfg_.ft.enabled) return;
  ftl_ = std::make_unique<ft::FtLayer>(rt_, cfg_.ft, locator_.get());
  ftl_->note_plan(cfg_.faults);
  ftl_->start();
}

/// Schedule the window snapshots and run the engine until it drains. Each
/// shard gets one warm/end snapshot pair, homed on its lowest-numbered
/// processor and reading its own traffic slot; run totals are the slice
/// sums, which match the single-shard numbers because every send is
/// slotted by the shard that executed it. Chaos runs (single-shard) keep
/// reading the merged stats so the fault decorator's override stays in
/// the loop. Fixed-work runs take no snapshots: the whole run is the window.
void Platform::drive() {
  const unsigned snapshot_shards = fixed() ? 0 : eng_.shards();
  for (unsigned s = 0; s < snapshot_shards; ++s) {
    ProcId home = 0;
    while (home < nprocs_ && eng_.shard_of(home) != s) ++home;
    if (home == nprocs_) home = 0;
    ShardCtl& sc = shard_[s];
    const net::Network& net = network_;
    const bool merged = eng_.shards() == 1;
    eng_.at_on(home, warm_at_, [&net, &sc, s, merged] {
      const net::NetStats& ns = merged ? net.stats() : net.stats_of_shard(s);
      sc.words_at_warm = ns.words;
      sc.msgs_at_warm = ns.messages;
    });
    eng_.at_on(home, end_at_, [&net, &sc, s, merged] {
      const net::NetStats& ns = merged ? net.stats() : net.stats_of_shard(s);
      sc.words_at_end = ns.words;
      sc.msgs_at_end = ns.messages;
      sc.stop = true;
    });
  }
  sim::ShardedEngine driver(
      eng_, sim::ShardOptions{cfg_.shard_backend,
                              base_network_.min_cross_latency(), cfg_.seed});
  driver.run();
}

/// Fill every RunStats field the platform owns (the scenario has filled its
/// end state already).
void Platform::collect_stats(RunStats& out) {
  out.ops = sum(&ShardCtl::ops);
  out.window = fixed() ? eng_.last_dispatch_time() : cfg_.window.measure;
  out.words = (fixed() ? network_.stats().words
                       : sum(&ShardCtl::words_at_end)) -
              sum(&ShardCtl::words_at_warm);
  out.messages = (fixed() ? network_.stats().messages
                          : sum(&ShardCtl::msgs_at_end)) -
                 sum(&ShardCtl::msgs_at_warm);
  if (mem_ != nullptr) out.shmem = mem_->stats();
  out.runtime = rt_.stats();
  out.net = network_.stats();
  out.completed_at = eng_.last_dispatch_time();
  // Exclude the driver's own snapshot events (2 per shard) so the count
  // covers workload events only and is identical at every shard count.
  out.events_executed =
      eng_.events_executed() - (fixed() ? 0 : 2ull * eng_.shards());
  out.clamped_events = eng_.clamped_events();
  out.cross_shard_msgs = eng_.cross_shard_msgs();
  out.window_count = eng_.window_count();
  if (pol_ != nullptr) {
    out.policy_enabled = true;
    out.policy = pol_->stats();
  }
  if (ftl_ != nullptr) {
    out.ft_enabled = true;
    out.ft = ftl_->stats();
    out.ft_lost_ops = sum(&ShardCtl::lost_ops);
  }
  if (locator_ != nullptr) {
    out.locator_enabled = true;
    out.loc = locator_->stats();
  }
  if (checker_ != nullptr) {
    checker_->finalize();
    out.checker_enabled = true;
    out.check = checker_->stats();
    out.check_violations = checker_->records();
  }
  if (tracer_ != nullptr && tracer_->write_chrome_json(cfg_.trace_path)) {
    out.trace_path = cfg_.trace_path;
  }
}

}  // namespace cm::apps
