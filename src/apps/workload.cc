#include "apps/workload.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "apps/btree.h"
#include "apps/counting_network.h"
#include "apps/platform.h"
#include "check/report.h"

namespace cm::apps {

namespace {

using core::Ctx;
using core::Mechanism;
using sim::ProcId;
using sim::Task;

/// Counting network (Figures 2 and 3): balancers on the first processors,
/// each op one token entering on a random wire, its value carried home in a
/// 2-word reply.
class CountingScenario {
 public:
  static constexpr unsigned kReturnWords = 2;

  CountingScenario(Platform& p, const CountingConfig& cfg)
      : cfg_(cfg), cn_(p.runtime(), p.memory(), {.width = cfg.width}) {}

  [[nodiscard]] std::uint64_t seed_of(unsigned i) const {
    return cfg_.seed * 7919 + i;
  }
  Task<long> op(Ctx& ctx, sim::Rng& rng, unsigned /*i*/) {
    // Each request enters on a (deterministically) random wire, as counting
    // network clients do in practice.
    const auto wire = static_cast<unsigned>(rng.below(cn_.width()));
    return cn_.get_next(ctx, cfg_.scheme.mechanism, wire);
  }
  void set_policy(policy::PolicyEngine* pol) { cn_.set_policy(pol); }
  void end_state(RunStats& out) const {
    out.total_exited = cn_.total_exited();
    out.step_property = cn_.has_step_property();
  }

 private:
  const CountingConfig& cfg_;
  CountingNetwork cn_;
};

/// Distributed B-tree (Tables 1-4): a bulk-loaded tree on the node
/// processors, each op a lookup or an insert of a random key. Both return
/// home on their own.
class BTreeScenario {
 public:
  static constexpr unsigned kReturnWords = 0;

  BTreeScenario(Platform& p, const BTreeConfig& cfg)
      : cfg_(cfg),
        bt_(p.runtime(), p.memory(),
            {.max_entries = cfg.max_entries,
             .node_procs = cfg.node_procs,
             .seed = cfg.seed,
             .replication = cfg.scheme.replication}),
        key_space_(2 * static_cast<std::uint64_t>(cfg.nkeys)),
        slice_(std::max<std::uint64_t>(1, key_space_ / cfg.requesters)) {
    // The paper builds a 10,000-key tree first; we load even keys so later
    // random inserts (any key in [0, 2n)) hit a 50% fresh-key rate.
    std::vector<std::uint64_t> keys(cfg.nkeys);
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 2 * i;
    bt_.bulk_load(keys);
  }

  [[nodiscard]] std::uint64_t seed_of(unsigned i) const {
    return cfg_.seed * 1000003 + i;
  }
  Task<bool> op(Ctx& ctx, sim::Rng& rng, unsigned i) {
    // Key skew: the affinity test must not touch the RNG when the knob is
    // off, so affinity == 0 draws stay bit-identical to the pre-knob runs.
    std::uint64_t key;
    if (cfg_.key_affinity > 0.0 && rng.uniform() < cfg_.key_affinity) {
      key = i * slice_ + rng.below(slice_);
    } else {
      key = rng.below(key_space_);
    }
    const Mechanism mech = cfg_.scheme.mechanism;
    if (rng.uniform() < cfg_.insert_ratio) {
      return bt_.insert(ctx, mech, key, key);
    }
    return bt_.lookup(ctx, mech, key);
  }
  void set_policy(policy::PolicyEngine* pol) { bt_.set_policy(pol); }
  void end_state(RunStats& out) const {
    out.btree_keys = bt_.num_keys();
    out.btree_digest = bt_.digest_host();
    out.invariants_ok = bt_.check_invariants();
  }

 private:
  const BTreeConfig& cfg_;
  DistributedBTree bt_;
  const std::uint64_t key_space_;
  const std::uint64_t slice_;  // each requester's key slice under affinity
};

}  // namespace

RunStats run_counting(const CountingConfig& cfg) {
  // Balancers occupy the first B processors; requesters get their own.
  const auto balancers =
      static_cast<ProcId>(BitonicWiring::build(cfg.width).balancers.size());
  Platform platform(cfg, balancers, cfg.requesters, nullptr);
  CountingScenario app(platform, cfg);
  return platform.run(app);
}

RunStats run_btree(const BTreeConfig& cfg) {
  Platform platform(cfg, cfg.node_procs, cfg.requesters,
                    cfg.insert_ratio == 0.0
                        ? nullptr
                        : "B-tree splits mutate tree topology no single "
                          "shard owns; multi-shard runs are lookup-only");
  BTreeScenario app(platform, cfg);
  return platform.run(app);
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
