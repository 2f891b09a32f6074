// Seeded config-space fuzzer for the workload platform. Each sample draws
// one application (counting network or B-tree) and one PlatformConfig —
// hardware assists, replication, mesh or constant network, LimitLESS
// pointers, locator mode, a fault plan, ft, policy mode, checker, queue
// backend and one or two sequential shards — from the combinations the
// platform accepts, then runs it in fixed-work mode under every mechanism
// its other settings allow. The paper's central promise is that the
// annotation changes performance only, never results, so:
//
//  * every mechanism leaves the same application state: the counting
//    network's totals and step property, or the B-tree's digest, key count
//    and structural invariants;
//  * the invariant checker, when drawn, reports zero violations;
//  * a sample that kills a NIC accounts for every operation instead:
//    completed plus abandoned equals the fixed work (an abandoned operation
//    may or may not have taken effect, so states may differ).
//
// A failure prints the sample's full config (SCOPED_TRACE) and is a program
// bug to fix or log; the sampled space is never narrowed to hide one.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/counting_network.h"
#include "apps/workload.h"
#include "sim/rng.h"

namespace cm::apps {
namespace {

using core::Mechanism;

constexpr std::uint64_t kBaseSeed = 0x5eed'f022;
constexpr int kSamples = 200;

enum class FaultKind { kNone, kLoss, kNicDeath };

struct Sample {
  bool btree = false;
  FaultKind faults = FaultKind::kNone;
  CountingConfig counting;
  BTreeConfig tree;

  [[nodiscard]] const PlatformConfig& platform() const {
    return btree ? static_cast<const PlatformConfig&>(tree) : counting;
  }
  [[nodiscard]] unsigned requesters() const {
    return btree ? tree.requesters : counting.requesters;
  }
  [[nodiscard]] long fixed_work() const {
    return static_cast<long>(requesters()) * platform().ops_per_requester;
  }
  /// Fail-stop recovery re-homes runtime objects; coherent memory has no
  /// recovery for the lines a dead NIC strands, and multi-shard runs are
  /// restricted to mechanisms that route everything through the network.
  [[nodiscard]] std::vector<Mechanism> mechanisms() const {
    if (faults == FaultKind::kNicDeath || platform().nshards > 1) {
      return {Mechanism::kRpc, Mechanism::kMigration};
    }
    return {Mechanism::kRpc, Mechanism::kMigration, Mechanism::kSharedMemory};
  }
};

template <class T>
T pick(sim::Rng& rng, std::initializer_list<T> options) {
  return options.begin()[rng.below(options.size())];
}

Sample draw(std::uint64_t seed) {
  sim::Rng rng(seed);
  Sample s;
  s.btree = rng.chance(0.5);
  PlatformConfig p;
  p.seed = rng.between(1, 1'000);
  p.nshards = static_cast<unsigned>(rng.between(1, 2));
  const bool single = p.nshards == 1;
  p.scheme.hw_support = rng.chance(0.5);
  p.scheme.hw_oid_only = !p.scheme.hw_support && rng.chance(0.5);
  p.scheme.replication = single && rng.chance(0.5);
  p.mesh = rng.chance(0.5);
  p.limitless_pointers = pick(rng, {0u, 1u, 5u});
  p.think = pick<sim::Cycles>(rng, {0, 300});
  p.ops_per_requester = static_cast<long>(rng.between(2, 8));
  if (single && rng.chance(0.4)) {
    p.locator.mode = loc::Locality::kDistributed;
  }
  s.faults = single ? pick(rng, {FaultKind::kNone, FaultKind::kLoss,
                                 FaultKind::kNicDeath})
                    : FaultKind::kNone;
  if (s.faults == FaultKind::kLoss) {
    p.faults.rates.drop = 0.01 + 0.02 * rng.uniform();
    p.faults.rates.duplicate = p.faults.rates.drop / 2;
    p.faults.rates.delay = p.faults.rates.drop;
    p.faults.seed = rng.next();
  }
  p.ft.enabled =
      s.faults == FaultKind::kNicDeath || (single && rng.chance(0.3));
  switch (rng.below(single ? 3 : 2)) {
    case 0:
      break;
    case 1:
      p.policy.enabled = true;
      p.policy.observe_only = true;
      break;
    default:
      p.policy.enabled = true;
      p.policy.sample_interval = 3'000;
      p.policy.global_every = 1;
      p.policy.min_accesses = 3;
      p.policy.attract_share = 0.55;
      p.policy.degree_of_migration = 4;
      p.policy.phase_adaptive = rng.chance(0.5);
      break;
  }
  p.check = rng.chance(0.5);
  p.queue_backend = rng.chance(0.5) ? sim::QueueBackend::kCalendar
                                    : sim::QueueBackend::kHeap;
  p.shard_backend = sim::ShardBackend::kSequential;

  unsigned app_procs = 0;
  if (s.btree) {
    static_cast<PlatformConfig&>(s.tree) = p;
    s.tree.requesters = static_cast<unsigned>(rng.between(2, 10));
    s.tree.nkeys = static_cast<unsigned>(rng.between(50, 400));
    s.tree.max_entries = static_cast<unsigned>(rng.between(4, 20));
    s.tree.insert_ratio = single ? pick(rng, {0.0, 0.3, 0.7}) : 0.0;
    s.tree.key_affinity = pick(rng, {0.0, 0.8});
    s.tree.node_procs = static_cast<sim::ProcId>(rng.between(4, 16));
    app_procs = s.tree.node_procs;
  } else {
    static_cast<PlatformConfig&>(s.counting) = p;
    s.counting.requesters = static_cast<unsigned>(rng.between(2, 12));
    s.counting.width = pick(rng, {4u, 8u});
    app_procs = static_cast<unsigned>(
        BitonicWiring::build(s.counting.width).balancers.size());
  }
  if (s.faults == FaultKind::kNicDeath) {
    // One application processor dies; processor 0 coordinates the policy
    // and requesters hold program state no layer recovers, so neither is a
    // victim.
    const auto victim = static_cast<sim::ProcId>(rng.between(1, app_procs - 1));
    const sim::Cycles at = rng.between(2'000, 10'000);
    (s.btree ? s.tree.faults : s.counting.faults).nic_fail_at[victim] = at;
  }
  return s;
}

std::string describe(const Sample& s) {
  const PlatformConfig& p = s.platform();
  std::ostringstream os;
  os << (s.btree ? "btree" : "counting") << " seed=" << p.seed
     << " nshards=" << p.nshards << " hw=" << p.scheme.hw_support
     << " hw_oid_only=" << p.scheme.hw_oid_only
     << " replication=" << p.scheme.replication << " mesh=" << p.mesh
     << " limitless=" << p.limitless_pointers << " think=" << p.think
     << " ops_per_requester=" << p.ops_per_requester << " locator="
     << (p.locator.mode == loc::Locality::kDistributed ? "distributed"
                                                       : "oracle")
     << " faults=" << static_cast<int>(s.faults)
     << " drop=" << p.faults.rates.drop << " fault_seed=" << p.faults.seed;
  for (const auto& [proc, at] : p.faults.nic_fail_at) {
    os << " nic_fail_at[" << proc << "]=" << at;
  }
  os << " ft=" << p.ft.enabled << " policy=" << p.policy.enabled
     << " observe_only=" << p.policy.observe_only
     << " phase_adaptive=" << p.policy.phase_adaptive << " check=" << p.check
     << " queue="
     << (p.queue_backend == sim::QueueBackend::kHeap ? "heap" : "calendar")
     << " requesters=" << s.requesters();
  if (s.btree) {
    os << " nkeys=" << s.tree.nkeys << " max_entries=" << s.tree.max_entries
       << " insert_ratio=" << s.tree.insert_ratio
       << " key_affinity=" << s.tree.key_affinity
       << " node_procs=" << s.tree.node_procs;
  } else {
    os << " width=" << s.counting.width;
  }
  return os.str();
}

RunStats run(const Sample& s, Mechanism mech) {
  if (s.btree) {
    BTreeConfig cfg = s.tree;
    cfg.scheme.mechanism = mech;
    return run_btree(cfg);
  }
  CountingConfig cfg = s.counting;
  cfg.scheme.mechanism = mech;
  return run_counting(cfg);
}

class PlatformFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PlatformFuzz, ResultsAgreeAcrossMechanisms) {
  const Sample s = draw(kBaseSeed + static_cast<std::uint64_t>(GetParam()));
  SCOPED_TRACE(describe(s));
  std::optional<RunStats> first;
  for (const Mechanism mech : s.mechanisms()) {
    SCOPED_TRACE(core::mechanism_name(mech));
    const RunStats r = run(s, mech);
    EXPECT_EQ(r.clamped_events, 0u);
    if (s.platform().check) {
      EXPECT_EQ(r.check.total_violations, 0u);
    }
    if (s.faults == FaultKind::kNicDeath) {
      EXPECT_EQ(r.ops + r.ft_lost_ops, s.fixed_work());
      continue;
    }
    EXPECT_EQ(r.ops, s.fixed_work());
    if (s.btree) {
      EXPECT_TRUE(r.invariants_ok);
    } else {
      EXPECT_EQ(r.total_exited, s.fixed_work());
      EXPECT_TRUE(r.step_property);
    }
    if (first) {
      EXPECT_EQ(r.total_exited, first->total_exited);
      EXPECT_EQ(r.btree_keys, first->btree_keys);
      EXPECT_EQ(r.btree_digest, first->btree_digest);
    } else {
      first = r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Samples, PlatformFuzz,
                         ::testing::Range(0, kSamples));

}  // namespace
}  // namespace cm::apps
