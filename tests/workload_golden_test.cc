// Golden results of workload runs on the optional-layer paths the paper
// benches never reach: chaos with the reliable transport, fail-stop with
// the ft layer, the distributed locator, an actuating placement policy,
// the invariant checker, a two-shard engine, hardware assists and software
// replication. Each case runs one small deterministic configuration through
// apps::run_counting / run_btree and compares what it produces (ops,
// network words and messages, engine events, completion time, the
// application's end state and an FNV-1a digest of the full put_run_stats
// JSON) against constants pinned before run_counting and run_btree were
// factored onto one shared Platform. These are exactly the paths that
// factoring rewires, so any change to construction order, seeding or stats
// collection moves at least one of them.
//
// On a mismatch gtest prints the actual record in the same initializer form
// as the constants below, followed by the JSON it was digested from; a
// deliberate behaviour change re-pins by pasting it (and says why in the
// change log).
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "apps/workload.h"
#include "core/metrics.h"

namespace cm::apps {

/// Everything a case pins. The end-state fields belong to one app each and
/// stay at their RunStats defaults for the other.
struct Pinned {
  long ops;
  std::uint64_t words;
  std::uint64_t messages;
  std::uint64_t events;
  sim::Cycles completed_at;
  long total_exited;
  bool step_property;
  std::size_t btree_keys;
  std::uint64_t btree_digest;
  bool invariants_ok;
  std::uint64_t json_fnv;
};

bool operator==(const Pinned& a, const Pinned& b) {
  return a.ops == b.ops && a.words == b.words && a.messages == b.messages &&
         a.events == b.events && a.completed_at == b.completed_at &&
         a.total_exited == b.total_exited &&
         a.step_property == b.step_property &&
         a.btree_keys == b.btree_keys && a.btree_digest == b.btree_digest &&
         a.invariants_ok == b.invariants_ok && a.json_fnv == b.json_fnv;
}

void PrintTo(const Pinned& p, std::ostream* os) {
  *os << "{" << p.ops << ", " << p.words << ", " << p.messages << ", "
      << p.events << ", " << p.completed_at << ",\n " << p.total_exited
      << ", " << (p.step_property ? "true" : "false") << ", " << p.btree_keys
      << ", 0x" << std::hex << p.btree_digest << std::dec << "ull, "
      << (p.invariants_ok ? "true" : "false") << ", 0x" << std::hex
      << p.json_fnv << std::dec << "ull}";
}

namespace {

using core::Mechanism;
using core::Scheme;

std::string metrics_json(const RunStats& s) {
  core::Metrics m;
  put_run_stats(m, s);
  std::string out;
  m.append_json_fields(out);
  return out;
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

Pinned pinned(const RunStats& s) {
  return {s.ops,           s.words,           s.messages,
          s.events_executed, s.completed_at,    s.total_exited,
          s.step_property,   s.btree_keys,      s.btree_digest,
          s.invariants_ok,   fnv1a64(metrics_json(s))};
}

void expect_golden(const RunStats& s, const Pinned& golden) {
  EXPECT_EQ(pinned(s), golden) << "metrics: " << metrics_json(s);
}

CountingConfig small_counting(Mechanism mech) {
  CountingConfig cfg;
  cfg.scheme = Scheme{mech, false, false};
  cfg.requesters = 16;
  cfg.window = Window{2'000, 20'000};
  return cfg;
}

BTreeConfig small_btree(Mechanism mech) {
  BTreeConfig cfg;
  cfg.scheme = Scheme{mech, false, false};
  cfg.requesters = 8;
  cfg.nkeys = 1'000;
  cfg.max_entries = 20;
  cfg.window = Window{2'000, 60'000};
  return cfg;
}

// --- Chaos: active fault plan, reliable transport, fixed work -------------

TEST(WorkloadGolden, ChaosCountingMigration) {
  CountingConfig cfg = small_counting(Mechanism::kMigration);
  cfg.ops_per_requester = 10;
  cfg.faults.rates.drop = 0.02;
  cfg.faults.rates.duplicate = 0.01;
  cfg.faults.rates.delay = 0.02;
  cfg.faults.seed = 0xc4a05;
  const Pinned kGolden{160, 12790, 2288, 9113, 65729, 160, true, 0, 0x0ull,
                       false, 0xb4c30cbd34b208a7ull};
  expect_golden(run_counting(cfg), kGolden);
}

// --- Fail-stop: a planned NIC death with the ft layer recovering ----------

TEST(WorkloadGolden, FtNicDeathCountingRpc) {
  CountingConfig cfg = small_counting(Mechanism::kRpc);
  cfg.ops_per_requester = 10;
  cfg.faults.nic_fail_at[2] = 4'000;
  cfg.ft.enabled = true;
  const Pinned kGolden{160, 45796, 10034, 19089, 148000, 160, true, 0, 0x0ull,
                       false, 0x5f97e50ef8a95dd0ull};
  expect_golden(run_counting(cfg), kGolden);
}

// --- Distributed locator on a B-tree with splits --------------------------

TEST(WorkloadGolden, DistributedLocatorBTreeMigration) {
  BTreeConfig cfg = small_btree(Mechanism::kMigration);
  cfg.locator.mode = loc::Locality::kDistributed;
  const Pinned kGolden{60, 3554, 370, 2048, 64740, 0, false, 1015,
                       0x9a3d1959c313df8cull, true, 0x52677e21fb67cd19ull};
  expect_golden(run_btree(cfg), kGolden);
}

// --- Actuating placement policy on a skewed, lookup-only B-tree -----------

TEST(WorkloadGolden, ActuatingPolicySkewedBTree) {
  BTreeConfig cfg = small_btree(Mechanism::kRpc);
  cfg.mesh = false;
  cfg.nkeys = 200;
  cfg.insert_ratio = 0.0;
  cfg.key_affinity = 0.95;
  cfg.node_procs = 8;
  cfg.ops_per_requester = 40;
  cfg.policy.enabled = true;
  cfg.policy.sample_interval = 15'000;
  cfg.policy.global_every = 1;
  cfg.policy.min_accesses = 3;
  cfg.policy.attract_share = 0.55;
  cfg.policy.degree_of_migration = 4;
  cfg.policy.phase_adaptive = true;
  const Pinned kGolden{320, 7629, 631, 2871, 150013, 0, false, 200,
                       0x4b64a7bd69b91ef0ull, true, 0xf60502ea04a499bbull};
  expect_golden(run_btree(cfg), kGolden);
}

// --- Invariant checker on a shared-memory counting network ----------------

TEST(WorkloadGolden, CheckerCountingSharedMemory) {
  CountingConfig cfg = small_counting(Mechanism::kSharedMemory);
  cfg.check = true;
  const Pinned kGolden{66, 23206, 6813, 14960, 26480, 82, true, 0, 0x0ull,
                       false, 0x81b003baa25810c4ull};
  expect_golden(run_counting(cfg), kGolden);
}

// --- Two sequential shards, RPC, lookup-only B-tree -----------------------

TEST(WorkloadGolden, TwoShardSequentialBTreeRpc) {
  BTreeConfig cfg = small_btree(Mechanism::kRpc);
  cfg.insert_ratio = 0.0;
  cfg.nshards = 2;
  cfg.shard_backend = sim::ShardBackend::kSequential;
  const Pinned kGolden{42, 3752, 268, 1200, 69154, 0, false, 1000,
                       0xa9352e92f27a1c0dull, true, 0x3efe35083e5059f1ull};
  expect_golden(run_btree(cfg), kGolden);
}

// --- Computation migration with both hardware assists ---------------------

TEST(WorkloadGolden, HardwareAssistedMigrationBTree) {
  BTreeConfig cfg = small_btree(Mechanism::kMigration);
  cfg.scheme.hw_support = true;
  const Pinned kGolden{122, 6136, 491, 2787, 64616, 0, false, 1030,
                       0xc46e845675f5c84bull, true, 0xaf3c30834c3f4affull};
  expect_golden(run_btree(cfg), kGolden);
}

// --- RPC with software replication of the upper tree, fixed work ----------

TEST(WorkloadGolden, ReplicatedRpcBTreeFixedWork) {
  BTreeConfig cfg = small_btree(Mechanism::kRpc);
  cfg.scheme.replication = true;
  cfg.ops_per_requester = 20;
  const Pinned kGolden{160, 11456, 804, 3446, 137549, 0, false, 1041,
                       0xbc48a0d079562deull, true, 0x7ca22614eaf39433ull};
  expect_golden(run_btree(cfg), kGolden);
}

}  // namespace
}  // namespace cm::apps
