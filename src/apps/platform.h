// The simulated platform both workloads run on (DESIGN.md §4 "Workload
// drivers"). A Platform builds the engine and its shards, the machine, the
// network stack, the optional coherent memory, the runtime and the optional
// layers from one PlatformConfig; it owns the measurement window, the
// requester loop every scenario shares, and the stats collection. An application plugs in as a scenario: it builds its objects
// on runtime() and memory() between construction and run(), and supplies
// (duck-typed, see CountingScenario / BTreeScenario in workload.cc):
//   kReturnWords     reply words that carry an op's result home after it,
//                    or 0 when the op returns home itself;
//   seed_of(i)       requester i's RNG seed;
//   op(ctx, rng, i)  draw and start one operation, a Task the loop awaits;
//   set_policy(p)    hand the app's objects to the placement policy;
//   end_state(out)   fill the app's RunStats end-state fields.
//
// The layers are built in one fixed order — engine, shards, tracer,
// machine, checker, networks, memory, ObjectSpace, runtime, reliability,
// locator, app, policy, ft, requesters, snapshots — because object ids and
// event labels depend on it: that order is what keeps same-seed runs
// byte-identical to the goldens.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/workload.h"
#include "check/checker.h"
#include "core/runtime.h"
#include "ft/ft.h"
#include "loc/locator.h"
#include "net/constant_net.h"
#include "net/faulty_net.h"
#include "net/mesh_net.h"
#include "policy/policy.h"
#include "shmem/coherent_memory.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/rng.h"
#include "sim/task.h"
#include "sim/tracer.h"

namespace cm::apps {

class Platform {
 public:
  /// The application's objects occupy processors [0, app_procs); requester
  /// i runs on processor app_procs + i. A non-null `app_shard_veto` names
  /// why the application's own settings cannot run multi-shard. Aborts with
  /// a one-line `workload:` diagnostic on a config the platform cannot run.
  Platform(const PlatformConfig& cfg, sim::ProcId app_procs,
           unsigned requesters, const char* app_shard_veto);

  [[nodiscard]] core::Runtime& runtime() noexcept { return rt_; }
  [[nodiscard]] shmem::CoherentMemory* memory() noexcept {
    return mem_.get();
  }

  /// Build the policy and ft layers around the application, start the
  /// requesters and the window snapshots, run the engine until it drains
  /// and collect the stats.
  template <class App>
  RunStats run(App& app) {
    // Placement policy: null by default, and built after the application
    // (after the B-tree's bulk_load) so `set_policy` registers every object
    // at once; split-born nodes register themselves.
    if (cfg_.policy.enabled) {
      pol_ = std::make_unique<policy::PolicyEngine>(rt_, cfg_.policy);
      app.set_policy(pol_.get());
      if (locator_ != nullptr) locator_->set_chooser(&pol_->chooser());
      pol_->start();
    }
    start_ft();
    shard_.resize(eng_.shards());
    live_ = requesters_;
    for (unsigned i = 0; i < requesters_; ++i) {
      sim::detach(requester(&app, i));
    }
    drive();
    RunStats out;
    app.end_state(out);
    collect_stats(out);
    return out;
  }

 private:
  /// One shard's slice of the run control. The measurement window is
  /// half-open, [warm_at, end_at), for BOTH the op counter and the traffic
  /// snapshots: the warm/end snapshot events carry lane-0 labels (scheduled
  /// at setup time), so they run before any same-cycle runtime event — an
  /// op or word landing exactly on a boundary cycle is therefore counted by
  /// exactly one window.
  ///
  /// Sharded runs (DESIGN.md §12): every mutable field a requester touches
  /// mid-run lives in its shard's slice, indexed by the engine's ambient
  /// shard, so kThreads workers never share a counter; run totals sum the
  /// slices after the engine drains. The sums are shard-count invariant:
  /// each op / word is counted on the shard of the event that produced it,
  /// and event placement is a pure function of the simulation's causal
  /// history.
  struct ShardCtl {
    bool stop = false;
    long ops = 0;
    // Fail-stop bookkeeping: operations abandoned with a typed FtError.
    long lost_ops = 0;
    std::uint64_t words_at_warm = 0;
    std::uint64_t msgs_at_warm = 0;
    std::uint64_t words_at_end = 0;
    std::uint64_t msgs_at_end = 0;
  };

  /// The one requester loop every scenario shares: operation after
  /// operation until the window closes or the fixed work is done, each
  /// followed by the think time. The last requester out stops the failure
  /// detector, whose periodic sweep would otherwise keep the event queue
  /// alive forever.
  template <class App>
  sim::Task<> requester(App* app, unsigned i) {
    const auto home = static_cast<sim::ProcId>(app_procs_ + i);
    const long fixed_ops = cfg_.ops_per_requester;
    const sim::Cycles think = cfg_.think;
    core::Ctx ctx{&rt_, home};
    sim::Rng rng(app->seed_of(i));
    for (long done = 0; !my_shard().stop; ++done) {
      if (fixed_ops > 0 && done >= fixed_ops) break;
      try {
        (void)co_await app->op(ctx, rng, i);
        // Bring the value (and, under migration, the activation) back home.
        if constexpr (App::kReturnWords > 0) {
          co_await rt_.return_home(ctx, home, App::kReturnWords);
        }
        const sim::Cycles now = eng_.now();
        if (now >= warm_at_ && now < end_at_) ++my_shard().ops;
      } catch (const core::FtError&) {
        // Only thrown with fault tolerance installed: the operation touched
        // a lost object or exhausted its retry budget. Abandon it gracefully
        // and carry on from home. (B-tree crash scenarios re-home node
        // state, never condemn it — an ObjectLostError unwinding past a
        // held node lock would strand its waiters — so there this fires
        // only on retry-budget exhaustion.)
        ++my_shard().lost_ops;
        ctx.proc = home;
      }
      if (think > 0) co_await machine_.sleep(think);
    }
    if (live_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        ftl_ != nullptr) {
      ftl_->stop();
    }
  }

  [[nodiscard]] bool fixed() const { return cfg_.ops_per_requester > 0; }
  /// The calling context's slice of the run control.
  ShardCtl& my_shard() { return shard_[eng_.current_shard()]; }
  template <class T>
  [[nodiscard]] T sum(T ShardCtl::*field) const {
    T n = 0;
    for (const ShardCtl& sc : shard_) n += sc.*field;
    return n;
  }

  sim::ProcId check_and_carve(const char* app_shard_veto);
  void start_ft();
  void drive();
  void collect_stats(RunStats& out);

  const PlatformConfig& cfg_;
  const sim::ProcId app_procs_;
  const unsigned requesters_;
  const sim::Cycles warm_at_;
  const sim::Cycles end_at_;
  // The layers, in construction order.
  sim::Engine eng_;
  const sim::ProcId nprocs_;
  std::unique_ptr<sim::Tracer> tracer_;
  sim::Machine machine_;
  std::unique_ptr<check::Checker> checker_;
  net::ConstantNetwork constant_net_;
  net::MeshNetwork mesh_net_;
  net::Network& base_network_;
  net::FaultyNetwork faulty_net_;
  net::Network& network_;
  std::unique_ptr<shmem::CoherentMemory> mem_;
  core::ObjectSpace objects_;
  core::Runtime rt_;
  std::unique_ptr<loc::Locator> locator_;
  std::unique_ptr<policy::PolicyEngine> pol_;
  std::unique_ptr<ft::FtLayer> ftl_;
  // Run control.
  std::vector<ShardCtl> shard_;  // indexed by engine shard
  std::atomic<unsigned> live_{0};  // requesters still running, any shard
};

}  // namespace cm::apps
