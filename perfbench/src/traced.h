// Outside-in assembly of a workload and the traced run.
//
// apps::run_counting / run_btree build their network internally, so the
// traced run rebuilds the same machine from the public constructors
// (Engine, Machine, MeshNetwork, CoherentMemory, Runtime, CountingNetwork /
// DistributedBTree) in the drivers' order, runs requesters with the drivers'
// RNG seeds and draw order, and steps the engine in `run_bounded` chunks.
// A TimedNetwork decorator (the net::FaultyNetwork pattern) sits between the
// network and its two consumers, the runtime and the coherent memory.
//
// Spans are host-time intervals recorded around calls into the layers: an
// engine chunk (sim), a Network::send (net) and a delivery callback (the
// receiving layer's work). They nest on one stack, so each span's self time
// is its duration minus its children's. Every op also gets a span (apps),
// and every span carries the id of the simulated op it serves: the op in
// flight at the requester whose processor sent the message, or the op of
// the delivery callback it was sent from; 0 when neither applies (e.g. a
// balancer forwarding a migrated activation it received earlier).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/btree.h"
#include "apps/counting_network.h"
#include "core/object.h"
#include "core/runtime.h"
#include "core/stats.h"
#include "net/mesh_net.h"
#include "net/network.h"
#include "shmem/coherent_memory.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/tracer.h"
#include "workloads.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kChunk,    // sim: one Engine::run_bounded chunk
  kSend,     // net: one Network::send call
  kDeliver,  // a delivery callback: the receiving layer's work
  kGetNext,  // apps: CountingNetwork::get_next + return_home
  kLookup,   // apps: DistributedBTree::lookup
  kInsert,   // apps: DistributedBTree::insert
  kCount,
};

[[nodiscard]] const char* span_name(SpanKind k);

/// In-memory span store plus per-kind aggregates. Aggregates cover every
/// span; only the first `max_kept` spans are stored for the trace file.
class Recorder {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    std::uint64_t op = 0;      // simulated op served (0 = unattributed)
    SpanKind kind = SpanKind::kChunk;
    std::int64_t t0_ns = 0;    // host time since the recorder started
    std::int64_t t1_ns = 0;
    std::uint64_t cycle0 = 0;  // simulated time at open / close
    std::uint64_t cycle1 = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint32_t words = 0;
  };
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t allocs = 0;  // allocations made inside the spans
  };

  explicit Recorder(std::size_t max_kept);

  /// Bind to the engine whose clock stamps spans (done by Assembly).
  void attach(const cm::sim::Engine& eng, cm::sim::ProcId nprocs);

  /// Open a nested host span; closes pair with opens in LIFO order.
  void open(SpanKind k, std::uint64_t op, std::uint32_t src = 0,
            std::uint32_t dst = 0, std::uint32_t words = 0);
  /// Close the innermost open span; `allocs` is charged to its kind.
  void close(std::uint64_t allocs = 0);

  /// A requester homed at `home` starts / finishes an op. `counted` marks
  /// ops that completed inside the measurement window.
  std::uint64_t begin_op(cm::sim::ProcId home);
  void end_op(SpanKind k, std::uint64_t op, cm::sim::ProcId home,
              std::int64_t t0_ns, std::uint64_t cycle0, bool counted);

  /// Op id a send from `src` serves (see the file comment).
  [[nodiscard]] std::uint64_t op_for_send(cm::sim::ProcId src) const;
  /// Op whose delivery callback is running (0 outside callbacks).
  std::uint64_t current_op = 0;

  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] const Totals& totals(SpanKind k) const {
    return totals_[static_cast<unsigned>(k)];
  }
  /// Simulated latency (cycles) of every op counted in the window.
  [[nodiscard]] const std::vector<std::uint64_t>& latencies(
      SpanKind k) const {
    return latency_[static_cast<unsigned>(k)];
  }
  void note_attributed_send() { ++attributed_sends_; }
  [[nodiscard]] std::uint64_t attributed_sends() const {
    return attributed_sends_;
  }

  /// Write the kept spans and aggregates as JSON; false on I/O failure.
  bool write_json(const std::string& path, const std::string& header) const;

 private:
  struct Open {
    std::int64_t t0_ns;
    std::int64_t child_ns;
    std::size_t kept;  // index into spans_, or npos
    SpanKind kind;
    std::uint32_t id;
  };

  const cm::sim::Engine* eng_ = nullptr;
  std::int64_t origin_ns_;
  std::size_t max_kept_;
  std::uint32_t next_id_ = 1;
  std::uint64_t next_op_ = 1;
  std::uint64_t attributed_sends_ = 0;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::vector<std::uint64_t> home_op_;  // op in flight per requester home
  Totals totals_[static_cast<unsigned>(SpanKind::kCount)];
  std::vector<std::uint64_t> latency_[static_cast<unsigned>(SpanKind::kCount)];
};

/// net::Network decorator that records a span around every send and every
/// delivery callback, and counts the allocations `send` itself makes.
class TimedNetwork final : public cm::net::Network {
 public:
  TimedNetwork(cm::net::Network& inner, Recorder& rec)
      : inner_(&inner), rec_(&rec) {}

  void send(cm::sim::ProcId src, cm::sim::ProcId dst, unsigned words,
            cm::net::Traffic kind, std::function<void()> deliver) override;

  [[nodiscard]] cm::sim::Cycles latency(cm::sim::ProcId src,
                                        cm::sim::ProcId dst,
                                        unsigned words) const override {
    return inner_->latency(src, dst, words);
  }
  [[nodiscard]] cm::sim::Cycles min_cross_latency() const override {
    return inner_->min_cross_latency();
  }
  [[nodiscard]] const cm::net::NetStats& stats() const noexcept override {
    return inner_->stats();
  }

 private:
  cm::net::Network* inner_;
  Recorder* rec_;
};

/// What one run of an assembled workload produced. The first block is the
/// simulated result the traced run must reproduce exactly.
struct SimResult {
  long ops = 0;
  std::uint64_t words = 0;
  std::uint64_t messages = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t completed_at = 0;
  std::uint64_t clamped_events = 0;
  bool end_state_ok = false;
  // Window deltas (warm-up snapshot to end snapshot) for per-op counts.
  cm::core::RtStats rt_warm, rt_end;
  cm::shmem::MemStats mem_warm, mem_end;
  cm::net::NetStats net_total;  // whole run, for the traffic mix
};

/// The simulated result a public-driver run reports, in SimResult terms.
[[nodiscard]] SimResult sim_result_of(const cm::apps::RunStats& s,
                                      const Workload& w);

/// Same simulated outputs (ops, words, messages, events, completion time)?
[[nodiscard]] bool same_simulation(const SimResult& a, const SimResult& b);

struct RunControl;

/// One workload built from the public constructors. Constructing it is the
/// set-up the benchmark times; `run` is the simulation.
class Assembly {
 public:
  /// `rec` non-null installs the TimedNetwork; `tracer` installs a
  /// sim::Tracer (records in memory, never written).
  Assembly(const Workload& w, std::uint64_t seed, Recorder* rec,
           bool tracer);
  ~Assembly();
  Assembly(const Assembly&) = delete;
  Assembly& operator=(const Assembly&) = delete;

  [[nodiscard]] static cm::sim::ProcId nprocs_of(const Workload& w);

  /// Spawn the requesters, step the engine to quiescence in 4,096-event
  /// `run_bounded` chunks (one span each when recording), report.
  SimResult run(cm::apps::Window win);

 private:
  /// Spawn the requesters and schedule the window snapshots.
  void start(cm::apps::Window win);
  [[nodiscard]] SimResult finish() const;

  const Workload* w_;
  std::uint64_t seed_;
  Recorder* rec_;
  cm::sim::ProcId nprocs_;
  std::unique_ptr<cm::sim::Engine> eng_;
  std::unique_ptr<cm::sim::Tracer> tracer_;
  std::unique_ptr<cm::sim::Machine> machine_;
  std::unique_ptr<cm::net::MeshNetwork> mesh_;
  std::unique_ptr<TimedNetwork> timed_;
  cm::net::Network* network_ = nullptr;
  std::unique_ptr<cm::shmem::CoherentMemory> mem_;
  std::unique_ptr<cm::core::ObjectSpace> objects_;
  std::unique_ptr<cm::core::Runtime> rt_;
  std::unique_ptr<cm::apps::CountingNetwork> cn_;
  std::unique_ptr<cm::apps::DistributedBTree> bt_;
  std::unique_ptr<RunControl> ctl_;
};

}  // namespace perfbench
