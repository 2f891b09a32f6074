// Discrete-event simulation engine: a monotone cycle clock plus an event
// queue. Deterministic: events at equal timestamps run in label order.
//
// Sharded core (DESIGN.md §12): the engine owns N shards, each a complete
// calendar-queue/arena event loop with its own local clock. Simulated
// processors are partitioned across shards in contiguous blocks; every event
// is homed at a processor (or at kNoProc for setup/bookkeeping work, which
// lives on shard 0) and executes on its home's shard. A `ShardedEngine`
// driver (sharded_engine.h) advances all shards in conservative windows
// bounded by the network's minimum cross-shard latency. With one shard —
// the default — the engine behaves exactly like the classic sequential
// engine and `run()` is the classic drain loop.
//
// Determinism contract: every event carries a 64-bit label
// `(lane << 40) | count` where `lane` is the *creating* context's lane
// (lane 0 for setup, lane p+1 for an event homed at processor p) and
// `count` is that lane's private counter. Labels are a pure function of the
// simulation's causal history, so they are identical for every shard count
// and backend; each shard pops its queue in (t, label) order, which makes
// same-seed runs bit-identical across shard counts. A program that only
// ever schedules from lane 0 (every pre-shard unit test) sees labels
// 0, 1, 2, ... — exactly the legacy insertion sequence.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/task.h"
#include "sim/types.h"

namespace cm::check {
class Checker;
}  // namespace cm::check

namespace cm::sim {

class Tracer;

/// The heart of the Proteus-style simulator. Client code schedules closures
/// at absolute or relative cycle times; `run()` drains the queue in
/// (time, label) order, advancing the clock as it goes.
///
/// Two queue backends share that contract (see event_queue.h): the default
/// `kCalendar` hot path stores callbacks in a slab arena behind a timing
/// wheel of 24-byte keys; `kHeap` is the legacy binary heap of
/// `std::function`s, kept as the conformance reference and the host-perf
/// baseline. Same-seed runs are bit-identical across backends.
class Engine {
 public:
  /// "No pending event" sentinel for `shard_next_time`, and the window end
  /// that disables window clipping entirely.
  static constexpr Cycles kNever = ~Cycles{0};

  explicit Engine(QueueBackend backend = QueueBackend::kCalendar)
      : shards_(std::make_unique_for_overwrite<Shard[]>(1)),
        backend_(backend) {
    tls_shard_ = 0;
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  [[nodiscard]] QueueBackend backend() const noexcept { return backend_; }

  // -- Sharding ------------------------------------------------------------

  /// Partition `nprocs` simulated processors across `nshards` shards in
  /// contiguous blocks and pre-size the per-lane label counters. Must be
  /// called before any event is scheduled (the workload layer calls it
  /// right after constructing the engine). `nshards == 1` is the classic
  /// single-shard engine.
  void configure_shards(unsigned nshards, unsigned nprocs);

  [[nodiscard]] unsigned shards() const noexcept { return nshards_; }

  /// Which shard events homed at `p` execute on. Setup events (kNoProc)
  /// live on shard 0.
  [[nodiscard]] unsigned shard_of(ProcId p) const noexcept {
    if (nshards_ == 1 || p == kNoProc) return 0;
    const unsigned s = p / procs_per_shard_;
    return s < nshards_ ? s : nshards_ - 1;
  }

  /// The shard whose event (if any) is executing on this host thread.
  [[nodiscard]] unsigned current_shard() const noexcept { return tls_shard_; }

  /// Home processor of the event executing on this host thread (kNoProc
  /// between events and for setup-scheduled work).
  [[nodiscard]] ProcId current_home() const noexcept {
    return shards_[tls_shard_].current_home;
  }

  /// Label of the event executing on this host thread (0 between events).
  /// Tracer records and checker logs key their deterministic merges on it.
  [[nodiscard]] std::uint64_t current_label() const noexcept {
    return shards_[tls_shard_].current_label;
  }

  // -- Clock and scheduling ------------------------------------------------

  /// Current simulated time in cycles — of the shard executing on this host
  /// thread (the global clock of the classic single-shard engine).
  [[nodiscard]] Cycles now() const noexcept {
    return shards_[tls_shard_].now;
  }

  /// Largest local clock across shards: where the simulation as a whole has
  /// advanced to after a run. Equals `now()` for a single shard.
  [[nodiscard]] Cycles last_dispatch_time() const noexcept;

  /// Schedule `fn` (any void() callable; captures stay inline in the event
  /// arena when they fit) to run at absolute time `t`, homed at the calling
  /// context's processor — so the event stays on the calling shard. A
  /// correct caller never passes `t < now()` — a zero-latency round-trip
  /// lands exactly on `now()`, never before it. A past timestamp is a
  /// causality bug in the scheduling layer: the engine counts it in
  /// `clamped_events()` (exported as the `sim.clamped_events` metric) and
  /// clamps it to `now()`; Debug builds then assert, with the clamp
  /// distance reported on stderr (see `past_schedule_assert`).
  template <class F>
  void at(Cycles t, F&& fn) {
    Shard& sh = shards_[tls_shard_];
    schedule_local(sh, t, lane_of(sh),
                   static_cast<std::uint32_t>(sh.current_home),
                   std::forward<F>(fn));
  }

  /// Schedule `fn` to run `d` cycles from now on the calling shard.
  template <class F>
  void after(Cycles d, F&& fn) {
    at(now() + d, std::forward<F>(fn));
  }

  /// Schedule `fn` at absolute time `t`, homed at processor `home` — the
  /// one cross-shard edge in the system. Within the home's shard this is a
  /// plain push; to another shard during a parallel window it goes through
  /// that shard's mutex-protected inbox and is merged into its queue at the
  /// next window barrier. Conservative-sync contract: a cross-shard `t`
  /// must lie at or beyond the current window's end (i.e. the caller keeps
  /// `t >= creation time + lookahead`); Debug builds assert it.
  template <class F>
  void at_on(ProcId home, Cycles t, F&& fn) {
    const unsigned dst = shard_of(home);
    Shard& cur = shards_[tls_shard_];
    const unsigned lane = lane_of(cur);
    if (dst == tls_shard_ || !sharded_running_) {
      schedule_local(shards_[dst], t, lane, static_cast<std::uint32_t>(home),
                     std::forward<F>(fn));
    } else {
      enqueue_remote(dst, t, alloc_label(lane),
                     static_cast<std::uint32_t>(home),
                     std::function<void()>(std::forward<F>(fn)));
    }
  }

  /// Schedule `fn` at `d` cycles from now, homed at `home`.
  template <class F>
  void after_on(ProcId home, Cycles d, F&& fn) {
    at_on(home, now() + d, std::forward<F>(fn));
  }

  // -- Classic (single-shard) run loops ------------------------------------

  /// Run until the event queue is empty. Single-shard engines only; sharded
  /// runs go through ShardedEngine.
  void run();

  /// Run events with timestamp <= `t`; afterwards `now() == t` if the queue
  /// drained, else `now()` is the last executed event's time (the clock
  /// never advances past events that are still pending).
  void run_until(Cycles t);

  /// Run at most `max_events` further events (safety valve for tests).
  void run_bounded(std::size_t max_events);

  // -- Introspection -------------------------------------------------------

  [[nodiscard]] bool idle() const noexcept;
  [[nodiscard]] std::size_t pending() const noexcept;
  [[nodiscard]] std::size_t events_executed() const noexcept;

  /// Events whose requested time lay strictly in the past (clamp distance
  /// > 0) and were clamped to their shard's `now`. Nonzero means a layer
  /// scheduled backwards in time — a causality bug; Debug builds assert at
  /// the offending call site (after counting, so the clamp path is
  /// exercised in every build).
  [[nodiscard]] std::uint64_t clamped_events() const noexcept;

  /// Cross-shard events routed through shard inboxes during sharded runs.
  /// Deterministic for a fixed shard count; grows with the shard count
  /// (and is 0 for classic single-shard runs).
  [[nodiscard]] std::uint64_t cross_shard_msgs() const noexcept;

  /// Conservative windows executed by sharded runs (0 for classic runs).
  [[nodiscard]] std::uint64_t window_count() const noexcept {
    return window_count_;
  }

  /// Event tracing is opt-in: every instrumented layer reaches its tracer
  /// through the engine it already holds, so with no tracer installed (the
  /// default) instrumentation is a null-pointer test and nothing else.
  void set_tracer(Tracer* t) noexcept { tracer_ = t; }
  [[nodiscard]] Tracer* tracer() const noexcept { return tracer_; }

  /// Invariant checking follows the same opt-in pattern as tracing: a
  /// null-by-default pointer every instrumented layer reaches through the
  /// engine, so checker-off runs pay one pointer test per site and stay
  /// bit-identical to unchecked builds.
  void set_checker(check::Checker* c) noexcept { checker_ = c; }
  [[nodiscard]] check::Checker* checker() const noexcept { return checker_; }

  // -- Sharded-driver interface (used by sim::ShardedEngine) ---------------
  // These are the primitives the window loop is built from; application
  // code never calls them directly.

  /// Mark a multi-shard window loop as active: cross-shard `at_on` starts
  /// routing through inboxes and layers that must merge deterministically
  /// (checker) switch to deferred mode. `threads` additionally marks that
  /// shards run on concurrent host threads.
  void begin_sharded_run(bool threads) noexcept {
    sharded_running_ = true;
    threads_active_ = threads;
  }
  void end_sharded_run() noexcept {
    sharded_running_ = false;
    threads_active_ = false;
    tls_shard_ = 0;
  }
  [[nodiscard]] bool in_sharded_run() const noexcept {
    return sharded_running_;
  }

  /// Whether shards are currently running on concurrent host threads.
  /// Layers with lazily-grown per-lane state (tracer msg ids, checker
  /// tokens) assert against this before resizing.
  [[nodiscard]] bool threads_active() const noexcept {
    return threads_active_;
  }

  /// Number of label lanes pre-sized by `configure_shards` (nprocs + 1), or
  /// 1 for an unconfigured engine. Layers that keep per-lane counters size
  /// their arrays from this so no growth happens under threads.
  [[nodiscard]] unsigned configured_lanes() const noexcept {
    return static_cast<unsigned>(lane_cnt_.size());
  }

  /// Merge every inbox entry into its shard's event queue. Serial phase
  /// only (window barrier or sequential loop head).
  void drain_inboxes();

  /// Earliest pending timestamp on shard `s`, or kNever when its queue is
  /// empty. Serial phase only. A pure peek: inbox merges may still push
  /// earlier events afterwards.
  [[nodiscard]] Cycles shard_next_time(unsigned s) const;

  /// Record the exclusive end of the window about to run (kNever outside
  /// windows); cross-shard sends assert against it.
  void set_window_end(Cycles e) noexcept { window_end_ = e; }

  /// Execute every event on shard `s` with timestamp < `end`, pinning this
  /// host thread's ambient shard to `s` for the duration.
  void run_shard_window(unsigned s, Cycles end);

  /// Count a completed window and fire the barrier hook (serial phase).
  void bump_window() {
    ++window_count_;
    if (barrier_hook_) barrier_hook_();
  }

  /// Hook fired after every completed window, in the serial phase — the
  /// checker uses it to replay its per-shard logs in (t, label) order.
  void set_barrier_hook(std::function<void()> hook) {
    barrier_hook_ = std::move(hook);
  }

 private:
  static constexpr unsigned kLaneShift = 40;  // 2^40 events per lane

  struct InboxEntry {
    Cycles t;
    std::uint64_t label;
    std::uint32_t home;
    std::function<void()> fn;
  };

  struct Shard {
    CalendarQueue cal;
    EventArena arena;
    HeapEventQueue heap;
    Cycles now = 0;
    ProcId current_home = kNoProc;
    std::uint64_t current_label = 0;
    std::size_t executed = 0;
    std::uint64_t clamped = 0;
    std::uint64_t inbound = 0;  // cross-shard events received (under mu)
    std::mutex inbox_mu;
    std::vector<InboxEntry> inbox;
    // Swapped with `inbox` at each merge and cleared after it, so the two
    // buffers keep their capacity across windows.
    std::vector<InboxEntry> inbox_spare;
    // Recycled coroutine frames (task.h), created on the shard's first run
    // so set-up pays nothing for it; current only inside the run loops.
    std::unique_ptr<FramePool> frames;
  };

  /// Install shard `sh`'s frame pool on this host thread until the
  /// returned scope ends, creating the pool on the shard's first run.
  [[nodiscard]] static FramePool::Scope frame_scope(Shard& sh) {
    if (!sh.frames) sh.frames = std::make_unique<FramePool>();
    return FramePool::Scope(*sh.frames);
  }

  /// Debug-only half of the past-schedule diagnostic: prints the clamp
  /// distance to stderr, then asserts. The caller increments `clamped`
  /// first, so Release clamp accounting is exercised in Debug too.
  static void past_schedule_assert(Cycles distance) noexcept;

  /// Lane of the context executing on shard `sh`: 0 when idle/setup,
  /// home+1 while an event homed at a processor runs.
  [[nodiscard]] static unsigned lane_of(const Shard& sh) noexcept {
    return sh.current_home == kNoProc
               ? 0u
               : static_cast<unsigned>(sh.current_home) + 1u;
  }

  /// Host shard that owns lane's label counter (for the race assert).
  [[nodiscard]] unsigned lane_owner(unsigned lane) const noexcept {
    return lane == 0 ? 0u : shard_of(static_cast<ProcId>(lane - 1));
  }

  [[nodiscard]] std::uint64_t alloc_label(unsigned lane) {
    assert(!threads_active_ || lane_owner(lane) == tls_shard_);
    if (lane >= lane_cnt_.size()) [[unlikely]] {
      // Unconfigured engines (plain unit tests) grow lanes on first use;
      // configured ones pre-size, so this never runs under threads.
      assert(!threads_active_);
      lane_cnt_.resize(lane + 1, 0);
    }
    return (std::uint64_t{lane} << kLaneShift) | lane_cnt_[lane]++;
  }

  template <class F>
  void schedule_local(Shard& sh, Cycles t, unsigned lane, std::uint32_t home,
                      F&& fn) {
    if (t < sh.now) [[unlikely]] {
      ++sh.clamped;
      past_schedule_assert(sh.now - t);
      t = sh.now;
    }
    const std::uint64_t label = alloc_label(lane);
    if (backend_ == QueueBackend::kCalendar) {
      sh.cal.push(t, label, sh.arena.emplace(std::forward<F>(fn)), home);
    } else {
      sh.heap.push(t, label, home,
                   std::function<void()>(std::forward<F>(fn)));
    }
  }

  void enqueue_remote(unsigned dst, Cycles t, std::uint64_t label,
                      std::uint32_t home, std::function<void()> fn);

  void step(Shard& sh);

  std::unique_ptr<Shard[]> shards_;
  unsigned nshards_ = 1;
  unsigned procs_per_shard_ = 1;
  std::vector<std::uint64_t> lane_cnt_{0};  // lane 0 always exists
  Tracer* tracer_ = nullptr;
  check::Checker* checker_ = nullptr;
  std::function<void()> barrier_hook_;
  Cycles window_end_ = kNever;
  std::uint64_t window_count_ = 0;
  bool sharded_running_ = false;
  bool threads_active_ = false;
  QueueBackend backend_;

  // Which shard's event is executing on this host thread. Thread-local so
  // kThreads workers each see their own shard; 0 on the main thread. This
  // IS the shard-safety machinery (each worker only ever reads its own
  // copy), not state shared across workers.
  // simlint: allow SS001
  inline static thread_local unsigned tls_shard_ = 0;
};

}  // namespace cm::sim
