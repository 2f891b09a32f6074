#include "sim/engine.h"

#include <cstdio>

namespace cm::sim {

Engine::~Engine() {
  // Destroy (without running) any callbacks still queued in each shard's
  // arena; heap-backend and inbox events clean themselves up via
  // std::function. The frame pools, with every block they still hold, die
  // with shards_.
  for (unsigned s = 0; s < nshards_; ++s) {
    Shard& sh = shards_[s];
    while (!sh.cal.empty()) sh.arena.destroy(sh.cal.pop_move().idx);
  }
}

void Engine::past_schedule_assert([[maybe_unused]] Cycles distance) noexcept {
#ifndef NDEBUG
  std::fprintf(stderr,
               "Engine: event scheduled %llu cycle(s) in the past (clamped, "
               "counted in sim.clamped_events)\n",
               static_cast<unsigned long long>(distance));
  assert(!"Engine: event scheduled in the past — clamp distance on stderr");
#endif
}

void Engine::configure_shards(unsigned nshards, unsigned nprocs) {
  assert(nshards_ == 1 && shards_[0].executed == 0 && pending() == 0 &&
         "configure_shards must run once, before any event is scheduled");
  if (nshards == 0) nshards = 1;
  if (nprocs > 0 && nshards > nprocs) nshards = nprocs;
  nshards_ = nshards;
  procs_per_shard_ = (nprocs + nshards - 1) / nshards;
  if (procs_per_shard_ == 0) procs_per_shard_ = 1;
  // For-overwrite: the calendar's slot heads need no zeroing (event_queue.h).
  if (nshards > 1) shards_ = std::make_unique_for_overwrite<Shard[]>(nshards);
  // One label lane per processor plus lane 0 for setup context, pre-sized
  // so kThreads workers never grow the vector concurrently.
  lane_cnt_.assign(static_cast<std::size_t>(nprocs) + 1, 0);
}

void Engine::enqueue_remote(unsigned dst, Cycles t, std::uint64_t label,
                            std::uint32_t home, std::function<void()> fn) {
  assert(t >= window_end_ &&
         "cross-shard event lands inside the current window: the installed "
         "network's lookahead is smaller than its real minimum latency");
  Shard& dsh = shards_[dst];
  const std::lock_guard<std::mutex> g(dsh.inbox_mu);
  ++dsh.inbound;
  dsh.inbox.push_back(InboxEntry{t, label, home, std::move(fn)});
}

void Engine::drain_inboxes() {
  for (unsigned s = 0; s < nshards_; ++s) {
    Shard& sh = shards_[s];
    std::vector<InboxEntry>& in = sh.inbox_spare;
    {
      const std::lock_guard<std::mutex> g(sh.inbox_mu);
      in.swap(sh.inbox);
    }
    // Arrival order across sender shards is nondeterministic under
    // kThreads, but (t, label) keys are unique and both queue backends pop
    // in exact (t, label) order regardless of push order, so merging here
    // preserves determinism without sorting.
    for (InboxEntry& e : in) {
      Cycles t = e.t;
      if (t < sh.now) [[unlikely]] {
        ++sh.clamped;
        past_schedule_assert(sh.now - t);
        t = sh.now;
      }
      if (backend_ == QueueBackend::kCalendar) {
        sh.cal.push(t, e.label, sh.arena.emplace(std::move(e.fn)), e.home);
      } else {
        sh.heap.push(t, e.label, e.home, std::move(e.fn));
      }
    }
    in.clear();
  }
}

Cycles Engine::shard_next_time(unsigned s) const {
  const Shard& sh = shards_[s];
  if (backend_ == QueueBackend::kCalendar) {
    return sh.cal.empty() ? kNever : sh.cal.min_time();
  }
  return sh.heap.empty() ? kNever : sh.heap.min_time();
}

void Engine::step(Shard& sh) {
  // Pop before invoking so the handler may schedule new events freely. Both
  // backends genuinely move the event out — no const_cast (see
  // event_queue.h); the calendar path moves a 24-byte key and leaves the
  // callback in its arena slot.
  if (backend_ == QueueBackend::kCalendar) {
    const EventKey k = sh.cal.pop_move();
    sh.now = k.t;
    sh.current_home = static_cast<ProcId>(k.home);
    sh.current_label = k.seq;
    ++sh.executed;
    sh.arena.run(k.idx);
  } else {
    HeapEvent ev = sh.heap.pop_move();
    sh.now = ev.t;
    sh.current_home = static_cast<ProcId>(ev.home);
    sh.current_label = ev.seq;
    ++sh.executed;
    ev.fn();
  }
}

void Engine::run() {
  assert(nshards_ == 1 && "multi-shard runs go through sim::ShardedEngine");
  Shard& sh = shards_[tls_shard_];
  const FramePool::Scope frames = frame_scope(sh);
  if (backend_ == QueueBackend::kCalendar) {
    while (!sh.cal.empty()) step(sh);
  } else {
    while (!sh.heap.empty()) step(sh);
  }
  sh.current_home = kNoProc;
  sh.current_label = 0;
}

void Engine::run_until(Cycles t) {
  assert(nshards_ == 1 && "multi-shard runs go through sim::ShardedEngine");
  Shard& sh = shards_[tls_shard_];
  const FramePool::Scope frames = frame_scope(sh);
  if (backend_ == QueueBackend::kCalendar) {
    while (!sh.cal.empty() && sh.cal.min_time() <= t) step(sh);
  } else {
    while (!sh.heap.empty() && sh.heap.min_time() <= t) step(sh);
  }
  sh.current_home = kNoProc;
  sh.current_label = 0;
  // Advance the clock to `t` only when nothing is left to execute: with
  // events still pending past `t`, the clock must stay at the last executed
  // event's time so it never runs ahead of work the queue still owes.
  if (idle() && sh.now < t) sh.now = t;
}

void Engine::run_bounded(std::size_t max_events) {
  assert(nshards_ == 1 && "multi-shard runs go through sim::ShardedEngine");
  Shard& sh = shards_[tls_shard_];
  const FramePool::Scope frames = frame_scope(sh);
  for (std::size_t i = 0; i < max_events && !idle(); ++i) step(sh);
  sh.current_home = kNoProc;
  sh.current_label = 0;
}

void Engine::run_shard_window(unsigned s, Cycles end) {
  tls_shard_ = s;
  Shard& sh = shards_[s];
  const FramePool::Scope frames = frame_scope(sh);
  if (backend_ == QueueBackend::kCalendar) {
    while (!sh.cal.empty() && sh.cal.min_time() < end) step(sh);
  } else {
    while (!sh.heap.empty() && sh.heap.min_time() < end) step(sh);
  }
  sh.current_home = kNoProc;
  sh.current_label = 0;
}

bool Engine::idle() const noexcept { return pending() == 0; }

std::size_t Engine::pending() const noexcept {
  std::size_t n = 0;
  for (unsigned s = 0; s < nshards_; ++s) {
    const Shard& sh = shards_[s];
    n += backend_ == QueueBackend::kCalendar ? sh.cal.size() : sh.heap.size();
    n += sh.inbox.size();
  }
  return n;
}

std::size_t Engine::events_executed() const noexcept {
  std::size_t n = 0;
  for (unsigned s = 0; s < nshards_; ++s) n += shards_[s].executed;
  return n;
}

std::uint64_t Engine::clamped_events() const noexcept {
  std::uint64_t n = 0;
  for (unsigned s = 0; s < nshards_; ++s) n += shards_[s].clamped;
  return n;
}

std::uint64_t Engine::cross_shard_msgs() const noexcept {
  std::uint64_t n = 0;
  for (unsigned s = 0; s < nshards_; ++s) n += shards_[s].inbound;
  return n;
}

Cycles Engine::last_dispatch_time() const noexcept {
  Cycles t = 0;
  for (unsigned s = 0; s < nshards_; ++s) {
    if (shards_[s].now > t) t = shards_[s].now;
  }
  return t;
}

}  // namespace cm::sim
