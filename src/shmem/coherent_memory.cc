#include "shmem/coherent_memory.h"

#include <algorithm>
#include <cassert>
#include <type_traits>
#include <utility>

#include "check/checker.h"

namespace cm::shmem {
namespace {

/// Directory-state facts at a transition's commit point, for the invariant
/// "Modified implies a valid owner that is the sole sharer; clean implies no
/// owner". Called wherever a transaction finishes mutating a Dir entry.
void check_line(check::Checker* ck, Line line, bool modified,
                std::size_t sharer_count, bool owner_valid,
                bool owner_is_sharer) {
  if (ck == nullptr) return;
  ck->on_line_state(line, modified, static_cast<unsigned>(sharer_count),
                    owner_valid, owner_is_sharer);
}

/// Every closure the protocol hands to Network::send or Engine::at passes
/// through here. A capture of at most 16 trivially copyable bytes — `{this,
/// id[, ProcId]}` — stays in libstdc++'s std::function local buffer and in
/// the event arena's inline slot, so a protocol message allocates nothing;
/// a capture that outgrows it fails to compile instead of silently moving
/// to the heap.
template <class F>
F local_closure(F f) {
  static_assert(std::is_trivially_copyable_v<F> && sizeof(F) <= 16,
                "coherence closures must fit std::function's local buffer: "
                "capture {this, id[, ProcId]} and keep state in the Txn");
  return f;
}

}  // namespace

CoherentMemory::CoherentMemory(sim::Machine& machine, net::Network& network,
                               CacheParams cache_params, ProtocolParams params)
    : machine_(&machine),
      network_(&network),
      params_(params),
      heap_(machine.size()),
      controllers_(machine.size()),
      in_flight_(machine.size()) {
  assert(machine.size() <= kMaxProcs &&
         "full-map directory sharer vector is fixed-width");
  caches_.reserve(machine.size());
  for (sim::ProcId p = 0; p < machine.size(); ++p) {
    caches_.emplace_back(cache_params);
  }
}

template <class F>
void CoherentMemory::send(sim::ProcId src, sim::ProcId dst, unsigned words,
                          F deliver) {
  // Coherence traffic models the lossless hardware fabric: FaultyNetwork
  // never faults Traffic::kCoherence unless a plan opts in with
  // affect_coherence, and nothing composes that flag with this protocol
  // (pinned by FaultyNetwork.CoherenceTrafficUntouchedByDefault). A
  // writeback additionally has no waiter to strand: the directory update
  // is its only effect.
  // simlint: allow SS002
  network_->send(src, dst, words, net::Traffic::kCoherence,
                 local_closure(deliver));
}

auto CoherentMemory::controller(sim::ProcId p) {
  return sim::suspend_to([this, p](std::coroutine_handle<> h) {
    const sim::Cycles done = controllers_.acquire(p,
        machine_->engine().now(), params_.controller_occupancy);
    machine_->engine().at(done, [h] { h.resume(); });
  });
}

auto CoherentMemory::transfer(sim::ProcId src, sim::ProcId dst,
                              unsigned words) {
  return sim::suspend_to([this, src, dst, words](std::coroutine_handle<> h) {
    send(src, dst, words, [h] { h.resume(); });
  });
}

std::uint32_t CoherentMemory::new_txn(sim::ProcId p, Line line,
                                      bool exclusive) {
  std::uint32_t id;
  if (free_txns_.empty()) {
    id = static_cast<std::uint32_t>(txns_.size());
    txns_.emplace_back();
  } else {
    id = free_txns_.back();
    free_txns_.pop_back();
  }
  Txn& t = txns_[id];
  t.line = line;
  t.requester = p;
  t.exclusive = exclusive;
  return id;
}

void CoherentMemory::free_txn(std::uint32_t id) {
  Txn& t = txns_[id];
  assert(!t.grant_wait && !t.ack_wait && t.acks == 0);
  t.next = kNoTxn;
  t.merged.clear();
  free_txns_.push_back(id);
}

std::uint32_t CoherentMemory::in_flight(sim::ProcId p, Line line) const {
  for (const std::uint32_t id : in_flight_[p]) {
    if (txns_[id].line == line) return id;
  }
  return kNoTxn;
}

sim::Task<> CoherentMemory::maybe_trap(sim::ProcId home,
                                       std::size_t sharers) {
  if (params_.hw_sharer_pointers == 0 ||
      sharers <= params_.hw_sharer_pointers) {
    co_return;
  }
  // The overflowed sharer set lives in software: the home CPU (not the
  // memory controller) runs the LimitLESS extension handler.
  ++stats_.limitless_traps;
  co_await machine_->compute(home, params_.limitless_trap);
}

sim::Task<> CoherentMemory::read(sim::ProcId p, Addr a, unsigned bytes) {
  const Line first = line_of(a);
  const Line last = line_of(a + (bytes == 0 ? 0 : bytes - 1));
  for (Line l = first; l <= last; ++l) co_await acquire(p, l, false);
}

sim::Task<> CoherentMemory::write(sim::ProcId p, Addr a, unsigned bytes) {
  const Line first = line_of(a);
  const Line last = line_of(a + (bytes == 0 ? 0 : bytes - 1));
  for (Line l = first; l <= last; ++l) co_await acquire(p, l, true);
}

sim::Task<> CoherentMemory::acquire(sim::ProcId p, Line line, bool exclusive) {
  Cache& c = caches_[p];
  {
    const LineState st = c.lookup(line);
    if (st == LineState::kModified ||
        (!exclusive && st == LineState::kShared)) {
      // Cache hit: the (1-2 cycle) hit latency is folded into the user-code
      // cycle charges, as instruction timing is in Proteus.
      exclusive ? ++stats_.write_hits : ++stats_.read_hits;
      c.touch(line);
      co_return;
    }
    if (exclusive) {
      ++stats_.write_misses;
      if (st == LineState::kShared) ++stats_.upgrades;
    } else {
      ++stats_.read_misses;
    }
  }

  for (;;) {
    const LineState st = c.lookup(line);
    if (st == LineState::kModified ||
        (!exclusive && st == LineState::kShared)) {
      // Satisfied by a transaction we merged with.
      c.touch(line);
      co_return;
    }

    // Merge with any in-flight transaction for this line (MSHR): wait for
    // it, then re-evaluate (a read in flight does not satisfy a write; the
    // loop issues the upgrade afterwards).
    if (const std::uint32_t m = in_flight(p, line); m != kNoTxn) {
      ++stats_.mshr_merges;
      Txn* t = &txns_[m];
      co_await sim::suspend_to(
          [t](std::coroutine_handle<> h) { t->merged.push_back(h); });
      continue;
    }
    const std::uint32_t id = new_txn(p, line, exclusive);
    in_flight_[p].push_back(id);
    Txn* t = &txns_[id];

    send(p, home_of_line(line), params_.words_request,
         [this, id] { on_request(id); });
    co_await sim::suspend_to(
        [t](std::coroutine_handle<> h) { t->grant_wait = h; });

    // Install (re-check defensively).
    const LineState now_st = c.lookup(line);
    if (now_st == LineState::kInvalid) {
      auto victim = c.install(
          line, exclusive ? LineState::kModified : LineState::kShared);
      if (victim) handle_eviction(p, *victim);
    } else if (exclusive && now_st == LineState::kShared) {
      c.set_state(line, LineState::kModified);
      c.touch(line);
    } else {
      c.touch(line);
    }

    // Retire the MSHR first, so a woken waiter that needs a transaction of
    // its own (a write behind this read) starts a fresh one; then wake
    // everyone who merged with us. The record is recycled only after the
    // last of them, and `merged` cannot grow meanwhile.
    std::vector<std::uint32_t>& mine = in_flight_[p];
    *std::find(mine.begin(), mine.end(), id) = mine.back();
    mine.pop_back();
    for (const std::coroutine_handle<> h : t->merged) h.resume();
    free_txn(id);
    co_return;
  }
}

void CoherentMemory::prefetch(sim::ProcId p, Addr a, unsigned bytes) {
  if (bytes == 0) return;
  const Line first = line_of(a);
  const Line last = line_of(a + bytes - 1);
  for (Line l = first; l <= last; ++l) {
    if (caches_[p].lookup(l) != LineState::kInvalid) continue;
    if (in_flight(p, l) != kNoTxn) continue;  // already in flight
    ++stats_.prefetches;
    // Fire-and-forget read acquisition; demand accesses merge via the MSHR.
    sim::detach(acquire(p, l, /*exclusive=*/false));
  }
}

void CoherentMemory::on_request(std::uint32_t id) {
  Dir& d = dirs_[txns_[id].line];
  if (d.tail == kNoTxn) {
    d.head = id;
  } else {
    txns_[d.tail].next = id;
  }
  d.tail = id;
  if (!d.busy) {
    d.busy = true;
    sim::detach(serve_front(txns_[id].line));
  }
}

void CoherentMemory::on_invalidate(std::uint32_t id, sim::ProcId sharer) {
  // At the sharer: the controller handles INV, then acks. A stale sharer
  // (silent eviction) acks without effect.
  const sim::Cycles fin = controllers_.acquire(sharer,
      machine_->engine().now(), params_.controller_occupancy);
  machine_->engine().at(fin, local_closure([this, id, sharer] {
    const Line line = txns_[id].line;
    caches_[sharer].set_state(line, LineState::kInvalid);
    send(sharer, home_of_line(line), params_.words_request,
         [this, id] { on_ack(id); });
  }));
}

void CoherentMemory::on_ack(std::uint32_t id) {
  Txn& t = txns_[id];
  if (--t.acks == 0) std::exchange(t.ack_wait, nullptr).resume();
}

sim::Task<> CoherentMemory::serve_front(Line line) {
  const sim::ProcId home = home_of_line(line);
  for (;;) {
    Dir& d = dirs_[line];
    assert(d.busy && d.head != kNoTxn);
    const std::uint32_t id = d.head;
    Txn* const w = &txns_[id];

    co_await controller(home);  // home handles the request message

    if (w->exclusive) {
      if (d.modified && d.owner != w->requester) {
        // Fetch-invalidate the dirty owner; data returns home first.
        ++stats_.fetches;
        const sim::ProcId owner = d.owner;
        co_await transfer(home, owner, params_.words_request);
        co_await controller(owner);
        caches_[owner].set_state(line, LineState::kInvalid);
        co_await transfer(owner, home, params_.words_data);
        co_await controller(home);
      } else if (!d.modified) {
        // Invalidate every other sharer and gather acks.
        SharerSet to_inval = d.sharers;
        to_inval.reset(w->requester);
        const int n = static_cast<int>(to_inval.count());
        if (n > 0) {
          // Invalidating an overflowed sharer set walks the software
          // directory extension.
          co_await maybe_trap(home, d.sharers.count());
          stats_.invalidations += static_cast<std::uint64_t>(n);
          w->acks = n;
          for (sim::ProcId s = 0; s < machine_->size(); ++s) {
            if (!to_inval.test(s)) continue;
            send(home, s, params_.words_request,
                 [this, id, s] { on_invalidate(id, s); });
          }
          co_await sim::suspend_to(
              [w](std::coroutine_handle<> h) { w->ack_wait = h; });
          co_await controller(home);  // process the final ack
        }
      }
      // Grant: full line unless the requester held a Shared copy (upgrade).
      const bool upgrade = d.sharers.test(w->requester) && !d.modified;
      d.modified = true;
      d.owner = w->requester;
      d.sharers.reset();
      d.sharers.set(w->requester);
      check_line(machine_->engine().checker(), line, d.modified,
                 d.sharers.count(), d.owner != sim::kNoProc,
                 d.owner != sim::kNoProc && d.sharers.test(d.owner));
      co_await transfer(home, w->requester,
                        upgrade ? params_.words_request : params_.words_data);
    } else {
      if (d.modified && d.owner != w->requester) {
        // Intervene at the dirty owner: downgrade M->S, write data back.
        ++stats_.fetches;
        const sim::ProcId owner = d.owner;
        co_await transfer(home, owner, params_.words_request);
        co_await controller(owner);
        caches_[owner].set_state(line, LineState::kShared);
        co_await transfer(owner, home, params_.words_data);
        co_await controller(home);
        d.modified = false;
        d.owner = sim::kNoProc;
        d.sharers.reset();
        d.sharers.set(owner);
      } else if (d.modified) {
        // Owner re-reading its own dirty line should have been a hit, but a
        // race with eviction can surface here; treat as a plain grant.
        d.modified = false;
        d.owner = sim::kNoProc;
      }
      d.sharers.set(w->requester);
      check_line(machine_->engine().checker(), line, d.modified,
                 d.sharers.count(), d.owner != sim::kNoProc,
                 d.owner != sim::kNoProc && d.sharers.test(d.owner));
      // Adding a sharer beyond the hardware pointer set traps to software.
      co_await maybe_trap(home, d.sharers.count());
      co_await transfer(home, w->requester, params_.words_data);
    }

    // Dequeue before the grant: the requester resumes inline and recycles
    // its record once it retires.
    d.head = w->next;
    if (d.head == kNoTxn) d.tail = kNoTxn;
    assert(w->grant_wait && "grant delivered before the requester parked");
    std::exchange(w->grant_wait, nullptr).resume();

    if (d.head == kNoTxn) {
      d.busy = false;
      co_return;
    }
    // Loop to serve the next queued transaction on this line.
  }
}

void CoherentMemory::handle_eviction(sim::ProcId p, const Eviction& victim) {
  ++stats_.evictions;
  if (!victim.dirty) return;  // clean lines drop silently
  ++stats_.writebacks;
  const std::uint32_t id = new_txn(p, victim.line, /*exclusive=*/false);
  send(p, home_of_line(victim.line), params_.words_data,
       [this, id] { on_writeback(id); });
}

void CoherentMemory::on_writeback(std::uint32_t id) {
  const sim::Cycles fin = controllers_.acquire(home_of_line(txns_[id].line),
      machine_->engine().now(), params_.controller_occupancy);
  machine_->engine().at(fin, local_closure([this, id] {
    const Txn& t = txns_[id];
    Dir& d = dirs_[t.line];
    if (d.modified && d.owner == t.requester) {
      d.modified = false;
      d.owner = sim::kNoProc;
      d.sharers.reset();
      check_line(machine_->engine().checker(), t.line, d.modified,
                 d.sharers.count(), d.owner != sim::kNoProc, false);
    }
    free_txn(id);
  }));
}

CoherentMemory::DirSnapshot CoherentMemory::dir_snapshot(Line line) const {
  auto it = dirs_.find(line);
  if (it == dirs_.end()) return {};
  return DirSnapshot{it->second.modified, it->second.owner, it->second.sharers,
                     it->second.busy};
}

}  // namespace cm::shmem
