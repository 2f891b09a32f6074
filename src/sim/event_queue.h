// Event-queue backends for the simulation engine.
//
// Two interchangeable backends with one ordering contract — lexicographic
// (t, seq): earlier timestamps first, FIFO by insertion sequence within a
// timestamp. That contract is the determinism invariant every experiment in
// this repo leans on, so both backends must agree event-for-event (the
// conformance suite in tests/queue_conformance_test.cc checks exactly this).
//
// `HeapEventQueue` is the classic binary-heap priority queue over full event
// records, kept both as the reference implementation for conformance tests
// and as the measured baseline for the host-performance harness. Unlike
// `std::priority_queue` — whose `top()` is const and therefore cannot hand
// out its payload without a copy or a const_cast — it is built directly on
// `std::push_heap`/`std::pop_heap` and exposes a real `pop_move()`: the heap
// algorithms rotate the minimum element to the back of the vector, from
// where it is legitimately moved out.
//
// `CalendarQueue` + `EventArena` are the hot path: a one-cycle-per-slot
// timing wheel over 24-byte POD keys (the callback lives in a slab arena and
// never moves) specialised for the engine's near-monotone timestamps,
// replacing both the O(log n) heap churn and the per-event `std::function`
// heap allocation. Push and pop are O(1) for keys inside the wheel's span.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace cm::sim {

/// Which event-queue implementation an Engine runs on. `kCalendar` is the
/// default hot path; `kHeap` is the legacy binary heap kept as the measured
/// baseline and conformance reference.
enum class QueueBackend : std::uint8_t { kCalendar, kHeap };

/// A scheduled closure with its (time, label) ordering key and the simulated
/// processor the event is homed at (kNoProc-as-uint32 for setup events).
struct HeapEvent {
  Cycles t;
  std::uint64_t seq;
  std::uint32_t home;
  std::function<void()> fn;
};

class HeapEventQueue {
 public:
  void push(Cycles t, std::uint64_t seq, std::uint32_t home,
            std::function<void()> fn) {
    heap_.push_back(HeapEvent{t, seq, home, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Earliest (t, seq) event's timestamp; undefined when empty.
  [[nodiscard]] Cycles min_time() const noexcept { return heap_.front().t; }

  /// Remove and return the earliest (t, seq) event. `pop_heap` swaps it to
  /// the back of the vector, so the move-out is from a mutable element —
  /// no const_cast, no container invariant at risk.
  [[nodiscard]] HeapEvent pop_move() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    HeapEvent ev = std::move(heap_.back());
    heap_.pop_back();
    return ev;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  // Max-heap comparator inverted into a min-heap on (t, seq).
  struct Later {
    bool operator()(const HeapEvent& a, const HeapEvent& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  std::vector<HeapEvent> heap_;
};

/// Slab allocator for event callbacks. Each record is one 64-byte slot: an
/// op thunk, a freelist link, and 48 bytes of inline storage that absorbs
/// the capture list of every hot-path lambda in the simulator (callables
/// that do not fit fall back to one heap allocation, same as the
/// `std::function` they replace). Records are addressed by 32-bit index;
/// slots live in fixed-size chunks so a record's address never moves even
/// while its callback is executing and scheduling new events (which may
/// grow the arena). Freed slots are recycled LIFO, so a steady-state
/// simulation stops allocating entirely.
class EventArena {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  /// Store `fn` in a recycled (or fresh) slot and return its index.
  template <class F>
  std::uint32_t emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    const std::uint32_t idx = allocate();
    Record& r = record(idx);
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(r.storage)) Fn(std::forward<F>(fn));
      r.op = &inline_op<Fn>;
    } else {
      ::new (static_cast<void*>(r.storage)) Fn*(new Fn(std::forward<F>(fn)));
      r.op = &boxed_op<Fn>;
    }
    return idx;
  }

  /// Invoke the callback at `idx`, then destroy it and recycle the slot.
  /// The slot is recycled even if the callback throws; it is NOT recycled
  /// until the callback returns, so events the callback schedules can never
  /// alias the slot they are being scheduled from.
  void run(std::uint32_t idx) {
    Record& r = record(idx);
    const Recycle guard{this, idx};
    r.op(&r, /*invoke=*/true);
  }

  /// Destroy the callback at `idx` without invoking it (engine teardown
  /// with events still pending) and recycle the slot.
  void destroy(std::uint32_t idx) {
    Record& r = record(idx);
    const Recycle guard{this, idx};
    r.op(&r, /*invoke=*/false);
  }

  /// Slots currently holding a live callback (queue contents, essentially).
  [[nodiscard]] std::size_t live() const noexcept { return live_; }

 private:
  struct Record {
    void (*op)(Record*, bool invoke);
    std::uint32_t next_free;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };
  static_assert(sizeof(Record) == 64, "one event record per half cache pair");

  // Chunked storage: stable addresses, 32-bit indexing.
  static constexpr std::uint32_t kChunkShift = 10;  // 1024 records per chunk
  static constexpr std::uint32_t kChunkRecords = 1u << kChunkShift;
  static constexpr std::uint32_t kNoFree =
      std::numeric_limits<std::uint32_t>::max();

  template <class Fn>
  static void inline_op(Record* r, bool invoke) {
    Fn* f = std::launder(reinterpret_cast<Fn*>(r->storage));
    struct Destroy {
      Fn* f;
      ~Destroy() { f->~Fn(); }
    } d{f};
    if (invoke) (*f)();
  }

  template <class Fn>
  static void boxed_op(Record* r, bool invoke) {
    Fn* f = *std::launder(reinterpret_cast<Fn**>(r->storage));
    const std::unique_ptr<Fn> own(f);
    if (invoke) (*f)();
  }

  struct Recycle {
    EventArena* a;
    std::uint32_t idx;
    ~Recycle() { a->release(idx); }
  };

  [[nodiscard]] Record& record(std::uint32_t idx) noexcept {
    return chunks_[idx >> kChunkShift][idx & (kChunkRecords - 1)];
  }

  [[nodiscard]] std::uint32_t allocate() {
    ++live_;
    if (free_head_ != kNoFree) {
      const std::uint32_t idx = free_head_;
      free_head_ = record(idx).next_free;
      return idx;
    }
    if (bump_ == chunks_.size() * kChunkRecords) {
      chunks_.push_back(std::make_unique<Record[]>(kChunkRecords));
    }
    return bump_++;
  }

  void release(std::uint32_t idx) noexcept {
    record(idx).next_free = free_head_;
    free_head_ = idx;
    --live_;
  }

  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::uint32_t free_head_ = kNoFree;
  std::uint32_t bump_ = 0;  // slots handed out so far (never shrinks)
  std::size_t live_ = 0;
};

/// Ordering key for an arena-resident event: 24 bytes of POD, cheap to
/// shuffle during sorts while the callback stays put in its slab slot. The
/// `home` field (the simulated processor the event is homed at) rides in
/// what used to be padding, so the key stays 24 bytes.
struct EventKey {
  Cycles t;
  std::uint64_t seq;
  std::uint32_t idx;
  std::uint32_t home;
};
static_assert(sizeof(EventKey) == 24, "home must fit in the old padding");

/// Timing wheel specialised for a discrete-event engine whose timestamps are
/// near-monotone (events are overwhelmingly scheduled a short, bounded
/// distance into the future).
///
///  * The wheel — `kSlots` slots of one cycle each, covering
///    `[base_, base_ + kSlots)`. A slot holds the keys of its cycle as an
///    unsorted singly linked list of pooled nodes; a 64-word occupancy
///    bitmap finds the next non-empty slot with a count-trailing-zeros scan.
///    Push is O(1) and does no comparison work.
///  * The batch — when a cycle comes up, its slot is drained into `batch_`
///    and sorted by label; pops then walk it with a cursor. A push at the
///    current cycle (a same-cycle follow-up) goes straight into the batch
///    at its label's place.
///  * The far heap — keys at or beyond `base_ + kSlots` go into a binary
///    min-heap on `t`. Once the heap's minimum is at or before the wheel's
///    next time, `base_` re-anchors there and every heap key now inside the
///    wheel's span moves into its slot.
///
/// `base_` is the time of the last pop, and only a pop moves it: callers
/// peek with `min_time()` and may then push at any time at or after the
/// last popped one — earlier than the time just peeked — so a peek must
/// not commit anything. Pop order is *exactly* lexicographic (t, label),
/// the total order the heap backend produces, so same-seed runs are
/// bit-identical across backends.
class CalendarQueue {
 public:
  void push(Cycles t, std::uint64_t seq, std::uint32_t idx,
            std::uint32_t home) {
    assert(t >= base_ && "CalendarQueue: push before the last popped time");
    ++size_;
    const EventKey k{t, seq, idx, home};
    if (t == base_ && pos_ < batch_.size()) {
      const auto first = batch_.begin() + static_cast<std::ptrdiff_t>(pos_);
      batch_.insert(std::upper_bound(first, batch_.end(), k, ByLabel{}), k);
    } else if (t - base_ < kSlots) {
      link(k);
    } else {
      if (far_.capacity() == 0) far_.reserve(kFirstReserve);
      far_.push_back(k);
      std::push_heap(far_.begin(), far_.end(), Later{});
    }
  }

  /// Earliest pending timestamp; undefined when empty. A pure peek.
  [[nodiscard]] Cycles min_time() const noexcept {
    if (pos_ < batch_.size()) return base_;
    const Cycles t = next_wheel_time();
    return !far_.empty() && far_.front().t < t ? far_.front().t : t;
  }

  /// Remove and return the earliest (t, label) key.
  [[nodiscard]] EventKey pop_move() {
    if (pos_ == batch_.size()) advance();
    --size_;
    return batch_[pos_++];
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::size_t kSlots = 4096;
  static constexpr std::size_t kWords = kSlots / 64;
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr Cycles kNone = std::numeric_limits<Cycles>::max();
  // Each vector starts at this many entries, not at one: a workload's
  // queue then grows in a few steps instead of a dozen doublings, and a
  // small model never grows at all.
  static constexpr std::size_t kFirstReserve = 64;

  struct Node {
    EventKey key;
    std::uint32_t next;
  };

  // Labels are unique, so within one cycle this is a strict total order.
  struct ByLabel {
    bool operator()(const EventKey& a, const EventKey& b) const noexcept {
      return a.seq < b.seq;
    }
  };
  // Max-heap comparator inverted into a min-heap on t.
  struct Later {
    bool operator()(const EventKey& a, const EventKey& b) const noexcept {
      return a.t > b.t;
    }
  };

  /// Prepend `k` to its slot's list, reusing a pooled node.
  void link(const EventKey& k) {
    const std::size_t s = k.t & (kSlots - 1);
    std::uint64_t& word = bits_[s / 64];
    const std::uint64_t bit = std::uint64_t{1} << (s % 64);
    const std::uint32_t next = (word & bit) != 0 ? heads_[s] : kNil;
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
      nodes_[n] = Node{k, next};
    } else {
      if (nodes_.capacity() == 0) nodes_.reserve(kFirstReserve);
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{k, next});
    }
    heads_[s] = n;
    word |= bit;
    ++in_wheel_;
  }

  /// Time of the first occupied slot at or after `base_`, or kNone. Every
  /// wheel key lies in [base_, base_ + kSlots), so the scan wraps once.
  [[nodiscard]] Cycles next_wheel_time() const noexcept {
    if (in_wheel_ == 0) return kNone;
    const std::size_t s0 = base_ & (kSlots - 1);
    std::size_t w = s0 / 64;
    std::uint64_t m = bits_[w] & (~std::uint64_t{0} << (s0 % 64));
    while (m == 0) {
      w = (w + 1) % kWords;
      m = bits_[w];
    }
    const std::size_t s =
        w * 64 + static_cast<std::size_t>(std::countr_zero(m));
    return base_ + ((s - s0) & (kSlots - 1));
  }

  /// Move to the next pending cycle: re-anchor on the far heap if it is
  /// due, then drain that cycle's slot into the batch in label order.
  void advance() {
    assert(size_ > 0 && "pop on an empty CalendarQueue");
    batch_.clear();
    pos_ = 0;
    Cycles t = next_wheel_time();
    if (!far_.empty() && far_.front().t <= t) {
      // Nothing pending is earlier than the heap's minimum, so the wheel
      // may start there; keys already in the wheel stay inside its span.
      t = far_.front().t;
      do {
        std::pop_heap(far_.begin(), far_.end(), Later{});
        link(far_.back());
        far_.pop_back();
      } while (!far_.empty() && far_.front().t - t < kSlots);
    }
    base_ = t;
    if (batch_.capacity() == 0) batch_.reserve(kFirstReserve);
    const std::size_t s = t & (kSlots - 1);
    bits_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
    for (std::uint32_t n = heads_[s]; n != kNil;) {
      Node& node = nodes_[n];
      batch_.push_back(node.key);
      const std::uint32_t next = node.next;
      node.next = free_;
      free_ = n;
      n = next;
    }
    in_wheel_ -= batch_.size();
    // Lists are built by prepending, so reversing restores push order,
    // which is label order within each lane.
    std::reverse(batch_.begin(), batch_.end());
    if (!std::is_sorted(batch_.begin(), batch_.end(), ByLabel{})) {
      std::sort(batch_.begin(), batch_.end(), ByLabel{});
    }
  }

  // Slot heads are read only where the bitmap has a bit set, so they need
  // no initialisation (an engine builds its shards without zeroing them).
  std::array<std::uint32_t, kSlots> heads_;
  std::array<std::uint64_t, kWords> bits_{};
  std::vector<Node> nodes_;      // slot-list nodes; free ones chained by next
  std::vector<EventKey> batch_;  // keys at base_, ascending label from pos_
  std::vector<EventKey> far_;    // min-heap on t: keys beyond the wheel
  std::size_t pos_ = 0;
  std::uint32_t free_ = kNil;
  std::size_t in_wheel_ = 0;
  Cycles base_ = 0;
  std::size_t size_ = 0;
};

}  // namespace cm::sim
