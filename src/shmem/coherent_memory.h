// Directory-based cache-coherent shared memory (the paper's "data
// migration" mechanism, §2.2): full-map invalidate protocol in the style of
// Alewife [CKA91], with per-processor 64 KB caches, per-processor memory
// controllers (hardware resources distinct from the CPUs), and all protocol
// messages travelling through the shared Network so coherence traffic shows
// up in the bandwidth figures.
//
// Protocol summary (home-centric, blocking caches — the paper's target is
// "similar to the Alewife machine, but without its multithreading
// capability", so a processor stalls on a miss):
//
//   read miss   : REQ_R -> home; if dirty, home FETCHes the owner (owner
//                 downgrades M->S and writes back); home sends DATA.
//   write miss  : REQ_W -> home; home invalidates all sharers (INV/ACK) or
//                 fetch-invalidates a dirty owner; home sends exclusive DATA
//                 (header-only grant for an upgrade of a current sharer).
//   eviction    : dirty victims write back to home; clean victims drop
//                 silently (the directory may hold stale sharer bits, and
//                 invalidations to stale sharers are acked without effect).
//
// Each directory entry serialises transactions FIFO; each protocol message
// occupies the home/remote memory controller for a fixed occupancy.
#pragma once

#include <bitset>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "shmem/addr.h"
#include "shmem/cache.h"
#include "sim/machine.h"
#include "sim/task.h"

namespace cm::shmem {

struct ProtocolParams {
  sim::Cycles controller_occupancy = 12;  // per protocol message handled
                                          // (directory lookup + state update)
  unsigned words_request = 2;            // REQ_R / REQ_W / INV / ACK / FETCH
  unsigned words_data = 2 + kLineBytes / 4;  // header + one 16-byte line

  /// LimitLESS directories [CKA91]: the hardware holds only this many
  /// sharer pointers per line; overflow traps to software on the home
  /// node's CPU, both when a sharer beyond the limit is added and when an
  /// overflowed line must be invalidated. 0 = full-map in hardware (the
  /// default used by the paper-reproduction benches).
  unsigned hw_sharer_pointers = 0;
  sim::Cycles limitless_trap = 150;  // software directory-extension handler
};

struct MemStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;  // includes upgrades
  std::uint64_t upgrades = 0;
  std::uint64_t invalidations = 0;  // INV messages sent
  std::uint64_t fetches = 0;        // dirty-owner interventions
  std::uint64_t writebacks = 0;     // dirty evictions
  std::uint64_t evictions = 0;
  std::uint64_t limitless_traps = 0;  // software directory-extension traps
  std::uint64_t prefetches = 0;       // prefetch transactions issued
  std::uint64_t mshr_merges = 0;      // demand accesses merged into an
                                      // in-flight transaction

  [[nodiscard]] std::uint64_t hits() const { return read_hits + write_hits; }
  [[nodiscard]] std::uint64_t misses() const {
    return read_misses + write_misses;
  }
  [[nodiscard]] double hit_rate() const {
    const auto total = hits() + misses();
    return total == 0 ? 0.0 : static_cast<double>(hits()) / static_cast<double>(total);
  }
};

/// Upper bound on machine size for the full-map directory's sharer vector.
inline constexpr unsigned kMaxProcs = 256;
using SharerSet = std::bitset<kMaxProcs>;

class CoherentMemory {
 public:
  CoherentMemory(sim::Machine& machine, net::Network& network,
                 CacheParams cache_params = {}, ProtocolParams params = {});

  /// Allocate `bytes` of shared memory homed on `home` (line-aligned).
  [[nodiscard]] Addr alloc(sim::ProcId home, std::uint64_t bytes) {
    return heap_.alloc(home, bytes);
  }

  /// Processor `p` reads [a, a+bytes): every touched line is brought to at
  /// least Shared in p's cache. Completes when all lines are present.
  [[nodiscard]] sim::Task<> read(sim::ProcId p, Addr a, unsigned bytes);

  /// Processor `p` writes [a, a+bytes): every touched line is brought to
  /// Modified in p's cache (read-modify-write and plain stores cost the
  /// same here).
  [[nodiscard]] sim::Task<> write(sim::ProcId p, Addr a, unsigned bytes);

  /// Non-blocking prefetch (§2.5: "prefetching will lower the relative
  /// cost of performing data migration"): start read acquisitions for
  /// every absent line of [a, a+bytes) and return immediately. A later
  /// `read` of the same lines merges with the in-flight transactions
  /// through the MSHRs instead of re-requesting.
  void prefetch(sim::ProcId p, Addr a, unsigned bytes);

  [[nodiscard]] const MemStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Cache& cache(sim::ProcId p) const { return caches_.at(p); }

  /// Test hooks: observable directory state for invariant checks.
  struct DirSnapshot {
    bool modified = false;
    sim::ProcId owner = sim::kNoProc;
    SharerSet sharers;
    bool busy = false;
  };
  [[nodiscard]] DirSnapshot dir_snapshot(Line line) const;

  /// Test hook: transaction records currently in use (0 once every miss
  /// and writeback has completed).
  [[nodiscard]] std::size_t live_transactions() const noexcept {
    return txns_.size() - free_txns_.size();
  }

 private:
  static constexpr std::uint32_t kNoTxn = ~std::uint32_t{0};

  /// One coherence transaction: a miss's request/grant round trip, or a
  /// dirty writeback. Records live in `txns_` (a deque, so a record's
  /// address is stable while the table grows) and are recycled through
  /// `free_txns_`; every protocol message names its record by index, so the
  /// closures the protocol sends stay small enough to never allocate.
  struct Txn {
    Line line = 0;
    sim::ProcId requester = sim::kNoProc;
    bool exclusive = false;
    std::uint32_t next = kNoTxn;   // directory FIFO link
    int acks = 0;                  // invalidation acks still outstanding
    std::coroutine_handle<> grant_wait;  // requester, parked until the grant
    std::coroutine_handle<> ack_wait;    // home, parked until the last ack
    // MSHR: demand accesses that merged with this in-flight transaction.
    // Cleared, not freed, on recycling, so it keeps its capacity.
    std::vector<std::coroutine_handle<>> merged;
  };
  struct Dir {
    bool modified = false;
    bool busy = false;
    sim::ProcId owner = sim::kNoProc;
    std::uint32_t head = kNoTxn;  // FIFO of queued transactions
    std::uint32_t tail = kNoTxn;
    SharerSet sharers;  // full-map presence vector
  };

  [[nodiscard]] sim::Task<> acquire(sim::ProcId p, Line line, bool exclusive);

  [[nodiscard]] std::uint32_t new_txn(sim::ProcId p, Line line,
                                      bool exclusive);
  void free_txn(std::uint32_t id);
  /// The transaction `p` has in flight for `line` (its miss-status holding
  /// register), or kNoTxn.
  [[nodiscard]] std::uint32_t in_flight(sim::ProcId p, Line line) const;

  /// Send a coherence message whose `deliver` closure fits std::function's
  /// local buffer (checked at compile time).
  template <class F>
  void send(sim::ProcId src, sim::ProcId dst, unsigned words, F deliver);
  void on_request(std::uint32_t id);
  void on_invalidate(std::uint32_t id, sim::ProcId sharer);
  void on_ack(std::uint32_t id);
  void on_writeback(std::uint32_t id);
  [[nodiscard]] sim::Task<> serve_front(Line line);
  void handle_eviction(sim::ProcId p, const Eviction& victim);

  /// Awaitable: occupy proc `p`'s memory controller for one message.
  [[nodiscard]] auto controller(sim::ProcId p);
  /// LimitLESS software trap on the home CPU when the hardware pointer set
  /// overflows (no-op under a full-map configuration).
  [[nodiscard]] sim::Task<> maybe_trap(sim::ProcId home, std::size_t sharers);
  /// Awaitable: coherence message src -> dst, resume at delivery.
  [[nodiscard]] auto transfer(sim::ProcId src, sim::ProcId dst, unsigned words);

  sim::Machine* machine_;
  net::Network* network_;
  ProtocolParams params_;
  GlobalHeap heap_;
  std::vector<Cache> caches_;
  sim::ProcessorFile controllers_;  // FCFS memory controllers
  std::unordered_map<Line, Dir> dirs_;
  std::deque<Txn> txns_;
  std::vector<std::uint32_t> free_txns_;
  // Per processor: indices of its in-flight miss transactions.
  std::vector<std::vector<std::uint32_t>> in_flight_;
  MemStats stats_;
};

}  // namespace cm::shmem
