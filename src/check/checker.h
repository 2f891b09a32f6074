// Simulated-machine race / invariant checker.
//
// The paper's central claim is that a migration annotation "changes only
// performance, never semantics" (§3). After four mechanisms, a fault layer
// and a distributed locator, a bug in any of them would silently *look*
// like a semantics-preserving run: the benches assert end states, not the
// machine discipline that produced them. The Checker enforces that
// discipline mechanically, in the spirit of DCESH's machine-level
// formalisation of distributed RPC:
//
//  * HAPPENS-BEFORE: one vector clock per simulated processor, advanced by
//    message delivery — every Network send/deliver edge is a happens-before
//    edge. The clocks classify violations (causally-after vs. concurrent
//    with the relevant relocation commit) in the report.
//  * PHANTOM ACCESSES: an activation reading or writing an object's state
//    while its processor is not the object's current host under RPC/CM —
//    the bug class an omniscient ObjectSpace oracle can hide.
//  * LOCK DISCIPLINE: a runtime lock graph over sim::AsyncMutex instances;
//    flags order inversions (a cycle in the acquired-while-holding graph)
//    and actual deadlock cycles in the wait-for graph.
//  * PROTOCOL INVARIANTS: object moves commit home-serialised and only away
//    from their committed owner; forwarding chases are acyclic and chains
//    are compressed on arrival; ReliableTransport sequence numbers are
//    delivered exactly once and gapless after dedup; each RPC's reply is
//    delivered exactly once; a Modified coherence line has exactly one
//    sharer (its owner).
//
// Nonintrusive by construction, exactly like sim::Tracer: the Engine holds
// a null-by-default Checker*, every instrumentation site is a single
// pointer test, and recording never schedules events, draws random numbers
// or charges simulated cycles — checker-on runs are bit-identical to
// checker-off runs, and reports are byte-identical across same-seed runs.
// Violations are recorded (bounded) and counted; in Debug builds they
// abort by default so a broken protocol cannot masquerade as a slow one.
//
// Sharded runs (DESIGN.md §12): the checker's tables are global, so hooks
// fired concurrently from kThreads shard workers cannot mutate them
// directly. During a multi-shard window loop every hook instead appends a
// deferred closure to the calling shard's private log, tagged with the
// emitting event's (cycle, label); the window barrier's serial phase
// replays all logs merged in (cycle, label) order — exactly the order a
// one-shard run fires the hooks in — so stats, violation records and their
// timestamps are byte-identical for every shard count and backend.
// Caller-visible ids (send tokens, chase ids, call ids) are minted
// immediately from per-lane counters, `(lane << 40) | count`, making them
// pure functions of causal history rather than of replay timing. Outside a
// sharded run (every pre-shard unit test) hooks apply directly and the
// checker behaves exactly as before.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/engine.h"
#include "sim/types.h"

namespace cm::check {

using sim::Cycles;
using sim::ProcId;

/// Everything the checker can flag. One enum keeps counting cheap and lets
/// the seeded-bug fixtures assert the exact violation kind.
enum class Violation : unsigned {
  kPhantomRead = 0,       // activation read state away from the object's host
  kPhantomWrite,          // ... or wrote it
  kOwnerDivergence,       // host truth drifted from the committed move history
  kLockOrderInversion,    // cycle in the acquired-while-holding graph
  kDeadlock,              // cycle in the wait-for graph (real deadlock)
  kMoveOverlap,           // two moves of one object in flight at once
  kMoveFromNonOwner,      // a move committed away from a non-owner
  kForwardCycle,          // forwarding chase revisited a processor
  kChainNotCompressed,    // a crossed hop still points astray after arrival
  kSeqDuplicate,          // transport delivered / deduped a seq incoherently
  kSeqGap,                // finalize: a sent seq neither delivered nor
                          // excused by an exhausted retry budget
  kDuplicateReply,        // one call's reply delivered more than once
  kLostReply,             // finalize: a call never saw its reply
  kCoherenceConflict,     // Modified line without exactly one owning sharer
  kPostFailureDelivery,   // a message sent at/after its source's fail-stop
                          // epoch was delivered (dead NICs must stay dead)
  kDuplicateRehome,       // one crash recovered the same object twice, or a
                          // re-home committed away from a non-owner
  kLeaseRegression,       // a processor's lease expiry moved backwards
  kPolicyMoveInCooldown,  // rebalancer issued a move inside the object's
                          // migration-hysteresis cooldown window
  kPolicyRedundantFlip,   // replication-mode flip without a phase edge (the
                          // object was already in the requested mode)
  kCount,
};

[[nodiscard]] constexpr std::string_view violation_name(Violation v) {
  switch (v) {
    case Violation::kPhantomRead: return "phantom_read";
    case Violation::kPhantomWrite: return "phantom_write";
    case Violation::kOwnerDivergence: return "owner_divergence";
    case Violation::kLockOrderInversion: return "lock_order";
    case Violation::kDeadlock: return "deadlock";
    case Violation::kMoveOverlap: return "move_overlap";
    case Violation::kMoveFromNonOwner: return "move_from_non_owner";
    case Violation::kForwardCycle: return "forward_cycle";
    case Violation::kChainNotCompressed: return "chain_not_compressed";
    case Violation::kSeqDuplicate: return "seq_duplicate";
    case Violation::kSeqGap: return "seq_gap";
    case Violation::kDuplicateReply: return "duplicate_reply";
    case Violation::kLostReply: return "lost_reply";
    case Violation::kCoherenceConflict: return "coherence_conflict";
    case Violation::kPostFailureDelivery: return "post_failure_delivery";
    case Violation::kDuplicateRehome: return "duplicate_rehome";
    case Violation::kLeaseRegression: return "lease_regression";
    case Violation::kPolicyMoveInCooldown: return "policy_move_in_cooldown";
    case Violation::kPolicyRedundantFlip: return "policy_redundant_flip";
    case Violation::kCount: break;
  }
  return "?";
}

struct CheckConfig {
  /// Abort the process on the first violation. Defaults on in Debug builds
  /// (a broken machine model should stop the run, not be summarised), off
  /// in Release (fixtures assert on the report instead).
  bool abort_on_violation =
#ifndef NDEBUG
      true;
#else
      false;
#endif
  /// Detailed records kept; counting is always exact.
  std::size_t max_records = 256;
};

/// One recorded violation. Identifiers are the checker's dense first-seen
/// ids (never host addresses), so records — and their JSON export — are
/// byte-identical across same-seed runs.
struct ViolationRecord {
  Violation kind;
  Cycles at;
  ProcId proc;
  std::string detail;
};

/// Flat counters exported under "check.*" keys (see check/report.h).
struct CheckStats {
  std::uint64_t sends = 0;           // happens-before edges opened
  std::uint64_t delivers = 0;        // ... and closed by a delivery
  std::uint64_t accesses = 0;        // object-access locality checks
  std::uint64_t lock_attempts = 0;
  std::uint64_t lock_acquires = 0;
  std::uint64_t moves = 0;           // closed move windows (abandoned too)
  std::uint64_t chases = 0;          // forwarding chases traced
  std::uint64_t chase_hops = 0;
  std::uint64_t seqs_sent = 0;
  std::uint64_t seqs_delivered = 0;
  std::uint64_t seqs_abandoned = 0;  // budget-exhausted (excused) sends
  std::uint64_t calls = 0;           // replied-exactly-once windows opened
  std::uint64_t replies = 0;
  std::uint64_t calls_abandoned = 0; // windows excused by a typed ft failure
  std::uint64_t line_checks = 0;     // coherence directory-state checks
  std::uint64_t fail_stops = 0;      // planned NIC deaths registered
  std::uint64_t leases = 0;          // lease renewals observed
  std::uint64_t suspicions = 0;      // failure-detector verdicts
  std::uint64_t rehomes = 0;         // object recovery commits
  std::uint64_t policy_moves = 0;    // rebalancer-issued object moves
  std::uint64_t policy_flips = 0;    // phase-detector replication flips
  bool finalized = false;
  std::uint64_t total_violations = 0;
  std::uint64_t by_kind[static_cast<unsigned>(Violation::kCount)] = {};
};

class Checker {
 public:
  /// Violations are timestamped with `engine.now()` at record time (or the
  /// emitting event's cycle when replayed from a shard log). The caller
  /// installs the checker with `engine.set_checker(&c)` (mirroring Tracer)
  /// and should call `finalize()` once the run has drained. Construction
  /// registers the engine's window-barrier hook for deferred replay.
  Checker(sim::Engine& engine, ProcId nprocs, CheckConfig cfg = {});
  ~Checker();
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  // ---- happens-before -----------------------------------------------------
  /// A message leaves `src` for `dst`; returns a token carrying the sender's
  /// clock that the matching `on_deliver` joins. Called once per physical
  /// copy (a duplicated message opens two edges; a dropped one is never
  /// closed, which is correct: nothing was learned from it).
  std::uint64_t on_send(ProcId src, ProcId dst);
  void on_deliver(ProcId dst, std::uint64_t token);
  [[nodiscard]] const std::vector<std::uint64_t>& clock(ProcId p) const {
    return clocks_[p];
  }

  // ---- phantom object accesses -------------------------------------------
  /// An activation running on `proc` is about to touch `obj`, whose current
  /// host (ground truth at this instant) is `host`. Under RPC/CM the two
  /// must coincide; the report classifies a mismatch against the clock of
  /// the object's last committed relocation.
  void on_object_access(ProcId proc, std::uint64_t obj, ProcId host,
                        bool write);

  // ---- lock graph ---------------------------------------------------------
  /// Call-site discipline (see core/mobile.cc): `attempt` immediately
  /// before `co_await mutex.lock()`, `acquired` immediately after it
  /// returns, `released` BEFORE `mutex.unlock()` (unlock hands off and
  /// resumes the next waiter synchronously). `agent` identifies the logical
  /// thread (the activation's Ctx address); `mutex` the lock.
  void on_lock_attempt(const void* agent, const void* mutex, const char* name);
  void on_lock_acquired(const void* agent, const void* mutex, const char* name);
  void on_lock_released(const void* agent, const void* mutex);

  // ---- object-move protocol ----------------------------------------------
  /// A mover won the object's serialisation (directory-shard mutex or the
  /// oracle transfer lock) and the move protocol is now in flight.
  void on_move_begin(std::uint64_t obj, ProcId mover);
  /// The object's host binding flipped `from` -> `to` (ObjectSpace::move).
  void on_move_commit(std::uint64_t obj, ProcId from, ProcId to);
  /// The serialisation window closed (directory entry flipped / lock about
  /// to be released). Overlapping [begin, end) windows violate
  /// home-serialisation.
  void on_move_end(std::uint64_t obj);

  // ---- forwarding chains --------------------------------------------------
  std::uint64_t on_chase_begin(std::uint64_t obj, ProcId start);
  void on_chase_hop(std::uint64_t chase, ProcId from, ProcId to);
  /// Mirror of forwarding-pointer writes/erases, kept so compression can be
  /// verified without trusting the locator's own tables.
  void on_fwd_pointer(ProcId at, std::uint64_t obj, ProcId to);
  void on_fwd_erase(ProcId at, std::uint64_t obj);
  /// The chase found the object at `resting`; every crossed hop must now
  /// point directly at it (path compression on arrival).
  void on_chase_end(std::uint64_t chase, ProcId resting);

  // ---- reliable transport -------------------------------------------------
  void on_seq_sent(ProcId src, ProcId dst, std::uint64_t seq);
  /// `fresh` is the transport's own dedup verdict; the checker keeps an
  /// independent delivered-set and flags any disagreement.
  void on_seq_delivered(ProcId src, ProcId dst, std::uint64_t seq, bool fresh);
  /// The send exhausted a bounded retry budget: the seq is excused from the
  /// gapless check (the recovery path owns correctness from here).
  void on_seq_abandoned(ProcId src, ProcId dst, std::uint64_t seq);

  // ---- replies ------------------------------------------------------------
  /// Open a replied-exactly-once window for a remote call; returns its id.
  std::uint64_t on_call_begin(ProcId caller, std::uint64_t obj);
  void on_reply(std::uint64_t call, ProcId at);
  /// The call unwound with a typed fault-tolerance failure instead of a
  /// reply (e.g. its object was lost): excuse the window from the
  /// lost-reply check — the application-level handler owns it now.
  void on_call_abandoned(std::uint64_t call);

  // ---- fail-stop crashes ---------------------------------------------------
  /// Ground truth: `p`'s NIC fail-stops at cycle `at` (from the FaultPlan).
  /// From that cycle on, no message sent by `p` may ever be delivered.
  void on_fail_stop(ProcId p, Cycles at);
  /// The failure detector renewed `p`'s lease until `expiry`; leases must
  /// only ever move forward.
  void on_lease(ProcId p, Cycles expiry);
  /// The failure detector suspected `p` at the current cycle.
  void on_suspect(ProcId p);
  /// Object recovery committed: `obj` re-homed `from` -> `to`. Each (obj,
  /// failed home) pair may commit at most once, and `from` must be the
  /// object's committed owner.
  void on_rehome(std::uint64_t obj, ProcId from, ProcId to);

  // ---- placement / replication policy --------------------------------------
  /// Setup-time: the policy layer's per-object migration cooldown, the
  /// hysteresis bound `on_policy_move` enforces. Call before the run starts.
  void on_policy_config(Cycles move_cooldown);
  /// The rebalancer issued a move for `obj`. Invariant: at least
  /// `move_cooldown` cycles since the previous policy move of the same
  /// object (migration hysteresis; per-object cooldown).
  void on_policy_move(std::uint64_t obj);
  /// The phase detector flipped `obj`'s replication mode. Invariant: the
  /// flip follows a phase edge, i.e. the mode actually changes (objects
  /// start non-replicated; flipping to the current mode is redundant).
  void on_policy_flip(std::uint64_t obj, bool to_replicated);

  // ---- coherence directory ------------------------------------------------
  /// Directory-state facts after a transition commits. Invariant: modified
  /// implies a valid owner that is the sole sharer; clean implies no owner.
  void on_line_state(std::uint64_t line, bool modified, unsigned sharer_count,
                     bool owner_valid, bool owner_is_sharer);

  // ---- lifecycle / report -------------------------------------------------
  /// End-of-run checks (seq gaps, lost replies). Idempotent.
  void finalize();

  [[nodiscard]] const CheckStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<ViolationRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::uint64_t violations() const noexcept {
    return stats_.total_violations;
  }
  [[nodiscard]] std::uint64_t count(Violation v) const noexcept {
    return stats_.by_kind[static_cast<unsigned>(v)];
  }

 private:
  struct MoveWindow {
    ProcId mover;
    bool open = false;
  };
  struct Chase {
    std::uint64_t obj;
    std::vector<ProcId> visited;  // in hop order, starting at the first host
    std::set<std::pair<ProcId, ProcId>> edges;  // pointers followed
  };
  struct Channel {
    std::set<std::uint64_t> sent;
    std::set<std::uint64_t> delivered;
    std::set<std::uint64_t> abandoned;
  };
  struct Call {
    ProcId caller;
    std::uint64_t obj;
    unsigned replies = 0;
    bool abandoned = false;
  };
  /// One happens-before edge in flight: the sender's clock, plus who sent
  /// it and when (so delivery can be tested against fail-stop epochs).
  struct Edge {
    std::vector<std::uint64_t> clock;
    ProcId src;
    Cycles sent_at;
  };

  /// One hook occurrence captured during a sharded window, replayed at the
  /// next barrier. (t, label) is the emitting event's identity — the merge
  /// key that reconstructs the one-shard hook order.
  struct Deferred {
    Cycles t;
    std::uint64_t label;
    std::function<void()> fn;
  };
  struct ShardLog {
    std::vector<Deferred> entries;
  };

  /// Run `fn` now (classic runs) or append it to the calling shard's log
  /// (multi-shard window loops); the barrier replay applies it later under
  /// the emitting event's timestamp.
  template <class F>
  void dispatch(F&& fn) {
    if (!engine_->in_sharded_run()) {
      fn();
      return;
    }
    const unsigned s = engine_->current_shard();
    if (s >= logs_.size()) [[unlikely]] {
      assert(!engine_->threads_active());
      logs_.resize(s + 1);
    }
    logs_[s].entries.push_back(
        Deferred{engine_->now(), engine_->current_label(),
                 std::function<void()>(std::forward<F>(fn))});
  }

  /// Apply every deferred hook, merged across shard logs by (t, label).
  /// Serial phase only (window barrier / finalize).
  void replay();

  /// Mint a caller-visible id from the calling lane's counter: shard-count
  /// invariant, and the legacy sequence 1, 2, 3, ... for lane-0 programs.
  std::uint64_t fresh_id(std::vector<std::uint64_t>& cnt);

  /// The cycle a violation or edge is stamped with: the engine clock, or
  /// the emitting event's cycle while replaying a shard log.
  [[nodiscard]] Cycles now_() const noexcept {
    return replaying_ ? replay_now_ : engine_->now();
  }

  void violate(Violation v, ProcId proc, std::string detail);
  void tick(ProcId p) { ++clocks_[p][p]; }
  void join(ProcId p, const std::vector<std::uint64_t>& other);
  /// a happened-before-or-equals b, componentwise.
  [[nodiscard]] static bool leq(const std::vector<std::uint64_t>& a,
                                const std::vector<std::uint64_t>& b);
  /// Dense first-seen id for a host address (locks, agents): reports carry
  /// these, never raw pointers, so output is reproducible.
  std::uint64_t id_of(std::unordered_map<const void*, std::uint64_t>& reg,
                      const void* p);
  [[nodiscard]] bool order_reachable(std::uint64_t from,
                                     std::uint64_t to) const;
  [[nodiscard]] const std::string& mutex_name(std::uint64_t id) const;

  sim::Engine* engine_;
  CheckConfig cfg_;
  ProcId nprocs_;
  CheckStats stats_;
  std::vector<ViolationRecord> records_;

  // deferred-mode state (sharded runs)
  std::vector<ShardLog> logs_;               // one per shard
  std::vector<std::uint64_t> send_cnt_;      // per-lane id counters
  std::vector<std::uint64_t> chase_cnt_;
  std::vector<std::uint64_t> call_cnt_;
  bool replaying_ = false;
  Cycles replay_now_ = 0;

  // happens-before
  std::vector<std::vector<std::uint64_t>> clocks_;
  std::unordered_map<std::uint64_t, Edge> in_flight_;

  // fail-stop
  std::map<ProcId, Cycles> fail_epochs_;   // ground-truth NIC death cycles
  std::map<ProcId, Cycles> lease_expiry_;  // latest renewal per processor
  std::set<std::pair<std::uint64_t, ProcId>> rehomed_;  // (obj, failed home)

  // object history
  std::unordered_map<std::uint64_t, ProcId> owner_mirror_;
  std::unordered_map<std::uint64_t, MoveWindow> move_windows_;
  struct Commit {
    ProcId to;
    std::vector<std::uint64_t> clock;
  };
  std::unordered_map<std::uint64_t, Commit> last_commit_;

  // lock graph. The two address-keyed maps are the id_of() registries:
  // lookup-only (never iterated, never ordered), and every value they hand
  // out is a dense first-seen id — reports and the lock graph only ever
  // see those ids, so host addresses stay unobservable.
  // simlint: allow DS002
  std::unordered_map<const void*, std::uint64_t> mutex_ids_;
  // simlint: allow DS002
  std::unordered_map<const void*, std::uint64_t> agent_ids_;
  std::vector<std::string> mutex_names_;      // indexed by mutex id
  std::map<std::uint64_t, std::uint64_t> holder_;       // mutex -> agent
  std::map<std::uint64_t, std::uint64_t> waiting_;      // agent -> mutex
  std::map<std::uint64_t, std::vector<std::uint64_t>> held_;  // agent -> locks
  std::map<std::uint64_t, std::set<std::uint64_t>> order_edges_;
  std::set<std::pair<std::uint64_t, std::uint64_t>> reported_orders_;

  // forwarding
  std::unordered_map<std::uint64_t, Chase> chases_;
  std::map<std::pair<ProcId, std::uint64_t>, ProcId> fwd_mirror_;

  // placement / replication policy
  Cycles policy_cooldown_ = 0;
  std::map<std::uint64_t, Cycles> policy_last_move_;
  std::map<std::uint64_t, bool> policy_mode_;  // true = replicated

  // transport + replies; calls_ is ordered by the (lane-structured) call id
  // so finalize walks windows in a shard-count-invariant order.
  std::map<std::pair<ProcId, ProcId>, Channel> channels_;
  std::map<std::uint64_t, Call> calls_;
};

}  // namespace cm::check
