// Fault-tolerance service interface. The runtime's default assumption is the
// paper's: a reliable machine where processors never die. A FaultTolerance
// implementation (ft::FtLayer in `src/ft`) replaces that assumption with a
// fail-stop model — a processor's NIC can die at a planned cycle
// (net::FaultPlan::nic_fail_at), after which nothing it sends or receives is
// ever delivered. The interface mirrors core::LocationService: `Runtime`,
// `ReliableTransport` and `loc::Locator` hold a nullable pointer, and with
// none installed they run the crash-free code paths bit-for-bit, which keeps
// every seed golden byte-identical.
//
// What the service publishes:
//  * suspicion — whether a lease-based failure detector currently believes a
//    processor's NIC is dead, and the cycle (failure epoch) at which it
//    decided so;
//  * recovery — whether an object homed on a dead processor has been
//    re-homed (await_object blocks until its recovery commits) or is lost
//    for good (object_lost);
//  * policy — where stranded activations evacuate to, how long senders may
//    wait (send_deadline) and how often callers retry (max_call_retries).
#pragma once

#include <stdexcept>
#include <string>

#include "core/object.h"
#include "sim/task.h"
#include "sim/types.h"

namespace cm::core {

/// Failure epoch of a processor that has never been suspected.
inline constexpr sim::Cycles kNoFailureEpoch = static_cast<sim::Cycles>(-1);

/// Base class for typed fault-tolerance failures. Thrown by Runtime::call
/// when an operation cannot complete under the configured recovery policy;
/// application threads catch it and abandon the operation gracefully.
/// (Detached coroutine roots terminate on escape, so requesters must catch.)
class FtError : public std::runtime_error {
 public:
  explicit FtError(const std::string& what) : std::runtime_error(what) {}
};

/// The object's host fail-stopped and no replica or backup could re-home it
/// (FtConfig::rehome_unreplicated == false and no valid core::Replicated
/// copy existed). The object's state is gone; the operation cannot succeed.
class ObjectLostError final : public FtError {
 public:
  explicit ObjectLostError(ObjectId obj)
      : FtError("object " + std::to_string(obj) +
                " lost: home fail-stopped with no replica"),
        obj_(obj) {}
  [[nodiscard]] ObjectId object() const noexcept { return obj_; }

 private:
  ObjectId obj_;
};

class FaultTolerance {
 public:
  virtual ~FaultTolerance() = default;

  /// True once the failure detector has suspected `p`'s NIC. Suspicion is
  /// permanent under fail-stop: there is no rejoin.
  [[nodiscard]] virtual bool suspected(sim::ProcId p) const = 0;

  /// Cycle at which `p` was suspected, or kNoFailureEpoch if never.
  [[nodiscard]] virtual sim::Cycles failure_epoch(sim::ProcId p) const = 0;

  /// Deterministic refuge for an activation stranded on a dead processor:
  /// the first non-suspected processor after `dead` in ring order.
  [[nodiscard]] virtual sim::ProcId evacuation_target(
      sim::ProcId dead) const = 0;

  /// True if `id`'s recovery concluded that its state is unrecoverable.
  [[nodiscard]] virtual bool object_lost(ObjectId id) const = 0;

  /// True while `id` is enqueued for recovery (its home was suspected and
  /// the re-home has not committed yet).
  [[nodiscard]] virtual bool recovery_pending(ObjectId id) const = 0;

  /// Recovery barrier: resumes once `id`'s recovery commits (re-home or
  /// loss). Immediate no-op if no recovery is pending, including for lost
  /// objects — callers re-check object_lost afterwards.
  [[nodiscard]] virtual sim::Task<> await_object(ObjectId id) = 0;

  /// Relative per-send deadline for reliable transfers (0 = none): an
  /// unacked send older than this resolves as a delivery failure even
  /// before its peer is formally suspected.
  [[nodiscard]] virtual sim::Cycles send_deadline() const = 0;

  /// How many times Runtime::call re-issues a request whose transfer was
  /// aborted (peer suspected / deadline expired) before throwing FtError.
  [[nodiscard]] virtual unsigned max_call_retries() const = 0;
  /// A reliable send from `src` to `dst` timed out unacknowledged and is
  /// about to retransmit. Only suspicion cancels it, so a detector that has
  /// stopped must resume if either NIC may be dead.
  virtual void on_send_stalled(sim::ProcId src, sim::ProcId dst) {
    (void)src;
    (void)dst;
  }
};

}  // namespace cm::core
