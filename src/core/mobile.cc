#include "core/mobile.h"

namespace cm::core {

sim::Task<> MobileObject::attract(Ctx& ctx) {
  const CostModel& c = rt_->cost();
  co_await rt_->charge(ctx.proc, c.locality_check, Category::kLocalityCheck);
  if (home() == ctx.proc) co_return;

  if (LocationService* loc = rt_->locator()) {
    // Distributed mode: no cross-processor lock object exists. The object's
    // directory shard serialises movers, and the departing host leaves a
    // forwarding pointer behind for requests still in flight.
    const bool moved = co_await loc->move_object(ctx, id_, size_words_);
    if (moved) {
      ++moves_;
      ++rt_->mutable_stats().object_moves;
      rt_->mutable_stats().moved_object_words += size_words_;
    }
    co_return;
  }

  // One mover at a time; re-check after the lock (someone may have dragged
  // the object here, or elsewhere, while we waited). The transfer_lock_ is
  // itself an oracle — a zero-cost globally-visible mutex — matching the
  // ObjectSpace oracle this mode runs against.
  check::Checker* ck = rt_->checker();
  if (ck != nullptr) {
    ck->on_lock_attempt(&ctx, &transfer_lock_, "MobileObject.transfer_lock");
  }
  co_await transfer_lock_.lock();
  if (ck != nullptr) {
    ck->on_lock_acquired(&ctx, &transfer_lock_, "MobileObject.transfer_lock");
  }
  const ProcId cur = home();
  if (cur == ctx.proc) {
    // Release hook before unlock(): unlock hands the mutex to the next
    // waiter synchronously, so the checker must see our release first.
    if (ck != nullptr) ck->on_lock_released(&ctx, &transfer_lock_);
    transfer_lock_.unlock();
    co_return;
  }
  if (ck != nullptr) ck->on_move_begin(id_, ctx.proc);

  // Control request to the object's current home...
  co_await rt_->charge(ctx.proc, c.sender_total(1), Category::kObjectMove);
  const bool asked = co_await rt_->transfer(ctx.proc, cur, 1);
  bool shipped = false;
  if (asked) {
    // ... which packs up the object: unbind it from the local object table,
    // leave a forwarding address (Emerald-style), marshal the state ...
    co_await rt_->charge(cur, c.receiver_total(1, false) + c.oid_translation,
                         Category::kObjectMove);
    co_await rt_->charge(cur, c.sender_total(size_words_),
                         Category::kObjectMove);
    shipped = co_await rt_->transfer(cur, ctx.proc, size_words_);
  }
  if (shipped) {
    // ... and the receiver installs it: a full software reception (a thread
    // runs the installer), plus rebinding the global object table entry.
    co_await rt_->charge(
        ctx.proc,
        c.receiver_total(size_words_, /*create_thread=*/true) +
            c.oid_translation,
        Category::kObjectMove);
  }
  // A leg fails only when fail-stop tolerance gave up on a dead NIC, and
  // recovery may re-home the object while the move is in flight. Either
  // way the move is abandoned: the object stays where the ObjectSpace says.
  if (shipped && home() == cur) {
    rt_->objects().move(id_, ctx.proc);
    ++moves_;
    ++rt_->mutable_stats().object_moves;
    rt_->mutable_stats().moved_object_words += size_words_;
    if (ck != nullptr) ck->on_move_commit(id_, cur, ctx.proc);
  }
  if (ck != nullptr) {
    ck->on_move_end(id_);
    ck->on_lock_released(&ctx, &transfer_lock_);
  }
  transfer_lock_.unlock();
}

}  // namespace cm::core
