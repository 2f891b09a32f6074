#include "net/mesh_net.h"

#include <algorithm>
#include <cassert>

#include "check/checker.h"
#include "sim/tracer.h"

namespace cm::net {

MeshNetwork::MeshNetwork(sim::Engine& engine, unsigned nprocs, MeshConfig cfg)
    : Network(engine.shards()), engine_(&engine), cfg_(cfg) {
  assert(cfg_.width > 0);
  // Link occupancy is one global FIFO timeline per link — meaningless (and
  // racy) when shards run their own clocks; the workload layer rejects the
  // combination, this assert backs it up.
  assert((engine.shards() == 1 || !cfg_.contention) &&
         "mesh contention modelling requires a single shard");
  height_ = (nprocs + cfg_.width - 1) / cfg_.width;
  if (height_ == 0) height_ = 1;
  links_.resize(static_cast<std::size_t>(cfg_.width) * height_ * 4);
  link_words_.resize(links_.size() * engine.shards());
}

unsigned MeshNetwork::hops(sim::ProcId src, sim::ProcId dst) const {
  const unsigned sx = src % cfg_.width, sy = src / cfg_.width;
  const unsigned dx = dst % cfg_.width, dy = dst / cfg_.width;
  const unsigned ddx = sx > dx ? sx - dx : dx - sx;
  const unsigned ddy = sy > dy ? sy - dy : dy - sy;
  return ddx + ddy;
}

sim::Cycles MeshNetwork::route(sim::ProcId src, sim::ProcId dst,
                               unsigned words, sim::Cycles start) {
  // Head flit time at the current node; the tail lags by words*per_word.
  sim::Cycles head = start + cfg_.launch;
  const sim::Cycles occupancy =
      cfg_.per_hop + static_cast<sim::Cycles>(cfg_.per_word) * words;

  const unsigned x = src % cfg_.width, y = src / cfg_.width;
  const unsigned dx = dst % cfg_.width, dy = dst / cfg_.width;

  // This shard's slab of per-link word counters (slab 0 for classic runs).
  std::uint64_t* const shard_words =
      link_words_.data() + static_cast<std::size_t>(engine_->current_shard()) *
                               links_.size();

  // Cross `n` links starting at `li`, one link entry forward or back each.
  auto leg = [&](std::size_t li, bool up, unsigned n) {
    for (; n > 0; --n, li = up ? li + 1 : li - 1) {
      if (cfg_.contention) {
        Link& link = links_[li];
        const sim::Cycles begin = std::max(head, link.free_at);
        link.free_at = begin + occupancy;
        head = begin + cfg_.per_hop;
      } else {
        head += cfg_.per_hop;
      }
      shard_words[li] += words;
    }
  };

  if (x < dx) leg(link_index(x, y, 0), true, dx - x);
  if (x > dx) leg(link_index(x, y, 1), false, x - dx);
  if (y < dy) leg(link_index(dx, y, 2), true, dy - y);
  if (y > dy) leg(link_index(dx, y, 3), false, y - dy);
  // Tail arrives after the payload has serialised through the final link.
  return head + static_cast<sim::Cycles>(cfg_.per_word) * words;
}

void MeshNetwork::send(sim::ProcId src, sim::ProcId dst, unsigned words,
                       Traffic kind, std::function<void()> deliver) {
  if (src == dst) {
    // Loopback: local delivery, not network traffic.
    engine_->after(0, std::move(deliver));
    return;
  }
  slot(engine_->current_shard()).record(kind, words);
  if (sim::Tracer* tr = engine_->tracer()) {
    const std::uint64_t id = tr->next_msg_id();
    tr->record(sim::TraceEvent::kMsgSend, src,
               {{"dst", dst},
                {"words", words},
                {"coherence", kind == Traffic::kCoherence},
                {"msg", id}});
    deliver = [tr, dst, id, d = std::move(deliver)] {
      tr->record(sim::TraceEvent::kMsgDeliver, dst, {{"msg", id}});
      d();
    };
  }
  if (check::Checker* ck = engine_->checker()) {
    // Same happens-before edge as ConstantNetwork: snapshot the sender's
    // clock on send, join it into the receiver's on delivery.
    const std::uint64_t hb = ck->on_send(src, dst);
    deliver = [ck, dst, hb, d = std::move(deliver)] {
      ck->on_deliver(dst, hb);
      d();
    };
  }
  // Home the delivery at the destination — the cross-shard hop. Without
  // contention, arrive >= now + launch + per_hop = now + min_cross_latency,
  // so the event always lands beyond the current window.
  const sim::Cycles arrive = route(src, dst, words, engine_->now());
  engine_->at_on(dst, arrive, std::move(deliver));
}

sim::Cycles MeshNetwork::latency(sim::ProcId src, sim::ProcId dst,
                                 unsigned words) const {
  if (src == dst) return 0;
  // Zero-load: the head pays launch plus one router delay per hop, the tail
  // serialises behind it on the final link. Closed-form — identical to an
  // uncontended walk of `route`, but provably side-effect-free.
  return cfg_.launch +
         static_cast<sim::Cycles>(cfg_.per_hop) * hops(src, dst) +
         static_cast<sim::Cycles>(cfg_.per_word) * words;
}

std::uint64_t MeshNetwork::max_link_words() const {
  std::uint64_t best = 0;
  for (std::size_t li = 0; li < links_.size(); ++li) {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < link_words_.size() / links_.size(); ++s) {
      total += link_words_[s * links_.size() + li];
    }
    best = std::max(best, total);
  }
  return best;
}

}  // namespace cm::net
