#include "traced.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "alloc_counter.h"
#include "sim/rng.h"
#include "sim/task.h"

namespace perfbench {

using cm::core::Ctx;
using cm::core::Mechanism;
using cm::sim::Cycles;
using cm::sim::ProcId;
using cm::sim::Task;

namespace {

constexpr std::size_t kNotKept = ~std::size_t{0};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kChunk: return "sim.run_chunk";
    case SpanKind::kSend: return "net.send";
    case SpanKind::kDeliver: return "net.deliver";
    case SpanKind::kGetNext: return "apps.get_next";
    case SpanKind::kLookup: return "apps.lookup";
    case SpanKind::kInsert: return "apps.insert";
    case SpanKind::kCount: break;
  }
  return "?";
}

// ---- Recorder ---------------------------------------------------------------

Recorder::Recorder(std::size_t max_kept)
    : origin_ns_(steady_ns()), max_kept_(max_kept) {
  spans_.reserve(max_kept);
}

void Recorder::attach(const cm::sim::Engine& eng, ProcId nprocs) {
  eng_ = &eng;
  home_op_.assign(nprocs, 0);
}

std::int64_t Recorder::now_ns() const { return steady_ns() - origin_ns_; }

void Recorder::open(SpanKind k, std::uint64_t op, std::uint32_t src,
                    std::uint32_t dst, std::uint32_t words) {
  const std::uint32_t id = next_id_++;
  const std::int64_t t0 = now_ns();
  std::size_t kept = kNotKept;
  if (spans_.size() < max_kept_) {
    kept = spans_.size();
    Span& s = spans_.emplace_back();
    s.id = id;
    s.parent = stack_.empty() ? 0 : stack_.back().id;
    s.op = op;
    s.kind = k;
    s.t0_ns = t0;
    s.cycle0 = eng_->now();
    s.src = src;
    s.dst = dst;
    s.words = words;
  }
  stack_.push_back(Open{t0, 0, kept, k, id});
}

void Recorder::close(std::uint64_t allocs) {
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t t1 = now_ns();
  const std::int64_t dur = t1 - o.t0_ns;
  Totals& t = totals_[static_cast<unsigned>(o.kind)];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - o.child_ns;
  t.allocs += allocs;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.kept != kNotKept) {
    spans_[o.kept].t1_ns = t1;
    spans_[o.kept].cycle1 = eng_->now();
  }
}

std::uint64_t Recorder::begin_op(ProcId home) {
  const std::uint64_t op = next_op_++;
  home_op_[home] = op;
  return op;
}

void Recorder::end_op(SpanKind k, std::uint64_t op, ProcId home,
                      std::int64_t t0_ns, std::uint64_t cycle0,
                      bool counted) {
  home_op_[home] = 0;
  const std::int64_t t1 = now_ns();
  Totals& t = totals_[static_cast<unsigned>(k)];
  ++t.count;
  t.total_ns += t1 - t0_ns;
  if (counted) latency_[static_cast<unsigned>(k)].push_back(eng_->now() - cycle0);
  if (spans_.size() < max_kept_) {
    Span& s = spans_.emplace_back();
    s.id = next_id_++;
    s.op = op;
    s.kind = k;
    s.t0_ns = t0_ns;
    s.t1_ns = t1;
    s.cycle0 = cycle0;
    s.cycle1 = eng_->now();
    s.src = home;
  }
}

std::uint64_t Recorder::op_for_send(ProcId src) const {
  if (current_op != 0) return current_op;
  return src < home_op_.size() ? home_op_[src] : 0;
}

bool Recorder::write_json(const std::string& path,
                          const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{%s,\n\"totals\": {", header.c_str());
  for (unsigned k = 0; k < static_cast<unsigned>(SpanKind::kCount); ++k) {
    const Totals& t = totals_[k];
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_ns\": %lld, "
                 "\"self_ns\": %lld, \"allocs\": %llu}",
                 k == 0 ? "" : ",", span_name(static_cast<SpanKind>(k)),
                 static_cast<unsigned long long>(t.count),
                 static_cast<long long>(t.total_ns),
                 static_cast<long long>(t.self_ns),
                 static_cast<unsigned long long>(t.allocs));
  }
  std::fprintf(f,
               "},\n\"span_fields\": [\"id\", \"parent\", \"op\", \"name\", "
               "\"t0_ns\", \"t1_ns\", \"cycle0\", \"cycle1\", \"src\", "
               "\"dst\", \"words\"],\n\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n[%u,%u,%llu,\"%s\",%lld,%lld,%llu,%llu,%u,%u,%u]",
                 i == 0 ? "" : ",", s.id, s.parent,
                 static_cast<unsigned long long>(s.op), span_name(s.kind),
                 static_cast<long long>(s.t0_ns),
                 static_cast<long long>(s.t1_ns),
                 static_cast<unsigned long long>(s.cycle0),
                 static_cast<unsigned long long>(s.cycle1), s.src, s.dst,
                 s.words);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---- TimedNetwork -------------------------------------------------------------

void TimedNetwork::send(ProcId src, ProcId dst, unsigned words,
                        cm::net::Traffic kind, std::function<void()> deliver) {
  const std::uint64_t op = rec_->op_for_send(src);
  if (op != 0) rec_->note_attributed_send();
  // Wrap before the span opens, so the wrapper's own allocation is not
  // charged to Network::send.
  std::function<void()> timed_deliver =
      [rec = rec_, op, src, dst, words, d = std::move(deliver)] {
        rec->open(SpanKind::kDeliver, op, src, dst, words);
        const std::uint64_t outer = std::exchange(rec->current_op, op);
        d();
        rec->current_op = outer;
        rec->close();
      };
  rec_->open(SpanKind::kSend, op, src, dst, words);
  const std::uint64_t a0 = allocs();
  inner_->send(src, dst, words, kind, std::move(timed_deliver));
  rec_->close(allocs() - a0);
}

// ---- Assembly -----------------------------------------------------------------

/// The drivers' measurement control block, reduced to one shard.
struct RunControl {
  Cycles warm_at = 0;
  Cycles end_at = 0;
  bool stop = false;
  long ops = 0;
  std::uint64_t words_warm = 0, msgs_warm = 0, words_end = 0, msgs_end = 0;
  cm::core::RtStats rt_warm, rt_end;
  cm::shmem::MemStats mem_warm, mem_end;

  /// Count an op finishing now; true when it falls in the window.
  bool count(Cycles now) {
    if (now < warm_at || now >= end_at) return false;
    ++ops;
    return true;
  }
};

namespace {

// Requester bodies: the same RNG seeds, draw order and awaits as the
// drivers' requesters in apps/workload.cc, plus recording.

Task<> counting_client(cm::core::Runtime* rt, cm::apps::CountingNetwork* cn,
                       Mechanism mech, ProcId home, std::uint64_t seed,
                       RunControl* ctl, Recorder* rec) {
  Ctx ctx{rt, home};
  cm::sim::Rng rng(seed);
  const cm::sim::Engine& eng = rt->machine().engine();
  while (!ctl->stop) {
    const auto wire = static_cast<unsigned>(rng.below(cn->width()));
    const std::uint64_t op = rec != nullptr ? rec->begin_op(home) : 0;
    const std::int64_t t0 = rec != nullptr ? rec->now_ns() : 0;
    const Cycles c0 = eng.now();
    (void)co_await cn->get_next(ctx, mech, wire);
    co_await rt->return_home(ctx, home, 2);
    const bool counted = ctl->count(eng.now());
    if (rec != nullptr) rec->end_op(SpanKind::kGetNext, op, home, t0, c0, counted);
  }
}

Task<> btree_client(cm::core::Runtime* rt, cm::apps::DistributedBTree* bt,
                    Mechanism mech, ProcId home, double insert_ratio,
                    std::uint64_t key_space, std::uint64_t seed,
                    RunControl* ctl, Recorder* rec) {
  Ctx ctx{rt, home};
  cm::sim::Rng rng(seed);
  const cm::sim::Engine& eng = rt->machine().engine();
  while (!ctl->stop) {
    const std::uint64_t key = rng.below(key_space);
    const bool insert = rng.uniform() < insert_ratio;
    const std::uint64_t op = rec != nullptr ? rec->begin_op(home) : 0;
    const std::int64_t t0 = rec != nullptr ? rec->now_ns() : 0;
    const Cycles c0 = eng.now();
    if (insert) {
      (void)co_await bt->insert(ctx, mech, key, key);
    } else {
      (void)co_await bt->lookup(ctx, mech, key);
    }
    const bool counted = ctl->count(eng.now());
    if (rec != nullptr) {
      rec->end_op(insert ? SpanKind::kInsert : SpanKind::kLookup, op, home, t0,
                  c0, counted);
    }
  }
}

}  // namespace

ProcId Assembly::nprocs_of(const Workload& w) {
  if (w.btree) return cm::apps::BTreeConfig{}.node_procs + w.requesters;
  return static_cast<ProcId>(
      cm::apps::BitonicWiring::build(w.width).balancers.size() +
      w.requesters);
}

Assembly::Assembly(const Workload& w, std::uint64_t seed, Recorder* rec,
                   bool tracer)
    : w_(&w), seed_(seed), rec_(rec), nprocs_(nprocs_of(w)) {
  // Construction order follows apps::run_counting / run_btree.
  eng_ = std::make_unique<cm::sim::Engine>();
  eng_->configure_shards(1, nprocs_);
  if (tracer) {
    tracer_ = std::make_unique<cm::sim::Tracer>(*eng_);
    eng_->set_tracer(tracer_.get());
  }
  machine_ = std::make_unique<cm::sim::Machine>(*eng_, nprocs_);
  mesh_ = std::make_unique<cm::net::MeshNetwork>(*eng_, nprocs_,
                                                 cm::net::MeshConfig{});
  network_ = mesh_.get();
  if (rec_ != nullptr) {
    rec_->attach(*eng_, nprocs_);
    timed_ = std::make_unique<TimedNetwork>(*mesh_, *rec_);
    network_ = timed_.get();
  }
  const cm::core::Scheme& scheme = w.scheme;
  if (scheme.mechanism == Mechanism::kSharedMemory) {
    cm::shmem::ProtocolParams pp;
    pp.hw_sharer_pointers = cm::apps::CountingConfig{}.limitless_pointers;
    mem_ = std::make_unique<cm::shmem::CoherentMemory>(
        *machine_, *network_, cm::shmem::CacheParams{}, pp);
  }
  objects_ = std::make_unique<cm::core::ObjectSpace>();
  rt_ = std::make_unique<cm::core::Runtime>(*machine_, *network_, *objects_,
                                            scheme.cost_model());
  if (w.btree) {
    const cm::apps::BTreeConfig cfg = btree_config(w, seed, {});
    cm::apps::DistributedBTree::Params bp;
    bp.max_entries = cfg.max_entries;
    bp.node_procs = cfg.node_procs;
    bp.seed = cfg.seed;
    bp.replication = scheme.replication;
    bt_ = std::make_unique<cm::apps::DistributedBTree>(*rt_, mem_.get(), bp);
    std::vector<std::uint64_t> keys(cfg.nkeys);
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 2 * i;
    bt_->bulk_load(keys);
  } else {
    cm::apps::CountingNetwork::Params np;
    np.width = w.width;
    np.first_balancer_proc = 0;
    cn_ = std::make_unique<cm::apps::CountingNetwork>(*rt_, mem_.get(), np);
  }
}

Assembly::~Assembly() = default;

void Assembly::start(cm::apps::Window win) {
  ctl_ = std::make_unique<RunControl>();
  RunControl& ctl = *ctl_;
  ctl.warm_at = win.warmup;
  ctl.end_at = win.warmup + win.measure;
  const Mechanism mech = w_->scheme.mechanism;
  if (w_->btree) {
    const cm::apps::BTreeConfig cfg = btree_config(*w_, seed_, win);
    const std::uint64_t key_space = 2 * static_cast<std::uint64_t>(cfg.nkeys);
    for (unsigned i = 0; i < cfg.requesters; ++i) {
      const auto home = static_cast<ProcId>(cfg.node_procs + i);
      cm::sim::detach(btree_client(rt_.get(), bt_.get(), mech, home,
                                   cfg.insert_ratio, key_space,
                                   cfg.seed * 1000003 + i, &ctl, rec_));
    }
  } else {
    const unsigned balancers = cn_->num_balancers();
    for (unsigned i = 0; i < w_->requesters; ++i) {
      const auto home = static_cast<ProcId>(balancers + i);
      cm::sim::detach(counting_client(rt_.get(), cn_.get(), mech, home,
                                      seed_ * 7919 + i, &ctl, rec_));
    }
  }
  // The drivers' window snapshots, homed at processor 0.
  cm::net::Network* net = network_;
  cm::core::Runtime* rt = rt_.get();
  cm::shmem::CoherentMemory* mem = mem_.get();
  eng_->at_on(0, ctl.warm_at, [net, rt, mem, &ctl] {
    ctl.words_warm = net->stats().words;
    ctl.msgs_warm = net->stats().messages;
    ctl.rt_warm = rt->stats();
    if (mem != nullptr) ctl.mem_warm = mem->stats();
  });
  eng_->at_on(0, ctl.end_at, [net, rt, mem, &ctl] {
    ctl.words_end = net->stats().words;
    ctl.msgs_end = net->stats().messages;
    ctl.rt_end = rt->stats();
    if (mem != nullptr) ctl.mem_end = mem->stats();
    ctl.stop = true;
  });
}

SimResult Assembly::finish() const {
  const RunControl& ctl = *ctl_;
  SimResult r;
  r.ops = ctl.ops;
  r.words = ctl.words_end - ctl.words_warm;
  r.messages = ctl.msgs_end - ctl.msgs_warm;
  r.events_executed = eng_->events_executed() - 2;  // minus the snapshots
  r.completed_at = eng_->last_dispatch_time();
  r.clamped_events = eng_->clamped_events();
  if (w_->btree) {
    r.end_state_ok = bt_->check_invariants() &&
                     bt_->num_keys() >= cm::apps::BTreeConfig{}.nkeys;
  } else {
    r.end_state_ok = cn_->has_step_property();
  }
  r.rt_warm = ctl.rt_warm;
  r.rt_end = ctl.rt_end;
  r.mem_warm = ctl.mem_warm;
  r.mem_end = ctl.mem_end;
  r.net_total = network_->stats();
  return r;
}

SimResult Assembly::run(cm::apps::Window win) {
  constexpr std::size_t kChunkEvents = 4096;
  start(win);
  while (!eng_->idle()) {
    if (rec_ != nullptr) rec_->open(SpanKind::kChunk, 0);
    eng_->run_bounded(kChunkEvents);
    if (rec_ != nullptr) rec_->close();
  }
  return finish();
}

SimResult sim_result_of(const cm::apps::RunStats& s, const Workload& w) {
  SimResult r;
  r.ops = s.ops;
  r.words = s.words;
  r.messages = s.messages;
  r.events_executed = s.events_executed;
  r.completed_at = s.completed_at;
  r.clamped_events = s.clamped_events;
  r.end_state_ok =
      w.btree ? s.invariants_ok && s.btree_keys >= cm::apps::BTreeConfig{}.nkeys
              : s.step_property;
  r.net_total = s.net;
  return r;
}

bool same_simulation(const SimResult& a, const SimResult& b) {
  return a.ops == b.ops && a.words == b.words && a.messages == b.messages &&
         a.events_executed == b.events_executed &&
         a.completed_at == b.completed_at;
}

}  // namespace perfbench
