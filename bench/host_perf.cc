// Host-performance harness: how fast does the simulator itself run?
//
// Every experiment in this reproduction bottoms out in sim::Engine's event
// loop, so its host-side throughput — simulated events per wall second —
// is the quantity that decides how far the system scales (1000+ simulated
// processors, parameter sweeps, chaos soaks). This harness runs fixed-seed
// fig2 (counting network, 64 requesters) and table1_2 (B-tree) workload
// configurations on both queue backends, times them, and writes
// BENCH_host_perf.json in the unified metrics schema:
//
//   label                         = "<config>/<backend>"
//   host.wall_seconds             = best-of-R wall time for the run
//   host.events_per_sec           = events_executed / wall_seconds
//   host.sim_cycles_per_sec       = completed_at / wall_seconds
//   sim.events_executed, sim.completed_at, host.repetitions
//
// The calendar records are the tracked trajectory (tools/bench_report
// gates CI on them); the heap records keep the legacy baseline measured in
// the same binary so the calendar-vs-heap speedup is a single-file diff.
// Simulation results are asserted identical across backends before any
// number is reported: a backend that got faster by computing something
// else would fail here, not in CI triage.
//
// The sharded section (fig2_256/*) measures the conservative-parallel
// engine (DESIGN.md §12) on a 256-requester fig2 workload: events/sec at
// each shard count plus the kThreads/kSequential parallel speedup at the
// top count. Only the shards1 record carries the gated "/calendar" suffix;
// multi-shard rows are reported but never gated (their wall time depends
// on host core count, which CI does not control).
//
// Usage: host_perf [--shards N] [out.json]   (default: 4, BENCH_host_perf.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/workload.h"
#include "bench_util.h"
#include "core/metrics.h"
#include "sim/event_queue.h"
#include "sim/sharded_engine.h"

using cm::apps::BTreeConfig;
using cm::apps::CountingConfig;
using cm::apps::RunStats;
using cm::apps::Window;
using cm::core::Mechanism;
using cm::core::MetricsRegistry;
using cm::core::Scheme;
using cm::sim::QueueBackend;
using cm::sim::ShardBackend;

namespace {

constexpr int kReps = 5;  // best-of, to shed scheduler noise

struct Timed {
  RunStats stats;
  double wall_seconds = 0.0;
};

template <class RunFn>
Timed best_of(RunFn&& run) {
  Timed best;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    RunStats s = run();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (i == 0 || secs < best.wall_seconds) {
      best.stats = std::move(s);
      best.wall_seconds = secs;
    }
  }
  return best;
}

const char* backend_name(QueueBackend b) {
  return b == QueueBackend::kCalendar ? "calendar" : "heap";
}

void report_label(MetricsRegistry& reg, const std::string& config,
                  const char* variant, const Timed& t) {
  cm::core::Metrics& m = reg.record(config + "/" + variant);
  const double events = static_cast<double>(t.stats.events_executed);
  const double cycles = static_cast<double>(t.stats.completed_at);
  m.put("host.wall_seconds", t.wall_seconds);
  m.put("host.events_per_sec", events / t.wall_seconds);
  m.put("host.sim_cycles_per_sec", cycles / t.wall_seconds);
  m.put("host.repetitions", kReps);
  m.put("sim.events_executed", t.stats.events_executed);
  m.put("sim.completed_at", t.stats.completed_at);
  m.put("sim.cross_shard_msgs", t.stats.cross_shard_msgs);
  m.put("sim.window_count", t.stats.window_count);
  std::printf("%-18s %-9s %10.3fs  %12.0f events/s  %12.0f cycles/s\n",
              config.c_str(), variant, t.wall_seconds,
              events / t.wall_seconds, cycles / t.wall_seconds);
}

void report(MetricsRegistry& reg, const std::string& config, QueueBackend b,
            const Timed& t) {
  report_label(reg, config, backend_name(b), t);
}

// A backend switch must never change simulation results — only how fast
// the host produces them. Abort loudly if the two runs diverge.
void check_identical(const char* config, const RunStats& a,
                     const RunStats& b) {
  if (a.events_executed != b.events_executed ||
      a.completed_at != b.completed_at || a.ops != b.ops ||
      a.words != b.words) {
    std::fprintf(stderr,
                 "FATAL: %s simulation diverged across queue backends\n"
                 "  events %llu vs %llu  completed_at %llu vs %llu\n"
                 "  ops %ld vs %ld  words %llu vs %llu\n",
                 config, static_cast<unsigned long long>(a.events_executed),
                 static_cast<unsigned long long>(b.events_executed),
                 static_cast<unsigned long long>(a.completed_at),
                 static_cast<unsigned long long>(b.completed_at), a.ops, b.ops,
                 static_cast<unsigned long long>(a.words),
                 static_cast<unsigned long long>(b.words));
    std::exit(2);
  }
}

CountingConfig fig2_64() {
  CountingConfig cfg;
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  cfg.requesters = 64;  // the paper's largest fig2 point: deepest queues
  cfg.think = 0;
  // Same shape as the paper's fig2 run but a 10x measurement window: the
  // harness times host work, and a ~100ms run is what it takes for wall
  // clocks to resolve a 10% difference reliably.
  cfg.window = Window{30'000, 2'000'000};
  return cfg;
}

BTreeConfig table1_2() {
  BTreeConfig cfg;
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  cfg.requesters = 16;
  cfg.window = Window{20'000, 1'500'000};  // 10x window; see fig2_64
  return cfg;
}

// Sharded scaling workload: 4x the requesters of fig2_64 (more independent
// work per window) on the uniform-latency network — mesh link contention
// is a global per-link FIFO timeline and is auto-disabled at N>1, so the
// N=1 reference must drop it too for results to be comparable.
CountingConfig fig2_256() {
  CountingConfig cfg;
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  cfg.mesh = false;
  cfg.requesters = 256;
  cfg.think = 0;
  cfg.window = Window{30'000, 500'000};
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  cm::bench::maybe_usage(
      argc, argv, "[--shards N] [out.json]",
      "Times fig2 and table1_2 runs on both queue backends and the sharded "
      "engine; writes BENCH_host_perf.json (or out.json).");
  unsigned max_shards = 4;
  std::string out = "BENCH_host_perf.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      max_shards = static_cast<unsigned>(std::atoi(argv[++i]));
      if (max_shards == 0) max_shards = 1;
    } else {
      out = arg;
    }
  }
  MetricsRegistry reg;
  std::printf("%-18s %-9s %11s  %21s  %21s\n", "config", "backend", "wall",
              "event rate", "cycle rate");

  {
    Timed cal;
    Timed heap;
    {
      CountingConfig cfg = fig2_64();
      cfg.queue_backend = QueueBackend::kCalendar;
      cal = best_of([&] { return run_counting(cfg); });
      cfg.queue_backend = QueueBackend::kHeap;
      heap = best_of([&] { return run_counting(cfg); });
    }
    check_identical("fig2_64", cal.stats, heap.stats);
    report(reg, "fig2_64", QueueBackend::kCalendar, cal);
    report(reg, "fig2_64", QueueBackend::kHeap, heap);
    std::printf("%-18s speedup calendar/heap: %.2fx\n", "fig2_64",
                heap.wall_seconds / cal.wall_seconds);
  }

  {
    Timed cal;
    Timed heap;
    {
      BTreeConfig cfg = table1_2();
      cfg.queue_backend = QueueBackend::kCalendar;
      cal = best_of([&] { return run_btree(cfg); });
      cfg.queue_backend = QueueBackend::kHeap;
      heap = best_of([&] { return run_btree(cfg); });
    }
    check_identical("table1_2", cal.stats, heap.stats);
    report(reg, "table1_2", QueueBackend::kCalendar, cal);
    report(reg, "table1_2", QueueBackend::kHeap, heap);
    std::printf("%-18s speedup calendar/heap: %.2fx\n", "table1_2",
                heap.wall_seconds / cal.wall_seconds);
  }

  {
    // Sharded engine scaling sweep: kSequential at 1, 2, ..., max_shards
    // (powers of two), kThreads at the top count. Every run must produce
    // bit-identical simulation results — that is the engine's determinism
    // contract, and a shard count that "won" by simulating something else
    // would be caught here, not in CI triage.
    Timed ref;
    Timed top_seq;
    unsigned top = 1;
    for (unsigned s = 1; s <= max_shards; s *= 2) {
      CountingConfig cfg = fig2_256();
      cfg.nshards = s;
      cfg.shard_backend = ShardBackend::kSequential;
      Timed seq = best_of([&] { return run_counting(cfg); });
      char variant[32];
      if (s == 1) {
        // The gated trajectory row: classic single-shard hot path.
        std::snprintf(variant, sizeof variant, "calendar");
        ref = seq;
      } else {
        std::snprintf(variant, sizeof variant, "seq%u", s);
        check_identical("fig2_256", ref.stats, seq.stats);
      }
      report_label(reg, s == 1 ? "fig2_256/shards1" : "fig2_256", variant,
                   seq);
      top = s;
      top_seq = seq;
    }
    if (top > 1) {
      CountingConfig cfg = fig2_256();
      cfg.nshards = top;
      cfg.shard_backend = ShardBackend::kThreads;
      Timed thr = best_of([&] { return run_counting(cfg); });
      check_identical("fig2_256", ref.stats, thr.stats);
      char variant[32];
      std::snprintf(variant, sizeof variant, "threads%u", top);
      report_label(reg, "fig2_256", variant, thr);
      std::printf("%-18s parallel speedup threads%u/seq%u: %.2fx  "
                  "(vs shards1: %.2fx)\n",
                  "fig2_256", top, top, top_seq.wall_seconds / thr.wall_seconds,
                  ref.wall_seconds / thr.wall_seconds);
    }
  }

  if (!reg.write_json(out)) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
