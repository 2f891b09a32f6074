// Repository benchmark driver. One run measures one workload at one seed:
//
//   perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--trace-dir DIR]
//
// --trace 0 (untraced): for S seconds, time the workload's set-up (built
// from the public constructors, traced.h, no spans) and whole runs through
// the public driver (apps::run_counting / run_btree), with the fixed
// reference kernel (reference.h) timed between runs to normalise host time;
// report the end-to-end metrics from the quieter half of the rounds.
// --trace 1 (traced): one reference run through the public driver, one
// outside-in traced run of the same workload (traced.h), the isolated layer
// drivers and the optional-layer ratios (layers.h); report the per-layer
// metrics and, with --trace-dir, write the spans to
// DIR/<workload>-seed<N>.json.
//
// Every check counts as one attempt; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit status is 0
// only when every check passed.
#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "bench/bench_util.h"
#include "layers.h"
#include "reference.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void die_usage(const char* prog, const std::string& msg) {
  std::fprintf(stderr, "%s: %s (see --help)\n", prog, msg.c_str());
  std::exit(2);
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
};

/// Whole-string unsigned decimal in [lo, hi], or die.
std::uint64_t parse_uint(const char* prog, const char* flag, const char* s,
                         std::uint64_t lo, std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s < '0' || *s > '9' || *end != '\0' || errno != 0 || v < lo ||
      v > hi) {
    die_usage(prog, std::string(flag) + " wants an integer in [" +
                        std::to_string(lo) + ", " + std::to_string(hi) +
                        "], got '" + s + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  std::string names;
  for (const Workload& w : all_workloads()) {
    names += names.empty() ? "" : "|";
    names += w.name;
  }
  const std::string usage_args =
      "--workload " + names +
      " --seed N [--seconds S] [--trace 0|1] [--trace-dir DIR]";
  cm::bench::maybe_usage(
      argc, argv, usage_args.c_str(),
      "Runs one benchmark workload at one seed and prints its metrics; the "
      "last line is a JSON result.");
  const char* prog = argv[0];
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool known = flag == "--workload" || flag == "--seed" ||
                       flag == "--seconds" || flag == "--trace" ||
                       flag == "--trace-dir";
    if (!known) die_usage(prog, "unknown argument '" + flag + "'");
    if (i + 1 >= argc) die_usage(prog, flag + " needs a value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = find_workload(v);
      if (a.workload == nullptr) {
        die_usage(prog, "unknown workload '" + std::string(v) +
                            "' (one of " + names + ")");
      }
    } else if (flag == "--seed") {
      a.seed = parse_uint(prog, "--seed", v, 0, ~std::uint64_t{0});
      a.seed_given = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_uint(prog, "--seconds", v, 1, 600));
    } else if (flag == "--trace") {
      a.trace = parse_uint(prog, "--trace", v, 0, 1) == 1;
    } else {
      a.trace_dir = v;
    }
  }
  if (a.workload == nullptr) die_usage(prog, "--workload is required");
  if (!a.seed_given) die_usage(prog, "--seed is required");
  return a;
}

struct Checks {
  long attempted = 0;
  long failed = 0;
  void expect(bool ok, const char* what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::printf("CHECK FAILED: %s\n", what);
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Quartiles {
  double q1, median, q3;
};

/// Quartiles by linear interpolation between order statistics.
Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  auto at = [&v](double p) {
    const double x = p * static_cast<double>(v.size() - 1);
    const auto i = static_cast<std::size_t>(x);
    const double f = x - static_cast<double>(i);
    return i + 1 < v.size() ? v[i] + f * (v[i + 1] - v[i]) : v[i];
  };
  return {at(0.25), at(0.5), at(0.75)};
}

/// Nearest-rank percentile of simulated latencies.
double percentile(std::vector<std::uint64_t> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))));
  return static_cast<double>(v[rank - 1]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// This process's resident-set high-water mark (VmHWM). Unlike getrusage's
/// ru_maxrss, it starts afresh at exec, so the parent's size never leaks in.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

void print_timing(const char* name, const std::vector<double>& v,
                  const char* unit) {
  const Quartiles q = quartiles(v);
  std::printf("%-34s %14.6g %-9s (median; q1 %.6g, q3 %.6g; n=%zu)\n", name,
              q.median, unit, q.q1, q.q3, v.size());
}

void print_value(const Metric& m) {
  std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
}

void print_result(const Checks& c, const std::vector<Metric>& metrics) {
  std::printf("%-34s %14.6g %s (%ld failed of %ld checks)\n", "error_rate",
              ratio(static_cast<double>(c.failed),
                    static_cast<double>(c.attempted)),
              "ratio", c.failed, c.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              c.failed == 0 ? "true" : "false", c.attempted, c.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Check the end state and causality of one simulated run.
void check_run(Checks& c, const SimResult& r) {
  c.expect(r.clamped_events == 0, "clamped_events == 0");
  c.expect(r.end_state_ok,
           "app end state (step property / B-tree invariants and keys)");
}

// ---- untraced: end-to-end metrics ----------------------------------------

int run_untraced(const Args& a) {
  const Workload& w = *a.workload;
  const auto start = Clock::now();
  Checks checks;
  checks.expect(alloc_counter_self_check(),
                "allocation counter counts a known allocation");

  // Untimed warm-up through the public driver on the first input: it warms
  // the caches and the heap, and round 0 must simulate exactly what it did.
  const SimResult warm =
      sim_result_of(run_public(w, input_seed(a.seed, 0), w.window), w);
  check_run(checks, warm);
  // Read before the reference kernel's table first becomes resident.
  const double peak_mb = peak_rss_mb();

  // Timed rounds until the time is spent; round r simulates input
  // r % kInputsPerSeed. Each round times a batch of set-ups (one build can
  // take microseconds), then one whole public-driver call (its own set-up
  // included, under 1 % of the call). The reference kernel (reference.h) is
  // timed between rounds; a round's call is normalised by the geometric
  // mean of the kernel timings before and after it, its set-ups by the one
  // before.
  constexpr double kSetupBatch = 0.004;
  std::vector<double> rates;      // normalised
  std::vector<double> raw_rates;  // as measured
  std::vector<double> setup;      // normalised
  std::vector<double> load;       // the round's kernel seconds
  std::vector<double> kernel;     // every kernel timing
  std::vector<SimResult> first(kInputsPerSeed);
  std::vector<std::uint64_t> first_allocs(kInputsPerSeed);
  double ref_prev = reference_kernel_seconds();
  kernel.push_back(ref_prev);
  for (unsigned round = 0;
       round < kInputsPerSeed || seconds_since(start) < a.seconds; ++round) {
    const unsigned k = round % kInputsPerSeed;
    const std::uint64_t seed = input_seed(a.seed, k);

    double built_s = 0.0;
    int builds = 0;
    while (builds == 0 || built_s < kSetupBatch) {
      const auto t0 = Clock::now();
      Assembly built(w, seed, nullptr, false);
      built_s += seconds_since(t0);
      ++builds;
    }

    const std::uint64_t a0 = allocs();
    const auto t0 = Clock::now();
    const cm::apps::RunStats stats = run_public(w, seed, w.window);
    const double run_s = seconds_since(t0);
    const std::uint64_t n_allocs = allocs() - a0;
    const double ref_next = reference_kernel_seconds();
    kernel.push_back(ref_next);
    const double ref_s = std::sqrt(ref_prev * ref_next);

    const SimResult r = sim_result_of(stats, w);
    check_run(checks, r);
    if (round < kInputsPerSeed) {
      first[k] = r;
      first_allocs[k] = n_allocs;
      if (k == 0) {
        checks.expect(same_simulation(warm, r),
                      "repetitions simulate identical results");
      }
    } else {
      checks.expect(same_simulation(first[k], r),
                    "repetitions simulate identical results");
      checks.expect(n_allocs == first_allocs[k],
                    "repetitions make identical allocation counts");
    }
    const double cycles = static_cast<double>(r.completed_at);
    raw_rates.push_back(cycles / run_s);
    rates.push_back(cycles / (run_s * kReferenceQuietSeconds / ref_s));
    setup.push_back(built_s / builds * kReferenceQuietSeconds / ref_prev);
    load.push_back(ref_s);
    ref_prev = ref_next;
  }
  // Normalisation over-corrects when the host is very busy (the kernel then
  // slows more than the simulator), so the timings come from the quieter
  // half of the rounds: those whose kernel time is at most the median.
  const double load_cut = quartiles(load).median;
  std::vector<double> quiet_rates;
  std::vector<double> quiet_setup;
  for (std::size_t i = 0; i < load.size(); ++i) {
    if (load[i] > load_cut) continue;
    quiet_rates.push_back(rates[i]);
    quiet_setup.push_back(setup[i]);
  }

  double total_allocs = 0.0;
  double total_ops = 0.0;
  for (unsigned k = 0; k < kInputsPerSeed; ++k) {
    std::printf("workload %s input seed %" PRIu64 ": %ld ops in %" PRIu64
                " cycles, %" PRIu64 " events, %" PRIu64 " allocations\n",
                std::string(w.name).c_str(), input_seed(a.seed, k),
                first[k].ops, first[k].completed_at,
                first[k].events_executed, first_allocs[k]);
    total_allocs += static_cast<double>(first_allocs[k]);
    total_ops += static_cast<double>(first[k].ops);
  }
  print_timing("sim_cycles_per_s", quiet_rates, "cycles/s");
  print_timing("setup_s", quiet_setup, "s");
  print_timing("reference kernel", kernel, "s");
  std::printf("%-34s %14.6g %s (as measured %.6g; n=%zu)\n",
              "sim_cycles_per_s (all rounds)", quartiles(rates).median,
              "cycles/s", quartiles(raw_rates).median, rates.size());
  const std::vector<Metric> metrics = {
      {"sim_cycles_per_s", quartiles(quiet_rates).median, "cycles/s"},
      {"setup_s", quartiles(quiet_setup).median, "s"},
      {"peak_rss_mb", peak_mb, "MB"},
      {"allocs_per_op", ratio(total_allocs, total_ops), "count"},
  };
  for (std::size_t i = 2; i < metrics.size(); ++i) print_value(metrics[i]);
  print_result(checks, metrics);
  return checks.failed == 0 ? 0 : 1;
}

// ---- traced: per-layer metrics --------------------------------------------

/// A per-layer host cost measured by repeated trials; reported as the median.
struct Series {
  const char* name;
  std::function<double(int round)> trial;
  std::vector<double> samples;
};

int run_traced(const Args& a) {
  const Workload& w = *a.workload;
  const auto start = Clock::now();
  Checks checks;
  checks.expect(alloc_counter_self_check(),
                "allocation counter counts a known allocation");

  // Reference: the public driver, untraced, on the seed's first input.
  const std::uint64_t seed = input_seed(a.seed, 0);
  const std::uint64_t a0 = allocs();
  auto t0 = Clock::now();
  const cm::apps::RunStats ref_stats = run_public(w, seed, w.window);
  const double ref_wall = seconds_since(t0);
  const double ref_allocs = static_cast<double>(allocs() - a0);
  const SimResult ref = sim_result_of(ref_stats, w);
  check_run(checks, ref);

  // The traced run: outside-in assembly with spans.
  Recorder rec(200'000);
  t0 = Clock::now();
  SimResult tr;
  {
    Assembly traced(w, seed, &rec, false);
    tr = traced.run(w.window);
  }
  const double traced_wall = seconds_since(t0);
  check_run(checks, tr);
  checks.expect(same_simulation(ref, tr),
                "traced run simulates what the public driver simulates");
  if (!a.trace_dir.empty()) {
    const std::string path = a.trace_dir + "/" + std::string(w.name) +
                             "-seed" + std::to_string(a.seed) + ".json";
    std::error_code ec;
    std::filesystem::create_directories(a.trace_dir, ec);
    char header[256];
    std::snprintf(header, sizeof header,
                  "\"workload\": \"%s\", \"input_seed\": %" PRIu64
                  ", \"window\": %" PRIu64,
                  std::string(w.name).c_str(), seed,
                  static_cast<std::uint64_t>(w.window.measure));
    if (!rec.write_json(path, header)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

  // Isolated layer drivers and optional-layer ratios, in rounds until the
  // time is spent; alternating rounds flip which side of a pair runs first.
  const unsigned shards =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  bool shards_identical = true;
  auto overhead = [seed](OptionalLayer l) {
    return [seed, l](int round) {
      return optional_overhead(l, seed, round % 2 == 1);
    };
  };
  std::vector<Series> series = {
      {"sim.queue_ns.d64", [](int) { return queue_ns(64); }, {}},
      {"sim.queue_ns.d1024", [](int) { return queue_ns(1024); }, {}},
      {"sim.resume_ns", [](int) { return resume_ns(); }, {}},
      {"sim.tracer_overhead", overhead(OptionalLayer::kTracer), {}},
      {"sim.shards4_speedup",
       [&](int) {
         bool same = true;
         const double x = shard_speedup(shards, seed, &same);
         shards_identical = shards_identical && same;
         return x;
       },
       {}},
      {"core.migrate_ns", [](int) { return migrate_ns(); }, {}},
      {"core.call_ns", [](int) { return call_ns(); }, {}},
      {"shmem.access_ns.write_moving",
       [](int) { return shmem_write_moving_ns(); }, {}},
      {"shmem.access_ns.read_hit", [](int) { return shmem_read_hit_ns(); },
       {}},
      {"check.overhead", overhead(OptionalLayer::kCheck), {}},
      {"loc.overhead", overhead(OptionalLayer::kLocator), {}},
      {"policy.overhead", overhead(OptionalLayer::kPolicy), {}},
      {"ft.overhead", overhead(OptionalLayer::kFt), {}},
  };
  for (int round = 0; round < 3 || seconds_since(start) < a.seconds;
       ++round) {
    for (Series& s : series) s.samples.push_back(s.trial(round));
  }
  checks.expect(shards_identical,
                "1-shard and threaded multi-shard runs simulate the same");
  auto measured = [&series](const char* name) {
    for (const Series& s : series) {
      if (std::strcmp(s.name, name) == 0) return quartiles(s.samples).median;
    }
    return 0.0;
  };

  const double ops = static_cast<double>(tr.ops);
  const double events = static_cast<double>(ref.events_executed);
  const double measure = static_cast<double>(w.window.measure);
  auto per_op = [ops](std::uint64_t end, std::uint64_t warm) {
    return ratio(static_cast<double>(end - warm), ops);
  };
  const cm::core::RtStats& rw = tr.rt_warm;
  const cm::core::RtStats& re = tr.rt_end;
  const double bd_total = static_cast<double>(re.breakdown.total() -
                                              rw.breakdown.total());
  const double bd_overhead = static_cast<double>(re.breakdown.overhead() -
                                                 rw.breakdown.overhead());
  const double hits =
      static_cast<double>(tr.mem_end.hits() - tr.mem_warm.hits());
  const double misses =
      static_cast<double>(tr.mem_end.misses() - tr.mem_warm.misses());
  const Recorder::Totals& send = rec.totals(SpanKind::kSend);
  const Recorder::Totals& deliver = rec.totals(SpanKind::kDeliver);
  std::vector<std::uint64_t> lat;
  for (SpanKind k : {SpanKind::kGetNext, SpanKind::kLookup,
                     SpanKind::kInsert}) {
    const auto& v = rec.latencies(k);
    lat.insert(lat.end(), v.begin(), v.end());
    if (!v.empty()) {
      std::printf("%-34s p50 %.0f  p99 %.0f cycles (n=%zu)\n", span_name(k),
                  percentile(v, 50), percentile(v, 99), v.size());
    }
  }
  std::printf("sends attributed to an op: %.3f of %" PRIu64 "\n",
              ratio(static_cast<double>(rec.attributed_sends()),
                    static_cast<double>(send.count)),
              send.count);
  std::printf("layer drivers: %zu rounds; sim.shards4_speedup uses %u "
              "shards\n",
              series.front().samples.size(), shards);

  const std::vector<Metric> metrics = {
      {"sim.events_per_kcycle",
       ratio(events * 1000.0, static_cast<double>(ref.completed_at)),
       "count"},
      {"sim.host_ns_per_event", ratio(ref_wall * 1e9, events), "ns"},
      {"sim.allocs_per_event", ratio(ref_allocs, events), "count"},
      {"sim.queue_ns.d64", measured("sim.queue_ns.d64"), "ns"},
      {"sim.queue_ns.d1024", measured("sim.queue_ns.d1024"), "ns"},
      {"sim.resume_ns", measured("sim.resume_ns"), "ns"},
      {"sim.tracer_overhead", measured("sim.tracer_overhead"), "ratio"},
      {"sim.shards4_speedup", measured("sim.shards4_speedup"), "ratio"},
      {"net.msgs_per_op", ratio(static_cast<double>(tr.messages), ops),
       "count"},
      {"net.words_per_op", ratio(static_cast<double>(tr.words), ops),
       "count"},
      {"net.coherence_msg_share",
       ratio(static_cast<double>(tr.net_total.coherence_messages),
             static_cast<double>(tr.net_total.messages)),
       "ratio"},
      {"net.send_ns",
       ratio(static_cast<double>(send.self_ns),
             static_cast<double>(send.count)),
       "ns"},
      {"net.deliver_ns",
       ratio(static_cast<double>(deliver.self_ns),
             static_cast<double>(deliver.count)),
       "ns"},
      {"net.allocs_per_send",
       ratio(static_cast<double>(send.allocs),
             static_cast<double>(send.count)),
       "count"},
      {"core.migrations_per_op", per_op(re.migrations, rw.migrations),
       "count"},
      {"core.remote_calls_per_op", per_op(re.remote_calls, rw.remote_calls),
       "count"},
      {"core.threads_created_per_op",
       per_op(re.threads_created, rw.threads_created), "count"},
      {"core.replica_hits_per_op", per_op(re.replica_hits, rw.replica_hits),
       "count"},
      {"core.replica_invalidations_per_op",
       per_op(re.replica_invalidations, rw.replica_invalidations), "count"},
      {"core.migrate_ns", measured("core.migrate_ns"), "ns"},
      {"core.call_ns", measured("core.call_ns"), "ns"},
      {"core.cycles_per_migration",
       ratio(bd_total, static_cast<double>(re.migrations - rw.migrations)),
       "cycles"},
      {"core.overhead_share", ratio(bd_overhead, bd_total), "ratio"},
      {"shmem.hit_rate", ratio(hits, hits + misses), "ratio"},
      {"shmem.access_ns.write_moving",
       measured("shmem.access_ns.write_moving"), "ns"},
      {"shmem.access_ns.read_hit", measured("shmem.access_ns.read_hit"),
       "ns"},
      {"apps.ops_per_kcycle", ratio(ops * 1000.0, measure), "count"},
      {"apps.words_per_10cycles",
       ratio(static_cast<double>(tr.words) * 10.0, measure), "count"},
      {"apps.op_latency_cycles.p50", percentile(lat, 50), "cycles"},
      {"apps.op_latency_cycles.p99", percentile(lat, 99), "cycles"},
      {"check.overhead", measured("check.overhead"), "ratio"},
      {"loc.overhead", measured("loc.overhead"), "ratio"},
      {"policy.overhead", measured("policy.overhead"), "ratio"},
      {"ft.overhead", measured("ft.overhead"), "ratio"},
      {"bench.trace_overhead", ratio(traced_wall, ref_wall), "ratio"},
  };
  for (const Metric& m : metrics) print_value(m);
  print_result(checks, metrics);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  return args.trace ? perfbench::run_traced(args)
                    : perfbench::run_untraced(args);
}
