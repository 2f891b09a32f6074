// Isolated host costs of single layers, and the on/off overhead of the
// optional layers. Each call is one trial: it times a fixed amount of work
// with std::chrono::steady_clock; the caller repeats trials and takes the
// median.
//
// The simulated shapes reuse bench/micro_substrates.cc: `ping` (RPC round
// trips), `hopper` (an activation migrating object to object and returning
// home) and `toucher` (two processors writing one coherent line in turn),
// sized to the workload each driver stands for.
#pragma once

#include <cstdint>

#include "workloads.h"

namespace perfbench {

/// ns per Engine::at plus its dispatch, with `depth` other events pending
/// (a hold model: each event schedules its successor 1..512 cycles out).
[[nodiscard]] double queue_ns(unsigned depth);

/// ns to create, run to completion and destroy one sim::Task that awaits a
/// child Task (the runtime-stub shape).
[[nodiscard]] double resume_ns();

/// ns per activation move (a `migrate` or the closing `return_home`) of one
/// activation hopping across a counting_cm64 balancer path.
[[nodiscard]] double migrate_ns();

/// ns per Runtime::call round trip with counting_rpc1024's envelope sizes.
[[nodiscard]] double call_ns();

/// ns per CoherentMemory write to a line two processors write in turn.
[[nodiscard]] double shmem_write_moving_ns();

/// ns per CoherentMemory read that hits in the reader's cache.
[[nodiscard]] double shmem_read_hit_ns();

/// Host time per simulated cycle with one optional layer on, divided by the
/// same with it off, on the counting_cm64 configuration.
enum class OptionalLayer { kTracer, kCheck, kLocator, kPolicy, kFt };
/// `on_first` picks which side of the pair runs first; alternate it.
[[nodiscard]] double optional_overhead(OptionalLayer layer,
                                       std::uint64_t seed, bool on_first);

/// Wall time of the counting_rpc1024 configuration on the uniform-latency
/// network at one shard, divided by the same at `shards` shards on the
/// threads backend. `identical` reports whether both simulated the same.
[[nodiscard]] double shard_speedup(unsigned shards, std::uint64_t seed,
                                   bool* identical);

}  // namespace perfbench
