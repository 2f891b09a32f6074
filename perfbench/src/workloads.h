// The benchmark's four workloads and their public-driver run.
//
// Every workload is a simulated closed loop: each requester waits for its
// reply before issuing the next operation, with think time 0, so the client
// count is the requester count. The benchmark seed is the only input that
// varies between runs of a workload. It picks kInputsPerSeed app-config
// seeds (counting-network wire choice; B-tree node placement and keys),
// which a run's repetitions take in turn: some single inputs settle into a
// slower convoy (counting_rpc1024 ran 13 % fewer events on one of five), so
// one run averages over several.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "apps/workload.h"
#include "core/mechanism.h"
#include "sim/types.h"

namespace perfbench {

struct Workload {
  std::string_view name;  // METRICS.md says why each workload is here
  bool btree = false;       // false: counting network
  cm::core::Scheme scheme;
  unsigned width = 8;       // counting network width
  unsigned requesters = 0;  // closed-loop clients
  // Measurement window in simulated cycles: one repetition of the untraced
  // run, and the traced run with its reference run.
  cm::apps::Window window;
};

inline constexpr unsigned kInputsPerSeed = 4;

/// The app-config seed of input `k` (< kInputsPerSeed) of benchmark `seed`.
[[nodiscard]] constexpr std::uint64_t input_seed(std::uint64_t seed,
                                                 unsigned k) {
  return seed * kInputsPerSeed + k;
}

[[nodiscard]] const std::vector<Workload>& all_workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// The workload's app config at `seed`; everything else stays at the
/// program's defaults (calendar queue, one shard, no optional layer).
[[nodiscard]] cm::apps::CountingConfig counting_config(
    const Workload& w, std::uint64_t seed, cm::apps::Window win);
[[nodiscard]] cm::apps::BTreeConfig btree_config(const Workload& w,
                                                 std::uint64_t seed,
                                                 cm::apps::Window win);

/// One run through the public driver (apps::run_counting / run_btree).
[[nodiscard]] cm::apps::RunStats run_public(const Workload& w,
                                            std::uint64_t seed,
                                            cm::apps::Window win);

}  // namespace perfbench
