// Global allocation counter for the benchmark binary. alloc_counter.cc
// replaces every form of the global `operator new` / `operator delete`
// (plain, array, sized, aligned, nothrow) with versions that count calls and
// then defer to malloc/free. Counts are process-wide and exact, so a count
// taken around a deterministic simulation repeats from run to run.
#pragma once

#include <cstdint>

namespace perfbench {

/// `operator new` calls (every form) since process start.
[[nodiscard]] std::uint64_t allocs() noexcept;

/// `operator delete` calls (every form, null pointers excluded).
[[nodiscard]] std::uint64_t frees() noexcept;

/// Allocate through a plain, an array and an aligned `new` expression and
/// confirm each one was counted exactly once (and freed once). False means
/// the replacement is not linked in and every allocation metric is void.
[[nodiscard]] bool alloc_counter_self_check();

}  // namespace perfbench
