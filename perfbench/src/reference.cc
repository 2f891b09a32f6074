#include "reference.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {
namespace {

// Keeps the table reads live.
volatile std::uint64_t g_sink = 0;

}  // namespace

double reference_kernel_seconds() {
  struct Event {
    std::uint64_t t;
    std::uint32_t slot;
    bool operator>(const Event& o) const { return t > o.t; }
  };
  constexpr std::size_t kTableWords = std::size_t{1} << 19;  // 4 MiB
  constexpr std::size_t kSlots = 4096;  // 64-byte records
  constexpr int kEvents = 250'000;
  // Allocated on the first call, so later calls allocate nothing and the
  // program's heap state cannot change the kernel's speed. Table contents
  // never steer the work, so every call does identical work.
  static std::vector<std::uint64_t> table(kTableWords);
  static std::vector<std::array<std::uint64_t, 8>> records(kSlots);
  static std::vector<Event> pending;
  pending.clear();
  pending.reserve(1025);
  const std::greater<> later;
  auto push = [&](Event e) {
    pending.push_back(e);
    std::push_heap(pending.begin(), pending.end(), later);
  };
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < 1024; ++i) push({next() % 512, i});
  // Untimed warm pass over everything the timed loop touches, so the cache
  // state the work before this call left behind cannot change the timing.
  std::uint64_t sum = 0;
  for (const std::uint64_t v : table) sum += v;
  for (const auto& rec : records) sum += rec[0];
  const auto t0 = std::chrono::steady_clock::now();
  for (int n = 0; n < kEvents; ++n) {
    std::pop_heap(pending.begin(), pending.end(), later);
    const Event e = pending.back();
    pending.pop_back();
    const std::uint64_t r = next();
    std::array<std::uint64_t, 8>& rec = records[(e.slot + n) & (kSlots - 1)];
    rec[r & 7] = e.t;
    table[(r >> 8) & (kTableWords - 1)] += rec[r & 7];
    sum += table[(r >> 28) & (kTableWords - 1)];
    push({e.t + 1 + (r >> 48) % 512, static_cast<std::uint32_t>(r % kSlots)});
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  g_sink = sum;
  return s;
}

}  // namespace perfbench
