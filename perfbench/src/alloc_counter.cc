#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

namespace perfbench {
namespace {

// Relaxed atomics: the sharded-engine layer run uses host threads.
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

void* counted_alloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = ((n != 0 ? n : 1) + a - 1) / a * a;
  return std::aligned_alloc(a, size);
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

void* throwing(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

struct alignas(64) Aligned {
  unsigned char bytes[64];
};

}  // namespace

std::uint64_t allocs() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

std::uint64_t frees() noexcept {
  return g_frees.load(std::memory_order_relaxed);
}

bool alloc_counter_self_check() {
  // A run-time size keeps the compiler from folding the array away.
  volatile std::size_t n = 16;
  bool ok = true;
  auto counted_once = [&ok](auto make) {
    const std::uint64_t a0 = allocs();
    const std::uint64_t f0 = frees();
    make();
    ok = ok && allocs() - a0 == 1 && frees() - f0 == 1;
  };
  counted_once([] {
    auto p = std::make_unique<long>(7);
    static_cast<void>(*static_cast<volatile long*>(p.get()));
  });
  counted_once([&n] { std::unique_ptr<int[]> p(new int[n]()); });
  counted_once([] {
    auto p = std::make_unique<Aligned>();
    static_cast<void>(*static_cast<volatile unsigned char*>(p->bytes));
  });
  return ok;
}

}  // namespace perfbench

using perfbench::counted_aligned_alloc;
using perfbench::counted_alloc;
using perfbench::counted_free;
using perfbench::throwing;

void* operator new(std::size_t n) { return throwing(counted_alloc(n)); }
void* operator new[](std::size_t n) { return throwing(counted_alloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return throwing(counted_aligned_alloc(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return throwing(counted_aligned_alloc(n, a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, a);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_free(p);
}
