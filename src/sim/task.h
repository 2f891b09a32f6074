// Coroutine plumbing for simulated threads.
//
// A simulated thread (a Prelude lightweight thread in the paper) is a C++20
// coroutine. The coroutine frame holds exactly the live variables across
// suspension points — it *is* the activation record, which is what makes this
// a faithful embedding of activation-frame migration: migrating a frame in
// the simulation re-binds the frame's processor and charges the cost of
// shipping its live words, while the host-side frame object stays put.
//
// `Task<T>` is a lazy awaitable coroutine with symmetric transfer.
// `Detached` is a fire-and-forget root used to launch top-level threads.
// `suspend_to(f)` is the escape hatch: suspends the current coroutine and
// hands its handle to `f`, which arranges resumption via the event engine.
// `FramePool` recycles the host memory behind those frames, so the message
// path allocates nothing per activation once a run reaches steady state.
#pragma once

#include <array>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

// ASAN_(UN)POISON_MEMORY_REGION; no-ops in builds without AddressSanitizer.
#include <sanitizer/asan_interface.h>

namespace cm::sim {

/// Free lists of coroutine-frame blocks, one per 32-byte size class up to
/// 1 KiB. Every `Task` and `Detached` frame is allocated through
/// `allocate`/`deallocate`; larger frames go straight to global `new`.
///
/// Ownership rules:
///  * A pool is current on a host thread only inside a `Scope`. The engine
///    opens one per shard around each run loop, so set-up code, the
///    sharded barrier's serial phase and engine-less tests see no pool and
///    use global `new`/`delete`.
///  * Every block is a whole-class-size global allocation, so any pool — or
///    global `delete` — can free any block. A frame created at set-up may
///    die inside a run, a frame created on shard A may die on shard B's
///    host thread (it joins B's lists), and a frame may outlive its engine.
///  * Each list retains at most `kMaxFree` blocks; the surplus goes back to
///    global `delete`, which bounds what a pool holds beyond the live peak.
///  * While a block sits on a list it is ASan-poisoned, so a use of a
///    destroyed frame still faults under AddressSanitizer.
class FramePool {
 public:
  /// Free blocks retained per size class.
  static constexpr unsigned kMaxFree = 64;

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() {
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (Block* b = head_[c]) {
        ASAN_UNPOISON_MEMORY_REGION(b, block_size(c));
        head_[c] = b->next;
        ::operator delete(b, block_size(c));
      }
    }
  }

  /// Installs a pool as this host thread's current pool for its lifetime
  /// and restores the previous one (normally none) on exit.
  class Scope {
   public:
    explicit Scope(FramePool& pool) noexcept
        : prev_(std::exchange(current_, &pool)) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { current_ = prev_; }

   private:
    FramePool* prev_;
  };

  /// The pool current on this host thread, or null outside every Scope.
  [[nodiscard]] static FramePool* current() noexcept { return current_; }

  static void* allocate(std::size_t n) {
    if (n > kMaxPooled) return ::operator new(n);
    const std::size_t c = class_of(n);
    FramePool* p = current_;
    if (p == nullptr || p->head_[c] == nullptr) {
      return ::operator new(block_size(c));
    }
    Block* b = p->head_[c];
    ASAN_UNPOISON_MEMORY_REGION(b, block_size(c));
    p->head_[c] = b->next;
    --p->count_[c];
    return b;
  }

  static void deallocate(void* b, std::size_t n) noexcept {
    if (n > kMaxPooled) {
      ::operator delete(b, n);
      return;
    }
    const std::size_t c = class_of(n);
    FramePool* p = current_;
    if (p == nullptr || p->count_[c] == kMaxFree) {
      ::operator delete(b, block_size(c));
      return;
    }
    p->head_[c] = new (b) Block{p->head_[c]};
    ++p->count_[c];
    ASAN_POISON_MEMORY_REGION(b, block_size(c));
  }

 private:
  static constexpr std::size_t kGranule = 32;
  static constexpr std::size_t kMaxPooled = 1024;
  static constexpr std::size_t kClasses = kMaxPooled / kGranule;

  static constexpr std::size_t class_of(std::size_t n) noexcept {
    return n == 0 ? 0 : (n - 1) / kGranule;
  }
  static constexpr std::size_t block_size(std::size_t c) noexcept {
    return (c + 1) * kGranule;
  }

  struct Block {
    Block* next;
  };
  std::array<Block*, kClasses> head_{};
  std::array<unsigned, kClasses> count_{};

  // This host thread's current pool. Thread-local so each kThreads worker
  // recycles frames into its own shard's pool and no list is ever shared
  // between host threads; Scope keeps it null outside engine run loops.
  // simlint: allow SS001
  inline static thread_local FramePool* current_ = nullptr;
};

namespace detail {

/// Routes a coroutine's frame through the current FramePool.
struct PooledFrame {
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }
};

template <class T>
struct ValueStore {
  std::optional<T> value;
  void return_value(T v) { value.emplace(std::move(v)); }
  T take() { return std::move(*value); }
};

template <>
struct ValueStore<void> {
  void return_void() noexcept {}
  void take() noexcept {}
};

}  // namespace detail

/// Lazy awaitable coroutine. Created suspended; starts when awaited (or when
/// `start()` is called by a root). On completion, control transfers
/// symmetrically to the awaiter. Exceptions propagate to the awaiter.
///
/// CAUTION: do not await a Task prvalue inside an `if` condition
/// (`if (co_await f())`). GCC 12.2 can miscompile the enclosing coroutine:
/// seen as SIGILL on resume, and in small repros as a misread branch. Bind
/// the result to a named local first: `const bool ok = co_await f();`.
template <class T = void>
class [[nodiscard]] Task {
 public:
  using value_type = T;

  struct promise_type : detail::ValueStore<T>, detail::PooledFrame {
    std::coroutine_handle<> continuation;  // who awaits us (may be null)
    std::exception_ptr exception;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Task() noexcept = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return handle_ && handle_.done(); }

  /// Awaiting a Task starts it and suspends the awaiter until it completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;  // symmetric transfer into the child
      }
      T await_resume() {
        if (h.promise().exception) std::rethrow_exception(h.promise().exception);
        return h.promise().take();
      }
    };
    return Awaiter{handle_};
  }

  /// For roots: begin executing without an awaiter. The task runs until its
  /// first suspension; the caller keeps ownership and must keep the Task
  /// alive until done.
  void start() {
    assert(handle_ && !handle_.done());
    handle_.resume();
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

/// Fire-and-forget root coroutine; self-destroys on completion.
struct Detached {
  struct promise_type : detail::PooledFrame {
    Detached get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { std::terminate(); }  // roots must not throw
  };
};

/// Run a Task<void> to completion as an independent simulated thread.
/// The wrapper coroutine owns the task; both frames free themselves when the
/// task finishes.
inline Detached detach(Task<void> t) { co_await std::move(t); }

/// Suspend the current coroutine and pass its handle to `f`. `f` must arrange
/// for the handle to be resumed exactly once (typically via Engine::at).
///
/// CAUTION: if `f` owns non-trivially-destructible state (shared_ptr and
/// friends), bind the result to a named local and await that:
///     auto aw = suspend_to(...); co_await aw;
/// GCC 12.2 (the baked-in toolchain) runs the destructor of a *prvalue*
/// co_await operand twice, which silently corrupts reference counts.
/// Trivially-destructible captures (pointers, ints, handles) are unaffected.
template <class F>
auto suspend_to(F f) {
  struct Awaiter {
    F fn;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { fn(h); }
    void await_resume() const noexcept {}
  };
  return Awaiter{std::move(f)};
}

}  // namespace cm::sim
