// Fork-join parallel loops for the embarrassingly parallel outer sweeps
// (experiment grids, matrix suites, throughput lanes) and the row tiles of
// the large BLAS-1/2 kernels.
//
//   * Thread count: PSTAB_THREADS environment override (re-read on every
//     call so tests can flip it at runtime); unset/0 means hardware
//     concurrency.  A count of 1 runs inline and never creates a thread.
//   * Deterministic result ordering: work is handed out by index from an
//     atomic counter, and fn(i) owns slot i of the output, so results are
//     identical for any thread count — only wall-clock changes.
//   * Exceptions: the first exception thrown by any fn(i) is captured,
//     remaining work is abandoned, and it is rethrown on the calling thread
//     after the join.
//   * Workers: one process-wide pool of persistent threads (ForkJoinPool
//     below), grown lazily to the largest parallel_threads()-1 any call has
//     asked for; the caller always participates.  One region runs at a
//     time: a call that finds the pool busy — a second engine thread, or a
//     parallel_for nested inside another one's fn — runs its loop inline
//     with the same index-owned results.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace pstab {

/// Worker count parallel_for will use for a sufficiently large loop.
inline int parallel_threads() {
  if (const char* env = std::getenv("PSTAB_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace detail {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// The persistent workers behind parallel_for.
//
// A region is published in one atomic word, open_ = (epoch << 32) | slots:
// the epoch counts regions, the slots are how many more workers may join.
// A worker joins by decrementing the slots with a CAS, and only then reads
// the job fields, so the CAS's acquire pairs with the release that
// published them.  When the caller has drained the index counter it closes
// the region (slots -> 0, so nobody joins late), then waits until as many
// workers have exited as had joined.  Only after that does it release the
// pool to the next region, which may overwrite the job fields: a worker can
// never read the fields of a region it did not join, nor outlive the
// region's stack frame.  Workers that were still asleep when the region
// closed are simply not waited for.
//
// Idle workers spin for kSpin (the serial dot between two CG kernels fits
// inside it), then park on cv_, so an idle process uses no CPU.  The pool
// is never destroyed: its threads are never joined, so nothing can race
// static destruction at exit.
class ForkJoinPool {
 public:
  static ForkJoinPool& instance() {
    static ForkJoinPool* const pool = new ForkJoinPool;
    return *pool;
  }

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  /// Run job(ctx) on the caller and on up to `helpers` workers, returning
  /// once every participant has left it.  job must not throw.  Returns
  /// false without running anything when another region holds the pool.
  bool try_run(std::size_t helpers, void (*job)(void*), void* ctx) {
    if (busy_.exchange(true, std::memory_order_acquire)) return false;
    grow(helpers);
    const std::uint64_t slots = std::min(helpers, threads_.size());
    const std::uint64_t epoch =
        ((open_.load(std::memory_order_relaxed) >> 32) + 1) & kEpochMask;
    job_ = job;
    ctx_ = ctx;
    exits_.store(0, std::memory_order_relaxed);
    {
      // Published under mu_ so a worker between its predicate check and
      // its wait cannot miss the notify.
      const std::lock_guard<std::mutex> lock(mu_);
      open_.store(epoch << 32 | slots, std::memory_order_release);
    }
    cv_.notify_all();
    job(ctx);
    const std::uint64_t unclaimed =
        open_.exchange(epoch << 32, std::memory_order_acq_rel) & kSlotMask;
    const std::uint64_t joined = slots - unclaimed;
    for (unsigned spin = 0;
         exits_.load(std::memory_order_acquire) != joined; ++spin) {
      if (spin < 4096) cpu_relax();
      else std::this_thread::yield();  // a joined worker was descheduled
    }
    busy_.store(false, std::memory_order_release);
    return true;
  }

 private:
  ForkJoinPool() = default;

  static constexpr std::uint64_t kSlotMask = 0xFFFFFFFFu;
  static constexpr std::uint64_t kEpochMask = 0xFFFFFFFFu;
  static constexpr auto kSpin = std::chrono::microseconds(200);

  // Called by the region owner only (busy_ serializes owners).
  void grow(std::size_t want) {
    while (threads_.size() < want) {
      try {
        threads_.emplace_back([this] { worker_loop(); });
      } catch (const std::system_error&) {
        break;  // run with the workers we have
      }
    }
  }

  static bool joinable(std::uint64_t w, std::uint64_t last) noexcept {
    return (w & kSlotMask) != 0 && (w >> 32) != last;
  }

  // A word naming a region this worker has not joined, with a free slot.
  std::uint64_t wait_open(std::uint64_t last) {
    const auto until = std::chrono::steady_clock::now() + kSpin;
    for (unsigned spin = 1;; ++spin) {
      const std::uint64_t w = open_.load(std::memory_order_acquire);
      if (joinable(w, last)) return w;
      cpu_relax();
      if (spin % 64 == 0) {
        if (std::chrono::steady_clock::now() >= until) break;
        std::this_thread::yield();  // let an oversubscribed caller run
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    std::uint64_t w = 0;
    cv_.wait(lock, [&] {
      w = open_.load(std::memory_order_acquire);
      return joinable(w, last);
    });
    return w;
  }

  [[noreturn]] void worker_loop() {
    std::uint64_t last = kEpochMask + 1;  // no region joined yet
    for (;;) {
      std::uint64_t w = wait_open(last);
      while (joinable(w, last)) {
        if (open_.compare_exchange_weak(w, w - 1, std::memory_order_acquire,
                                        std::memory_order_acquire)) {
          last = w >> 32;
          job_(ctx_);
          exits_.fetch_add(1, std::memory_order_release);
          break;
        }
      }
    }
  }

  std::atomic<bool> busy_{false};
  std::vector<std::thread> threads_;    // owner-only; never joined
  void (*job_)(void*) = nullptr;        // written by the owner before
  void* ctx_ = nullptr;                 //   publishing, read after joining
  std::atomic<std::uint64_t> open_{0};  // (epoch << 32) | free slots
  std::atomic<std::uint64_t> exits_{0};
  std::mutex mu_;  // with cv_: parking idle workers (predicate reads open_)
  std::condition_variable cv_;
};

// One parallel_for call's shared state; every participant runs run().
template <class Fn>
struct ForRegion {
  ForRegion(Fn* f, std::size_t count) : fn(f), n(count) {}

  Fn* fn;
  std::size_t n;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // guarded by error_mu
  std::mutex error_mu;

  static void run(void* self) noexcept {
    auto& r = *static_cast<ForRegion*>(self);
    std::size_t i;
    while (!r.failed.load(std::memory_order_relaxed) &&
           (i = r.next.fetch_add(1, std::memory_order_relaxed)) < r.n) {
      try {
        (*r.fn)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(r.error_mu);
        if (!r.error) r.error = std::current_exception();
        r.failed.store(true, std::memory_order_relaxed);
      }
    }
  }
};

}  // namespace detail

/// Invoke fn(i) for every i in [0, n), spread over parallel_threads()
/// threads (the caller participates).  Blocks until all work is done.
template <class Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  const std::size_t want = static_cast<std::size_t>(parallel_threads());
  const std::size_t workers = want < n ? want : n;
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  using Region = detail::ForRegion<std::remove_reference_t<Fn>>;
  Region region(&fn, n);
  if (!detail::ForkJoinPool::instance().try_run(workers - 1, &Region::run,
                                                &region))
    Region::run(&region);  // pool busy: same loop, caller alone
  if (region.error) std::rethrow_exception(region.error);
}

/// Invoke fn(lo, hi) for each fixed tile [lo, hi) of [0, n), tiles spread
/// over parallel_threads() workers.  Tile boundaries depend only on (n, tile)
/// — never on the thread count — so order-sensitive per-tile work (fixed
/// reduction trees, partial sums combined in index order) produces identical
/// results for any PSTAB_THREADS.  Callers whose tiles are fully independent
/// (row-partitioned gemv/spmv, trailing-submatrix updates) get byte-stable
/// output for free.  n == 0 is a no-op; a single tile runs inline.
template <class Fn>
void parallel_tiles(std::size_t n, std::size_t tile, Fn&& fn) {
  if (n == 0) return;
  if (tile == 0) tile = 1;
  const std::size_t ntiles = (n + tile - 1) / tile;
  if (ntiles <= 1 || parallel_threads() <= 1) {
    fn(std::size_t(0), n);
    return;
  }
  parallel_for(ntiles, [&](std::size_t t) {
    const std::size_t lo = t * tile;
    const std::size_t hi = lo + tile < n ? lo + tile : n;
    fn(lo, hi);
  });
}

/// parallel_for that collects fn(i) into a vector, in index order.
template <class T, class Fn>
[[nodiscard]] std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

// ---------------------------------------------------------------------------
// TaskPool: a persistent work-stealing MPMC job queue.
//
// parallel_for above is fork-join — one region at a time on its persistent
// workers, with the atomic-counter determinism contract.  Long-lived
// streaming workloads (the serve engine) instead keep their own pool alive
// and submit independent jobs as they arrive:
//
//   * each worker owns a deque; submit() distributes round-robin onto the
//     deque backs;
//   * a worker pops its OWN deque from the back (LIFO: the freshest, most
//     cache-warm job) and, when empty, STEALS from another worker's front
//     (FIFO: the oldest job, the classic owner/thief split that keeps the
//     two ends from contending);
//   * deque access is guarded by one pool mutex — jobs here are whole linear
//     solves (micro- to milliseconds), so queue-lock granularity is noise,
//     and a single lock keeps the pool trivially TSan-clean;
//   * jobs must not throw (the serve engine converts failures into error
//     responses); an escaped exception is counted and swallowed rather than
//     terminating the process, and unhandled_exceptions() exposes the count
//     so tests can assert it stayed zero.
//
// drain() blocks until every submitted job has finished; the destructor
// drains, then joins.  Determinism note: the pool schedules WHEN work runs,
// never what it computes — callers needing byte-stable output (the serve
// engine does) must make each job's result independent of execution order.
class TaskPool {
 public:
  /// threads <= 0 uses parallel_threads() (PSTAB_THREADS / hardware).
  explicit TaskPool(int threads = 0) {
    int n = threads > 0 ? threads : parallel_threads();
    if (n < 1) n = 1;
    workers_.resize(static_cast<std::size_t>(n));
    threads_.reserve(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i)
      threads_.emplace_back([this, i] { worker_loop(i); });
  }

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  ~TaskPool() {
    drain();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void submit(std::function<void()> fn) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      workers_[next_++ % workers_.size()].deque.push_back(std::move(fn));
      ++pending_;
    }
    cv_work_.notify_one();
  }

  /// Block until every job submitted so far (and any they submitted) is done.
  void drain() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_idle_.wait(lock, [this] { return pending_ == 0; });
  }

  [[nodiscard]] int thread_count() const noexcept {
    return static_cast<int>(workers_.size());
  }
  /// Jobs a worker took from another worker's deque (observability/tests).
  [[nodiscard]] std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }
  /// Jobs submitted but not yet finished (queued + running) — the watermark
  /// the serve engine's backpressure and hang watchdog reason about.
  [[nodiscard]] std::size_t pending() {
    const std::lock_guard<std::mutex> lock(mu_);
    return pending_;
  }
  [[nodiscard]] std::uint64_t unhandled_exceptions() const noexcept {
    return unhandled_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    std::deque<std::function<void()>> deque;  // guarded by mu_
  };

  // Own back first; otherwise steal the oldest job from the busiest sibling.
  bool take_locked(std::size_t self, std::function<void()>& out) {
    auto& own = workers_[self].deque;
    if (!own.empty()) {
      out = std::move(own.back());
      own.pop_back();
      return true;
    }
    std::size_t victim = workers_.size();
    std::size_t best = 0;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (i == self) continue;
      if (workers_[i].deque.size() > best) {
        best = workers_[i].deque.size();
        victim = i;
      }
    }
    if (victim == workers_.size()) return false;
    auto& v = workers_[victim].deque;
    out = std::move(v.front());
    v.pop_front();
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void worker_loop(std::size_t self) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      std::function<void()> job;
      if (take_locked(self, job)) {
        lock.unlock();
        try {
          job();
        } catch (...) {
          unhandled_.fetch_add(1, std::memory_order_relaxed);
        }
        lock.lock();
        if (--pending_ == 0) cv_idle_.notify_all();
        continue;
      }
      if (stop_) return;
      cv_work_.wait(lock);
    }
  }

  std::vector<Worker> workers_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_, cv_idle_;
  std::size_t next_ = 0;      // round-robin submit target (guarded by mu_)
  std::size_t pending_ = 0;   // queued + running (guarded by mu_)
  bool stop_ = false;         // guarded by mu_
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> unhandled_{0};
};

}  // namespace pstab
