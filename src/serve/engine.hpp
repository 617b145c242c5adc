// serve::Engine — the persistent solve engine behind `pstab serve`.
//
// One Engine owns a TaskPool (work-stealing MPMC, common/parallel_for.hpp)
// and a bounded content-addressed Cache.  Requests stream in through
// submit(); completions are delivered by callback on a pool thread.  Three
// front-ends drive it:
//
//   * serve_stream — length-prefixed pstab-serve-v1 frames on FILE* pairs
//     (the --stdio transport; also each accepted TCP connection);
//   * run_script  — a JSONL request file replayed in one call, responses
//     returned sorted by id (the scripted/CI transport);
//   * serve_tcp   — a loopback TCP listener wrapping serve_stream per
//     connection (POSIX only).
//
// Coalescing: requests that share a batch_key (same matrix, scaling,
// format-relevant options — everything but the right-hand side) are merged
// into ONE pool job while that job is still queued, so a burst of multi-RHS
// requests runs as a batch: the first solve factors (and populates the
// cache), the rest reuse the warm factorization on the same thread with no
// cross-thread cache ping-pong.  Response bytes never depend on coalescing,
// the thread count or cache state — each response is what run_request
// produces for that request alone.
//
// Ordering: stream responses are written as solves complete, so ids may
// interleave arbitrarily; correlate by id.  run_script sorts for you.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/parallel_for.hpp"
#include "core/budget.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"

namespace pstab::serve {

struct EngineOptions {
  int threads = 0;                       // 0 = PSTAB_THREADS / hardware
  std::size_t cache_bytes = 256u << 20;  // 0 disables caching
  std::size_t max_frame = kDefaultMaxFrame;

  // --- Admission control (all off by default; every limit produces a
  // deterministic synchronous rejection decided from the request alone).
  std::size_t max_queue = 0;  // in-flight solve requests; 0 = unbounded
  int max_n = 0;              // reject matrices with published n above this
  std::size_t max_matrix_bytes = 0;  // reject matrices estimated above this
  // When set, every request must carry 0 < budget <= max_budget_ticks: an
  // operator who bounds work per request bounds EVERY request.
  int max_budget_ticks = 0;

  // Wall-clock backstop (0 = disabled, the default — and tests that assert
  // byte-determinism must keep it off): a solve running longer than this
  // gets its CancelToken cancelled by the watchdog thread and comes back as
  // a "detected:" error that is never memoized.  The pool thread is NOT
  // killed — it observes the token at the next tick and keeps serving.
  int watchdog_ms = 0;
};

struct EngineStats {
  std::uint64_t requests = 0;   // solve requests submitted
  std::uint64_t solved = 0;     // responses with ok = true
  std::uint64_t errors = 0;     // responses with ok = false
  std::uint64_t memo_hits = 0;  // whole-response memo hits among `solved`
  std::uint64_t batches = 0;    // pool jobs dispatched
  std::uint64_t coalesced = 0;  // requests that joined an existing batch
  std::uint64_t queue_depth = 0;     // in-flight solves at sample time
  std::uint64_t rejected = 0;        // admission-cap / draining rejections
  std::uint64_t overloaded = 0;      // bounded-queue rejections
  std::uint64_t watchdog_trips = 0;  // solves cancelled by the watchdog
  std::uint64_t budget_exceeded = 0; // ok responses carrying a
                                     // deadline_exceeded row
  std::uint64_t steals = 0;     // TaskPool work steals
  int threads = 0;
  Cache::Stats cache;
};

class Engine {
 public:
  using DoneFn = std::function<void(const core::SolveResponse&)>;

  explicit Engine(const EngineOptions& opt = {});
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Queue one solve; `done` runs on a pool thread when it completes.  The
  /// request may join a queued batch sharing its batch_key instead of
  /// becoming a new pool job.  A request denied by
  /// admission control (caps, bounded queue, draining) gets its `done`
  /// called synchronously on THIS thread with a structured error
  /// ("rejected: ..." / "overloaded: ..." / "draining: ...") — backpressure
  /// is immediate, never queued.
  void submit(const core::SolveRequest& req, DoneFn done);

  /// Block until every submitted request has completed.
  void drain();

  /// Enter draining: every later submit() is rejected with a terminal
  /// "draining" error while already-queued work runs to completion.  The
  /// graceful half of shutdown; drain() afterwards waits for the tail.
  void begin_drain();
  [[nodiscard]] bool draining();

  [[nodiscard]] EngineStats stats();
  /// Deterministic JSON object of the counters above (a "stats" op result).
  [[nodiscard]] std::string stats_json();

  [[nodiscard]] Cache& cache() noexcept { return cache_; }
  [[nodiscard]] const EngineOptions& options() const noexcept { return opt_; }

  enum class StreamEnd { eof, shutdown, frame_error, write_error };

  /// Serve pstab-serve-v1 frames from `in`, writing response frames to `out`
  /// as solves complete (an internal mutex serializes writers).  JSON/request
  /// errors get error responses; frame errors end the stream (see
  /// protocol.hpp).  A failed response write (client closed its read side)
  /// marks the connection dead: later responses are dropped, the read loop
  /// stops, and the result is `write_error` — per-connection, never fatal to
  /// the engine.  Drains before returning.
  StreamEnd serve_stream(std::FILE* in, std::FILE* out);

  /// Replay newline-delimited JSON requests (blank lines skipped).  A
  /// "shutdown" op stops the replay; "stats" answers inline after a drain.
  /// Returns one response document per request, sorted by id (ties keep
  /// submission order), so script output is deterministic.
  [[nodiscard]] std::vector<std::string> run_script(const std::string& jsonl);

  /// Loopback TCP listener on `port` (0 picks a free port, published through
  /// `bound_port` when non-null, with release ordering, before the first
  /// accept; another thread may poll it); each connection is served with
  /// serve_stream.  SIGPIPE is ignored so a client vanishing mid-write
  /// surfaces as an EPIPE write error on that connection only; per-connection
  /// failures (fdopen, aborted accepts, dead writers) close that connection
  /// and keep listening.  `once` exits after the first connection; a client
  /// "shutdown" op exits too.  Returns false with `err` set only on listener
  /// failure.  (POSIX only.)
  bool serve_tcp(int port, bool once, std::string& err,
                 std::atomic<int>* bound_port = nullptr);

 private:
  struct Batch {
    std::vector<std::pair<core::SolveRequest, DoneFn>> items;
    bool started = false;
  };

  /// One in-flight solve the watchdog is timing (registered per item, not
  /// per batch, so a batch of N requests gets N independent deadlines).
  struct Active {
    std::shared_ptr<core::CancelToken> token;
    std::chrono::steady_clock::time_point start;
    bool tripped = false;
  };

  void run_batch(const std::shared_ptr<Batch>& batch, const std::string& key);
  void watchdog_loop();
  /// Empty when admitted; otherwise the rejection error (pure function of
  /// the request and the static caps — no engine state, no lock).
  [[nodiscard]] std::string cap_error(const core::SolveRequest& req) const;

  EngineOptions opt_;
  Cache cache_;
  TaskPool pool_;
  std::mutex mu_;  // guards pending_, active_ and the counters below
  std::unordered_map<std::string, std::shared_ptr<Batch>> pending_;
  std::unordered_map<std::uint64_t, Active> active_;
  std::uint64_t next_active_ = 0;
  bool draining_ = false;
  std::uint64_t in_flight_ = 0;  // admitted, not yet completed
  std::uint64_t requests_ = 0, solved_ = 0, errors_ = 0, memo_hits_ = 0;
  std::uint64_t batches_ = 0, coalesced_ = 0;
  std::uint64_t rejected_ = 0, overloaded_ = 0;
  std::uint64_t watchdog_trips_ = 0, budget_exceeded_ = 0;
  // Watchdog thread state (started only when opt_.watchdog_ms > 0).
  std::condition_variable watchdog_cv_;
  bool stopping_ = false;  // guarded by mu_
  std::thread watchdog_;
};

}  // namespace pstab::serve
