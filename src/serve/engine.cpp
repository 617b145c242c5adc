#include "serve/engine.hpp"

#include <algorithm>
#include <csignal>
#include <utility>

#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/report_json.hpp"
#include "matrices/suite.hpp"

namespace pstab::serve {

Engine::Engine(const EngineOptions& opt)
    : opt_(opt), cache_(opt.cache_bytes), pool_(opt.threads) {
  if (opt_.watchdog_ms > 0) watchdog_ = std::thread([this] { watchdog_loop(); });
}

Engine::~Engine() {
  drain();
  if (watchdog_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

std::string Engine::cap_error(const core::SolveRequest& req) const {
  if (opt_.max_budget_ticks > 0) {
    if (req.budget_ticks <= 0)
      return "rejected: this engine requires a budget (max " +
             std::to_string(opt_.max_budget_ticks) + " ticks)";
    if (req.budget_ticks > opt_.max_budget_ticks)
      return "rejected: budget " + std::to_string(req.budget_ticks) +
             " exceeds the per-request cap of " +
             std::to_string(opt_.max_budget_ticks) + " ticks";
  }
  if (opt_.max_n > 0 || opt_.max_matrix_bytes > 0) {
    // Caps use the PUBLISHED spec (deterministic: independent of
    // PSTAB_SIZE_CAP and of whether the matrix is already generated).
    // Unknown names fall through to run_request's "unknown matrix" error.
    const auto spec = matrices::find_spec(req.matrix);
    if (spec) {
      if (opt_.max_n > 0 && spec->n > opt_.max_n)
        return "rejected: matrix '" + req.matrix + "' has n=" +
               std::to_string(spec->n) + ", above the cap of " +
               std::to_string(opt_.max_n);
      if (opt_.max_matrix_bytes > 0) {
        const std::size_t est =
            spec->sparse_only
                ? std::size_t(spec->nnz) * 16u
                : std::size_t(spec->n) * std::size_t(spec->n) * 8u;
        if (est > opt_.max_matrix_bytes)
          return "rejected: matrix '" + req.matrix + "' needs ~" +
                 std::to_string(est) + " bytes, above the cap of " +
                 std::to_string(opt_.max_matrix_bytes);
      }
    }
  }
  return {};
}

void Engine::submit(const core::SolveRequest& req, DoneFn done) {
  std::string deny = cap_error(req);
  const std::string key = req.batch_key();
  std::shared_ptr<Batch> batch;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++requests_;
    bool overload = false;
    if (deny.empty() && draining_) deny = "draining: engine is shutting down";
    if (deny.empty() && opt_.max_queue > 0 && in_flight_ >= opt_.max_queue) {
      deny = "overloaded: pending queue full (limit " +
             std::to_string(opt_.max_queue) + ")";
      overload = true;
    }
    if (!deny.empty()) {
      ++errors_;
      if (overload)
        ++overloaded_;
      else
        ++rejected_;
    } else {
      ++in_flight_;
      const auto it = pending_.find(key);
      if (it != pending_.end() && !it->second->started) {
        it->second->items.emplace_back(req, std::move(done));
        ++coalesced_;
        return;  // joined a queued batch; no new pool job
      }
      batch = std::make_shared<Batch>();
      batch->items.emplace_back(req, std::move(done));
      pending_[key] = batch;
      ++batches_;
    }
  }
  if (!deny.empty()) {
    // Backpressure is synchronous: the caller learns on this thread, with
    // bytes that depend only on the request and the configured caps.
    core::SolveResponse resp;
    resp.id = req.id;
    resp.ok = false;
    resp.error = std::move(deny);
    if (done) done(resp);
    return;
  }
  pool_.submit([this, batch, key] { run_batch(batch, key); });
}

void Engine::run_batch(const std::shared_ptr<Batch>& batch,
                       const std::string& key) {
  std::vector<std::pair<core::SolveRequest, DoneFn>> items;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    batch->started = true;  // late arrivals now start their own batch
    items = std::move(batch->items);
    const auto it = pending_.find(key);
    if (it != pending_.end() && it->second == batch) pending_.erase(it);
  }
  // Submission order within the batch: the first solve warms the matrix /
  // factorization entries, the rest reuse them on this same thread.
  for (auto& [req, done] : items) {
    std::shared_ptr<core::CancelToken> token;
    std::uint64_t slot = 0;
    if (opt_.watchdog_ms > 0) {
      token = std::make_shared<core::CancelToken>();
      req.cancel = token.get();
      const std::lock_guard<std::mutex> lock(mu_);
      slot = next_active_++;
      active_.emplace(slot,
                      Active{token, std::chrono::steady_clock::now(), false});
    }
    core::SolveResponse resp;
    try {
      resp = core::run_request(req, &cache_);
    } catch (...) {
      // run_request converts failures itself; this is belt-and-braces so one
      // poisoned item can never starve the rest of the batch of callbacks.
      resp.id = req.id;
      resp.ok = false;
      resp.error = "internal_error: unknown exception";
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (token) active_.erase(slot);
      if (resp.ok) {
        ++solved_;
        if (resp.cache_hit) ++memo_hits_;
        if (resp.result_json.find("\"status\":\"deadline_exceeded\"") !=
            std::string::npos)
          ++budget_exceeded_;
      } else {
        ++errors_;
      }
      --in_flight_;
    }
    if (done) {
      try {
        done(resp);
      } catch (...) {
        // A throwing completion callback must not kill the worker or skip
        // the remaining items' callbacks.
      }
    }
  }
}

void Engine::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto period =
      std::chrono::milliseconds(std::max(1, opt_.watchdog_ms / 2));
  const auto limit = std::chrono::milliseconds(opt_.watchdog_ms);
  while (!stopping_) {
    watchdog_cv_.wait_for(lock, period);
    if (stopping_) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [slot, a] : active_) {
      if (!a.tripped && now - a.start >= limit) {
        // Flag, don't kill: the solver observes the token at its next
        // budget_tick and returns; run_request reports "detected:" and
        // never memoizes the aborted result.
        a.tripped = true;
        a.token->cancel();
        ++watchdog_trips_;
      }
    }
  }
}

void Engine::drain() { pool_.drain(); }

void Engine::begin_drain() {
  const std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

bool Engine::draining() {
  const std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

EngineStats Engine::stats() {
  EngineStats s;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    s.requests = requests_;
    s.solved = solved_;
    s.errors = errors_;
    s.memo_hits = memo_hits_;
    s.batches = batches_;
    s.coalesced = coalesced_;
    s.queue_depth = in_flight_;
    s.rejected = rejected_;
    s.overloaded = overloaded_;
    s.watchdog_trips = watchdog_trips_;
    s.budget_exceeded = budget_exceeded_;
  }
  s.steals = pool_.steals();
  s.threads = pool_.thread_count();
  s.cache = cache_.stats();
  return s;
}

std::string Engine::stats_json() {
  const EngineStats s = stats();
  core::JsonWriter w;
  w.begin_object();
  w.key("requests").value(s.requests);
  w.key("solved").value(s.solved);
  w.key("errors").value(s.errors);
  w.key("memo_hits").value(s.memo_hits);
  w.key("batches").value(s.batches);
  w.key("coalesced").value(s.coalesced);
  w.key("queue_depth").value(s.queue_depth);
  w.key("rejected").value(s.rejected);
  w.key("overloaded").value(s.overloaded);
  w.key("watchdog_trips").value(s.watchdog_trips);
  w.key("budget_exceeded").value(s.budget_exceeded);
  w.key("steals").value(s.steals);
  w.key("threads").value(s.threads);
  w.key("cache").begin_object();
  w.key("hits").value(s.cache.hits);
  w.key("misses").value(s.cache.misses);
  w.key("insertions").value(s.cache.insertions);
  w.key("evictions").value(s.cache.evictions);
  w.key("bytes").value(std::uint64_t(s.cache.bytes));
  w.key("entries").value(std::uint64_t(s.cache.entries));
  w.key("max_bytes").value(std::uint64_t(s.cache.max_bytes));
  w.end_object();
  w.end_object();
  return w.str();
}

Engine::StreamEnd Engine::serve_stream(std::FILE* in, std::FILE* out) {
  // One mutex serializes response writers; `failed` (under the same mutex)
  // latches the first short write.  A dead peer stops costing anything: later
  // responses are dropped instead of written into EPIPE, and the read loop
  // exits — per-connection containment, the engine itself keeps serving.
  struct OutState {
    std::mutex mu;
    bool failed = false;
  };
  auto os = std::make_shared<OutState>();
  const auto send = [out, os](const std::string& payload) {
    const std::lock_guard<std::mutex> lock(os->mu);
    if (os->failed) return;
    if (!write_frame(out, payload)) os->failed = true;
  };
  const auto dead = [&] {
    const std::lock_guard<std::mutex> lock(os->mu);
    return os->failed;
  };

  std::string payload, err;
  for (;;) {
    if (dead()) {
      drain();
      return StreamEnd::write_error;
    }
    const FrameRead fr = read_frame(in, payload, opt_.max_frame, err);
    if (fr == FrameRead::eof) {
      drain();
      return dead() ? StreamEnd::write_error : StreamEnd::eof;
    }
    if (fr == FrameRead::error) {
      // The framing cannot resync after a bad prefix, so nothing more can be
      // written that the peer could attribute to a request.
      drain();
      return StreamEnd::frame_error;
    }
    Request req;
    if (!request_from_json(payload, req, err)) {
      send(error_response_json(req.solve.id, err));
      continue;
    }
    switch (req.op) {
      case Op::solve:
        submit(req.solve, [&send](const core::SolveResponse& resp) {
          send(response_json(resp));
        });
        break;
      case Op::stats:
        drain();  // counters cover everything submitted before this op
        send(result_response_json(req.solve.id, stats_json()));
        break;
      case Op::shutdown:
        // Graceful drain: in-flight work completes and is answered, anything
        // submitted after this point gets the terminal "draining" error.
        begin_drain();
        drain();
        send(result_response_json(req.solve.id, stats_json()));
        return StreamEnd::shutdown;
    }
  }
}

std::vector<std::string> Engine::run_script(const std::string& jsonl) {
  struct Row {
    std::uint64_t id;
    std::size_t seq;
    std::string json;
  };
  auto rows = std::make_shared<std::vector<Row>>();
  auto rows_mu = std::make_shared<std::mutex>();
  const auto add = [&](std::uint64_t id, std::size_t seq, std::string json) {
    const std::lock_guard<std::mutex> lock(*rows_mu);
    rows->push_back(Row{id, seq, std::move(json)});
  };

  std::size_t seq = 0, pos = 0;
  bool shutdown = false;
  while (pos < jsonl.size() && !shutdown) {
    std::size_t end = jsonl.find('\n', pos);
    if (end == std::string::npos) end = jsonl.size();
    const std::string_view line(jsonl.data() + pos, end - pos);
    pos = end + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;

    const std::size_t my_seq = seq++;
    Request req;
    std::string err;
    if (!request_from_json(line, req, err)) {
      add(req.solve.id, my_seq, error_response_json(req.solve.id, err));
      continue;
    }
    switch (req.op) {
      case Op::solve:
        submit(req.solve,
               [&add, my_seq](const core::SolveResponse& resp) {
                 add(resp.id, my_seq, response_json(resp));
               });
        break;
      case Op::stats:
        drain();
        add(req.solve.id, my_seq,
            result_response_json(req.solve.id, stats_json()));
        break;
      case Op::shutdown:
        begin_drain();
        drain();
        add(req.solve.id, my_seq,
            result_response_json(req.solve.id, stats_json()));
        shutdown = true;
        break;
    }
  }
  drain();

  std::stable_sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
    return a.id != b.id ? a.id < b.id : a.seq < b.seq;
  });
  std::vector<std::string> out;
  out.reserve(rows->size());
  for (auto& r : *rows) out.push_back(std::move(r.json));
  return out;
}

bool Engine::serve_tcp(int port, bool once, std::string& err,
                       std::atomic<int>* bound_port) {
  // A client closing its read side must surface as an EPIPE write error on
  // that one connection, not a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    err = "socket() failed";
    return false;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 8) != 0) {
    err = "cannot listen on 127.0.0.1:" + std::to_string(port);
    ::close(listener);
    return false;
  }
  if (bound_port) {
    sockaddr_in got{};
    socklen_t len = sizeof got;
    if (::getsockname(listener, reinterpret_cast<sockaddr*>(&got), &len) == 0)
      bound_port->store(int(ntohs(got.sin_port)), std::memory_order_release);
  }
  bool stop = false;
  while (!stop) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      // A connection that died between SYN and accept (ECONNABORTED) or an
      // interrupted accept is that connection's problem, not the listener's.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      err = "accept() failed";
      ::close(listener);
      return false;
    }
    // Best effort: a socket without it still works, only slower.
    set_tcp_nodelay(conn);
    // Separate FILE streams for the two directions (each buffers its own
    // side; write_frame flushes per response).
    std::FILE* in = ::fdopen(conn, "rb");
    std::FILE* out = in ? ::fdopen(::dup(conn), "wb") : nullptr;
    if (!in || !out) {
      // Per-connection failure: drop this client, keep listening.
      if (in) std::fclose(in);
      else ::close(conn);
      if (out) std::fclose(out);
      continue;
    }
    const StreamEnd end = serve_stream(in, out);
    std::fclose(out);
    std::fclose(in);
    // frame_error and write_error are per-connection outcomes: that client
    // is gone (or hostile), the engine and listener stay up.
    if (once || end == StreamEnd::shutdown) stop = true;
  }
  ::close(listener);
  return true;
}

}  // namespace pstab::serve
