// Service-level robustness: tick budgets (deadline_exceeded determinism and
// partial reports), admission control (caps / bounded queue / draining), the
// hang watchdog, write-failure containment, TCP client-death isolation, and
// the seeded chaos harness.  Companion to serve_test.cpp, which covers the
// protocol and the happy-path engine.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.hpp"
#include "core/solve_api.hpp"
#include "matrices/suite.hpp"
#include "serve/chaos.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace pstab;

// ---------------------------------------------------------------------------
// Tick budgets: deterministic deadline_exceeded with a usable partial report.

TEST(Budget, CgPartialReportStopsAtTheTick) {
  core::SolveRequest req;
  req.matrix = "bcsstk22";
  req.budget_ticks = 3;
  req.record_history = true;
  const auto row =
      core::run_cg_experiment(matrices::suite_matrix(req.matrix), req);
  for (const core::CgCell* c : {&row.f64, &row.f32, &row.p32_2, &row.p32_3}) {
    EXPECT_EQ(c->status, la::SolveStatus::deadline_exceeded);
    // One tick per iteration: the third tick is spent entering iteration 2,
    // the fourth (unavailable) would have entered iteration 3.
    EXPECT_EQ(c->iterations, 3);
    EXPECT_EQ(c->history.size(), 3u);  // the partial history survives
    EXPECT_GT(c->final_relres, 0.0);
  }
}

TEST(Budget, LuIrReportsDeadlineNotDivergence) {
  core::SolveRequest req;
  req.solver = core::Solver::lu_ir;
  req.matrix = "gre_216a";
  req.tol = 1e-300;  // unreachable: only the budget can stop refinement
  req.budget_ticks = 2;
  const auto row =
      core::run_lu_ir_experiment(matrices::suite_matrix(req.matrix), req);
  int deadlines = 0;
  for (const auto& c : row.cells) {
    EXPECT_NE(c.rep.status, la::SolveStatus::converged) << c.format;
    EXPECT_NE(c.rep.status, la::SolveStatus::max_iterations) << c.format;
    if (c.rep.status == la::SolveStatus::deadline_exceeded) {
      ++deadlines;
      EXPECT_LE(c.rep.iterations, 2) << c.format;
    }
  }
  EXPECT_GT(deadlines, 0);
}

TEST(Budget, GmresIrBothLegsHonorTheBudget) {
  core::SolveRequest req;
  req.solver = core::Solver::gmres_ir;
  req.matrix = "gre_216a";
  req.tol = 1e-300;
  req.budget_ticks = 2;
  const auto row =
      core::run_gmres_ir_experiment(matrices::suite_matrix(req.matrix), req);
  int deadlines = 0;
  for (const auto& c : row.cells) {
    EXPECT_NE(c.lu.status, la::SolveStatus::converged) << c.format;
    EXPECT_NE(c.gmres.status, la::SolveStatus::converged) << c.format;
    if (c.lu.status == la::SolveStatus::deadline_exceeded) ++deadlines;
    if (c.gmres.status == la::SolveStatus::deadline_exceeded) ++deadlines;
  }
  EXPECT_GT(deadlines, 0);
}

// The tentpole determinism contract: a budget-exceeded response is a normal
// deterministic response — byte-identical whatever the engine's thread count.
TEST(Budget, ResponsesAreByteIdenticalAcrossThreadCounts) {
  const std::string script =
      R"({"schema":"pstab-serve-v1","op":"solve","id":1,"solver":"cg","matrix":"bcsstk22","budget":3,"history":true}
{"schema":"pstab-serve-v1","op":"solve","id":2,"solver":"chol","matrix":"bcsstk01","budget":2}
)";
  serve::EngineOptions one, eight;
  one.threads = 1;
  eight.threads = 8;
  serve::Engine e1(one), e8(eight);
  const auto r1 = e1.run_script(script);
  const auto r8 = e8.run_script(script);
  ASSERT_EQ(r1.size(), 2u);
  ASSERT_EQ(r1, r8);  // bytes, not just verdicts
  EXPECT_NE(r1[0].find("deadline_exceeded"), std::string::npos) << r1[0];
  EXPECT_NE(r1[1].find("deadline_exceeded"), std::string::npos) << r1[1];
  // Exhausted-budget rows are deterministic, so they do count as solved work
  // in the stats, under the dedicated counter.
  EXPECT_GE(e1.stats().budget_exceeded, 2u);
}

// ---------------------------------------------------------------------------
// Admission control: caps, bounded queue, draining.

core::SolveResponse submit_sync(serve::Engine& eng,
                                const core::SolveRequest& req) {
  std::promise<core::SolveResponse> p;
  auto f = p.get_future();
  eng.submit(req, [&p](const core::SolveResponse& r) { p.set_value(r); });
  return f.get();
}

TEST(Admission, MatrixCapsRejectSynchronouslyAndDeterministically) {
  serve::EngineOptions opt;
  opt.max_n = 50;  // bcsstk01 (n=48) passes, bcsstk02 (n=66) does not
  serve::Engine eng(opt);
  core::SolveRequest big;
  big.id = 7;
  big.matrix = "bcsstk02";
  const auto r1 = submit_sync(eng, big);
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.error, "rejected: matrix 'bcsstk02' has n=66, above the cap of 50");
  EXPECT_EQ(r1.id, 7u);

  core::SolveRequest ok;
  ok.matrix = "bcsstk01";
  EXPECT_TRUE(submit_sync(eng, ok).ok);

  const auto st = eng.stats();
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.errors, 1u);
  EXPECT_EQ(st.solved, 1u);
}

TEST(Admission, BudgetCapRequiresAndBoundsTheBudget) {
  serve::EngineOptions opt;
  opt.max_budget_ticks = 5;
  serve::Engine eng(opt);
  core::SolveRequest req;
  req.matrix = "bcsstk01";
  const auto none = submit_sync(eng, req);
  EXPECT_FALSE(none.ok);
  EXPECT_NE(none.error.find("requires a budget"), std::string::npos)
      << none.error;
  req.budget_ticks = 9;
  const auto over = submit_sync(eng, req);
  EXPECT_FALSE(over.ok);
  EXPECT_EQ(over.error,
            "rejected: budget 9 exceeds the per-request cap of 5 ticks");
  req.budget_ticks = 5;
  EXPECT_TRUE(submit_sync(eng, req).ok);
}

TEST(Admission, BoundedQueueShedsLoadWithoutLosingTheAdmitted) {
  serve::EngineOptions opt;
  opt.threads = 1;
  opt.max_queue = 1;
  serve::Engine eng(opt);
  core::SolveRequest slow;
  slow.matrix = "bcsstk22";  // big enough that it cannot finish between the
                             // two submit() calls below
  std::promise<core::SolveResponse> first;
  eng.submit(slow, [&first](const core::SolveResponse& r) {
    first.set_value(r);
  });
  core::SolveRequest next;
  next.id = 2;
  next.matrix = "bcsstk01";
  const auto shed = submit_sync(eng, next);  // queue full: rejected NOW
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.error, "overloaded: pending queue full (limit 1)");
  EXPECT_TRUE(first.get_future().get().ok);  // the admitted one completes
  eng.drain();
  EXPECT_TRUE(submit_sync(eng, next).ok);  // capacity returns after the burst
  EXPECT_EQ(eng.stats().overloaded, 1u);
  EXPECT_EQ(eng.stats().queue_depth, 0u);
}

TEST(Admission, DrainingIsTerminalForNewWorkOnly) {
  serve::Engine eng;
  core::SolveRequest req;
  req.matrix = "bcsstk01";
  EXPECT_TRUE(submit_sync(eng, req).ok);
  eng.begin_drain();
  EXPECT_TRUE(eng.draining());
  const auto r = submit_sync(eng, req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "draining: engine is shutting down");
  EXPECT_GE(eng.stats().rejected, 1u);
}

TEST(Admission, ThrowingCompletionCallbackDoesNotKillTheWorker) {
  serve::EngineOptions opt;
  opt.threads = 1;
  serve::Engine eng(opt);
  core::SolveRequest req;
  req.matrix = "bcsstk01";
  eng.submit(req, [](const core::SolveResponse&) {
    throw std::runtime_error("hostile callback");
  });
  eng.drain();
  // The single pool thread survived and still serves.
  EXPECT_TRUE(submit_sync(eng, req).ok);
}

// ---------------------------------------------------------------------------
// Watchdog: a stuck solve becomes a structured error; the pool keeps serving.

// The follow-up solve must finish inside the watchdog limit.  Sanitizer
// builds run it 5-20x slower (bcsstk01 outlived 50 ms under TSan), so the
// limit scales with the build; the stuck solve trips it either way.
#ifdef PSTAB_SANITIZED
constexpr int kWatchdogMs = 1000;
#else
constexpr int kWatchdogMs = 50;
#endif

TEST(Watchdog, ConvertsAStuckSolveIntoADetectedError) {
  serve::EngineOptions opt;
  opt.threads = 1;
  opt.watchdog_ms = kWatchdogMs;
  serve::Engine eng(opt);
  core::SolveRequest stuck;
  stuck.matrix = "bcsstk22";
  stuck.tol = 1e-300;        // unreachable
  stuck.max_iter = 2000000000;  // effectively forever without the watchdog
  const auto r = submit_sync(eng, stuck);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "detected: solve cancelled by the hang watchdog");
  EXPECT_GE(eng.stats().watchdog_trips, 1u);
  // The worker observed the token cooperatively; it still serves.
  core::SolveRequest fine;
  fine.matrix = "bcsstk01";
  EXPECT_TRUE(submit_sync(eng, fine).ok);
}

// ---------------------------------------------------------------------------
// Stream containment: a dying writer ends the connection, not the engine.

TEST(Stream, WriteFailureEndsTheConnectionAsWriteError) {
  serve::Engine eng;
  serve::Request q;
  q.op = serve::Op::solve;
  q.solve.id = 1;
  q.solve.matrix = "bcsstk01";
  std::string in_bytes;
  serve::append_frame(in_bytes, serve::request_to_json(q));
  std::FILE* in = ::fmemopen(const_cast<char*>(in_bytes.data()),
                             in_bytes.size(), "rb");
  char tiny[16];  // no response frame fits: the first write must fail
  std::FILE* out = ::fmemopen(tiny, sizeof tiny, "wb");
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(eng.serve_stream(in, out), serve::Engine::StreamEnd::write_error);
  std::fclose(in);
  std::fclose(out);
  // Containment: the engine itself is fine afterwards.
  EXPECT_TRUE(submit_sync(eng, q.solve).ok);
}

TEST(Stream, StatsOpReportsTheRobustnessCounters) {
  serve::Engine eng;
  const auto out = eng.run_script(
      R"({"schema":"pstab-serve-v1","op":"solve","id":1,"solver":"cg","matrix":"bcsstk01","budget":1}
{"schema":"pstab-serve-v1","op":"stats","id":2}
)");
  ASSERT_EQ(out.size(), 2u);
  const std::string& stats = out[1];
  for (const char* key :
       {"\"queue_depth\":", "\"rejected\":", "\"overloaded\":",
        "\"watchdog_trips\":", "\"budget_exceeded\":"})
    EXPECT_NE(stats.find(key), std::string::npos) << key << " in " << stats;
  EXPECT_NE(stats.find("\"budget_exceeded\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"queue_depth\":0"), std::string::npos) << stats;
}

TEST(Stream, NumbersJsonForbidsAreErrorsNotSolves) {
  // RFC 8259 numbers only: a leading zero, a bare '.', or an empty fraction
  // or exponent makes the line malformed; the stream goes on.
  serve::Engine eng;
  const std::string head =
      R"({"schema":"pstab-serve-v1","op":"solve","id":1,"solver":"cg",)"
      R"("matrix":"bcsstk01",)";
  std::string script;
  for (const char* tail : {R"("tol":.5,"max_iter":007})", R"("max_iter":00})",
                           R"("tol":1.})", R"("tol":-.5})", R"("tol":1e})",
                           R"("tol":2E+})"})
    script += head + tail + "\n";
  script += head + R"("tol":0.5,"max_iter":7})" + "\n";
  const auto out = eng.run_script(script);
  ASSERT_EQ(out.size(), 7u);
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    EXPECT_NE(out[i].find("\"ok\":false"), std::string::npos) << out[i];
    EXPECT_NE(out[i].find("invalid number"), std::string::npos) << out[i];
  }
  EXPECT_NE(out.back().find("\"ok\":true"), std::string::npos) << out.back();
}

// ---------------------------------------------------------------------------
// TCP: one client dying mid-conversation must not poison the next client.

void tcp_client(int port, const std::string& bytes, bool read_reply,
                std::string* reply) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(w, 0);
    off += std::size_t(w);
  }
  if (read_reply) {
    std::FILE* in = ::fdopen(::dup(fd), "rb");
    ASSERT_NE(in, nullptr);
    std::string payload, err;
    ASSERT_EQ(serve::read_frame(in, payload, serve::kDefaultMaxFrame, err),
              serve::FrameRead::ok)
        << err;
    if (reply) *reply = payload;
    std::fclose(in);
  }
  ::close(fd);  // without read_reply this is the mid-response disconnect
}

TEST(Tcp, ClientDeathIsContainedToItsConnection) {
  serve::Engine eng;
  std::atomic<int> bound{0};
  std::string err;
  std::atomic<bool> listener_ok{false};
  std::thread listener([&] {
    listener_ok = eng.serve_tcp(0, /*once=*/false, err, &bound);
  });
  // serve_tcp publishes the bound port before the first accept.
  for (int i = 0; i < 2000 && bound.load(std::memory_order_acquire) == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const int port = bound.load(std::memory_order_acquire);
  ASSERT_NE(port, 0);

  serve::Request q;
  q.op = serve::Op::solve;
  q.solve.id = 1;
  q.solve.matrix = "bcsstk01";
  std::string solve_bytes;
  serve::append_frame(solve_bytes, serve::request_to_json(q));

  // Client 1 sends a solve and vanishes without reading: the engine's
  // response write hits EPIPE, which must cost exactly that connection.
  tcp_client(port, solve_bytes, /*read_reply=*/false, nullptr);

  // Client 2 gets a full, correct conversation afterwards.
  std::string reply;
  tcp_client(port, solve_bytes, /*read_reply=*/true, &reply);
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;

  serve::Request bye;
  bye.op = serve::Op::shutdown;
  bye.solve.id = 9;
  std::string bye_bytes;
  serve::append_frame(bye_bytes, serve::request_to_json(bye));
  tcp_client(port, bye_bytes, /*read_reply=*/false, nullptr);
  listener.join();
  EXPECT_TRUE(listener_ok);
}

// ---------------------------------------------------------------------------
// Chaos harness: clean run, and the digest is reproducible (the contract the
// fuzz serve_chaos surface replays).

TEST(Chaos, EverySessionSurvivesAndTheDigestIsStable) {
  serve::ChaosOptions opt;
  opt.seed = 7;
  opt.sessions = 8;  // one full pass over the scenario repertoire
  const auto a = serve::run_chaos(opt);
  EXPECT_TRUE(a.ok()) << a.first_failure;
  EXPECT_EQ(a.sessions, 8);
  EXPECT_GT(a.compared, 0);
  const auto b = serve::run_chaos(opt);
  EXPECT_TRUE(b.ok()) << b.first_failure;
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.responses, b.responses);
}

}  // namespace
