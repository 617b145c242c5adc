// The serve subsystem end to end: the pstab-serve-v1 JSON parser and frame
// codec, the strict request parser and its golden wire bytes, the bounded
// LRU ArtifactCache, the work-stealing TaskPool, and the Engine itself —
// coalescing, response memoization (warm bytes == cold bytes), script
// replay, stream framing errors, and byte-determinism across PSTAB_THREADS.
#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/parallel_for.hpp"
#include "core/solve_api.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace pstab;

// ---------------------------------------------------------------------------
// JSON parser

TEST(ServeJson, ParsesScalarsContainersAndEscapes) {
  serve::JsonValue v;
  std::string err;
  ASSERT_TRUE(serve::json_parse(
      R"({"a":[1,true,null,"xA\n"],"b":{"c":-2.5e3}})", v, err))
      << err;
  ASSERT_EQ(v.kind, serve::JsonValue::Kind::object);
  const serve::JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 4u);
  EXPECT_EQ(a->items[0].number, 1.0);
  EXPECT_TRUE(a->items[1].boolean);
  EXPECT_EQ(a->items[2].kind, serve::JsonValue::Kind::null);
  EXPECT_EQ(a->items[3].raw, "xA\n");
  const serve::JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->find("c"), nullptr);
  EXPECT_EQ(b->find("c")->number, -2500.0);
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(ServeJson, PreservesUint64Tokens) {
  serve::JsonValue v;
  std::string err;
  ASSERT_TRUE(serve::json_parse("18446744073709551615", v, err)) << err;
  ASSERT_TRUE(v.is_uint());
  EXPECT_EQ(v.as_uint(), 18446744073709551615ull);
}

TEST(ServeJson, RejectsMalformedDocuments) {
  serve::JsonValue v;
  std::string err;
  EXPECT_FALSE(serve::json_parse("{} trailing", v, err));
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
  EXPECT_FALSE(serve::json_parse(R"({"a":})", v, err));
  EXPECT_FALSE(serve::json_parse("\"unterminated", v, err));
  EXPECT_FALSE(serve::json_parse("{\"a\":\"\x01\"}", v, err));  // raw control
  EXPECT_FALSE(serve::json_parse("", v, err));
}

TEST(ServeJson, RejectsExcessiveNesting) {
  std::string deep(80, '[');
  deep += std::string(80, ']');
  serve::JsonValue v;
  std::string err;
  EXPECT_FALSE(serve::json_parse(deep, v, err));
  EXPECT_NE(err.find("nesting"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Framing

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr mem_reader(const std::string& bytes) {
  return FilePtr(fmemopen(const_cast<char*>(bytes.data()), bytes.size(), "rb"));
}

TEST(ServeFraming, RoundTripsAndSignalsCleanEof) {
  std::string wire;
  serve::append_frame(wire, "hello");
  serve::append_frame(wire, "");
  FilePtr in = mem_reader(wire);
  ASSERT_NE(in, nullptr);
  std::string payload, err;
  EXPECT_EQ(serve::read_frame(in.get(), payload, serve::kDefaultMaxFrame, err),
            serve::FrameRead::ok);
  EXPECT_EQ(payload, "hello");
  EXPECT_EQ(serve::read_frame(in.get(), payload, serve::kDefaultMaxFrame, err),
            serve::FrameRead::ok);
  EXPECT_EQ(payload, "");
  EXPECT_EQ(serve::read_frame(in.get(), payload, serve::kDefaultMaxFrame, err),
            serve::FrameRead::eof);
}

TEST(ServeFraming, RejectsOversizedLengthBeforeReadingPayload) {
  // A hostile 4 GiB length prefix with no payload behind it: the bound check
  // must fire on the prefix alone, without attempting the allocation.
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
  std::string wire(reinterpret_cast<const char*>(prefix), 4);
  FilePtr in = mem_reader(wire);
  std::string payload, err;
  EXPECT_EQ(serve::read_frame(in.get(), payload, 1024, err),
            serve::FrameRead::error);
  EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
}

TEST(ServeFraming, TruncationIsAnErrorNotEof) {
  std::string wire;
  serve::append_frame(wire, "0123456789");
  wire.resize(wire.size() - 4);  // cut the payload short
  {
    FilePtr in = mem_reader(wire);
    std::string payload, err;
    EXPECT_EQ(
        serve::read_frame(in.get(), payload, serve::kDefaultMaxFrame, err),
        serve::FrameRead::error);
  }
  {
    FilePtr in = mem_reader(std::string("\x05\x00", 2));  // half a prefix
    std::string payload, err;
    EXPECT_EQ(
        serve::read_frame(in.get(), payload, serve::kDefaultMaxFrame, err),
        serve::FrameRead::error);
  }
}

// ---------------------------------------------------------------------------
// Request parsing: goldens both directions

TEST(ServeRequest, GoldenWireBytes) {
  serve::Request req;
  req.solve.id = 1;
  req.solve.matrix = "bcsstk02";
  EXPECT_EQ(serve::request_to_json(req),
            R"({"schema":"pstab-serve-v1","op":"solve","id":1,"solver":"cg",)"
            R"("matrix":"bcsstk02","rescale":false,"tol":0,"max_iter":0,)"
            R"("max_iter_per_n":0,"fused_dots":false,"history":false,)"
            R"("resilience":false,"rhs_seed":0,"budget":0,"kernels":"auto",)"
            R"("block":0,)"
            R"("precision":{"factor":"grid","working":"f64",)"
            R"("residual":"auto"}})");
}

TEST(ServeRequest, ParseIsExactInverseOfSerialize) {
  serve::Request req;
  req.solve.id = 987654321098765ull;
  req.solve.solver = core::Solver::lu_ir;
  req.solve.matrix = "lund_b";
  req.solve.precision.factor = "bf16";
  req.solve.precision.residual = "quire";
  req.solve.rescale = true;
  req.solve.tol = 1e-8;
  req.solve.max_iter = 77;
  req.solve.max_iter_per_n = 3;
  req.solve.fused_dots = true;
  req.solve.record_history = true;
  req.solve.resilience = true;
  req.solve.rhs_seed = 42;
  req.solve.budget_ticks = 17;
  req.solve.backend = la::kernels::Backend::Batched;
  req.solve.block = 96;

  const std::string wire = serve::request_to_json(req);
  serve::Request back;
  std::string err;
  ASSERT_TRUE(serve::request_from_json(wire, back, err)) << err;
  EXPECT_EQ(serve::request_to_json(back), wire);
  EXPECT_EQ(back.solve.canonical_key(), req.solve.canonical_key());
  EXPECT_EQ(back.solve.id, req.solve.id);
  EXPECT_EQ(back.solve.backend, la::kernels::Backend::Batched);
}

TEST(ServeRequest, StatsAndShutdownTakeOnlyTheEnvelope) {
  serve::Request req;
  std::string err;
  ASSERT_TRUE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","op":"stats","id":9})", req, err))
      << err;
  EXPECT_EQ(req.op, serve::Op::stats);
  EXPECT_EQ(req.solve.id, 9u);
  ASSERT_TRUE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","op":"shutdown"})", req, err))
      << err;
  EXPECT_EQ(req.op, serve::Op::shutdown);
}

TEST(ServeRequest, StrictParserNamesTheOffender) {
  serve::Request req;
  std::string err;
  // Typos fail loudly instead of being silently dropped (the satellite
  // contract shared with the CLI flag parser).
  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","op":"solve","solver":"cg",)"
      R"("matrix":"bcsstk02","frobulate":true})",
      req, err));
  EXPECT_NE(err.find("frobulate"), std::string::npos) << err;

  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-wrong","op":"solve"})", req, err));
  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","op":"solve","matrix":"bcsstk02"})", req,
      err));
  EXPECT_NE(err.find("solver"), std::string::npos) << err;
  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","solver":"sor","matrix":"x"})", req, err));
  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","solver":"cg","matrix":"x",)"
      R"("kernels":"sse9"})",
      req, err));

  // Precision triple: strict about shape and member names too.
  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","solver":"lu_ir","matrix":"x",)"
      R"("precision":{"factr":"f16"}})",
      req, err));
  EXPECT_NE(err.find("precision.factr"), std::string::npos) << err;
  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","solver":"lu_ir","matrix":"x",)"
      R"("precision":"f16"})",
      req, err));
  ASSERT_TRUE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","solver":"gmres-ir","matrix":"west0132",)"
      R"("precision":{"factor":"bf16","residual":"dd"}})",
      req, err))
      << err;
  EXPECT_EQ(req.solve.solver, core::Solver::gmres_ir);
  EXPECT_EQ(req.solve.precision.factor, "bf16");
  EXPECT_EQ(req.solve.precision.residual, "dd");
}

TEST(ServeRequest, IntKeysPastIntMaxNameTheKeyInsteadOfWrapping) {
  serve::Request req;
  std::string err;
  for (const char* key : {"max_iter", "max_iter_per_n", "block"}) {
    const std::string head =
        std::string(R"({"schema":"pstab-serve-v1","solver":"cg",)") +
        R"("matrix":"bcsstk01",")" + key + "\":";
    EXPECT_FALSE(serve::request_from_json(head + "2147483648}", req, err))
        << key;
    EXPECT_NE(err.find(std::string("'") + key + "'"), std::string::npos)
        << err;
    EXPECT_FALSE(
        serve::request_from_json(head + "18446744073709551615}", req, err))
        << key;
    ASSERT_TRUE(serve::request_from_json(head + "2147483647}", req, err))
        << key << ": " << err;
  }
  EXPECT_EQ(req.solve.block, INT_MAX);
}

// The per-n iteration cap is computed in 64 bits: run_request rejects a
// product past INT_MAX by naming the key, and effective_max_iter (what the
// solvers read) saturates instead of wrapping negative.
TEST(ServeRequest, PerNIterationCapNeverWraps) {
  serve::Request req;
  std::string err;
  ASSERT_TRUE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","solver":"cg","matrix":"bcsstk01",)"
      R"("max_iter_per_n":50000000})",
      req, err))
      << err;
  const core::SolveResponse resp = core::run_request(req.solve);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("'max_iter_per_n'"), std::string::npos)
      << resp.error;

  core::SolveRequest cg;
  cg.solver = core::Solver::cg;
  cg.max_iter_per_n = 50000000;
  EXPECT_EQ(cg.effective_max_iter(48), INT_MAX);
  cg.max_iter_per_n = INT_MAX;
  EXPECT_EQ(cg.effective_max_iter(100000), INT_MAX);
  cg.max_iter_per_n = 0;
  EXPECT_EQ(cg.effective_max_iter(48), 15 * 48);
}

TEST(ServeResponse, EnvelopeGoldens) {
  EXPECT_EQ(serve::error_response_json(3, "boom"),
            R"({"schema":"pstab-serve-v1","id":3,"ok":false,"error":"boom"})");
  EXPECT_EQ(serve::result_response_json(1, R"({"x":1})"),
            R"({"schema":"pstab-serve-v1","id":1,"ok":true,"result":{"x":1}})");
}

// ---------------------------------------------------------------------------
// Cache

std::shared_ptr<const void> blob(int tag) {
  return std::make_shared<const int>(tag);
}

TEST(ServeCache, CountsHitsAndMisses) {
  serve::Cache c(1024);
  EXPECT_EQ(c.get("a"), nullptr);
  c.put("a", blob(1), 100);
  EXPECT_NE(c.get("a"), nullptr);
  const serve::Cache::Stats st = c.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.insertions, 1u);
  EXPECT_EQ(st.bytes, 100u);
  EXPECT_EQ(st.entries, 1u);
}

TEST(ServeCache, EvictsLeastRecentlyUsedFirst) {
  serve::Cache c(250);
  c.put("a", blob(1), 100);
  c.put("b", blob(2), 100);
  EXPECT_NE(c.get("a"), nullptr);  // touch: "b" is now the LRU entry
  c.put("c", blob(3), 100);        // over budget -> evict "b"
  EXPECT_EQ(c.get("b"), nullptr);
  EXPECT_NE(c.get("a"), nullptr);
  EXPECT_NE(c.get("c"), nullptr);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.stats().entries, 2u);
}

TEST(ServeCache, OversizedEntriesAreNeverAdmitted) {
  serve::Cache c(100);
  c.put("huge", blob(1), 101);
  EXPECT_EQ(c.get("huge"), nullptr);
  EXPECT_EQ(c.stats().insertions, 0u);
  EXPECT_EQ(c.stats().bytes, 0u);
}

// Forwards to one serve::Cache and logs every key stored through it.
class KeyLog final : public core::ArtifactCache {
 public:
  explicit KeyLog(serve::Cache& cache) : cache_(cache) {}
  std::shared_ptr<const void> get(const std::string& key) override {
    return cache_.get(key);
  }
  void put(const std::string& key, std::shared_ptr<const void> value,
           std::size_t bytes) override {
    puts.push_back(key);
    cache_.put(key, std::move(value), bytes);
  }
  /// Stored keys starting with `prefix`, with their store counts.
  [[nodiscard]] std::map<std::string, int> stored(
      const std::string& prefix) const {
    std::map<std::string, int> m;
    for (const auto& k : puts)
      if (k.rfind(prefix, 0) == 0) ++m[k];
    return m;
  }
  std::vector<std::string> puts;

 private:
  serve::Cache& cache_;
};

core::SolveRequest chol_rhs(bool rescale, std::uint64_t seed) {
  core::SolveRequest r;
  r.solver = core::Solver::cholesky;
  r.matrix = "bcsstk01";
  r.rescale = rescale;
  r.rhs_seed = seed;
  return r;
}

TEST(ServeCache, WarmCholeskyMatchesColdAndFactorsOncePerFormat) {
  serve::Cache cache(std::size_t(64) << 20);
  KeyLog log(cache);
  constexpr int kSeeds = 5;
  for (const bool rescale : {false, true}) {
    for (int seed = 0; seed < kSeeds; ++seed) {
      const core::SolveRequest req = chol_rhs(rescale, std::uint64_t(seed));
      const core::SolveResponse cold = core::run_request(req);  // cache off
      const core::SolveResponse warm = core::run_request(req, &log);
      ASSERT_TRUE(cold.ok) << cold.error;
      ASSERT_TRUE(warm.ok) << warm.error;
      EXPECT_FALSE(warm.cache_hit);  // a new RHS is new work
      EXPECT_EQ(warm.result_json, cold.result_json)
          << "rescale=" << rescale << " seed=" << seed;
    }
  }
  // One factorization per format per scaling, whatever the RHS count, and
  // both scalings key on the one digest of the matrix as generated.
  const auto chol = log.stored("chol/");
  ASSERT_FALSE(chol.empty());
  const std::string stem = chol.begin()->first.substr(0, 21);  // chol/<hex>
  std::map<std::string, int> expected;
  for (const char* scaling : {"/none/", "/diag/"})
    for (const char* fmt : {"f64", "f32", "p32_2", "p32_3"})
      expected[stem + scaling + fmt] = 1;
  EXPECT_EQ(chol, expected);
  const serve::Cache::Stats st = cache.stats();
  EXPECT_EQ(st.insertions, log.puts.size());
  EXPECT_EQ(st.insertions, 1u + 8u + 2u * kSeeds);  // matrix, factors, resps
  EXPECT_EQ(st.evictions, 0u);

  // A budgeted request still bypasses the factor cache, whether its budget
  // trips or not: no factor is stored, and its bytes are the cache-off ones.
  for (const int budget : {2, 1000000}) {
    for (const bool rescale : {false, true}) {
      core::SolveRequest req = chol_rhs(rescale, kSeeds);
      req.budget_ticks = budget;
      const core::SolveResponse cold = core::run_request(req);
      const core::SolveResponse warm = core::run_request(req, &log);
      ASSERT_TRUE(cold.ok) << cold.error;
      ASSERT_TRUE(warm.ok) << warm.error;
      EXPECT_EQ(warm.result_json, cold.result_json)
          << "budget=" << budget << " rescale=" << rescale;
    }
  }
  EXPECT_EQ(log.stored("chol/"), chol);
}

// ---------------------------------------------------------------------------
// TCP transport

TEST(ServeTcp, NodelayReadsBackOnBothEndsOfALoopbackPair) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  ASSERT_EQ(::connect(client, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  const int server = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(server, 0);
  const auto nodelay = [](int fd) {
    int v = -1;
    socklen_t n = sizeof v;
    EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &v, &n), 0);
    return v;
  };
  for (const int fd : {client, server}) {
    EXPECT_EQ(nodelay(fd), 0);  // Nagle is on by default
    EXPECT_TRUE(serve::set_tcp_nodelay(fd));
    EXPECT_NE(nodelay(fd), 0);
  }
  EXPECT_FALSE(serve::set_tcp_nodelay(-1));
  ::close(server);
  ::close(client);
  ::close(listener);
}

// ---------------------------------------------------------------------------
// TaskPool

TEST(ServePool, RunsEverySubmittedJob) {
  TaskPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i)
    pool.submit([&] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.drain();
  EXPECT_EQ(done.load(), 200);
  EXPECT_EQ(pool.unhandled_exceptions(), 0u);
}

TEST(ServePool, CountsUnhandledExceptionsInsteadOfDying) {
  TaskPool pool(2);
  std::atomic<int> done{0};
  pool.submit([] { throw std::runtime_error("job failure"); });
  pool.submit([&] { done.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(done.load(), 1);
  EXPECT_EQ(pool.unhandled_exceptions(), 1u);
}

// ---------------------------------------------------------------------------
// Engine

core::SolveRequest small_cg(std::uint64_t id, std::uint64_t seed = 0) {
  core::SolveRequest r;
  r.id = id;
  r.matrix = "bcsstk02";
  r.rhs_seed = seed;
  return r;
}

TEST(ServeEngine, WarmResponseIsByteIdenticalAndFlaggedAsMemoHit) {
  serve::EngineOptions opt;
  opt.threads = 2;
  serve::Engine engine(opt);

  std::mutex mu;
  std::vector<core::SolveResponse> got;
  const auto collect = [&](const core::SolveResponse& r) {
    const std::lock_guard<std::mutex> lock(mu);
    got.push_back(r);
  };

  engine.submit(small_cg(1), collect);
  engine.drain();
  engine.submit(small_cg(2), collect);
  engine.drain();

  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].ok);
  EXPECT_FALSE(got[0].cache_hit);
  EXPECT_TRUE(got[1].ok);
  EXPECT_TRUE(got[1].cache_hit);
  // The memo flag lives only in memory: the serialized bytes differ in the
  // id alone, so a warm result body is exactly the cold one.
  EXPECT_EQ(got[0].result_json, got[1].result_json);
  const serve::EngineStats st = engine.stats();
  EXPECT_EQ(st.requests, 2u);
  EXPECT_EQ(st.solved, 2u);
  EXPECT_EQ(st.memo_hits, 1u);
  EXPECT_GT(st.cache.hits, 0u);
}

TEST(ServeEngine, CoalescesQueuedRequestsSharingABatchKey) {
  serve::EngineOptions opt;
  opt.threads = 1;  // one worker: the burst queues behind the first solve
  serve::Engine engine(opt);
  std::atomic<int> done{0};
  const auto count = [&](const core::SolveResponse&) { done.fetch_add(1); };
  engine.submit(small_cg(1, 1), count);
  engine.submit(small_cg(2, 2), count);  // same batch_key, different RHS
  engine.submit(small_cg(3, 3), count);
  engine.drain();
  EXPECT_EQ(done.load(), 3);
  const serve::EngineStats st = engine.stats();
  EXPECT_EQ(st.solved, 3u);
  // At minimum the two trailing submissions cannot outrun the queue they
  // join; allow the first to have started already.
  EXPECT_GE(st.coalesced, 1u);
  EXPECT_LE(st.batches, 2u);
}

TEST(ServeEngine, UnknownMatrixYieldsAnErrorResponse) {
  serve::Engine engine;
  core::SolveRequest bad = small_cg(5);
  bad.matrix = "not_a_matrix";
  core::SolveResponse resp;
  std::mutex mu;
  engine.submit(bad, [&](const core::SolveResponse& r) {
    const std::lock_guard<std::mutex> lock(mu);
    resp = r;
  });
  engine.drain();
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("not_a_matrix"), std::string::npos) << resp.error;
  EXPECT_EQ(engine.stats().errors, 1u);
}

const char* kScript =
    R"({"schema":"pstab-serve-v1","op":"solve","id":3,"solver":"cg","matrix":"bcsstk02"}
{"schema":"pstab-serve-v1","op":"solve","id":1,"solver":"chol","matrix":"bcsstk02","rescale":true}

{"schema":"pstab-serve-v1","op":"solve","id":2,"solver":"cg","matrix":"bcsstk02","rhs_seed":7}
not json at all
)";

TEST(ServeEngine, ScriptReplaySortsByIdAndAnswersErrorsInline) {
  serve::Engine engine;
  const std::vector<std::string> out = engine.run_script(kScript);
  ASSERT_EQ(out.size(), 4u);
  // The unparseable line could salvage no id, so its error row carries id 0
  // and sorts first; the solves follow in id order whatever the submission
  // interleaving was.
  EXPECT_NE(out[0].find("\"id\":0"), std::string::npos);
  EXPECT_NE(out[0].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(out[1].find("\"id\":1"), std::string::npos);
  EXPECT_NE(out[2].find("\"id\":2"), std::string::npos);
  EXPECT_NE(out[3].find("\"id\":3"), std::string::npos);
  for (int i = 1; i < 4; ++i)
    EXPECT_NE(out[i].find("\"ok\":true"), std::string::npos) << out[i];
}

TEST(ServeEngine, ShutdownOpStopsTheReplay) {
  serve::Engine engine;
  const std::string script =
      std::string(R"({"schema":"pstab-serve-v1","op":"solve","id":1,)"
                  R"("solver":"cg","matrix":"bcsstk02"})") +
      "\n" + R"({"schema":"pstab-serve-v1","op":"shutdown","id":2})" + "\n" +
      R"({"schema":"pstab-serve-v1","op":"solve","id":3,"solver":"cg",)" +
      R"("matrix":"bcsstk02"})" + "\n";
  const std::vector<std::string> out = engine.run_script(script);
  // The solve before the shutdown answers; the one after is never submitted.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(out[1].find("\"id\":2"), std::string::npos);
}

TEST(ServeEngine, StreamAnswersFramesAndTreatsBadFramingAsTerminal) {
  serve::Engine engine;
  std::string wire;
  serve::append_frame(
      wire,
      R"({"schema":"pstab-serve-v1","op":"solve","id":4,"solver":"cg",)"
      R"("matrix":"bcsstk02"})");
  serve::append_frame(wire, "{\"schema\":\"pstab-serve-v1\",\"op\":42}");
  wire += std::string("\x20\x00\x00", 3);  // truncated prefix: terminal error

  FilePtr in = mem_reader(wire);
  ASSERT_NE(in, nullptr);
  char* out_buf = nullptr;
  std::size_t out_len = 0;
  FilePtr out(open_memstream(&out_buf, &out_len));
  ASSERT_NE(out, nullptr);

  EXPECT_EQ(engine.serve_stream(in.get(), out.get()),
            serve::Engine::StreamEnd::frame_error);
  out.reset();  // flush the memstream

  // Two response frames: the solve and the per-request JSON error.
  const std::string bytes(out_buf, out_len);
  std::free(out_buf);
  FilePtr replies = mem_reader(bytes);
  std::string payload, err;
  int ok_count = 0, err_count = 0;
  while (serve::read_frame(replies.get(), payload, serve::kDefaultMaxFrame,
                           err) == serve::FrameRead::ok) {
    if (payload.find("\"ok\":true") != std::string::npos) ++ok_count;
    if (payload.find("\"ok\":false") != std::string::npos) ++err_count;
  }
  EXPECT_EQ(ok_count, 1);
  EXPECT_EQ(err_count, 1);
}

class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* v) {
    const char* old = std::getenv("PSTAB_THREADS");
    if (old) saved_ = old;
    had_ = old != nullptr;
    setenv("PSTAB_THREADS", v, 1);
  }
  ~ThreadsEnv() {
    if (had_)
      setenv("PSTAB_THREADS", saved_.c_str(), 1);
    else
      unsetenv("PSTAB_THREADS");
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(ServeEngine, ResponsesAreByteIdenticalAcrossThreadCounts) {
  // A cg / cholesky / ir mix, replayed cold and then warm on one engine per
  // thread count: the warm pass is answered from the memo and caches with
  // the cold bytes, and every pass matches the single-thread one.
  std::string script;
  for (std::uint64_t id = 1; id <= 10; ++id) {
    serve::Request req;
    req.solve = small_cg(id, id % 3);
    req.solve.solver = id > 8            ? core::Solver::ir
                       : (id % 2 != 0u) ? core::Solver::cg
                                        : core::Solver::cholesky;
    req.solve.rescale = id % 4 == 0 || id == 10;
    script += serve::request_to_json(req);
    script += '\n';
  }
  const auto run = [&](const char* threads) {
    ThreadsEnv env(threads);
    serve::Engine engine;  // threads = 0: latches PSTAB_THREADS
    const std::vector<std::string> cold = engine.run_script(script);
    const serve::EngineStats before = engine.stats();
    const std::vector<std::string> warm = engine.run_script(script);
    const serve::EngineStats after = engine.stats();
    EXPECT_EQ(warm, cold) << "PSTAB_THREADS=" << threads;
    EXPECT_GT(after.memo_hits + after.cache.hits,
              before.memo_hits + before.cache.hits)
        << "PSTAB_THREADS=" << threads;
    return cold;
  };
  const std::vector<std::string> one = run("1");
  ASSERT_EQ(one.size(), 10u);
  for (const std::string& line : one)
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_EQ(run("8"), one);
  EXPECT_EQ(run("32"), one);
}

// ---------------------------------------------------------------------------
// The unified CLI parser: every failure names the offending token

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return argv;
}

TEST(ServeCli, UnknownFlagNamesTheToken) {
  std::vector<std::string> args = {"pstab", "cg", "bcsstk02", "--frobulate"};
  std::vector<char*> argv = argv_of(args);
  const core::CliParse p = core::parse_solver_cli(
      core::Solver::cg, "bcsstk02", int(argv.size()), argv.data(), 3);
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.error.find("--frobulate"), std::string::npos) << p.error;
}

TEST(ServeCli, FlagMissingItsValueNamesTheFlag) {
  std::vector<std::string> args = {"pstab", "cg", "bcsstk02", "--tol"};
  std::vector<char*> argv = argv_of(args);
  const core::CliParse p = core::parse_solver_cli(
      core::Solver::cg, "bcsstk02", int(argv.size()), argv.data(), 3);
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.error.find("--tol"), std::string::npos) << p.error;
}

TEST(ServeCli, UnknownBackendNamesTheToken) {
  std::vector<std::string> args = {"pstab", "cg", "bcsstk02", "--kernels",
                                   "sse9"};
  std::vector<char*> argv = argv_of(args);
  const core::CliParse p = core::parse_solver_cli(
      core::Solver::cg, "bcsstk02", int(argv.size()), argv.data(), 3);
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.error.find("sse9"), std::string::npos) << p.error;
}

TEST(ServeCli, NumericFlagsRejectBadOrOutOfRangeText) {
  const std::vector<std::pair<const char*, const char*>> bad = {
      {"--tol", "abc"},          {"--tol", "-1e-5"},
      {"--tol", "1e-5x"},        {"--tol", "inf"},
      {"--max-iter", "12x"},     {"--max-iter", "-3"},
      {"--max-iter", "3000000000"}, {"--max-iter-per-n", "lots"},
      {"--max-iter-per-n", "2147483648"}, {"--budget", "99999999999"},
      {"--block", "4294967297"},  {"--rhs-seed", "abc"},
      {"--rhs-seed", "7x"},       {"--rhs-seed", "-1"},
      {"--rhs-seed", "18446744073709551616"}};
  for (const auto& [flag, text] : bad) {
    std::vector<std::string> args = {"pstab", "cg", "bcsstk02", flag, text};
    std::vector<char*> argv = argv_of(args);
    const core::CliParse p = core::parse_solver_cli(
        core::Solver::cg, "bcsstk02", int(argv.size()), argv.data(), 3);
    EXPECT_FALSE(p.ok) << flag << " " << text;
    EXPECT_NE(p.error.find(flag), std::string::npos) << p.error;
    EXPECT_NE(p.error.find(text), std::string::npos) << p.error;
  }
  std::vector<std::string> args = {"pstab", "cg",  "bcsstk02",
                                   "--tol", "1e-6", "--max-iter-per-n",
                                   "20",    "--max-iter", "2147483647",
                                   "--rhs-seed", "18446744073709551615"};
  std::vector<char*> argv = argv_of(args);
  const core::CliParse p = core::parse_solver_cli(
      core::Solver::cg, "bcsstk02", int(argv.size()), argv.data(), 3);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.req.tol, 1e-6);
  EXPECT_EQ(p.req.max_iter_per_n, 20);
  EXPECT_EQ(p.req.max_iter, INT_MAX);
  EXPECT_EQ(p.req.rhs_seed, UINT64_MAX);
}

}  // namespace
