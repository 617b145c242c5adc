// perfbench_trace: the benchmark's traced run.  It replays one workload's
// seeded inputs in process and prints per-layer metrics as one JSON line.
//
//   perfbench_trace SPEC.json     (written by run.py; see run_traced there)
//   perfbench_trace --isa         prints the resolved SIMD ISA
//
// Spans.  Every span has a name, start, end, parent and request id; spans
// are kept in memory and written to the spec's "spans_out" file at exit.
// The replay submits the workload's request frames to a serve::Engine on the
// same schedule as the wire run, and spans are recorded around each call
// into a layer:
//   serve.request     due time (open loop) or send (closed loop) -> done
//   serve.protocol.*  serve::request_from_json / serve::response_json
//   core.run_request  core::run_request, on the engine's pool thread
//   matrices.generate matrices::make_suite_matrix (cache misses)
//   core.experiment   core::run_{cg,ir}_experiment; CG and IR cells carry
//                     SolveReport::trace phases, which become la.* child
//                     spans laid out in order inside the experiment span
//   la.cholesky       core::run_cholesky_experiment (Cholesky records no
//                     phases, so its whole row counts as solver work)
//   core.report_json  core::{cg,cholesky,ir}_row_json
// The calls the engine makes internally are reached through the linker's
// --wrap (see CMakeLists.txt): nothing under src/ is instrumented, and the
// program's code is the code that serves requests.
//
// A layer's self time is its spans' durations minus the parts covered by
// their children.  After the replay, each layer's public functions are also
// timed directly on the workload's matrices (posit/ieee ops, la::kernels,
// parallel SpMV tiles, solver phases, scaling, matrix generation, cold and
// warm run_request).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/experiments.hpp"
#include "core/report_json.hpp"
#include "core/solve_api.hpp"
#include "ieee/softfloat.hpp"
#include "la/cholesky.hpp"
#include "la/kernels/kernels.hpp"
#include "la/kernels/simd/simd.hpp"
#include "matrices/generator.hpp"
#include "matrices/suite.hpp"
#include "posit/lut.hpp"
#include "posit/posit.hpp"
#include "scaling/higham.hpp"
#include "scaling/scaling.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"

using namespace pstab;
using Clock = std::chrono::steady_clock;

namespace {

const Clock::time_point kEpoch = Clock::now();
double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

struct Span {
  std::string name;
  double start = 0, end = 0;
  long parent = -1;
  std::uint64_t req = 0;
};

// ---------------------------------------------------------------------------
// Span store

std::mutex g_mu;  // guards g_spans and g_top
std::vector<Span> g_spans;
std::unordered_map<std::uint64_t, long> g_top;  // request id -> its span
std::atomic<bool> g_on{false};
thread_local long t_parent = -1;
thread_local std::uint64_t t_req = 0;

long open_span(const std::string& name, double start, long parent,
               std::uint64_t req) {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(Span{name, start, start, parent, req});
  return long(g_spans.size()) - 1;
}

void close_span(long id, double end) {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_spans[std::size_t(id)].end = end;
}

/// Span around one call made on this thread; children opened inside it on
/// the same thread become its children.
class Scope {
 public:
  Scope(const char* name, std::uint64_t req, long parent)
      : saved_parent_(t_parent), saved_req_(t_req) {
    if (!g_on) return;
    id_ = open_span(name, now_s(), parent, req);
    t_parent = id_;
    t_req = req;
  }
  explicit Scope(const char* name) : Scope(name, t_req, t_parent) {}
  ~Scope() {
    if (id_ < 0) return;
    close_span(id_, now_s());
    t_parent = saved_parent_;
    t_req = saved_req_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] long id() const { return id_; }
  [[nodiscard]] double start() const {
    const std::lock_guard<std::mutex> lock(g_mu);
    return g_spans[std::size_t(id_)].start;
  }

 private:
  long id_ = -1;
  long saved_parent_;
  std::uint64_t saved_req_;
};

/// Child spans for the solver phases a SolveReport::trace recorded: the
/// trace keeps durations only, so children are laid out back to back from
/// the parent's start.
void phase_spans(const la::SolveReport& cell, const char* solver, long parent,
                 double& cursor) {
  if (!g_on || parent < 0 || !cell.trace) return;
  for (const auto& p : cell.trace->phases) {
    const long id = open_span(std::string("la.") + solver + "." + p.name,
                              cursor, parent, t_req);
    cursor += p.seconds;
    close_span(id, cursor);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Layer boundaries inside the program, reached through ld --wrap.

#define PSTAB_WRAP(ret, name, sym, ...)                        \
  ret real_##name(__VA_ARGS__) __asm__("__real_" sym);         \
  ret wrap_##name(__VA_ARGS__) __asm__("__wrap_" sym);

PSTAB_WRAP(core::SolveResponse, run_request,
           "_ZN5pstab4core11run_requestERKNS0_12SolveRequestEPNS0_13ArtifactCacheE",
           const core::SolveRequest&, core::ArtifactCache*)
PSTAB_WRAP(matrices::GeneratedMatrix, make_suite_matrix,
           "_ZN5pstab8matrices17make_suite_matrixERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE",
           const std::string&)
PSTAB_WRAP(core::CgRow, run_cg_experiment,
           "_ZN5pstab4core17run_cg_experimentERKNS_8matrices15GeneratedMatrixERKNS0_12SolveRequestEPNS0_13ArtifactCacheE",
           const matrices::GeneratedMatrix&, const core::SolveRequest&,
           core::ArtifactCache*)
PSTAB_WRAP(core::CholRow, run_cholesky_experiment,
           "_ZN5pstab4core23run_cholesky_experimentERKNS_8matrices15GeneratedMatrixERKNS0_12SolveRequestEPNS0_13ArtifactCacheE",
           const matrices::GeneratedMatrix&, const core::SolveRequest&,
           core::ArtifactCache*)
PSTAB_WRAP(core::IrRow, run_ir_experiment,
           "_ZN5pstab4core17run_ir_experimentERKNS_8matrices15GeneratedMatrixERKNS0_12SolveRequestEPNS0_13ArtifactCacheE",
           const matrices::GeneratedMatrix&, const core::SolveRequest&,
           core::ArtifactCache*)
PSTAB_WRAP(std::string, cg_row_json, "_ZN5pstab4core11cg_row_jsonB5cxx11ERKNS0_5CgRowE",
           const core::CgRow&)
PSTAB_WRAP(std::string, cholesky_row_json,
           "_ZN5pstab4core17cholesky_row_jsonB5cxx11ERKNS0_7CholRowE",
           const core::CholRow&)
PSTAB_WRAP(std::string, ir_row_json, "_ZN5pstab4core11ir_row_jsonB5cxx11ERKNS0_5IrRowE",
           const core::IrRow&)

core::SolveResponse wrap_run_request(const core::SolveRequest& req,
                                     core::ArtifactCache* cache) {
  long parent = -1;
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    const auto it = g_top.find(req.id);
    if (it != g_top.end()) parent = it->second;
  }
  const Scope s("core.run_request", req.id, parent);
  return real_run_request(req, cache);
}

matrices::GeneratedMatrix wrap_make_suite_matrix(const std::string& name) {
  const Scope s("matrices.generate");
  return real_make_suite_matrix(name);
}

core::CgRow wrap_run_cg_experiment(const matrices::GeneratedMatrix& m,
                                   const core::SolveRequest& req,
                                   core::ArtifactCache* cache) {
  // record_trace never changes response bytes (solve_api.hpp).
  core::SolveRequest traced = req;
  traced.record_trace = true;
  const Scope s("core.experiment");
  core::CgRow row = real_run_cg_experiment(m, traced, cache);
  if (s.id() >= 0) {
    double cursor = s.start();
    for (const auto* c : {&row.f64, &row.f32, &row.p32_2, &row.p32_3})
      phase_spans(*c, "cg", s.id(), cursor);
  }
  return row;
}

core::CholRow wrap_run_cholesky_experiment(const matrices::GeneratedMatrix& m,
                                           const core::SolveRequest& req,
                                           core::ArtifactCache* cache) {
  const Scope s("la.cholesky");
  return real_run_cholesky_experiment(m, req, cache);
}

core::IrRow wrap_run_ir_experiment(const matrices::GeneratedMatrix& m,
                                   const core::SolveRequest& req,
                                   core::ArtifactCache* cache) {
  core::SolveRequest traced = req;
  traced.record_trace = true;
  const Scope s("core.experiment");
  core::IrRow row = real_run_ir_experiment(m, traced, cache);
  if (s.id() >= 0) {
    double cursor = s.start();
    for (const auto* c : {&row.f16, &row.p16_1, &row.p16_2})
      phase_spans(*c, "ir", s.id(), cursor);
  }
  return row;
}

std::string wrap_cg_row_json(const core::CgRow& row) {
  const Scope s("core.report_json");
  return real_cg_row_json(row);
}
std::string wrap_cholesky_row_json(const core::CholRow& row) {
  const Scope s("core.report_json");
  return real_cholesky_row_json(row);
}
std::string wrap_ir_row_json(const core::IrRow& row) {
  const Scope s("core.report_json");
  return real_ir_row_json(row);
}

namespace {

// ---------------------------------------------------------------------------
// Helpers

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_trace: %s\n", msg.c_str());
  std::exit(2);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median wall seconds of `reps` calls of fn().
template <class Fn>
double time_median(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

std::vector<std::string> strings(const serve::JsonValue* v) {
  std::vector<std::string> out;
  if (v)
    for (const auto& s : v->items) out.push_back(s.raw);
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

class Metrics {
 public:
  void put(const std::string& name, double v, const char* unit) {
    vals_.emplace_back(name, v);
    units_[name] = unit;
  }
  [[nodiscard]] std::string json() const {
    std::string m = "{", u = "{";
    for (std::size_t i = 0; i < vals_.size(); ++i) {
      const char* sep = i ? "," : "";
      m += sep + ("\"" + vals_[i].first + "\":" + fmt(vals_[i].second));
      u += sep + ("\"" + vals_[i].first + "\":\"" +
                  units_.at(vals_[i].first) + "\"");
    }
    return m + "}, \"units\": " + u + "}";
  }

 private:
  std::vector<std::pair<std::string, double>> vals_;
  std::map<std::string, std::string> units_;
};

// ---------------------------------------------------------------------------
// The replay

struct Done {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;
  std::vector<std::string> failures;
  std::map<std::size_t, std::uint64_t> digests;  // plan index -> FNV-1a
};

/// Parse (span) and submit one frame as request `index`; `start` is its due
/// or send time, which opens the request span.
void submit_frame(serve::Engine& eng, const std::string& frame,
                  std::size_t index, double start, Done& done,
                  std::vector<double>& submit_at) {
  serve::Request r;
  std::string err;
  const long top = g_on ? open_span("serve.request", start, -1, index + 1)
                        : -1;
  {
    const Scope parse("serve.protocol.parse", index + 1, top);
    if (!serve::request_from_json(frame, r, err)) die("bad frame: " + err);
  }
  r.solve.id = index + 1;  // ids are plan indices in the replay
  if (top >= 0) {
    const std::lock_guard<std::mutex> lock(g_mu);
    g_top[r.solve.id] = top;
  }
  {
    const std::lock_guard<std::mutex> lock(done.mu);
    ++done.outstanding;
  }
  submit_at[index] = now_s();
  eng.submit(r.solve, [&done, top, index](const core::SolveResponse& resp) {
    std::string bytes;
    {
      const Scope enc("serve.protocol.encode", index + 1, top);
      bytes = serve::response_json(resp);
    }
    if (top >= 0) close_span(top, now_s());
    // Digest of the frame minus its id, as run.py compares it to the wire.
    const std::size_t cut =
        bytes.find(',', std::string_view(R"({"schema":"pstab-serve-v1","id":)")
                            .size());
    const std::uint64_t d =
        core::fnv1a64(bytes.data() + cut, bytes.size() - cut);
    const std::lock_guard<std::mutex> lock(done.mu);
    if (!resp.ok) done.failures.push_back(resp.error);
    done.digests[index] = d;
    --done.outstanding;
    done.cv.notify_all();
  });
}

void wait_below(Done& done, std::size_t limit) {
  std::unique_lock<std::mutex> lock(done.mu);
  done.cv.wait(lock, [&] { return done.outstanding < limit; });
}

// ---------------------------------------------------------------------------
// Direct timings of each layer's public functions

template <class T>
std::vector<T> cast_vec(const std::vector<double>& v) {
  std::vector<T> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = scalar_traits<T>::from_double(v[i]);
  return out;
}

volatile double g_sink = 0;

/// Million scalar operations per second for a binary op over the pool.
template <class T, class Op>
double op_mops(const std::vector<T>& a, Op op) {
  const std::size_t n = a.size();
  const int reps = 5;
  T acc{};
  const double t = time_median(reps, [&] {
    for (std::size_t i = 0; i + 1 < n; ++i) acc = op(a[i], a[i + 1]);
    g_sink = g_sink + scalar_traits<T>::to_double(acc);
  });
  return double(n - 1) / t / 1e6;
}

template <int N, int ES>
void posit_metrics(Metrics& m, const char* tag, const std::vector<double>& pool,
                   bool encode) {
  using P = Posit<N, ES>;
  const auto a = cast_vec<P>(pool);
  const std::string pre = std::string("posit.") + tag + ".";
  m.put(pre + "add_mops", op_mops(a, [](P x, P y) { return x + y; }), "Mop/s");
  m.put(pre + "mul_mops", op_mops(a, [](P x, P y) { return x * y; }), "Mop/s");
  m.put(pre + "div_mops", op_mops(a, [](P x, P y) { return x / y; }), "Mop/s");
  if (encode) {
    const double t = time_median(5, [&] {
      P acc{};
      for (double d : pool) acc = P::from_double(d);
      g_sink = g_sink + acc.to_double();
    });
    m.put(pre + "encode_mops", double(pool.size()) / t / 1e6, "Mop/s");
  }
}

/// dot/axpy/spmv rates in one format; mops = million multiply-adds per s.
template <class T>
void blas_metrics(Metrics& m, const char* tag, const std::vector<double>& pool,
                  const la::Csr<double>& A) {
  const la::kernels::Context kc{};
  const auto x = cast_vec<T>(pool);
  auto y = cast_vec<T>(pool);
  std::reverse(y.begin(), y.end());
  const std::size_t n = x.size();
  const int calls = 20;
  double t = time_median(5, [&] {
    T s{};
    for (int c = 0; c < calls; ++c) s = la::kernels::dot(kc, x, y);
    g_sink = g_sink + scalar_traits<T>::to_double(s);
  });
  m.put(std::string("kernels.dot.") + tag + ".mops", calls * n / t / 1e6,
        "Mop/s");
  const T alpha = scalar_traits<T>::from_double(0.5);
  t = time_median(5, [&] {
    for (int c = 0; c < calls; ++c) la::kernels::axpy(kc, alpha, x, y);
  });
  m.put(std::string("kernels.axpy.") + tag + ".mops", calls * n / t / 1e6,
        "Mop/s");
  const auto At = A.cast<T>();
  std::vector<double> xd(std::size_t(A.cols()));
  for (std::size_t i = 0; i < xd.size(); ++i) xd[i] = pool[i % pool.size()];
  const auto xv = cast_vec<T>(xd);
  la::Vec<T> yv(std::size_t(A.rows()));
  const int sp = std::max(1, int(2000000 / std::max<std::size_t>(1, A.nnz())));
  t = time_median(5, [&] {
    for (int c = 0; c < sp; ++c) la::kernels::spmv(kc, At, xv, yv);
  });
  m.put(std::string("kernels.spmv.") + tag + ".mops",
        double(sp) * double(A.nnz()) / t / 1e6, "Mop/s");
}

constexpr int kPanelRows = 256, kPanelK = 64;

/// syrk/gemm trailing updates on a kPanelRows^2 block with kPanelK panel
/// terms, operands from the pool.
template <class T>
void panel_metrics(Metrics& m, const char* tag,
                   const std::vector<double>& pool) {
  const la::kernels::Context kc{};
  const std::size_t nr = kPanelRows, k = kPanelK;
  std::vector<double> a(nr * k), c(nr * nr);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = pool[i % pool.size()];
  for (std::size_t i = 0; i < c.size(); ++i)
    c[i] = pool[(7 * i + 3) % pool.size()];
  const auto at = cast_vec<T>(a);
  const auto c0 = cast_vec<T>(c);
  auto ct = c0;
  const double t_gemm = time_median(5, [&] {
    ct = c0;
    la::kernels::gemm_update(kc, ct.data(), nr, 0, int(nr), 0, int(nr),
                             at.data(), k, at.data(), k, k, true);
  });
  m.put(std::string("kernels.gemm_update.") + tag + ".mops",
        double(nr * nr * k) / t_gemm / 1e6, "Mop/s");
  const double t_syrk = time_median(5, [&] {
    ct = c0;
    la::kernels::syrk_update(kc, ct.data(), nr, 0, int(nr), 0, int(nr),
                             at.data(), k, at.data(), k, k, true);
  });
  m.put(std::string("kernels.syrk_update.") + tag + ".mops",
        double(nr * (nr + 1) / 2 * k) / t_syrk / 1e6, "Mop/s");
  g_sink = g_sink + scalar_traits<T>::to_double(ct[nr + 1]);
}

template <class T>
void cholesky_phase(const la::Dense<double>& A, const la::Vec<double>& b,
                    double& factor_s, double& solve_s) {
  const la::kernels::Context kc{};
  const auto At = A.cast<T>();
  const auto bt = la::kernels::from_double_vec<T>(b);
  const double t0 = now_s();
  const auto f = la::cholesky_resilient(At, la::ResilientOptions{}, nullptr,
                                        kc);
  factor_s += now_s() - t0;
  if (f.status != la::CholStatus::ok) return;
  solve_s += time_median(5, [&] {
    const auto x = la::solve_upper(f.R, la::solve_lower_rt(f.R, bt, kc), kc);
    g_sink = g_sink + scalar_traits<T>::to_double(x[0]);
  });
}

void layer_metrics(Metrics& m, const serve::JsonValue& spec) {
  const std::string probe_dense = spec.find("probe_dense")->raw;
  const std::string probe_cg = spec.find("probe_cg")->raw;

  // matrices: generation of the whole Table I suite and of synth10k.
  double gen = 0;
  std::map<std::string, matrices::GeneratedMatrix> mats;
  for (const auto& s : matrices::table1_specs()) {
    const double t0 = now_s();
    mats.emplace(s.name, matrices::make_suite_matrix(s.name));
    gen += now_s() - t0;
  }
  m.put("matrices.table1.generate_s", gen, "s");
  double t0 = now_s();
  mats.emplace("synth10k", matrices::make_suite_matrix("synth10k"));
  m.put("matrices.synth10k.generate_s", now_s() - t0, "s");

  // Operands: nonzero entries of the workload's matrices.
  std::vector<double> pool;
  for (const auto& name : strings(spec.find("operand_matrices"))) {
    const auto& v = mats.at(name).csr.values();
    pool.insert(pool.end(), v.begin(), v.end());
  }
  constexpr std::size_t kPool = 1 << 15;
  std::vector<double> ops(kPool);
  for (std::size_t i = 0; i < kPool; ++i)
    ops[i] = pool[(i * 2654435761u) % pool.size()];

  posit_metrics<32, 2>(m, "p32_2", ops, true);
  posit_metrics<32, 3>(m, "p32_3", ops, true);
  posit_metrics<16, 1>(m, "p16_1", ops, false);
  posit_metrics<16, 2>(m, "p16_2", ops, false);
  m.put("ieee.f16.mul_mops",
        op_mops(cast_vec<Half>(ops), [](Half x, Half y) { return x * y; }),
        "Mop/s");

  const auto& cgm = mats.at(probe_cg);
  blas_metrics<double>(m, "f64", ops, cgm.csr);
  blas_metrics<float>(m, "f32", ops, cgm.csr);
  blas_metrics<Posit32_2>(m, "p32_2", ops, cgm.csr);
  blas_metrics<Posit32_3>(m, "p32_3", ops, cgm.csr);
  panel_metrics<float>(m, "f32", ops);
  panel_metrics<Posit32_2>(m, "p32_2", ops);
  panel_metrics<Posit32_3>(m, "p32_3", ops);
  // Bytes each multiply-add moves for 4-byte elements, computed from array
  // sizes (every array touched once), not measured.
  const double e = 4, nnz_row = double(cgm.csr.nnz()) / cgm.csr.rows();
  m.put("kernels.dot.bytes_per_op", 2 * e, "B/op");
  m.put("kernels.axpy.bytes_per_op", 3 * e, "B/op");
  m.put("kernels.spmv.bytes_per_op", 3 * e + (e + 4) / nnz_row, "B/op");
  m.put("kernels.gemm_update.bytes_per_op",
        e * (2.0 * kPanelRows * kPanelRows + 2.0 * kPanelRows * kPanelK) /
            (double(kPanelRows) * kPanelRows * kPanelK),
        "B/op");
  m.put("kernels.syrk_update.bytes_per_op",
        e * (double(kPanelRows) * (kPanelRows + 1) + 2.0 * kPanelRows * kPanelK) /
            (double(kPanelRows) * (kPanelRows + 1) / 2 * kPanelK),
        "B/op");

  // common/parallel_for: row tiles of the n = 10^4 SpMV.
  {
    const la::kernels::Context kc{};
    const auto& big = mats.at("synth10k").csr;
    const auto At = big.cast<Posit32_2>();
    std::vector<double> xd(std::size_t(big.cols()));
    for (std::size_t i = 0; i < xd.size(); ++i) xd[i] = ops[i % ops.size()];
    const auto x = cast_vec<Posit32_2>(xd);
    la::Vec<Posit32_2> y(std::size_t(big.rows()));
    const std::string saved = std::to_string(parallel_threads());
    const std::string threads =
        std::to_string(std::max(1u, std::thread::hardware_concurrency()));
    const auto run = [&] {
      for (int c = 0; c < 20; ++c) la::kernels::spmv(kc, At, x, y);
    };
    setenv("PSTAB_THREADS", "1", 1);
    const double t1 = time_median(5, run);
    setenv("PSTAB_THREADS", threads.c_str(), 1);
    const double tn = time_median(5, run);
    setenv("PSTAB_THREADS", saved.c_str(), 1);
    m.put("kernels.spmv.p32_2.tile_speedup", t1 / tn, "ratio");
  }

  // la: solver phases on the probe matrices.
  {
    core::SolveRequest req;
    req.record_trace = true;
    const core::CgRow cg = core::run_cg_experiment(cgm, req);
    double iterate = 0, iters = 0;
    for (const auto* c : {&cg.f64, &cg.f32, &cg.p32_2, &cg.p32_3}) {
      iters += c->iterations;
      for (const auto& p : c->trace->phases)
        if (p.name == "iterate") iterate += p.seconds;
    }
    m.put("la.cg.iterate_s", iterate, "s");
    m.put("la.cg.iterations", iters, "count");

    const auto& dm = mats.at(probe_dense);
    const auto b = matrices::paper_rhs(dm.dense);
    double factor = 0, solve = 0;
    cholesky_phase<double>(dm.dense, b, factor, solve);
    cholesky_phase<float>(dm.dense, b, factor, solve);
    cholesky_phase<Posit32_2>(dm.dense, b, factor, solve);
    cholesky_phase<Posit32_3>(dm.dense, b, factor, solve);
    m.put("la.cholesky.factor_s", factor, "s");
    m.put("la.cholesky.solve_ms", 1e3 * solve, "ms");

    const core::IrRow ir = core::run_ir_experiment(dm, req);
    double fact = 0, refine = 0, steps = 0;
    for (const auto* c : {&ir.f16, &ir.p16_1, &ir.p16_2}) {
      steps += c->iterations;
      for (const auto& p : c->trace->phases) {
        if (p.name == "factorize") fact += p.seconds;
        if (p.name == "refine") refine += p.seconds;
      }
    }
    m.put("la.ir.factorize_s", fact, "s");
    m.put("la.ir.refine_s", refine, "s");
    m.put("la.ir.steps", steps, "count");

    // scaling: the three rescalings of the paper, on the dense probe.
    const auto scaled = [&](auto&& fn) {
      return 1e3 * time_median(5, [&] {
               la::Dense<double> A = dm.dense;
               la::Vec<double> bb = b;
               fn(A, bb);
             });
    };
    m.put("scaling.pow2_inf_ms", scaled([](auto& A, auto& bb) {
            scaling::scale_pow2_inf(A, bb, 10);
          }),
          "ms");
    m.put("scaling.diag_avg_ms", scaled([](auto& A, auto& bb) {
            scaling::scale_diag_avg(A, bb);
          }),
          "ms");
    m.put("scaling.higham_ms", scaled([](auto& A, auto&) {
            g_sink = g_sink +
                     scaling::higham_scale(A, scaling::mu_posit<16, 1>()).mu;
          }),
          "ms");
  }
}

/// run_request cold (fresh cache) and warm (factors cached, new RHS) on the
/// workload's first measured request.
void request_metrics(Metrics& m, const std::string& frame) {
  serve::Request r;
  std::string err;
  if (!serve::request_from_json(frame, r, err)) die("bad probe: " + err);
  serve::Cache cache(256u << 20);
  const double t0 = now_s();
  if (!core::run_request(r.solve, &cache).ok) die("probe request failed");
  m.put("core.run_request.cold_ms", 1e3 * (now_s() - t0), "ms");
  std::uint64_t seed = 1u << 30;
  const double warm = time_median(3, [&] {
    core::SolveRequest w = r.solve;
    w.rhs_seed = ++seed;
    if (!core::run_request(w, &cache).ok) die("probe request failed");
  });
  m.put("core.run_request.warm_ms", 1e3 * warm, "ms");
}

/// Self time per layer: span duration minus the time its children cover.
std::map<std::string, double> self_times(const std::vector<Span>& spans,
                                         std::vector<double>& self) {
  self.assign(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end - spans[i].start;
  for (const auto& s : spans)
    if (s.parent >= 0) self[std::size_t(s.parent)] -= s.end - s.start;
  std::map<std::string, double> layer;
  for (const char* l : {"serve.engine", "serve.protocol", "core.run_request",
                        "core.experiment", "core.report_json", "matrices",
                        "la"})
    layer[l] = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& n = spans[i].name;
    const std::string l = n == "serve.request"        ? "serve.engine"
                          : n.rfind("serve.protocol", 0) == 0 ? "serve.protocol"
                          : n.rfind("la.", 0) == 0         ? "la"
                          : n == "matrices.generate"       ? "matrices"
                                                           : n;
    layer[l] += self[i];
  }
  return layer;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start\":" << fmt(s.start) << ",\"end\":" << fmt(s.end)
        << ",\"parent\":" << s.parent << ",\"request\":" << s.req << "}";
  }
  out << "\n]\n";
}

}  // namespace

int main(int argc, char** argv) {
  lut::enable_defaults();  // as the pstab CLI does
  if (argc == 2 && std::string(argv[1]) == "--isa") {
    std::printf("%s\n",
                la::kernels::simd::isa_name(la::kernels::simd::active_isa()));
    return 0;
  }
  if (argc != 2) die("usage: perfbench_trace SPEC.json | --isa");
  std::ifstream in(argv[1]);
  std::stringstream text;
  text << in.rdbuf();
  serve::JsonValue spec;
  std::string err;
  if (!serve::json_parse(text.str(), spec, err)) die("spec: " + err);

  serve::EngineOptions opt;
  opt.threads = int(spec.find("threads")->number);
  opt.cache_bytes = std::size_t(spec.find("cache_mb")->number) << 20;
  const double interval = spec.find("interval")->number;
  const std::size_t outstanding = std::size_t(spec.find("outstanding")->number);
  const auto setup = strings(spec.find("setup"));
  std::vector<std::vector<std::string>> bursts;
  for (const auto& b : spec.find("open")->items) bursts.push_back(strings(&b));
  const auto closed = strings(spec.find("closed"));
  std::size_t total = closed.size();
  for (const auto& b : bursts) total += b.size();

  Metrics m;
  Done done;
  std::vector<double> submit_at(total + setup.size(), 0.0);
  double wall = 0;
  {
    serve::Engine eng(opt);
    // Setup is untraced: it only brings the engine to its warm state.
    for (std::size_t i = 0; i < setup.size(); ++i) {
      submit_frame(eng, setup[i], total + i, now_s(), done, submit_at);
      wait_below(done, 1);
    }
    done.digests.clear();
    g_on = true;
    const double t0 = now_s() + 0.01;
    std::size_t index = 0;
    for (std::size_t k = 0; k < bursts.size(); ++k) {
      const double due = t0 + double(k) * interval;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::max(0.0, due - now_s())));
      for (const auto& f : bursts[k])
        submit_frame(eng, f, index++, due, done, submit_at);
    }
    for (const auto& f : closed) {
      wait_below(done, outstanding);
      submit_frame(eng, f, index++, now_s(), done, submit_at);
    }
    wait_below(done, 1);
    eng.drain();
    wall = now_s() - t0;
    g_on = false;
  }
  if (!done.failures.empty()) die("replay request failed: " + done.failures[0]);

  // Latency and queue wait per measured request (open loop if the workload
  // has one, else the closed set).
  std::vector<Span> spans;
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    spans = g_spans;
  }
  const std::size_t n_open = total - closed.size();
  std::vector<double> lat, wait, parse, encode, rr_self, row;
  std::vector<double> self;
  const auto layers = self_times(spans, self);
  double e2e = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double d = s.end - s.start;
    const bool in_phase = n_open ? s.req <= n_open : s.req > n_open;
    if (s.name == "serve.request") {
      e2e += d;
      if (in_phase) lat.push_back(d);
    } else if (s.name == "core.run_request") {
      if (in_phase) wait.push_back(s.start - submit_at[s.req - 1]);
      rr_self.push_back(self[i]);
    } else if (s.name == "serve.protocol.parse") {
      parse.push_back(d);
    } else if (s.name == "serve.protocol.encode") {
      encode.push_back(d);
    } else if (s.name == "core.report_json") {
      row.push_back(d);
    }
  }
  double attributed = 0;
  for (const auto& [name, v] : layers) {
    m.put("layer." + name + ".self_s", v, "s");
    attributed += v;
  }
  m.put("trace.attributed_share", attributed / e2e, "ratio");
  m.put("trace.unattributed_s", e2e - attributed, "s");
  m.put("serve.engine.p50_ms", 1e3 * median(lat), "ms");
  m.put("serve.engine.queue_wait_ms", 1e3 * median(wait), "ms");
  m.put("serve.protocol.parse_us", 1e6 * median(parse), "us");
  m.put("serve.protocol.encode_us", 1e6 * median(encode), "us");
  m.put("core.run_request.self_ms", 1e3 * median(rr_self), "ms");
  m.put("core.report_json.row_us", 1e6 * median(row), "us");

  request_metrics(m, closed.empty() ? bursts[0][0] : closed[0]);
  layer_metrics(m, spec);
  write_spans(spec.find("spans_out")->raw, spans);

  std::string digests = "{";
  for (const auto& [i, d] : done.digests)
    digests += (digests.size() > 1 ? ",\"" : "\"") + std::to_string(i) +
               "\":\"" + core::digest_hex(d) + "\"";
  digests += "}";
  std::printf(
      "{\"traced_wall_s\": %s, \"traced_e2e_s\": %s, \"spans\": %zu, "
      "\"responses\": %s, \"metrics\": %s}\n",
      fmt(wall).c_str(), fmt(e2e).c_str(), spans.size(), digests.c_str(),
      m.json().c_str());
  return 0;
}
