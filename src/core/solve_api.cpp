#include "core/solve_api.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/experiments.hpp"
#include "core/report_json.hpp"
#include "core/telemetry/telemetry.hpp"
#include "matrices/suite.hpp"

namespace pstab::core {

// ---------------------------------------------------------------------------
// Solver registry — the ONE place that knows a solver exists.

namespace {

// Row runners: grid experiment -> serialized report_json row.  Defined over
// the experiment drivers so the registry row is the only dispatch site.
std::string run_cg_row(const matrices::GeneratedMatrix& m,
                       const SolveRequest& req, ArtifactCache* cache) {
  return cg_row_json(run_cg_experiment(m, req, cache));
}
std::string run_cholesky_row(const matrices::GeneratedMatrix& m,
                             const SolveRequest& req, ArtifactCache* cache) {
  return cholesky_row_json(run_cholesky_experiment(m, req, cache));
}
std::string run_ir_row(const matrices::GeneratedMatrix& m,
                       const SolveRequest& req, ArtifactCache* cache) {
  return ir_row_json(run_ir_experiment(m, req, cache));
}
std::string run_lu_ir_row(const matrices::GeneratedMatrix& m,
                          const SolveRequest& req, ArtifactCache* cache) {
  return lu_ir_row_json(run_lu_ir_experiment(m, req, cache));
}
std::string run_gmres_ir_row(const matrices::GeneratedMatrix& m,
                             const SolveRequest& req, ArtifactCache* cache) {
  return gmres_ir_row_json(run_gmres_ir_experiment(m, req, cache));
}

}  // namespace

const std::vector<SolverInfo>& solver_registry() {
  // {id, name, aliases, default_tol, default_max_iter, iters_scale_with_n,
  //  requires_spd, default_residual, tag_plain, tag_rescaled, run_row}
  static const std::vector<SolverInfo> table = {
      {Solver::cg, "cg", {}, 1e-5, 15, true, true, "f64",  //
       "cg", "cg_rescaled", &run_cg_row},
      {Solver::cholesky, "cholesky", {"chol"}, 1e-5, 0, false, true, "f64",
       "cholesky", "cholesky_rescaled", &run_cholesky_row},
      {Solver::ir, "ir", {}, 4.0 * 1.11e-16, 1000, false, true, "f64",
       "ir_naive", "ir_higham", &run_ir_row},
      {Solver::lu_ir, "lu_ir", {"lu-ir"}, 4.0 * 1.11e-16, 1000, false, false,
       "dd", "lu_ir", "lu_ir_equilibrated", &run_lu_ir_row},
      {Solver::gmres_ir, "gmres_ir", {"gmres-ir"}, 4.0 * 1.11e-16, 100, false,
       false, "dd", "gmres_ir", "gmres_ir_equilibrated", &run_gmres_ir_row},
  };
  return table;
}

const SolverInfo& solver_info(Solver s) noexcept {
  for (const auto& info : solver_registry())
    if (info.id == s) return info;
  return solver_registry().front();  // unreachable for valid enums
}

const char* to_string(Solver s) noexcept { return solver_info(s).name; }

bool parse_solver(const std::string& s, Solver& out) noexcept {
  for (const auto& info : solver_registry()) {
    if (s == info.name) {
      out = info.id;
      return true;
    }
    for (const char* alias : info.aliases) {
      if (s == alias) {
        out = info.id;
        return true;
      }
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// PrecisionTriple

const std::vector<std::string>& factor_formats() {
  // Keep in sync with the X-macro grids in experiments.cpp.
  static const std::vector<std::string> v = {"f16",   "bf16", "p16_1",
                                             "p16_2", "f32",  "p32_2"};
  return v;
}

bool valid_factor(const std::string& s) noexcept {
  if (s == "grid") return true;
  for (const auto& f : factor_formats())
    if (s == f) return true;
  return false;
}

bool valid_residual(const std::string& s) noexcept {
  return s == "auto" || s == "f64" || s == "dd" || s == "quire";
}

// ---------------------------------------------------------------------------
// SolveRequest

double SolveRequest::effective_tol() const noexcept {
  if (tol > 0) return tol;
  return solver_info(solver).default_tol;
}

int SolveRequest::effective_max_iter(int n) const noexcept {
  if (max_iter > 0) return max_iter;
  const SolverInfo& info = solver_info(solver);
  if (info.iters_scale_with_n) {
    // In 64 bits, saturated: a per-n cap times a large n never wraps.
    const std::int64_t cap =
        std::int64_t(max_iter_per_n > 0 ? max_iter_per_n
                                        : info.default_max_iter) *
        n;
    return cap > INT_MAX ? INT_MAX : int(cap);
  }
  return info.default_max_iter;
}

std::string SolveRequest::effective_residual() const {
  if (precision.residual != "auto") return precision.residual;
  return solver_info(solver).default_residual;
}

std::string SolveRequest::precision_error() const {
  if (!valid_factor(precision.factor))
    return "unknown factor format '" + precision.factor + "'";
  if (precision.working != "f64")
    return "unsupported working precision '" + precision.working +
           "' (only \"f64\")";
  if (!valid_residual(precision.residual))
    return "unknown residual precision '" + precision.residual + "'";
  const bool refinement =
      solver == Solver::ir || solver == Solver::lu_ir ||
      solver == Solver::gmres_ir;
  if (!refinement && !precision.is_default())
    return std::string("solver '") + to_string(solver) +
           "' does not take a precision triple";
  if (solver == Solver::ir && precision.factor != "grid")
    return "solver 'ir' runs its fixed f16/p16_1/p16_2 grid (factor must be "
           "\"grid\")";
  return {};
}

std::string SolveRequest::experiment_name() const {
  const SolverInfo& info = solver_info(solver);
  return rescale ? info.tag_rescaled : info.tag_plain;
}

std::string SolveRequest::batch_key() const {
  char buf[224];
  std::snprintf(
      buf, sizeof buf,
      "|r%d|t%.17g|m%d|mn%d|fd%d|h%d|res%d|bt%d|k%s|b%d|pf%s|pw%s|pr%s",
      int(rescale), tol, max_iter, max_iter_per_n, int(fused_dots),
      int(record_history), int(resilience), budget_ticks,
      la::kernels::to_string(backend), block, precision.factor.c_str(),
      precision.working.c_str(), precision.residual.c_str());
  return std::string(to_string(solver)) + "|" + matrix + buf;
}

std::string SolveRequest::canonical_key() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "|s%llu",
                static_cast<unsigned long long>(rhs_seed));
  return batch_key() + buf;
}

// ---------------------------------------------------------------------------
// Digests

std::string digest_hex(std::uint64_t d) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

bool parse_backend(const std::string& s, la::kernels::Backend& out) noexcept {
  if (s == "scalar") out = la::kernels::Backend::Scalar;
  else if (s == "batched") out = la::kernels::Backend::Batched;
  else if (s == "simd") out = la::kernels::Backend::Simd;
  else if (s == "auto") out = la::kernels::Backend::Auto;
  else return false;
  return true;
}

// ---------------------------------------------------------------------------
// CLI parser

namespace {

/// The whole of `s` as a decimal integer in [0, INT_MAX].
bool parse_count(const char* s, int& out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < 0 || v > INT_MAX)
    return false;
  out = int(v);
  return true;
}

/// The whole of `s` as an unsigned 64-bit integer (decimal, or 0x hex / 0
/// octal as strtoull reads them); no sign, no trailing text.
bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  if (*s == '-' || *s == '+' || std::isspace(static_cast<unsigned char>(*s)))
    return false;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

/// The whole of `s` as a finite non-negative number.
bool parse_nonneg(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v < 0) return false;
  out = v;
  return true;
}

}  // namespace

CliParse parse_solver_cli(Solver solver, const std::string& matrix, int argc,
                          char** argv, int first) {
  CliParse p;
  p.req.solver = solver;
  p.req.matrix = matrix;
  const auto value_missing = [&p](const char* flag) {
    p.ok = false;
    p.error = std::string("flag '") + flag + "' requires a value";
  };
  const auto bad_value = [&p](const char* flag, const char* want,
                              const char* got) {
    p.ok = false;
    p.error = std::string(flag) + " expects " + want + ", got '" + got + "'";
  };
  for (int i = first; i < argc && p.ok; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(a, "--rescale") == 0 || std::strcmp(a, "--higham") == 0) {
      p.req.rescale = true;
    } else if (std::strcmp(a, "--fused") == 0) {
      p.req.fused_dots = true;
    } else if (std::strcmp(a, "--history") == 0) {
      p.req.record_history = true;
    } else if (std::strcmp(a, "--resilience") == 0) {
      p.req.resilience = true;
    } else if (std::strcmp(a, "--json") == 0) {
      if (!has_value) { value_missing(a); break; }
      p.json_path = argv[++i];
    } else if (std::strcmp(a, "--tol") == 0) {
      if (!has_value) { value_missing(a); break; }
      if (!parse_nonneg(argv[++i], p.req.tol))
        bad_value(a, "a non-negative number", argv[i]);
    } else if (std::strcmp(a, "--max-iter") == 0) {
      if (!has_value) { value_missing(a); break; }
      if (!parse_count(argv[++i], p.req.max_iter))
        bad_value(a, "a non-negative iteration count", argv[i]);
    } else if (std::strcmp(a, "--max-iter-per-n") == 0) {
      if (!has_value) { value_missing(a); break; }
      if (!parse_count(argv[++i], p.req.max_iter_per_n))
        bad_value(a, "a non-negative iteration count", argv[i]);
    } else if (std::strcmp(a, "--rhs-seed") == 0) {
      if (!has_value) { value_missing(a); break; }
      if (!parse_u64(argv[++i], p.req.rhs_seed))
        bad_value(a, "a non-negative integer seed", argv[i]);
    } else if (std::strcmp(a, "--budget") == 0) {
      if (!has_value) { value_missing(a); break; }
      if (!parse_count(argv[++i], p.req.budget_ticks))
        bad_value(a, "a non-negative tick count", argv[i]);
    } else if (std::strcmp(a, "--kernels") == 0) {
      if (!has_value) { value_missing(a); break; }
      if (!parse_backend(argv[++i], p.req.backend)) {
        p.ok = false;
        p.error = std::string("unknown backend '") + argv[i] + "'";
      }
    } else if (std::strcmp(a, "--block") == 0) {
      if (!has_value) { value_missing(a); break; }
      if (!parse_count(argv[++i], p.req.block))
        bad_value(a, "a non-negative panel width", argv[i]);
    } else if (std::strcmp(a, "--factor") == 0) {
      if (!has_value) { value_missing(a); break; }
      p.req.precision.factor = argv[++i];
    } else if (std::strcmp(a, "--working") == 0) {
      if (!has_value) { value_missing(a); break; }
      p.req.precision.working = argv[++i];
    } else if (std::strcmp(a, "--residual") == 0) {
      if (!has_value) { value_missing(a); break; }
      p.req.precision.residual = argv[++i];
    } else {
      p.ok = false;
      p.error = std::string("unknown flag '") + a + "'";
    }
  }
  if (p.ok) {
    const std::string perr = p.req.precision_error();
    if (!perr.empty()) {
      p.ok = false;
      p.error = perr;
    }
  }
  // Artifacts embed telemetry counters, so recording must be on for the run.
  if (p.ok && !p.json_path.empty()) {
    telemetry::set_enabled(true);
    telemetry::reset();
  }
  return p;
}

// ---------------------------------------------------------------------------
// Dispatch

SolveResponse run_request(const SolveRequest& req, ArtifactCache* cache) {
  SolveResponse resp;
  resp.id = req.id;
  try {
    const auto spec = matrices::find_spec(req.matrix);
    if (!spec) {
      resp.error = "unknown matrix '" + req.matrix + "'";
      return resp;
    }
    const SolverInfo& info = solver_info(req.solver);
    if (info.requires_spd && !spec->spd) {
      resp.error = std::string("solver '") + info.name +
                   "' requires an SPD matrix ('" + req.matrix +
                   "' is general; use lu_ir or gmres_ir)";
      return resp;
    }
    // The large-n tier is CSR-only (no dense image is ever materialized);
    // every solver except CG densifies, so reject up front with a real
    // message instead of factorizing an empty matrix.
    if (spec->sparse_only && req.solver != Solver::cg) {
      resp.error = std::string("solver '") + info.name +
                   "' needs a dense image, but '" + req.matrix +
                   "' is a sparse-only large-n matrix (use cg)";
      return resp;
    }
    const std::string perr = req.precision_error();
    if (!perr.empty()) {
      resp.error = perr;
      return resp;
    }
    const std::string resp_key = "resp/" + req.canonical_key();
    if (cache) {
      if (auto hit = cache->get(resp_key)) {
        resp.ok = true;
        resp.cache_hit = true;
        resp.result_json = *std::static_pointer_cast<const std::string>(hit);
        return resp;
      }
    }
    // Generated suite matrices are themselves cache entries: the bounded
    // cache owns their lifetime under memory pressure, while the held
    // shared_ptr keeps this request's matrix alive across an eviction.
    std::shared_ptr<const matrices::GeneratedMatrix> held;
    const matrices::GeneratedMatrix* m = nullptr;
    if (cache) {
      held = cache->get_or_make<matrices::GeneratedMatrix>(
          "matrix/" + req.matrix,
          [&] { return matrices::make_suite_matrix(req.matrix); },
          [](const matrices::GeneratedMatrix& g) {
            // dense + csr + struct overhead, approximately — measured from
            // the actual buffers, so a sparse-only large-n matrix (empty
            // dense) is billed its real footprint, not O(n^2).
            return sizeof g + g.dense.data().size() * sizeof(double) +
                   g.csr.nnz() * (sizeof(double) + sizeof(int)) +
                   (std::size_t(g.csr.rows()) + 1) * sizeof(int);
          });
      m = held.get();
    } else {
      m = &matrices::suite_matrix(req.matrix);
    }
    // CG's cap is max_iter_per_n * n; a product past INT_MAX is an error
    // naming the key, not a silently saturated cap.
    if (info.iters_scale_with_n && req.max_iter <= 0 &&
        std::int64_t(req.max_iter_per_n) * m->n > INT_MAX) {
      resp.error = "key 'max_iter_per_n' times the matrix order (" +
                   std::to_string(m->n) + ") exceeds 2147483647";
      return resp;
    }
    resp.result_json = info.run_row(*m, req, cache);
    // A solve cut short by the cancel token (the serve watchdog) stopped at
    // a wall-clock-dependent point: the row is NOT deterministic, so it must
    // never be memoized or reported as a result.  Tick-exhausted budgets, by
    // contrast, produce deterministic deadline_exceeded rows and flow through
    // the normal (memoized) path below.
    if (req.cancel && req.cancel->cancelled()) {
      resp.ok = false;
      resp.result_json.clear();
      resp.error = "detected: solve cancelled by the hang watchdog";
      return resp;
    }
    resp.ok = true;
    if (cache)
      cache->put(resp_key,
                 std::make_shared<const std::string>(resp.result_json),
                 resp.result_json.size() + 64);
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.result_json.clear();
    resp.error = std::string("internal_error: ") + e.what();
  } catch (...) {
    // A non-std exception from a solver must still become a structured
    // response — losing it here would lose the request's reply.
    resp.ok = false;
    resp.result_json.clear();
    resp.error = "internal_error: unknown exception";
  }
  return resp;
}

}  // namespace pstab::core
