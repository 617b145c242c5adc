#include "core/solve_api.hpp"

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <type_traits>

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

bool parse_solver(std::string_view s, Solver& out) noexcept {
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

std::string SolveRequest::request_error() const {
  const auto spec = matrices::find_spec(matrix);
  if (!spec) return "unknown matrix '" + matrix + "'";
  const char* name = to_string(solver);
  if (solver_info(solver).requires_spd && !spec->spd)
    return std::string("solver '") + name + "' requires an SPD matrix ('" +
           matrix + "' is general; use lu_ir or gmres_ir)";
  // The large-n tier is CSR-only (no dense image is ever materialized);
  // every solver except CG densifies, so reject up front with a real
  // message instead of factorizing an empty matrix.
  if (spec->sparse_only && solver != Solver::cg)
    return std::string("solver '") + name + "' needs a dense image, but '" +
           matrix + "' is a sparse-only large-n matrix (use cg)";
  if (resilience && (solver == Solver::lu_ir || solver == Solver::gmres_ir))
    return std::string("key 'resilience' is not supported by solver '") +
           name + "' (lu_factor has no recovery ladder)";
  return precision_error();
}

std::string SolveRequest::experiment_name() const {
  const SolverInfo& info = solver_info(solver);
  return rescale ? info.tag_rescaled : info.tag_plain;
}

std::string SolveRequest::batch_key() const {
  JsonWriter w;
  write_request_keys(*this, w.begin_object(), KeyScope::batch);
  return w.end_object().str();
}

std::string SolveRequest::canonical_key() const {
  JsonWriter w;
  write_request_keys(*this, w.begin_object(), KeyScope::canonical);
  return w.end_object().str();
}

// ---------------------------------------------------------------------------
// Digests

std::string digest_hex(std::uint64_t d) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

// ---------------------------------------------------------------------------
// The request-key table

namespace {

// The field a member-pointer path names: field<&A::b, &B::c> is &r.b.c.
template <auto... M>
KeyField field(SolveRequest& r) {
  return &(r .* ... .* M);
}

// clang-format off
// {wire, cli, alias, usage value, scope, required, field}
constexpr RequestKey kRequestKeys[] = {
    {"id", nullptr, nullptr, nullptr, KeyScope::wire, false, &field<&SolveRequest::id>},
    {"solver", nullptr, nullptr, nullptr, KeyScope::batch, true, &field<&SolveRequest::solver>},
    {"matrix", nullptr, nullptr, nullptr, KeyScope::batch, true, &field<&SolveRequest::matrix>},
    {"rescale", "--rescale", "--higham", nullptr, KeyScope::batch, false, &field<&SolveRequest::rescale>},
    {"tol", "--tol", nullptr, "<v>", KeyScope::batch, false, &field<&SolveRequest::tol>},
    {"max_iter", "--max-iter", nullptr, "<n>", KeyScope::batch, false, &field<&SolveRequest::max_iter>},
    {"max_iter_per_n", "--max-iter-per-n", nullptr, "<n>", KeyScope::batch, false, &field<&SolveRequest::max_iter_per_n>},
    {"fused_dots", "--fused", nullptr, nullptr, KeyScope::batch, false, &field<&SolveRequest::fused_dots>},
    {"history", "--history", nullptr, nullptr, KeyScope::batch, false, &field<&SolveRequest::record_history>},
    {"resilience", "--resilience", nullptr, nullptr, KeyScope::batch, false, &field<&SolveRequest::resilience>},
    {"rhs_seed", "--rhs-seed", nullptr, "<s>", KeyScope::canonical, false, &field<&SolveRequest::rhs_seed>},
    {"budget", "--budget", nullptr, "<ticks>", KeyScope::batch, false, &field<&SolveRequest::budget_ticks>},
    {"kernels", "--kernels", nullptr, "scalar|batched|simd|auto", KeyScope::batch, false, &field<&SolveRequest::backend>},
    {"block", "--block", nullptr, "<w>", KeyScope::batch, false, &field<&SolveRequest::block>},
    {"precision.factor", "--factor", nullptr, "grid|f16|bf16|p16_1|p16_2|f32|p32_2", KeyScope::batch, false, &field<&SolveRequest::precision, &PrecisionTriple::factor>},
    {"precision.working", "--working", nullptr, "f64", KeyScope::batch, false, &field<&SolveRequest::precision, &PrecisionTriple::working>},
    {"precision.residual", "--residual", nullptr, "auto|f64|dd|quire", KeyScope::batch, false, &field<&SolveRequest::precision, &PrecisionTriple::residual>},
};
// clang-format on

// One validator per value kind; each reads the whole text or rejects it.
// Integers are decimal with no sign ("010" is ten) and must fit their type;
// a double must be finite and >= 0.
template <class T>
  requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
bool read_value(std::string_view t, T& out) {
  std::conditional_t<std::is_integral_v<T>, std::uint64_t, T> v{};
  const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
  if (ec != std::errc{} || end != t.data() + t.size() || !(v >= 0) ||
      !(double(v) <= double(std::numeric_limits<T>::max())))
    return false;
  out = T(v);
  return true;
}

bool read_value(std::string_view t, bool& out) {
  if (t != "true" && t != "false") return false;
  out = t == "true";
  return true;
}

bool read_value(std::string_view t, std::string& out) {
  out = t;
  return true;
}

bool read_value(std::string_view t, Solver& out) { return parse_solver(t, out); }

bool read_value(std::string_view t, la::kernels::Backend& out) {
  for (int b = 0; b < 4; ++b)
    if (t == la::kernels::to_string(la::kernels::Backend(b))) {
      out = la::kernels::Backend(b);
      return true;
    }
  return false;
}

// What each value kind accepts, by KeyField alternative.
constexpr const char* kExpects[] = {
    "a boolean",
    "an integer in [0, 2147483647]",
    "a finite number >= 0",
    "a decimal integer in [0, 18446744073709551615]",
    "a string",
    "a registry solver name or alias",
    "\"scalar\", \"batched\", \"simd\" or \"auto\"",
};
static_assert(std::size(kExpects) == std::variant_size_v<KeyField>);

// Read access through the table's mutable accessor; nothing is written.
KeyField field_of(const RequestKey& k, const SolveRequest& r) {
  return k.field(const_cast<SolveRequest&>(r));
}

std::size_t kind_index(const RequestKey& k) {
  static const SolveRequest probe;
  return field_of(k, probe).index();
}

const RequestKey* find_cli_key(std::string_view flag) {
  for (const RequestKey& k : kRequestKeys)
    if ((k.cli && flag == k.cli) || (k.alias && flag == k.alias)) return &k;
  return nullptr;
}

}  // namespace

KeyKind RequestKey::kind() const {
  const std::size_t i = kind_index(*this);  // bool*; int*, double*, u64*; ...
  return i == 0 ? KeyKind::flag : i <= 3 ? KeyKind::number : KeyKind::text;
}

const char* RequestKey::expects() const { return kExpects[kind_index(*this)]; }

bool RequestKey::set(SolveRequest& r, std::string_view text) const {
  return std::visit([text](auto* p) { return read_value(text, *p); },
                    field(r));
}

std::span<const RequestKey> request_keys() { return kRequestKeys; }

bool read_flag_value(std::string_view flag, std::string_view text,
                     KeyField out, std::string& error) {
  if (std::visit([text](auto* p) { return read_value(text, *p); }, out))
    return true;
  error = std::string(flag) + " expects " + kExpects[out.index()] +
          ", got '" + std::string(text) + "'";
  return false;
}

const RequestKey* find_wire_key(std::string_view name) {
  for (const RequestKey& k : kRequestKeys)
    if (name == k.wire) return &k;
  return nullptr;
}

void write_request_keys(const SolveRequest& r, JsonWriter& w, KeyScope from,
                        KeyScope to) {
  std::string_view open;  // the nested object currently open, if any
  for (const RequestKey& k : kRequestKeys) {
    if (k.scope < from || k.scope > to) continue;
    const std::string_view name = k.wire;
    const std::size_t member = name.find('.') + 1;  // 0 when not nested
    const std::string_view group = name.substr(0, member ? member - 1 : 0);
    if (group != open) {
      if (!open.empty()) w.end_object();
      if (!group.empty()) w.key(std::string(group)).begin_object();
      open = group;
    }
    w.key(std::string(name.substr(member)));
    std::visit(
        [&w](const auto* p) {
          using T = std::remove_cv_t<std::remove_pointer_t<decltype(p)>>;
          if constexpr (std::is_same_v<T, Solver> ||
                        std::is_same_v<T, la::kernels::Backend>)
            w.value(to_string(*p));
          else
            w.value(*p);
        },
        field_of(k, r));
  }
  if (!open.empty()) w.end_object();
}

// ---------------------------------------------------------------------------
// CLI parser

CliParse parse_solver_cli(Solver solver, const std::string& matrix, int argc,
                          char** argv, int first) {
  CliParse p;
  p.req.solver = solver;
  p.req.matrix = matrix;
  const auto fail = [&p](std::string msg) {
    p.ok = false;
    p.error = std::move(msg);
  };
  for (int i = first; i < argc && p.ok; ++i) {
    const std::string a = argv[i];
    const RequestKey* k = find_cli_key(a);
    if (k && k->kind() == KeyKind::flag) {
      (void)k->set(p.req, "true");
    } else if (!k && a != "--json") {
      fail("unknown flag '" + a + "'");
    } else if (i + 1 >= argc) {
      fail("flag '" + a + "' requires a value");
    } else if (!k) {
      p.json_path = argv[++i];
    } else if (std::string err;
               !read_flag_value(a, argv[++i], k->field(p.req), err)) {
      fail(std::move(err));
    }
  }
  if (p.ok) {
    p.error = p.req.request_error();
    p.ok = p.error.empty();
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
    resp.error = req.request_error();
    if (!resp.error.empty()) return resp;
    const SolverInfo& info = solver_info(req.solver);
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
