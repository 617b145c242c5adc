#include "core/experiments.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/parallel_for.hpp"
#include "common/rng.hpp"
#include "ieee/softfloat.hpp"
#include "la/cholesky.hpp"
#include "la/gmres.hpp"
#include "posit/posit.hpp"
#include "scaling/higham.hpp"
#include "scaling/scaling.hpp"

namespace pstab::core {

namespace {
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Pin the solver field so a request built for one driver can be replayed
/// against another without carrying a stale tol/max_iter interpretation.
SolveRequest pinned(const SolveRequest& req, Solver s) {
  SolveRequest r = req;
  r.solver = s;
  return r;
}

/// True when the request carries a deadline (tick budget or a live cancel
/// token).  Budgeted requests bypass the factorization caches: a partial
/// (deadline-stopped) factorization must never be stored under an
/// unbudgeted key, and a cached COMPLETE factorization would let a budgeted
/// warm solve skip the factorization's ticks — tripping the refinement
/// deadline at a different step than the cold solve, breaking warm == cold.
bool has_deadline(const SolveRequest& req) {
  return req.budget_ticks > 0 || req.cancel != nullptr;
}

/// The per-cell budget: every grid cell spends its OWN allowance of
/// req.budget_ticks ticks (a shared counter would make the trip point depend
/// on which cells run first under parallel_map), while all cells observe the
/// one shared cancel token.
core::Budget cell_budget(const SolveRequest& req) {
  return core::Budget(std::uint64_t(req.budget_ticks > 0 ? req.budget_ticks
                                                         : 0),
                      req.cancel);
}

/// The hex content digest a cache key embeds for `m`: the one its generator
/// or loader computed.  A matrix without one throws, so two digest-less
/// matrices can never share a key.
std::string key_digest(const matrices::GeneratedMatrix& m) {
  if (!m.digest)
    throw std::logic_error("cache key for matrix '" + m.spec.name +
                           "' without a content digest");
  return digest_hex(*m.digest);
}

la::ResidualPrec residual_prec(const std::string& s) {
  if (s == "dd") return la::ResidualPrec::dd;
  if (s == "quire") return la::ResidualPrec::quire;
  return la::ResidualPrec::working;
}

}  // namespace

la::Vec<double> request_rhs(const matrices::GeneratedMatrix& m,
                            std::uint64_t rhs_seed) {
  // The sparse-only large-n tier never materializes m.dense; multiply
  // through the CSR image instead (identical b: both are exact double
  // row-dot products over the same nonzeros, in the same column order).
  const bool sparse = m.dense.rows() == 0;
  if (rhs_seed == 0)
    return sparse ? matrices::paper_rhs(m.csr) : matrices::paper_rhs(m.dense);
  // b = A * xhat for a seeded random unit xhat: same construction as the
  // paper's RHS, only the direction of xhat varies with the seed.
  const int n = m.n;
  SplitMix64 rng(rhs_seed);
  la::Vec<double> xhat(n);
  double norm2 = 0.0;
  for (int i = 0; i < n; ++i) {
    // Uniform in [-1, 1) from the top 53 bits; fully deterministic per seed.
    const double u = double(rng.next() >> 11) * 0x1p-52 - 1.0;
    xhat[i] = u;
    norm2 += u * u;
  }
  const double inv = norm2 > 0 ? 1.0 / std::sqrt(norm2) : 1.0;
  for (int i = 0; i < n; ++i) xhat[i] *= inv;
  if (sparse) {
    la::Vec<double> b;
    m.csr.spmv(xhat, b);
    return b;
  }
  la::Vec<double> b(n, 0.0);
  for (int i = 0; i < n; ++i) {
    double s = 0.0;
    for (int j = 0; j < n; ++j) s += m.dense(i, j) * xhat[j];
    b[i] = s;
  }
  return b;
}

// ---------------------------------------------------------------------------
// CG

template <class T>
CgCell cg_in_format(const la::Csr<double>& A, const la::Vec<double>& b,
                    const la::CgOptions& opt) {
  const auto At = A.cast<T>();
  const auto bt = la::kernels::from_double_vec<T>(b);
  la::Vec<T> xt;
  auto rep = la::cg_solve(At, bt, xt, opt);
  CgCell cell = std::move(rep);  // CgCell IS la::SolveReport
  // True residual in double.
  la::Vec<double> ax;
  A.spmv(la::kernels::to_double_vec(xt), ax);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    num += (b[i] - ax[i]) * (b[i] - ax[i]);
    den += b[i] * b[i];
  }
  cell.true_relres = den > 0 ? std::sqrt(num / den) : 0.0;
  return cell;
}

template CgCell cg_in_format<double>(const la::Csr<double>&,
                                     const la::Vec<double>&,
                                     const la::CgOptions&);
template CgCell cg_in_format<float>(const la::Csr<double>&,
                                    const la::Vec<double>&,
                                    const la::CgOptions&);
template CgCell cg_in_format<Posit32_2>(const la::Csr<double>&,
                                        const la::Vec<double>&,
                                        const la::CgOptions&);
template CgCell cg_in_format<Posit32_3>(const la::Csr<double>&,
                                        const la::Vec<double>&,
                                        const la::CgOptions&);
template CgCell cg_in_format<Posit<32, 1>>(const la::Csr<double>&,
                                           const la::Vec<double>&,
                                           const la::CgOptions&);
template CgCell cg_in_format<Posit<32, 4>>(const la::Csr<double>&,
                                           const la::Vec<double>&,
                                           const la::CgOptions&);

double CgRow::pct_improvement(const CgCell& posit) const {
  if (!f32.converged() || !posit.converged()) return kNan;
  if (f32.iterations == 0) return 0.0;
  return 100.0 * double(f32.iterations - posit.iterations) /
         double(f32.iterations);
}

CgRow run_cg_experiment(const matrices::GeneratedMatrix& m,
                        const SolveRequest& req_in, ArtifactCache* cache) {
  (void)cache;  // CG has no factorization to share; the matrix and whole
                // response are cached one level up (run_request).
  const SolveRequest req = pinned(req_in, Solver::cg);
  CgRow row;
  row.matrix = m.spec.name;
  row.norm2 = m.spec.norm2;
  row.cond = m.spec.cond;

  la::Csr<double> A = m.csr;
  la::Vec<double> b = request_rhs(m, req.rhs_seed);
  if (req.rescale) scaling::scale_pow2_inf(A, b, 10);

  la::CgOptions cg;
  cg.tol = req.effective_tol();
  cg.max_iter = req.effective_max_iter(m.n);
  cg.fused_dots = req.fused_dots;
  cg.record_history = req.record_history;
  cg.record_trace = req.record_trace;
  cg.kernels = req.kernel_context();
  cg.resilience = req.resilient_options();

  // One fresh Budget per format cell: each cell deadlines at the same
  // iteration regardless of the order cells run in.
  const bool deadline = has_deadline(req);
  core::Budget b64 = cell_budget(req), b32 = cell_budget(req);
  core::Budget bp2 = cell_budget(req), bp3 = cell_budget(req);
  cg.budget = deadline ? &b64 : nullptr;
  row.f64 = cg_in_format<double>(A, b, cg);
  cg.budget = deadline ? &b32 : nullptr;
  row.f32 = cg_in_format<float>(A, b, cg);
  cg.budget = deadline ? &bp2 : nullptr;
  row.p32_2 = cg_in_format<Posit32_2>(A, b, cg);
  cg.budget = deadline ? &bp3 : nullptr;
  row.p32_3 = cg_in_format<Posit32_3>(A, b, cg);
  return row;
}

// ---------------------------------------------------------------------------
// Cholesky

template <class T>
CholCell cholesky_in_format(const la::Dense<double>& A,
                            const la::Vec<double>& b,
                            const la::kernels::Context& kc,
                            ArtifactCache* cache,
                            const std::string& factor_key,
                            const la::ResilientOptions& resilience,
                            Budget* budget) {
  CholCell cell;
  // The cast happens inside the factor function: a cache hit never reads it.
  const auto factor = [&] {
    return la::cholesky_resilient(A.template cast<T>(), resilience, nullptr,
                                  kc, nullptr, budget);
  };
  std::shared_ptr<const la::CholResult<T>> fact;
  if (cache && !factor_key.empty()) {
    fact = cache->get_or_make<la::CholResult<T>>(
        factor_key, factor, [](const la::CholResult<T>& f) {
          return sizeof f + f.R.data().size() * sizeof(T) +
                 f.profile.size() * sizeof(int);
        });
  } else {
    fact = std::make_shared<const la::CholResult<T>>(factor());
  }

  cell.status = fact->status;
  cell.recovery = fact->recovery;
  if (fact->status != la::CholStatus::ok) return cell;

  const auto bt = la::kernels::from_double_vec<T>(b);
  const auto x = la::solve_upper(
      fact->R, la::solve_lower_rt(fact->R, bt, kc, fact->profile), kc,
      fact->profile);
  if (!la::kernels::all_finite(x)) {
    cell.status = la::SolveStatus::arithmetic_error;
    return cell;
  }
  const auto xd = la::kernels::to_double_vec(x);
  const auto r = la::residual(A, b, xd);
  double den = 0;
  for (double v : b) den += v * v;
  const double berr = la::kernels::nrm2_d(r) / std::sqrt(den);
  cell.status = la::SolveStatus::ok;
  cell.final_relres = berr;
  cell.true_relres = berr;
  return cell;
}

template CholCell cholesky_in_format<double>(const la::Dense<double>&,
                                             const la::Vec<double>&,
                                             const la::kernels::Context&,
                                             ArtifactCache*,
                                             const std::string&,
                                             const la::ResilientOptions&,
                                             Budget*);
template CholCell cholesky_in_format<float>(const la::Dense<double>&,
                                            const la::Vec<double>&,
                                            const la::kernels::Context&,
                                            ArtifactCache*, const std::string&,
                                            const la::ResilientOptions&,
                                            Budget*);
template CholCell cholesky_in_format<Posit32_2>(const la::Dense<double>&,
                                                const la::Vec<double>&,
                                                const la::kernels::Context&,
                                                ArtifactCache*,
                                                const std::string&,
                                                const la::ResilientOptions&,
                                             Budget*);
template CholCell cholesky_in_format<Posit32_3>(const la::Dense<double>&,
                                                const la::Vec<double>&,
                                                const la::kernels::Context&,
                                                ArtifactCache*,
                                                const std::string&,
                                                const la::ResilientOptions&,
                                             Budget*);
template CholCell cholesky_in_format<Posit<32, 1>>(const la::Dense<double>&,
                                                   const la::Vec<double>&,
                                                   const la::kernels::Context&,
                                                   ArtifactCache*,
                                                   const std::string&,
                                                   const la::ResilientOptions&,
                                             Budget*);
template CholCell cholesky_in_format<Posit<32, 4>>(const la::Dense<double>&,
                                                   const la::Vec<double>&,
                                                   const la::kernels::Context&,
                                                   ArtifactCache*,
                                                   const std::string&,
                                                   const la::ResilientOptions&,
                                             Budget*);

double CholRow::extra_digits(const CholCell& posit) const {
  if (!f32.converged() || !posit.converged() || posit.true_relres <= 0 ||
      f32.true_relres <= 0)
    return kNan;
  return std::log10(f32.true_relres / posit.true_relres);
}

CholRow run_cholesky_experiment(const matrices::GeneratedMatrix& m,
                                const SolveRequest& req_in,
                                ArtifactCache* cache) {
  const SolveRequest req = pinned(req_in, Solver::cholesky);
  CholRow row;
  row.matrix = m.spec.name;
  row.norm2 = m.spec.norm2;

  // A is copied only when the request rescales it.
  la::Vec<double> b = request_rhs(m, req.rhs_seed);
  std::optional<la::Dense<double>> scaled;
  if (req.rescale) {
    scaled = m.dense;
    scaling::scale_diag_avg(*scaled, b);
  }
  const la::Dense<double>& A = scaled ? *scaled : m.dense;

  const la::kernels::Context kc = req.kernel_context();
  const la::ResilientOptions res = req.resilient_options();
  // Factorization cache key: (content digest of the matrix as generated,
  // format, scaling) — scale_diag_avg is a function of A alone, so the
  // scaling tag keeps the key content-addressed.  The RHS never enters,
  // which is what lets a multi-RHS batch reuse one factorization per
  // format.  Deadline-carrying requests bypass the factor cache entirely
  // (see has_deadline above).
  const bool deadline = has_deadline(req);
  std::string kb;
  if (cache && !deadline)
    kb = "chol/" + key_digest(m) + "/" +
         (req.rescale ? "diag" : "none") + (req.resilience ? "/res" : "") + "/";
  const auto key = [&](const char* fmt) {
    return cache && !deadline ? kb + fmt : std::string();
  };
  core::Budget b64 = cell_budget(req), b32 = cell_budget(req);
  core::Budget bp2 = cell_budget(req), bp3 = cell_budget(req);
  row.f64 = cholesky_in_format<double>(A, b, kc, cache, key("f64"), res,
                                       deadline ? &b64 : nullptr);
  row.f32 = cholesky_in_format<float>(A, b, kc, cache, key("f32"), res,
                                      deadline ? &b32 : nullptr);
  row.p32_2 = cholesky_in_format<Posit32_2>(A, b, kc, cache, key("p32_2"), res,
                                            deadline ? &bp2 : nullptr);
  row.p32_3 = cholesky_in_format<Posit32_3>(A, b, kc, cache, key("p32_3"), res,
                                            deadline ? &bp3 : nullptr);
  return row;
}

// ---------------------------------------------------------------------------
// Mixed-precision IR

namespace {

/// Two-sided equilibration of one matrix, shared across every format's mu
/// (equilibrate_sym does not depend on mu, so one cache entry serves
/// Float16 and both posit formats).
struct Equilibrated {
  la::Dense<double> rar;       // R A R
  std::vector<double> rdiag;   // diag(R)
};

template <class F>
la::IrReport ir_one_format(const matrices::GeneratedMatrix& m,
                           const SolveRequest& req, double mu,
                           ArtifactCache* cache, const std::string& key_base,
                           const char* fmt_tag) {
  la::IrOptions iro;
  iro.tol = req.effective_tol();
  iro.max_iter = req.effective_max_iter(m.n);
  iro.residual = residual_prec(req.effective_residual());
  iro.record_history = req.record_history;
  iro.record_trace = req.record_trace;
  iro.kernels = req.kernel_context();
  iro.resilience = req.resilient_options();
  const bool deadline = has_deadline(req);
  core::Budget bud = cell_budget(req);
  iro.budget = deadline ? &bud : nullptr;
  const la::Dense<double>& A = m.dense;
  const la::Vec<double> b = request_rhs(m, req.rhs_seed);
  la::Vec<double> x;

  // Factorization memo: keyed by (matrix digest, format, scaling).  The
  // factor function reproduces exactly what mixed_ir would have done, so the
  // refinement below is bit-identical warm or cold.  Deadline-carrying
  // requests skip it (see has_deadline above): mixed_ir then factors inline,
  // spending factorization-column ticks from the same allowance.
  const auto cached_fact =
      [&](const la::Dense<double>& src) -> std::shared_ptr<const la::CholResult<F>> {
    if (!cache || deadline) return nullptr;
    return cache->get_or_make<la::CholResult<F>>(
        key_base + fmt_tag,
        [&] {
          const la::Dense<F> Ah = src.template cast_clamped<F>();
          return la::cholesky_resilient(Ah, iro.resilience, nullptr,
                                        iro.kernels);
        },
        [](const la::CholResult<F>& f) {
          return sizeof f + f.R.data().size() * sizeof(F) +
                 f.profile.size() * sizeof(int);
        });
  };

  if (!req.rescale) {
    const auto fact = cached_fact(A);
    return la::mixed_ir<F>(A, b, x, iro, nullptr, nullptr, fact.get());
  }

  // Higham path: the mu-independent equilibration is computed (or fetched)
  // once per matrix, then scaled by this format's mu.  Operation order
  // matches scaling::higham_scale exactly: equilibrate first, multiply by mu
  // elementwise second.
  scaling::HighamScaling hs;
  la::Dense<double> Ah;
  if (cache) {
    const auto eq = cache->get_or_make<Equilibrated>(
        "equil/" + key_digest(m),
        [&] {
          Equilibrated e;
          e.rar = A;
          e.rdiag = scaling::equilibrate_sym(e.rar);
          return e;
        },
        [](const Equilibrated& e) {
          return sizeof e + e.rar.data().size() * sizeof(double) +
                 e.rdiag.size() * sizeof(double);
        });
    Ah = eq->rar;
    hs.rdiag = eq->rdiag;
    hs.mu = mu;
    for (auto& v : Ah.data()) v *= mu;
  } else {
    Ah = A;
    hs = scaling::higham_scale(Ah, mu);
  }
  const auto fact = cached_fact(Ah);
  return la::mixed_ir<F>(A, b, x, iro, &hs, &Ah, fact.get());
}

}  // namespace

double IrRow::pct_reduction() const {
  const auto iters = [this](const la::IrReport& r) {
    return r.status == la::IrStatus::converged ? r.iterations
                                               : 1000;  // "1000+"
  };
  const int best_posit = std::min(iters(p16_1), iters(p16_2));
  const int f = iters(f16);
  if (f == 0) return 0.0;
  return 100.0 * double(f - best_posit) / double(f);
}

IrRow run_ir_experiment(const matrices::GeneratedMatrix& m,
                        const SolveRequest& req_in, ArtifactCache* cache) {
  const SolveRequest req = pinned(req_in, Solver::ir);
  IrRow row;
  row.matrix = m.spec.name;
  std::string kb;
  if (cache)
    kb = "irfact/" + key_digest(m) + "/" +
         (req.rescale ? "higham" : "naive") +
         (req.resilience ? "/res" : "") + "/";
  row.f16 = ir_one_format<Half>(m, req, scaling::mu_ieee<Half>(), cache, kb,
                                "f16");
  row.p16_1 = ir_one_format<Posit16_1>(m, req, scaling::mu_posit<16, 1>(),
                                       cache, kb, "p16_1");
  row.p16_2 = ir_one_format<Posit16_2>(m, req, scaling::mu_posit<16, 2>(),
                                       cache, kb, "p16_2");
  return row;
}

// ---------------------------------------------------------------------------
// General-systems refinement (LU-IR / GMRES-IR)

namespace {

// The factor-format grids.  PSTAB_GENERAL_GRID is what PrecisionTriple
// factor = "grid" sweeps; the EXTRA formats are reachable only as a single
// requested column (keep both lists in sync with core::factor_formats()).
#define PSTAB_GENERAL_GRID(X) \
  X(Half, "f16")              \
  X(BFloat16, "bf16")         \
  X(Posit16_1, "p16_1")       \
  X(Posit16_2, "p16_2")
#define PSTAB_GENERAL_EXTRA(X) \
  X(Float32Emu, "f32")         \
  X(Posit32_2, "p32_2")

/// Two-sided power-of-two equilibration of one general matrix; computed (or
/// fetched) once per matrix and shared across every factor format and both
/// general solvers.
struct EquilibratedGeneral {
  la::Dense<double> as;        // diag(row) A diag(col)
  scaling::GeneralScaling gs;  // the accumulated scalings
};

std::shared_ptr<const EquilibratedGeneral> equilibrated_general(
    const matrices::GeneratedMatrix& m, ArtifactCache* cache) {
  const auto make = [&] {
    EquilibratedGeneral e;
    e.as = m.dense;
    e.gs = scaling::equilibrate_general(e.as);
    return e;
  };
  if (!cache) return std::make_shared<const EquilibratedGeneral>(make());
  return cache->get_or_make<EquilibratedGeneral>(
      "equilg/" + key_digest(m), make,
      [](const EquilibratedGeneral& e) {
        return sizeof e + e.as.data().size() * sizeof(double) +
               (e.gs.row.size() + e.gs.col.size()) * sizeof(double);
      });
}

/// Low-precision LU factorization memo.  `key_base` deliberately has NO
/// solver component — "lufact/<digest>/<equil|naive>/" — so an lu_ir request
/// and a gmres_ir request for the same matrix, scaling and format share ONE
/// factorization (the tentpole's cache-sharing contract).  The factor
/// function reproduces exactly what la::detail::lu_ir_setup would compute,
/// so refinement is bit-identical warm or cold.
template <class F>
std::shared_ptr<const la::LuResult<F>> lu_factor_cached(
    const la::Dense<double>& src, ArtifactCache* cache,
    const std::string& key_base, const char* fmt_tag,
    const la::kernels::Context& kc = {}) {
  // kc is NOT part of the cache key on purpose: backend and panel width are
  // pinned bit-identical, so every configuration produces the same factor
  // and may share one entry.
  const auto make = [&] {
    return la::lu_factor(src.template cast_clamped<F>(), kc);
  };
  if (!cache || key_base.empty())
    return std::make_shared<const la::LuResult<F>>(make());
  return cache->get_or_make<la::LuResult<F>>(
      key_base + fmt_tag, make, [](const la::LuResult<F>& f) {
        return sizeof f + f.lu.data().size() * sizeof(F) +
               f.perm.size() * sizeof(int);
      });
}

la::IrOptions general_ir_options(const matrices::GeneratedMatrix& m,
                                 const SolveRequest& req) {
  la::IrOptions o;
  o.tol = req.effective_tol();
  o.max_iter = req.effective_max_iter(m.n);
  o.residual = residual_prec(req.effective_residual());
  o.record_history = req.record_history;
  o.record_trace = req.record_trace;
  o.kernels = req.kernel_context();
  o.resilience = req.resilient_options();
  return o;
}

std::string lufact_key_base(const matrices::GeneratedMatrix& m,
                            const SolveRequest& req, ArtifactCache* cache) {
  if (!cache) return {};
  return "lufact/" + key_digest(m) + "/" +
         (req.rescale ? "equil" : "naive") + "/";
}

template <class F>
LuIrCell lu_ir_cell(const matrices::GeneratedMatrix& m,
                    const SolveRequest& req, ArtifactCache* cache,
                    const std::string& key_base, const char* fmt_tag) {
  LuIrCell cell;
  cell.format = fmt_tag;
  la::IrOptions iro = general_ir_options(m, req);
  // One Budget per cell (lu_factor has no ticks, so the shared lufact memo
  // stays valid — a warm factor is byte-identical to a cold one).
  const bool deadline = has_deadline(req);
  core::Budget bud = cell_budget(req);
  iro.budget = deadline ? &bud : nullptr;
  const la::Vec<double> b = request_rhs(m, req.rhs_seed);
  la::Vec<double> x;
  if (!req.rescale) {
    const auto fact = lu_factor_cached<F>(m.dense, cache, key_base, fmt_tag,
                                          iro.kernels);
    cell.rep = la::lu_ir<F>(m.dense, b, x, iro, nullptr, nullptr, fact.get());
    return cell;
  }
  const auto eq = equilibrated_general(m, cache);
  const auto fact =
      lu_factor_cached<F>(eq->as, cache, key_base, fmt_tag, iro.kernels);
  cell.rep = la::lu_ir<F>(m.dense, b, x, iro, &eq->gs, &eq->as, fact.get());
  return cell;
}

template <class F>
GmresIrCell gmres_ir_cell(const matrices::GeneratedMatrix& m,
                          const SolveRequest& req, ArtifactCache* cache,
                          const std::string& key_base, const char* fmt_tag) {
  GmresIrCell cell;
  cell.format = fmt_tag;
  // The baseline runs with lu_ir's own iteration budget (1000 by default)
  // while the GMRES outer loop keeps this request's (100): "1000+ vs 4" is
  // the rescue signature the paper-style tables report.
  la::IrOptions iro_lu =
      general_ir_options(m, pinned(req, Solver::lu_ir));
  la::IrOptions iro_g = general_ir_options(m, req);
  // Each of the two solves gets its own full tick allowance: the baseline
  // and the rescue are separate work, and this keeps both cells' exhaustion
  // points independent of run order.
  const bool deadline = has_deadline(req);
  core::Budget blu = cell_budget(req), bg = cell_budget(req);
  iro_lu.budget = deadline ? &blu : nullptr;
  iro_g.budget = deadline ? &bg : nullptr;
  const la::Vec<double> b = request_rhs(m, req.rhs_seed);
  la::Vec<double> x_lu, x_g;
  const scaling::GeneralScaling* gs = nullptr;
  const la::Dense<double>* as = nullptr;
  std::shared_ptr<const EquilibratedGeneral> eq;
  if (req.rescale) {
    eq = equilibrated_general(m, cache);
    gs = &eq->gs;
    as = &eq->as;
  }
  const auto fact = lu_factor_cached<F>(as ? *as : m.dense, cache, key_base,
                                        fmt_tag, iro_g.kernels);
  cell.lu = la::lu_ir<F>(m.dense, b, x_lu, iro_lu, gs, as, fact.get());
  cell.gmres = la::gmres_ir_lu<F>(m.dense, b, x_g, iro_g, gs, as, fact.get());
  return cell;
}

}  // namespace

LuIrRow run_lu_ir_experiment(const matrices::GeneratedMatrix& m,
                             const SolveRequest& req_in,
                             ArtifactCache* cache) {
  const SolveRequest req = pinned(req_in, Solver::lu_ir);
  LuIrRow row;
  row.matrix = m.spec.name;
  row.norm2 = m.spec.norm2;
  row.cond = m.spec.cond;
  const std::string kb = lufact_key_base(m, req, cache);
  const std::string& f = req.precision.factor;
#define X(T, tag)                                                   \
  if (f == "grid" || f == tag)                                      \
    row.cells.push_back(lu_ir_cell<T>(m, req, cache, kb, tag));
  PSTAB_GENERAL_GRID(X)
#undef X
#define X(T, tag)                                                   \
  if (f == tag) row.cells.push_back(lu_ir_cell<T>(m, req, cache, kb, tag));
  PSTAB_GENERAL_EXTRA(X)
#undef X
  return row;
}

int GmresIrRow::rescue_count() const {
  int n = 0;
  for (const auto& c : cells) n += c.rescued() ? 1 : 0;
  return n;
}

GmresIrRow run_gmres_ir_experiment(const matrices::GeneratedMatrix& m,
                                   const SolveRequest& req_in,
                                   ArtifactCache* cache) {
  const SolveRequest req = pinned(req_in, Solver::gmres_ir);
  GmresIrRow row;
  row.matrix = m.spec.name;
  row.norm2 = m.spec.norm2;
  row.cond = m.spec.cond;
  const std::string kb = lufact_key_base(m, req, cache);
  const std::string& f = req.precision.factor;
#define X(T, tag)                                                   \
  if (f == "grid" || f == tag)                                      \
    row.cells.push_back(gmres_ir_cell<T>(m, req, cache, kb, tag));
  PSTAB_GENERAL_GRID(X)
#undef X
#define X(T, tag)                                                   \
  if (f == tag) row.cells.push_back(gmres_ir_cell<T>(m, req, cache, kb, tag));
  PSTAB_GENERAL_EXTRA(X)
#undef X
  return row;
}

// ---------------------------------------------------------------------------
// Whole-grid runners (parallel across matrices)

std::vector<CgRow> run_cg_suite(
    const std::vector<const matrices::GeneratedMatrix*>& suite,
    const SolveRequest& req, ArtifactCache* cache) {
  return parallel_map<CgRow>(suite.size(), [&](std::size_t i) {
    return run_cg_experiment(*suite[i], req, cache);
  });
}

std::vector<CholRow> run_cholesky_suite(
    const std::vector<const matrices::GeneratedMatrix*>& suite,
    const SolveRequest& req, ArtifactCache* cache) {
  return parallel_map<CholRow>(suite.size(), [&](std::size_t i) {
    return run_cholesky_experiment(*suite[i], req, cache);
  });
}

std::vector<IrRow> run_ir_suite(
    const std::vector<const matrices::GeneratedMatrix*>& suite,
    const SolveRequest& req, ArtifactCache* cache) {
  return parallel_map<IrRow>(suite.size(), [&](std::size_t i) {
    return run_ir_experiment(*suite[i], req, cache);
  });
}

std::vector<LuIrRow> run_lu_ir_suite(
    const std::vector<const matrices::GeneratedMatrix*>& suite,
    const SolveRequest& req, ArtifactCache* cache) {
  return parallel_map<LuIrRow>(suite.size(), [&](std::size_t i) {
    return run_lu_ir_experiment(*suite[i], req, cache);
  });
}

std::vector<GmresIrRow> run_gmres_ir_suite(
    const std::vector<const matrices::GeneratedMatrix*>& suite,
    const SolveRequest& req, ArtifactCache* cache) {
  return parallel_map<GmresIrRow>(suite.size(), [&](std::size_t i) {
    return run_gmres_ir_experiment(*suite[i], req, cache);
  });
}

}  // namespace pstab::core
