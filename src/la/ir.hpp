// Mixed-precision iterative refinement (the paper's Algorithm 2, §V-D):
// Cholesky-factorize in a 16-bit format F, cast the factor to Float64, then
// refine entirely in Float64 until the solution is accurate to double
// precision.  Optionally the factorization runs on Higham-scaled data
// (Algorithm 4); the refinement still solves the ORIGINAL system.
//
// la::refine below is the one outer refinement loop.  Every driver (mixed_ir
// here, lu_ir in la/lu_ir.hpp, gmres_ir and gmres_ir_lu in la/gmres.hpp) is
// a factor setup, a correction callable and one refine call.
#pragma once

#include <cmath>
#include <optional>
#include <utility>

#include "la/cholesky.hpp"
#include "la/dense.hpp"
#include "la/norms.hpp"
#include "mp/dd.hpp"
#include "mp/dquire.hpp"
#include "scaling/higham.hpp"

namespace pstab::la {

// Residual precision u_r of the three-precision scheme (Carson & Higham):
// `working` evaluates r = b - Ax in plain double, `dd` in double-double
// (u_r ~ u^2), `quire` exactly via the Kulisch accumulator with one rounding
// per entry.  The correction solve AND the convergence monitor both use it.
enum class ResidualPrec { working, dd, quire };

[[nodiscard]] inline const char* to_string(ResidualPrec p) {
  switch (p) {
    case ResidualPrec::working: return "f64";
    case ResidualPrec::dd: return "dd";
    case ResidualPrec::quire: return "quire";
  }
  return "?";
}

/// `ext` (row_extents(A)), when given, bounds the working-precision
/// residual's rows; the bytes are those of the full rows.
inline Vec<double> ir_residual(const Dense<double>& A, const Vec<double>& b,
                               const Vec<double>& x, ResidualPrec p,
                               const RowExtents* ext = nullptr) {
  switch (p) {
    case ResidualPrec::dd: return mp::dd_residual(A, b, x);
    case ResidualPrec::quire: return mp::quire_residual(A, b, x);
    case ResidualPrec::working: break;
  }
  return ext ? residual(A, b, x, *ext) : residual(A, b, x);
}

// IrStatus is la::SolveStatus (solve_report.hpp); IR uses `converged`,
// `max_iterations` ("1000+" in the paper's tables), `factorization_failed`
// ("-": pivot breakdown or arithmetic error in F) and `diverged` ("-": the
// refinement blew up on a poor factorization).

struct IrReport : SolveReport {
  double final_berr = 0.0;          // normwise backward error at exit
  double factorization_error = 0.0; // ||R^T R - A_h||_F / ||A_h||_F (double)
  double shift_used = 0.0;          // diagonal shift the factorization needed
  la::CholStatus chol_status = la::CholStatus::ok;
};

struct IrOptions {
  // "Accurate to Float64 precision" (Higham's convergence criterion family):
  // normwise backward error ||r||_inf / (||A||_inf ||x||_inf + ||b||_inf).
  double tol = 4.0 * 1.11e-16;
  int max_iter = 1000;
  ResidualPrec residual = ResidualPrec::working;  // u_r of the triple
  bool record_history = false;  // berr per refinement step -> history
  bool record_trace = false;    // phases: "factorize", "refine"
  kernels::Context kernels{};   // backend for the format-F factorization
  ResilientOptions resilience{};   // Cholesky shift ladder (escalation across
                                   // formats lives in resilience::escalate)
  fault::Observer* fault = nullptr;  // clocked per refinement step; also
                                     // passed down into the factorization
  core::Budget* budget = nullptr;    // ticked per refinement step AND per
                                     // factorization column (one allowance)
};

/// The one outer refinement loop (Algorithm 2, lines 2-6) every driver runs
/// once its factorization succeeded: from x = 0, each step evaluates
/// r = b - Ax at u_r, asks `correct(r)` for the correction d (the driver's
/// triangular or GMRES solve, scalings included), sets x += d and stops on
/// the normwise backward error.  Divergence has one taxonomy.  berr <= 1 for
/// every finite iterate (triangle inequality: ||b - Ax|| <= ||A|| ||x|| +
/// ||b||), and berr(x = 0) = 1 exactly, so a step diverges when:
///   * berr is non-finite: the correction overflowed;
///   * the first step is still at ~1: the factorization carried no
///     information (e.g. a garbage factorization that reported ok) and
///     refinement cannot contract;
///   * a later step blows up 1e4x over the first step's error.
/// `restore_x` hands back the last finite iterate on a non-finite step
/// instead of the poisoned one (the GMRES drivers); the other divergences
/// keep the diverged x.  The loop owns the "refine" trace phase.
template <class Report, class Correct>
void refine(Report& rep, const Dense<double>& A, const Vec<double>& b,
            Vec<double>& x, const IrOptions& opt, Correct&& correct,
            bool restore_x) {
  const int n = A.rows();
  telemetry::Trace* tr = rep.trace.get();
  telemetry::TraceSpan span(tr, "refine");
  const double norm_a = kernels::norm_inf(A);
  const double norm_b = kernels::norm_inf_d(b);
  const RowExtents ext = opt.residual == ResidualPrec::working
                             ? row_extents(A)
                             : RowExtents{};
  x.assign(n, 0.0);
  Vec<double> x_prev;

  double first_berr = -1.0;
  for (int it = 1; it <= opt.max_iter; ++it) {
    // One tick per refinement step, drawn from the same allowance the
    // factorization columns spent; history/berr recorded so far stay in rep.
    if (!core::budget_tick(opt.budget)) {
      rep.status = SolveStatus::deadline_exceeded;
      return;
    }
    fault::on_iteration(opt.fault, it - 1);
    Vec<double> r = ir_residual(A, b, x, opt.residual, &ext);
    fault::touch_range(opt.fault, fault::Site::vector_entry, r.data(),
                       r.size());
    const Vec<double> d = correct(r);
    if (restore_x) x_prev = x;
    for (int i = 0; i < n; ++i) x[i] += d[i];

    const Vec<double> r2 = ir_residual(A, b, x, opt.residual, &ext);
    double berr =
        kernels::norm_inf_d(r2) / (norm_a * kernels::norm_inf_d(x) + norm_b);
    // The berr reduction is IR's dot_result site: a flipped monitor can fake
    // convergence (SDC) or fake divergence (detected) without touching x.
    fault::touch_scalar(opt.fault, fault::Site::dot_result, berr);
    rep.final_berr = berr;
    rep.iterations = it;
    if (opt.record_history) rep.history.push_back(berr);
    if (tr) tr->residual(berr);
    if (!std::isfinite(berr)) {
      rep.status = SolveStatus::diverged;
      if (restore_x) x = std::move(x_prev);
      return;
    }
    if (berr <= opt.tol) {
      rep.status = SolveStatus::converged;
      return;
    }
    const bool catastrophic_first = first_berr < 0 && berr > 0.9;
    if (first_berr < 0) first_berr = berr;
    if (catastrophic_first || (berr > 1e4 * first_berr && berr > 1e-2)) {
      rep.status = SolveStatus::diverged;
      return;
    }
  }
  rep.status = SolveStatus::max_iterations;
}

namespace detail {

/// The Cholesky family's O(n^3)-in-F stage, shared by mixed_ir and gmres_ir:
/// cast `src` to F, factor it (or take `fact_in`, which must be exactly what
/// cholesky_resilient(fl_F(src), opt.resilience, ...) would produce, so the
/// refinement is bit-identical to the factorize-here path), record the
/// factor's status and backward error in `rep`, and cast the factor to the
/// working precision (paper: "the factorization is cast into Float64 after
/// line 1").  nullopt when the factorization failed; rep says why.
struct CholIrFactor {
  Dense<double> R;
  Profile profile;
};

template <class F>
std::optional<CholIrFactor> chol_ir_setup(IrReport& rep,
                                          const Dense<double>& src,
                                          const IrOptions& opt,
                                          const CholResult<F>* fact_in) {
  if (opt.record_trace) rep.trace = std::make_shared<telemetry::Trace>();
  const Dense<F> Ah = src.template cast_clamped<F>();
  telemetry::TraceSpan span(rep.trace.get(), "factorize");
  CholResult<F> fact_local;
  if (!fact_in) {
    fact_local = cholesky_resilient(Ah, opt.resilience, nullptr, opt.kernels,
                                    opt.fault, opt.budget);
  }
  const CholResult<F>& fact = fact_in ? *fact_in : fact_local;
  span.close();
  rep.chol_status = fact.status;
  rep.shift_used = fact.shift_used;
  rep.recovery = fact.recovery;  // "shift" rungs, if the ladder was climbed
  if (fact.status != CholStatus::ok) {
    rep.status = fact.status == CholStatus::deadline_exceeded
                     ? IrStatus::deadline_exceeded
                     : IrStatus::factorization_failed;
    return std::nullopt;
  }
  rep.factorization_error = factorization_backward_error(Ah, fact.R);
  return CholIrFactor{fact.R.template cast<double>(), fact.profile};
}

/// R^T R d = v, or through Higham's scaling (mu R A R) z = mu * rdiag .* v,
/// then d = rdiag .* z.
inline Vec<double> chol_correct(const CholIrFactor& f,
                                const scaling::HighamScaling* hs,
                                Vec<double> v) {
  const int n = int(v.size());
  if (hs) {
    for (int i = 0; i < n; ++i) v[i] = hs->mu * hs->rdiag[i] * v[i];
  }
  Vec<double> d = solve_upper(f.R, solve_lower_rt(f.R, v, {}, f.profile), {},
                              f.profile);
  if (hs) {
    for (int i = 0; i < n; ++i) d[i] *= hs->rdiag[i];
  }
  return d;
}

}  // namespace detail

/// Naive mixed-precision IR (paper Table II): factor fl_F(A) directly.
/// Higham-scaled IR (paper Table III): pass the scaling produced by
/// scaling::higham_scale, and the already-scaled matrix as `Ah_source`.
/// `fact_in` optionally supplies the format-F factorization of fl_F(src)
/// (e.g. from the serve engine's factorization cache; see chol_ir_setup).
template <class F>
IrReport mixed_ir(const Dense<double>& A, const Vec<double>& b,
                  Vec<double>& x, const IrOptions& opt = {},
                  const scaling::HighamScaling* hs = nullptr,
                  const Dense<double>* Ah_source = nullptr,
                  const CholResult<F>* fact_in = nullptr) {
  IrReport rep;
  const auto f =
      detail::chol_ir_setup<F>(rep, Ah_source ? *Ah_source : A, opt, fact_in);
  if (!f) return rep;
  refine(
      rep, A, b, x, opt,
      [&](const Vec<double>& r) { return detail::chol_correct(*f, hs, r); },
      /*restore_x=*/false);
  return rep;
}

}  // namespace pstab::la
