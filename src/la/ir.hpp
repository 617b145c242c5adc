// Mixed-precision iterative refinement (the paper's Algorithm 2, §V-D):
// Cholesky-factorize in a 16-bit format F, cast the factor to Float64, then
// refine entirely in Float64 until the solution is accurate to double
// precision.  Optionally the factorization runs on Higham-scaled data
// (Algorithm 4); the refinement still solves the ORIGINAL system.
#pragma once

#include <cmath>
#include <optional>

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
  // Correction-equation GMRES knobs, used only by the gmres_ir drivers
  // (la/gmres.hpp); plain refinement ignores them.  One options struct per
  // SolveRequest feeds every refinement flavor.
  int gmres_iters = 40;
  double gmres_tol = 1e-4;
  bool record_factorization_error = true;
  bool record_history = false;  // berr per refinement step -> history
  bool record_trace = false;    // phases: "factorize", "refine"
  kernels::Context kernels{};   // backend for the format-F factorization
  ResilientOptions resilience{};   // Cholesky shift ladder (escalation across
                                   // formats lives in resilience::ir_escalate)
  fault::Observer* fault = nullptr;  // clocked per refinement step; also
                                     // passed down into the factorization
  core::Budget* budget = nullptr;    // ticked per refinement step AND per
                                     // factorization column (one allowance)
};

/// Naive mixed-precision IR (paper Table II): factor fl_F(A) directly.
/// Higham-scaled IR (paper Table III): pass the scaling produced by
/// scaling::higham_scale, and the already-scaled matrix as `Ah_source`.
/// `fact_in` optionally supplies the format-F factorization of fl_F(src)
/// (e.g. from the serve engine's factorization cache); it must be exactly
/// what cholesky_resilient(fl_F(src), opt.resilience, ...) would produce, so
/// the refinement is bit-identical to the factorize-here path.
template <class F>
IrReport mixed_ir(const Dense<double>& A, const Vec<double>& b,
                  Vec<double>& x, const IrOptions& opt = {},
                  const scaling::HighamScaling* hs = nullptr,
                  const Dense<double>* Ah_source = nullptr,
                  const CholResult<F>* fact_in = nullptr) {
  IrReport rep;
  const int n = A.rows();
  if (opt.record_trace) rep.trace = std::make_shared<telemetry::Trace>();
  telemetry::Trace* tr = rep.trace.get();

  // --- O(n^3) stage in format F ---------------------------------------------
  const Dense<double>& src = Ah_source ? *Ah_source : A;
  const Dense<F> Ah = src.template cast_clamped<F>();
  telemetry::TraceSpan fact_span(tr, "factorize");
  CholResult<F> fact_local;
  if (!fact_in) {
    fact_local = cholesky_resilient(Ah, opt.resilience, nullptr, opt.kernels,
                                    opt.fault, opt.budget);
  }
  const CholResult<F>& fact = fact_in ? *fact_in : fact_local;
  fact_span.close();
  rep.chol_status = fact.status;
  rep.shift_used = fact.shift_used;
  rep.recovery = fact.recovery;  // "shift" rungs, if the ladder was climbed
  if (fact.status != CholStatus::ok) {
    rep.status = fact.status == CholStatus::deadline_exceeded
                     ? IrStatus::deadline_exceeded
                     : IrStatus::factorization_failed;
    return rep;
  }
  if (opt.record_factorization_error)
    rep.factorization_error = factorization_backward_error(Ah, fact.R);

  // Cast the factor to the working precision (paper: "the factorization is
  // cast into Float64 after line 1").
  const Dense<double> R = fact.R.template cast<double>();

  // --- O(n^2) refinement in Float64 -----------------------------------------
  telemetry::TraceSpan refine_span(tr, "refine");
  const double norm_a = kernels::norm_inf(A);
  const double norm_b = kernels::norm_inf_d(b);
  const RowExtents a_ext = row_extents(A);
  x.assign(n, 0.0);

  double first_berr = -1.0;
  for (int it = 1; it <= opt.max_iter; ++it) {
    // One tick per refinement step, drawn from the same allowance the
    // factorization columns spent; history/berr recorded so far stay in rep.
    if (!core::budget_tick(opt.budget)) {
      rep.status = IrStatus::deadline_exceeded;
      return rep;
    }
    fault::on_iteration(opt.fault, it - 1);
    Vec<double> r = ir_residual(A, b, x, opt.residual, &a_ext);
    fault::touch_range(opt.fault, fault::Site::vector_entry, r.data(),
                       r.size());
    // Correction solve: plain  R^T R d = r, or through Higham's scaling:
    // (mu R A R) z = mu * rdiag .* r, then d = rdiag .* z.
    Vec<double> rhs = r;
    if (hs) {
      for (int i = 0; i < n; ++i) rhs[i] = hs->mu * hs->rdiag[i] * r[i];
    }
    Vec<double> d = solve_upper(R, solve_lower_rt(R, rhs, {}, fact.profile),
                                {}, fact.profile);
    if (hs) {
      for (int i = 0; i < n; ++i) d[i] *= hs->rdiag[i];
    }
    for (int i = 0; i < n; ++i) x[i] += d[i];

    Vec<double> r2 = ir_residual(A, b, x, opt.residual, &a_ext);
    double berr =
        kernels::norm_inf_d(r2) / (norm_a * kernels::norm_inf_d(x) + norm_b);
    // The berr reduction is IR's dot_result site: a flipped monitor can fake
    // convergence (SDC) or fake divergence (detected) without touching x.
    fault::touch_scalar(opt.fault, fault::Site::dot_result, berr);
    rep.final_berr = berr;
    rep.iterations = it;
    if (opt.record_history) rep.history.push_back(berr);
    if (tr) tr->residual(berr);
    if (berr <= opt.tol) {
      rep.status = IrStatus::converged;
      return rep;
    }
    // Divergence.  berr <= 1 for every finite iterate (triangle inequality:
    // ||b - Ax|| <= ||A|| ||x|| + ||b||), and berr(x = 0) = 1 exactly, so:
    //   * non-finite berr: the correction overflowed;
    //   * a first step still at ~1: the factorization carried no information
    //     (e.g. a garbage factorization that reported CholStatus::ok) and
    //     refinement cannot contract — previously this was undetectable
    //     because first_berr was recorded only after the guard;
    //   * later steps blowing up 1e4x over the first step's error.
    const bool catastrophic_first = first_berr < 0 && berr > 0.9;
    if (first_berr < 0) first_berr = berr;
    if (!std::isfinite(berr) || catastrophic_first ||
        (berr > 1e4 * first_berr && berr > 1e-2)) {
      rep.status = IrStatus::diverged;
      return rep;
    }
  }
  rep.status = IrStatus::max_iterations;
  return rep;
}

}  // namespace pstab::la
