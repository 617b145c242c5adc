// LU-based three-precision iterative refinement for general (non-symmetric)
// systems: factor fl_F(A) with partial pivoting in a low-precision format F
// (u_f), promote the factors to double (u), refine in double with the
// residual evaluated at u_r (double, double-double, or the exact quire) —
// Quinlan & Omtzigt's setup, analyzed by Carson & Higham: plain refinement
// contracts while kappa(A) * u_f < 1; past that, hand the factors to GMRES-IR
// (la/gmres.hpp), which stretches the range to kappa(A) ~ u_f^{-2}.
#pragma once

#include <cmath>
#include <optional>

#include "la/ir.hpp"
#include "la/lu.hpp"
#include "scaling/scaling.hpp"

namespace pstab::la {

struct LuIrReport : SolveReport {
  double final_berr = 0.0;           // normwise backward error at exit
  double factorization_error = 0.0;  // ||P A_h - L U||_F / ||A_h||_F (double)
  LuStatus lu_status = LuStatus::ok;
  int inner_iterations = 0;  // total GMRES iterations (GMRES-IR only)
};

/// ||P A_h - L U||_F / ||A_h||_F evaluated in double — the LU analogue of
/// factorization_backward_error for Cholesky (paper Fig 10(b) metric).
template <class F>
[[nodiscard]] double lu_backward_error(const Dense<F>& Ah,
                                       const LuResult<F>& f) {
  using st = scalar_traits<F>;
  const int n = Ah.rows();
  double num = 0, den = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double lu = 0;
      const int kmax = std::min(i, j);
      for (int k = 0; k < kmax; ++k)
        lu += st::to_double(f.lu(i, k)) * st::to_double(f.lu(k, j));
      // L has unit diagonal: the k = min(i,j) term is U(i,j) when i <= j,
      // L(i,j)*U(j,j) when i > j.
      lu += (i <= j ? st::to_double(f.lu(i, j))
                    : st::to_double(f.lu(i, j)) * st::to_double(f.lu(j, j)));
      const double a = st::to_double(Ah(f.perm[i], j));
      num += (a - lu) * (a - lu);
      den += a * a;
    }
  }
  return den > 0 ? std::sqrt(num / den) : 0.0;
}

namespace detail {

/// The LU family's O(n^3)-in-F stage, shared by lu_ir and gmres_ir_lu: cast
/// `src` (A, or the pre-equilibrated matrix) to F, factor it with partial
/// pivoting (or take `fact_in`, which must be exactly lu_factor(fl_F(src))
/// output, e.g. from the serve ArtifactCache, so the refinement is
/// bit-identical to the factor-here path), record the factor's status and
/// backward error in `rep`, and promote the factors to double.  nullopt
/// when the factorization failed.
template <class F>
std::optional<LuResult<double>> lu_ir_setup(LuIrReport& rep,
                                            const Dense<double>& src,
                                            const IrOptions& opt,
                                            const LuResult<F>* fact_in) {
  if (opt.record_trace) rep.trace = std::make_shared<telemetry::Trace>();
  const Dense<F> Ah = src.template cast_clamped<F>();
  telemetry::TraceSpan span(rep.trace.get(), "factorize");
  LuResult<F> fact_local;
  if (!fact_in) fact_local = lu_factor(Ah, opt.kernels);
  const LuResult<F>& fact = fact_in ? *fact_in : fact_local;
  span.close();
  rep.lu_status = fact.status;
  if (fact.status != LuStatus::ok) {
    rep.status = SolveStatus::factorization_failed;
    return std::nullopt;
  }
  rep.factorization_error = lu_backward_error(Ah, fact);
  LuResult<double> fd;
  fd.lu = fact.lu.template cast<double>();
  fd.perm = fact.perm;
  return fd;
}

/// d = diag(col) · (LU)^{-1} · diag(row) · v, or (LU)^{-1} v without `gs`.
inline Vec<double> lu_correct(const LuResult<double>& fd,
                              const scaling::GeneralScaling* gs,
                              Vec<double> v) {
  const int n = int(v.size());
  if (gs)
    for (int i = 0; i < n; ++i) v[i] *= gs->row[i];
  Vec<double> d = lu_solve(fd, v);
  if (gs)
    for (int i = 0; i < n; ++i) d[i] *= gs->col[i];
  return d;
}

}  // namespace detail

/// Plain LU-IR.  With `gs`/`As_source` set (As_source = diag(row)·A·diag(col)
/// already applied), the correction solve runs through the equilibrated
/// factors while the refinement still targets the ORIGINAL system.
template <class F>
LuIrReport lu_ir(const Dense<double>& A, const Vec<double>& b, Vec<double>& x,
                 const IrOptions& opt = {},
                 const scaling::GeneralScaling* gs = nullptr,
                 const Dense<double>* As_source = nullptr,
                 const LuResult<F>* fact_in = nullptr) {
  LuIrReport rep;
  const auto fd =
      detail::lu_ir_setup<F>(rep, As_source ? *As_source : A, opt, fact_in);
  if (!fd) return rep;
  refine(
      rep, A, b, x, opt,
      [&](const Vec<double>& r) { return detail::lu_correct(*fd, gs, r); },
      /*restore_x=*/false);
  return rep;
}

}  // namespace pstab::la
