// Restarted GMRES(m) with an optional left preconditioner, plus GMRES-based
// iterative refinement (Carson & Higham's GMRES-IR).  The paper notes that
// its naive-IR failures "would be less likely to occur" with GMRES for the
// correction equation (§V-D.2); bench/ablation_gmres_ir measures exactly
// that claim.
#pragma once

#include <cmath>
#include <functional>
#include <vector>

#include "la/cholesky.hpp"
#include "la/dense.hpp"
#include "la/ir.hpp"
#include "la/lu_ir.hpp"

namespace pstab::la {

// GmresReport is the shared base: `iterations` counts total inner iterations
// across restarts; status is `converged` or `max_iterations`.
using GmresReport = SolveReport;

/// Solve A x = b in double with left preconditioner M^{-1} (apply_minv),
/// restarted every `restart` iterations.  Classic Givens-rotation GMRES.
inline GmresReport gmres_solve(
    const Dense<double>& A, const Vec<double>& b, Vec<double>& x,
    const std::function<Vec<double>(const Vec<double>&)>& apply_minv,
    double tol = 1e-10, int max_iter = 500, int restart = 50) {
  const int n = A.rows();
  GmresReport rep;
  if (x.size() != b.size()) x.assign(n, 0.0);

  const auto precond = [&](Vec<double> v) {
    return apply_minv ? apply_minv(v) : v;
  };

  const kernels::Context kc{};  // double stays scalar; names route uniformly
  const Vec<double> mb = precond(b);
  const double normb = kernels::nrm2_d(mb);
  if (normb == 0) {
    rep.status = SolveStatus::converged;
    return rep;
  }

  int total = 0;
  while (total < max_iter) {
    // r = M^{-1}(b - A x)
    Vec<double> r = precond(residual(A, b, x));
    double beta = kernels::nrm2_d(r);
    // NaN / inf in the (preconditioned) residual: without this check the
    // poisoned Krylov basis spins to max_iter and corrupts x on the way out.
    if (!std::isfinite(beta)) {
      rep.status = SolveStatus::breakdown;
      rep.iterations = total;
      return rep;
    }
    rep.final_relres = beta / normb;
    if (rep.final_relres <= tol) {
      rep.status = SolveStatus::converged;
      rep.iterations = total;
      return rep;
    }
    const int m = std::min(restart, max_iter - total);
    std::vector<Vec<double>> V(m + 1, Vec<double>(n));
    Dense<double> H(m + 1, m);
    std::vector<double> cs(m), sn(m), g(m + 1, 0.0);
    for (int i = 0; i < n; ++i) V[0][i] = r[i] / beta;
    g[0] = beta;

    int k = 0;
    for (; k < m; ++k) {
      Vec<double> w;
      kernels::gemv(kc, A, V[k], w);
      w = precond(std::move(w));
      // Modified Gram-Schmidt.
      for (int i = 0; i <= k; ++i) {
        H(i, k) = kernels::dot(kc, V[i], w);
        for (int j = 0; j < n; ++j) w[j] -= H(i, k) * V[i][j];
      }
      H(k + 1, k) = kernels::nrm2_d(w);
      // A non-finite Arnoldi coefficient poisons every later rotation; x has
      // not been touched this cycle, so it is still the last finite iterate.
      if (!std::isfinite(H(k + 1, k))) {
        rep.status = SolveStatus::breakdown;
        rep.iterations = total;
        return rep;
      }
      if (H(k + 1, k) > 0)
        for (int j = 0; j < n; ++j) V[k + 1][j] = w[j] / H(k + 1, k);
      // Apply accumulated Givens rotations to the new column.
      for (int i = 0; i < k; ++i) {
        const double t = cs[i] * H(i, k) + sn[i] * H(i + 1, k);
        H(i + 1, k) = -sn[i] * H(i, k) + cs[i] * H(i + 1, k);
        H(i, k) = t;
      }
      const double denom = std::hypot(H(k, k), H(k + 1, k));
      if (denom == 0) {
        ++k;
        break;
      }
      cs[k] = H(k, k) / denom;
      sn[k] = H(k + 1, k) / denom;
      H(k, k) = denom;
      H(k + 1, k) = 0.0;
      g[k + 1] = -sn[k] * g[k];
      g[k] = cs[k] * g[k];
      ++total;
      rep.final_relres = std::fabs(g[k + 1]) / normb;
      if (rep.final_relres <= tol) {
        ++k;
        break;
      }
    }
    // Back-substitute y from the k x k triangular system and update x.
    std::vector<double> y(k, 0.0);
    for (int i = k - 1; i >= 0; --i) {
      double s = g[i];
      for (int j = i + 1; j < k; ++j) s -= H(i, j) * y[j];
      y[i] = H(i, i) != 0 ? s / H(i, i) : 0.0;
    }
    const Vec<double> x_prev = x;
    for (int i = 0; i < k; ++i)
      for (int j = 0; j < n; ++j) x[j] += y[i] * V[i][j];
    if (!kernels::all_finite(x)) {
      // Overflowed correction (near-singular H pivot): report breakdown with
      // the last finite iterate instead of a poisoned solution.
      x = x_prev;
      rep.status = SolveStatus::breakdown;
      rep.iterations = total;
      return rep;
    }
    if (rep.final_relres <= tol) {
      rep.status = SolveStatus::converged;
      rep.iterations = total;
      return rep;
    }
  }
  rep.iterations = total;
  return rep;
}

// The correction GMRES of both GMRES-IR drivers: at most 40 iterations
// (one restart cycle) to a relative residual of 1e-4 per outer step.
inline constexpr int kGmresIrInnerIters = 40;
inline constexpr double kGmresIrInnerTol = 1e-4;

namespace detail {

/// The GMRES-IR correction: solve A d = r by GMRES left-preconditioned with
/// `minv`, adding the inner iterations spent to `*inner` when given.
template <class Minv>
Vec<double> gmres_correct(const Dense<double>& A, const Vec<double>& r,
                          const Minv& minv, int* inner) {
  Vec<double> d;
  const GmresReport g = gmres_solve(A, r, d, minv, kGmresIrInnerTol,
                                    kGmresIrInnerIters, kGmresIrInnerIters);
  if (inner) *inner += g.iterations;
  return d;
}

}  // namespace detail

/// GMRES-IR (Carson & Higham): like mixed_ir, but each correction equation
/// A d = r is solved by preconditioned GMRES with the 16-bit Cholesky factor
/// as the preconditioner, instead of a single triangular solve.  `max_iter`
/// caps OUTER steps, reported in IrReport::iterations.
template <class F>
IrReport gmres_ir(const Dense<double>& A, const Vec<double>& b,
                  Vec<double>& x, const IrOptions& opt = {}) {
  IrReport rep;
  const auto f = detail::chol_ir_setup<F>(rep, A, opt, nullptr);
  if (!f) return rep;
  const auto minv = [&](const Vec<double>& v) {
    return detail::chol_correct(*f, nullptr, v);
  };
  refine(
      rep, A, b, x, opt,
      [&](const Vec<double>& r) {
        return detail::gmres_correct(A, r, minv, nullptr);
      },
      /*restore_x=*/true);
  return rep;
}

/// General-systems GMRES-IR: the correction equation A d = r is solved by
/// GMRES left-preconditioned with the low-precision LU factors of the
/// (optionally equilibrated) matrix — M^{-1} v = diag(col)·(LU)^{-1}·diag(row)·v
/// approximates A^{-1} of the ORIGINAL system.  This is the rescue regime:
/// plain lu_ir needs kappa(A)·u_f < 1, GMRES-IR works out to ~u_f^{-2}.
/// `fact_in` shares the cached factorization with lu_ir (same contract).
template <class F>
LuIrReport gmres_ir_lu(const Dense<double>& A, const Vec<double>& b,
                       Vec<double>& x, const IrOptions& opt = {},
                       const scaling::GeneralScaling* gs = nullptr,
                       const Dense<double>* As_source = nullptr,
                       const LuResult<F>* fact_in = nullptr) {
  LuIrReport rep;
  const auto fd =
      detail::lu_ir_setup<F>(rep, As_source ? *As_source : A, opt, fact_in);
  if (!fd) return rep;
  const auto minv = [&](const Vec<double>& v) {
    return detail::lu_correct(*fd, gs, v);
  };
  refine(
      rep, A, b, x, opt,
      [&](const Vec<double>& r) {
        return detail::gmres_correct(A, r, minv, &rep.inner_iterations);
      },
      /*restore_x=*/true);
  return rep;
}

}  // namespace pstab::la
