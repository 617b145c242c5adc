// Matrix norms and conditioning estimates (always computed in double; these
// characterize the PROBLEM, not the format under test).  They live in the
// la::kernels namespace alongside the other kernels; double is a scalar-only
// backend, so these take no Context.
#pragma once

#include <cmath>
#include <random>

#include "la/csr.hpp"
#include "la/dense.hpp"

namespace pstab::la {
namespace kernels {

/// ||A||_inf = max row sum of |a_ij| (the paper's re-scaling target norm,
/// chosen "because it is much easier to compute" than the 2-norm).
inline double norm_inf(const Dense<double>& A) {
  double m = 0;
  for (int i = 0; i < A.rows(); ++i) {
    double s = 0;
    for (int j = 0; j < A.cols(); ++j) s += std::fabs(A(i, j));
    if (s > m) m = s;
  }
  return m;
}

inline double norm_inf(const Csr<double>& A) {
  double m = 0;
  for (int i = 0; i < A.rows(); ++i) {
    double s = 0;
    for (int k = A.row_ptr()[i]; k < A.row_ptr()[i + 1]; ++k)
      s += std::fabs(A.values()[k]);
    if (s > m) m = s;
  }
  return m;
}

inline double norm_frob(const Dense<double>& A) {
  double s = 0;
  for (const auto& v : A.data()) s += v * v;
  return std::sqrt(s);
}

/// ||A||_2 estimated by power iteration (A symmetric: dominant eigenvalue
/// magnitude equals the 2-norm).
template <class Mat>
double norm2_est(const Mat& A, int iters = 300, unsigned seed = 12345) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> g;
  Vec<double> v(A.cols());
  for (auto& x : v) x = g(rng);
  double lambda = 0;
  Vec<double> w;
  for (int it = 0; it < iters; ++it) {
    apply(Context{}, A, v, w);
    double nw = 0;
    for (double x : w) nw += x * x;
    nw = std::sqrt(nw);
    if (nw == 0) return 0;
    const double prev = lambda;
    lambda = nw;
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = w[i] / nw;
    if (it > 10 && std::fabs(lambda - prev) <= 1e-10 * lambda) break;
  }
  return lambda;
}

/// Smallest eigenvalue of an SPD matrix by inverse power iteration; the
/// caller supplies a solve functor x = A^{-1} b (e.g. a double Cholesky).
template <class Solve>
double lambda_min_est(int n, const Solve& solve, int iters = 300,
                      unsigned seed = 54321) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> g;
  Vec<double> v(n);
  for (auto& x : v) x = g(rng);
  double mu = 0;
  for (int it = 0; it < iters; ++it) {
    Vec<double> w = solve(v);
    double nw = 0;
    for (double x : w) nw += x * x;
    nw = std::sqrt(nw);
    if (nw == 0) return 0;
    const double prev = mu;
    mu = nw;
    for (int i = 0; i < n; ++i) v[i] = w[i] / nw;
    if (it > 10 && std::fabs(mu - prev) <= 1e-10 * mu) break;
  }
  return mu > 0 ? 1.0 / mu : 0.0;
}

}  // namespace kernels
}  // namespace pstab::la
