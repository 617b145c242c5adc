#include "matrices/generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>
#include <tuple>

#include "common/fnv.hpp"
#include "la/cholesky.hpp"
#include "la/norms.hpp"

namespace pstab::matrices {

namespace {

std::uint64_t name_seed(const std::string& name) {
  // FNV-1a with a truncated offset basis (14695981039346656037 lost its last
  // digit); kept as is, because every generated matrix derives from it.
  return fnv1a64(name.data(), name.size(), 1469598103934665603ull);
}

}  // namespace

std::uint64_t dense_digest(const la::Dense<double>& A) noexcept {
  const std::int64_t dims[2] = {A.rows(), A.cols()};
  const std::uint64_t h = fnv1a64(dims, sizeof dims);
  return fnv1a64(A.data().data(), A.data().size() * sizeof(double), h);
}

GeneratedMatrix generate_spd(const MatrixSpec& spec, int size_cap) {
  if (spec.cond_core > spec.cond)
    throw std::invalid_argument(spec.name + ": cond_core exceeds cond");
  GeneratedMatrix g;
  g.spec = spec;
  const int n = (size_cap > 0 && spec.n > size_cap) ? size_cap : spec.n;
  g.n = n;
  std::mt19937_64 rng(name_seed(spec.name));
  std::uniform_real_distribution<double> jitter(0.7, 1.0);

  // Band width from the published per-row density.
  const double per_row = double(spec.nnz) / spec.n;
  int w = std::max(1, int(std::lround((per_row - 1.0) / 2.0)));
  w = std::min(w, std::max(1, n / 4));

  // Jittered band Laplacian L: off-diagonals -c/d, diagonal = -(row sum).
  la::Dense<double> A(n, n);
  for (int i = 0; i < n; ++i) {
    for (int d = 1; d <= w && i + d < n; ++d) {
      const double v = -jitter(rng) / d;
      A(i, i + d) = v;
      A(i + d, i) = v;
    }
  }
  for (int i = 0; i < n; ++i) {
    double s = 0;
    for (int j = 0; j < n; ++j)
      if (j != i) s += A(i, j);
    A(i, i) = -s;  // exact zero row sums: PSD with lambda_min = 0
  }

  // Shift to the target core conditioning: L + eps I.
  const double lmax_l = la::kernels::norm2_est(A, 300, unsigned(name_seed(spec.name)));
  const double eps = lmax_l / spec.cond_core;
  for (int i = 0; i < n; ++i) A(i, i) += eps;

  // Diagonal spread D: total condition budget cond = cond_core * spread.
  const double spread = spec.cond / spec.cond_core;
  std::vector<double> dexp(n);
  const double gmax = std::log2(spread) / 2.0;  // d_i in [2^0, 2^gmax]
  for (int i = 0; i < n; ++i) dexp[i] = gmax * double(i) / std::max(1, n - 1);
  std::shuffle(dexp.begin(), dexp.end(), rng);
  for (int i = 0; i < n; ++i) {
    const double di = std::exp2(dexp[i]);
    for (int j = 0; j < n; ++j) A(i, j) *= di;
  }
  for (int j = 0; j < n; ++j) {
    const double dj = std::exp2(dexp[j]);
    for (int i = 0; i < n; ++i) A(i, j) *= dj;
  }
  // The two scaling passes apply di and dj in different orders to (i,j) and
  // (j,i); restore exact symmetry from the upper triangle.
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) A(j, i) = A(i, j);

  // Measure the spectrum edges in double.
  double lmax = la::kernels::norm2_est(A, 400, 2 + unsigned(name_seed(spec.name)));
  auto fact = la::cholesky(A);
  if (fact.status != la::CholStatus::ok)
    throw std::runtime_error(spec.name + ": synthetic base not SPD");
  const auto solve = [&](const la::Vec<double>& v) {
    return la::solve_upper(
        fact.R, la::solve_lower_rt(fact.R, v, {}, fact.profile), {},
        fact.profile);
  };
  double lmin =
      la::kernels::lambda_min_est(n, solve, 400, 3 + unsigned(name_seed(spec.name)));
  if (!(lmin > 0) || !(lmax > 0))
    throw std::runtime_error(spec.name + ": spectrum estimation failed");

  // One diagonal shift places the condition number exactly:
  // (lmax + c) / (lmin + c) = cond  =>  c = (lmax - cond*lmin) / (cond - 1).
  const double c = (lmax - spec.cond * lmin) / (spec.cond - 1.0);
  if (lmin + c <= 0)
    throw std::runtime_error(spec.name + ": infeasible condition target");
  for (int i = 0; i < n; ++i) A(i, i) += c;
  lmax += c;
  lmin += c;

  // Scalar scaling places ||A||_2.
  const double sigma = spec.norm2 / lmax;
  for (auto& v : A.data()) v *= sigma;
  g.lambda_max = lmax * sigma;
  g.lambda_min = lmin * sigma;

  g.dense = std::move(A);
  g.csr = la::Csr<double>::from_dense(g.dense);
  g.digest = dense_digest(g.dense);
  return g;
}

GeneratedMatrix generate_general(const MatrixSpec& spec, int size_cap) {
  if (spec.cond_core > spec.cond)
    throw std::invalid_argument(spec.name + ": cond_core exceeds cond");
  GeneratedMatrix g;
  g.spec = spec;
  const int n = (size_cap > 0 && spec.n > size_cap) ? size_cap : spec.n;
  g.n = n;
  std::mt19937_64 rng(name_seed(spec.name) ^ 0x9e3779b97f4a7c15ull);
  std::normal_distribution<double> gauss(0.0, 1.0);

  // Log-spaced singular values: sigma_max/sigma_min = cond_core exactly.
  la::Dense<double> A(n, n);
  const double ge = std::log2(spec.cond_core);
  for (int i = 0; i < n; ++i)
    A(i, i) = std::exp2(-ge * double(i) / std::max(1, n - 1));

  // Independent left/right orthogonal factors as products of Householder
  // reflectors (exact singular values survive; the matrix goes fully dense
  // and loses all symmetry).
  la::Vec<double> v(n), t(n);
  const auto reflect = [&](bool left) {
    double nrm = 0;
    for (int i = 0; i < n; ++i) {
      v[i] = gauss(rng);
      nrm += v[i] * v[i];
    }
    nrm = std::sqrt(nrm);
    for (int i = 0; i < n; ++i) v[i] /= nrm;
    if (left) {  // A -= 2 v (v^T A)
      for (int j = 0; j < n; ++j) {
        double s = 0;
        for (int i = 0; i < n; ++i) s += v[i] * A(i, j);
        t[j] = s;
      }
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) A(i, j) -= 2.0 * v[i] * t[j];
    } else {  // A -= 2 (A v) v^T
      for (int i = 0; i < n; ++i) {
        double s = 0;
        for (int j = 0; j < n; ++j) s += A(i, j) * v[j];
        t[i] = s;
      }
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) A(i, j) -= 2.0 * t[i] * v[j];
    }
  };
  for (int r = 0; r < 6; ++r) {
    reflect(true);
    reflect(false);
  }

  // Decade spread via power-of-two row/column scalings (the part
  // scaling::equilibrate_general removes); budget cond/cond_core split
  // between the two sides, shuffled independently.
  const double spread = spec.cond / spec.cond_core;
  const double gmax = std::log2(spread) / 2.0;
  std::vector<double> rexp(n), cexp(n);
  for (int i = 0; i < n; ++i)
    rexp[i] = cexp[i] = gmax * double(i) / std::max(1, n - 1);
  std::shuffle(rexp.begin(), rexp.end(), rng);
  std::shuffle(cexp.begin(), cexp.end(), rng);
  for (int i = 0; i < n; ++i) {
    const double di = std::exp2(std::round(rexp[i]));
    for (int j = 0; j < n; ++j) A(i, j) *= di;
  }
  for (int j = 0; j < n; ++j) {
    const double dj = std::exp2(std::round(cexp[j]));
    for (int i = 0; i < n; ++i) A(i, j) *= dj;
  }

  // Measure the extreme singular values through A^T A (SPD), reusing the
  // Cholesky-based spectrum machinery from the SPD path.
  la::Dense<double> AtA(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      double s = 0;
      for (int k = 0; k < n; ++k) s += A(k, i) * A(k, j);
      AtA(i, j) = s;
      AtA(j, i) = s;
    }
  }
  const double lmax_ata =
      la::kernels::norm2_est(AtA, 400, 2 + unsigned(name_seed(spec.name)));
  auto fact = la::cholesky(AtA);
  if (fact.status != la::CholStatus::ok)
    throw std::runtime_error(spec.name + ": general stand-in numerically singular");
  const auto solve = [&](const la::Vec<double>& v2) {
    return la::solve_upper(
        fact.R, la::solve_lower_rt(fact.R, v2, {}, fact.profile), {},
        fact.profile);
  };
  const double lmin_ata = la::kernels::lambda_min_est(
      n, solve, 400, 3 + unsigned(name_seed(spec.name)));
  if (!(lmin_ata > 0) || !(lmax_ata > 0))
    throw std::runtime_error(spec.name + ": spectrum estimation failed");
  double smax = std::sqrt(lmax_ata), smin = std::sqrt(lmin_ata);

  // Scalar scaling places ||A||_2 = sigma_max at the published norm.
  const double sigma = spec.norm2 / smax;
  for (auto& val : A.data()) val *= sigma;
  g.lambda_max = smax * sigma;
  g.lambda_min = smin * sigma;

  g.dense = std::move(A);
  g.csr = la::Csr<double>::from_dense(g.dense);
  g.digest = dense_digest(g.dense);
  return g;
}

GeneratedMatrix generate_spd_sparse(const MatrixSpec& spec, int size_cap) {
  GeneratedMatrix g;
  g.spec = spec;
  const int n = (size_cap > 0 && spec.n > size_cap) ? size_cap : spec.n;
  g.n = n;
  std::mt19937_64 rng(name_seed(spec.name));
  std::uniform_real_distribution<double> jitter(0.7, 1.0);

  const double per_row = double(spec.nnz) / spec.n;
  int w = std::max(1, int(std::lround((per_row - 1.0) / 2.0)));
  w = std::min(w, std::max(1, n / 4));

  // Off-diagonal band, then a strictly dominant diagonal: with margin
  // delta = 2/cond, Gershgorin puts the spectrum in
  // [delta * rowsum, (2 + delta) * rowsum], so k(A) ~ cond by construction.
  const double delta = spec.cond > 1.0 ? 2.0 / spec.cond : 1.0;
  std::vector<std::tuple<int, int, double>> trips;
  trips.reserve(std::size_t(n) * (2 * std::size_t(w) + 1));
  std::vector<double> absrow(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int d = 1; d <= w && i + d < n; ++d) {
      const double v = -jitter(rng) / d;
      trips.emplace_back(i, i + d, v);
      trips.emplace_back(i + d, i, v);
      absrow[i] += -v;
      absrow[i + d] += -v;
    }
  }
  double gersh_max = 0.0, gersh_min = std::numeric_limits<double>::max();
  for (int i = 0; i < n; ++i) {
    const double diag = absrow[i] * (1.0 + delta);
    trips.emplace_back(i, i, diag);
    gersh_max = std::max(gersh_max, diag + absrow[i]);
    gersh_min = std::min(gersh_min, diag - absrow[i]);
  }
  // Scalar scaling places the Gershgorin upper edge at the published norm.
  const double sigma = gersh_max > 0 ? spec.norm2 / gersh_max : 1.0;
  for (auto& t : trips) std::get<2>(t) *= sigma;
  g.lambda_max = gersh_max * sigma;
  g.lambda_min = gersh_min * sigma;
  g.csr = la::Csr<double>::from_triplets(n, n, std::move(trips));
  // g.dense stays empty on purpose: the tier exists to avoid O(n^2) memory.
  g.digest = dense_digest(g.dense);
  return g;
}

la::Vec<double> paper_rhs(const la::Dense<double>& A) {
  const int n = A.rows();
  la::Vec<double> xhat(n, 1.0 / std::sqrt(double(n)));
  la::Vec<double> b;
  A.gemv(xhat, b);
  return b;
}

la::Vec<double> paper_rhs(const la::Csr<double>& A) {
  const int n = A.rows();
  la::Vec<double> xhat(n, 1.0 / std::sqrt(double(n)));
  la::Vec<double> b;
  A.spmv(xhat, b);
  return b;
}

}  // namespace pstab::matrices
