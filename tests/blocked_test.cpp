// Blocked-vs-unblocked factorization identity and the determinism of the
// tiled parallel paths.
//
// The contract under test (la/blocked.hpp): for every format, every kernels
// backend and every panel width, cholesky_blocked / lu_factor_blocked
// produce bit-identical results to the unblocked reference loops — factors,
// statuses, failed columns and pivot permutations — because blocking only
// cuts each element's multiply-subtract chain at panel boundaries with an
// exact store/reload.  Alongside it: factorization_backward_error and the
// row-partitioned SpMV/gemv must produce byte-identical results for any
// PSTAB_THREADS (parallel_threads() re-reads the env on every call, so the
// tests flip it at runtime).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "ieee/softfloat.hpp"
#include "la/blocked.hpp"
#include "la/cholesky.hpp"
#include "la/csr.hpp"
#include "la/dense.hpp"
#include "la/kernels/kernels.hpp"
#include "la/lu.hpp"
#include "matrices/generator.hpp"
#include "posit/posit.hpp"

namespace {

using namespace pstab;
namespace ker = pstab::la::kernels;
using la::Dense;
using la::Vec;

template <class T>
bool bits_equal(const Dense<T>& a, const Dense<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.data().empty() ||
          std::memcmp(a.data().data(), b.data().data(),
                      a.data().size() * sizeof(T)) == 0);
}

template <class T>
bool bits_equal(const Vec<T>& a, const Vec<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Random SPD matrix in format T: B^T B + n I in double, rounded once into
/// T (symmetrically, so the input really is symmetric in T).
template <class T>
Dense<T> rand_spd(int n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Dense<double> B(n, n);
  for (auto& v : B.data()) v = dist(rng);
  Dense<T> A(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j <= i; ++j) {
      double s = (i == j) ? n : 0.0;
      for (int k = 0; k < n; ++k) s += B(k, i) * B(k, j);
      A(i, j) = A(j, i) = scalar_traits<T>::from_double(s);
    }
  return A;
}

template <class T>
Dense<T> rand_general(int n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  Dense<T> A(n, n);
  for (auto& v : A.data()) v = scalar_traits<T>::from_double(dist(rng));
  return A;
}

template <class T>
void expect_chol_identical(const Dense<T>& A, const ker::Context& kc,
                           int block, const char* what) {
  const auto u = la::cholesky_unblocked(A, nullptr, kc);
  const auto b = la::cholesky_blocked(A, nullptr, kc, nullptr, block);
  ASSERT_EQ(u.status, b.status) << what;
  EXPECT_EQ(u.failed_column, b.failed_column) << what;
  if (u.status == la::CholStatus::ok) {
    EXPECT_TRUE(bits_equal(u.R, b.R)) << what;
  }
}

template <class T>
void expect_lu_identical(const Dense<T>& A, const ker::Context& kc, int block,
                         const char* what) {
  const auto u = la::lu_factor_unblocked(A);
  const auto b = la::lu_factor_blocked(A, kc, block);
  ASSERT_EQ(u.status, b.status) << what;
  EXPECT_EQ(u.failed_column, b.failed_column) << what;
  if (u.status == la::LuStatus::ok) {
    EXPECT_EQ(u.perm, b.perm) << what;
    EXPECT_TRUE(bits_equal(u.lu, b.lu)) << what;
  }
}

// --- exhaustive small sizes -------------------------------------------------

template <class T>
void chol_exhaustive_small(const char* fmt) {
  const ker::Context kc{};
  for (int n = 1; n <= 20; ++n) {
    const auto A = rand_spd<T>(n, 100u + unsigned(n));
    for (int block : {1, 2, 3, 5, 8, n, n + 3})
      expect_chol_identical(A, kc, block, fmt);
  }
}

TEST(BlockedCholesky, ExhaustiveSmallDouble) {
  chol_exhaustive_small<double>("double");
}
TEST(BlockedCholesky, ExhaustiveSmallFloat) {
  chol_exhaustive_small<float>("float");
}
TEST(BlockedCholesky, ExhaustiveSmallPosit32) {
  chol_exhaustive_small<Posit32_2>("posit32_2");
}
TEST(BlockedCholesky, ExhaustiveSmallPosit16) {
  chol_exhaustive_small<Posit16_1>("posit16_1");
}
TEST(BlockedCholesky, ExhaustiveSmallHalf) {
  chol_exhaustive_small<Half>("half");
}

template <class T>
void lu_exhaustive_small(const char* fmt) {
  const ker::Context kc{};
  for (int n = 1; n <= 20; ++n) {
    const auto A = rand_general<T>(n, 300u + unsigned(n));
    for (int block : {1, 2, 3, 5, 8, n, n + 3})
      expect_lu_identical(A, kc, block, fmt);
  }
}

TEST(BlockedLu, ExhaustiveSmallDouble) { lu_exhaustive_small<double>("double"); }
TEST(BlockedLu, ExhaustiveSmallFloat) { lu_exhaustive_small<float>("float"); }
TEST(BlockedLu, ExhaustiveSmallPosit32) {
  lu_exhaustive_small<Posit32_2>("posit32_2");
}
TEST(BlockedLu, ExhaustiveSmallPosit16) {
  lu_exhaustive_small<Posit16_1>("posit16_1");
}
TEST(BlockedLu, ExhaustiveSmallHalf) { lu_exhaustive_small<Half>("half"); }

// --- randomized larger sizes, all backends ----------------------------------

TEST(BlockedCholesky, RandomizedLargerAcrossBackends) {
  for (auto backend :
       {ker::Backend::Scalar, ker::Backend::Batched, ker::Backend::Simd}) {
    const ker::Context kc{backend};
    for (int n : {64, 97, 200}) {
      const auto A = rand_spd<double>(n, 500u + unsigned(n));
      for (int block : {7, 32, 64}) expect_chol_identical(A, kc, block, "d");
    }
    const auto P = rand_spd<Posit32_2>(96, 7);
    for (int block : {13, 48}) expect_chol_identical(P, kc, block, "p32");
  }
}

TEST(BlockedLu, RandomizedLargerAcrossBackends) {
  for (auto backend :
       {ker::Backend::Scalar, ker::Backend::Batched, ker::Backend::Simd}) {
    const ker::Context kc{backend};
    for (int n : {64, 97, 200}) {
      const auto A = rand_general<double>(n, 700u + unsigned(n));
      for (int block : {7, 32, 64}) expect_lu_identical(A, kc, block, "d");
    }
    const auto P = rand_general<Posit32_2>(96, 8);
    for (int block : {13, 48}) expect_lu_identical(P, kc, block, "p32");
  }
}

TEST(BlockedCholesky, DispatcherMatchesExplicitSchedules) {
  // The auto path (Context.block == 0) must route exactly as documented:
  // unblocked below kAutoMinN, blocked with pick_block(n) above it; a forced
  // width >= n falls back to the unblocked loops.
  const auto Asmall = rand_spd<double>(64, 1);
  EXPECT_TRUE(bits_equal(la::cholesky(Asmall).R,
                         la::cholesky_unblocked(Asmall).R));
  const int n = la::blocked::kAutoMinN + 8;
  const auto A = rand_spd<double>(n, 2);
  const auto r = la::cholesky(A);
  const auto ref = la::cholesky_unblocked(A);
  EXPECT_TRUE(bits_equal(r.R, ref.R));
  ker::Context wide{};
  wide.block = n + 1;
  EXPECT_TRUE(bits_equal(la::cholesky(A, nullptr, wide).R, ref.R));
  EXPECT_EQ(la::blocked::effective_block(wide, n), 0);
  ker::Context forced{};
  forced.block = 24;
  EXPECT_EQ(la::blocked::effective_block(forced, n), 24);
  EXPECT_TRUE(bits_equal(la::cholesky(A, nullptr, forced).R, ref.R));
}

// --- failure paths ----------------------------------------------------------

TEST(BlockedCholesky, FailureStatusesMatchUnblocked) {
  // Indefinite input: flip the sign of a diagonal entry past the first
  // panel so the failure fires inside a later panel.
  auto A = rand_spd<double>(40, 11);
  A(29, 29) = -std::abs(A(29, 29)) * 40;
  for (int block : {8, 16, 64}) {
    const auto u = la::cholesky_unblocked(A);
    const auto b = la::cholesky_blocked(A, nullptr, {}, nullptr, block);
    ASSERT_EQ(u.status, la::CholStatus::not_positive_definite);
    EXPECT_EQ(b.status, u.status);
    EXPECT_EQ(b.failed_column, u.failed_column);
  }
  // Poisoned input: a NaN reaches the factorization.
  auto B = rand_spd<double>(40, 12);
  B(20, 17) = B(17, 20) = std::nan("");
  for (int block : {8, 16}) {
    const auto u = la::cholesky_unblocked(B);
    const auto b = la::cholesky_blocked(B, nullptr, {}, nullptr, block);
    ASSERT_EQ(u.status, la::CholStatus::arithmetic_error);
    EXPECT_EQ(b.status, u.status);
    EXPECT_EQ(b.failed_column, u.failed_column);
  }
}

TEST(BlockedLu, FailureStatusesMatchUnblocked) {
  // Exactly singular: column 25 is all zeros, and row operations keep it
  // exactly zero, so the pivot scan at k = 25 (mid-panel) finds nothing.
  auto A = rand_general<double>(40, 13);
  for (int i = 0; i < 40; ++i) A(i, 25) = 0.0;
  for (int block : {8, 16, 64}) {
    const auto u = la::lu_factor_unblocked(A);
    const auto b = la::lu_factor_blocked(A, {}, block);
    ASSERT_EQ(u.status, la::LuStatus::singular);
    EXPECT_EQ(b.status, u.status);
    EXPECT_EQ(b.failed_column, u.failed_column);
  }
  auto B = rand_general<double>(40, 14);
  B(30, 22) = std::nan("");
  for (int block : {8, 16}) {
    const auto u = la::lu_factor_unblocked(B);
    const auto b = la::lu_factor_blocked(B, {}, block);
    ASSERT_EQ(u.status, la::LuStatus::arithmetic_error);
    EXPECT_EQ(b.status, u.status);
    EXPECT_EQ(b.failed_column, u.failed_column);
  }
}

// --- thread-count determinism ----------------------------------------------

/// Scoped PSTAB_THREADS override: parallel_threads() re-reads the env on
/// every call, so flipping it at runtime retargets the very next parallel
/// region — no process isolation needed.
struct ThreadsGuard {
  ThreadsGuard(const char* v) { setenv("PSTAB_THREADS", v, 1); }
  ~ThreadsGuard() { unsetenv("PSTAB_THREADS"); }
};

TEST(ThreadDeterminism, BlockedFactorsIdenticalAcrossThreadCounts) {
  // At every worker count the blocked schedule must reproduce the unblocked
  // reference loops bit for bit, for a double and a posit factor.
  const int n = 260;  // above kAutoMinN, with spans crossing the par gates
  ASSERT_GT(la::blocked::effective_block(ker::Context{}, n), 0);
  const auto A = rand_spd<double>(n, 21);
  const auto P = rand_spd<Posit32_2>(n, 23);
  const auto G = rand_general<double>(n, 22);
  Dense<double> r_ref, l_ref;
  Dense<Posit32_2> p_ref;
  {
    ThreadsGuard g("1");
    r_ref = la::cholesky_unblocked(A).R;
    p_ref = la::cholesky_unblocked(P).R;
    l_ref = la::lu_factor_unblocked(G).lu;
  }
  for (const char* threads : {"1", "8", "32"}) {
    SCOPED_TRACE(std::string("PSTAB_THREADS=") + threads);
    ThreadsGuard g(threads);
    EXPECT_TRUE(bits_equal(la::cholesky(A).R, r_ref));
    EXPECT_TRUE(bits_equal(la::cholesky(P).R, p_ref));
    EXPECT_TRUE(bits_equal(la::lu_factor(G).lu, l_ref));
  }
}

/// n just above kParMinSparseRows so the row partition actually engages.
const matrices::GeneratedMatrix& spmv_det_matrix() {
  static const matrices::GeneratedMatrix g = [] {
    matrices::MatrixSpec spec{"spmv_det", 9000, 62994, 1.0e4, 1.0, 1.0e4};
    spec.sparse_only = true;
    return matrices::generate_spd_sparse(spec);
  }();
  return g;
}

TEST(ThreadDeterminism, SpmvBytesIdenticalAcrossThreadCounts) {
  const auto& g = spmv_det_matrix();
  ASSERT_EQ(g.n, 9000);
  ASSERT_EQ(g.dense.rows(), 0);  // sparse-only: never densified
  Vec<double> x(g.n);
  std::mt19937_64 rng(33);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (auto& v : x) v = dist(rng);
  Vec<double> y1;
  {
    ThreadsGuard t("1");
    g.csr.spmv(x, y1);
  }
  for (const char* threads : {"8", "32"}) {
    SCOPED_TRACE(std::string("PSTAB_THREADS=") + threads);
    ThreadsGuard t(threads);
    Vec<double> yt;
    g.csr.spmv(x, yt);
    EXPECT_TRUE(bits_equal(y1, yt));
  }
}

/// The backend SpMV under Auto (the lane-per-row vector leg for the 32-bit
/// posits when a vector ISA is active, else the decoded-plane rows) over the
/// same fixed row tiles: the bytes match the scalar rows at any thread count.
template <class P>
void check_spmv_kernel_threads() {
  const auto& g = spmv_det_matrix();
  const auto A = g.csr.cast<P>();
  std::mt19937_64 rng(35);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Vec<P> x(static_cast<std::size_t>(g.n));
  for (auto& v : x) v = P(dist(rng));
  Vec<P> ref;
  ker::spmv(ker::Context{ker::Backend::Scalar}, A, x, ref);
  for (const char* threads : {"1", "8", "32"}) {
    SCOPED_TRACE(std::string("PSTAB_THREADS=") + threads);
    ThreadsGuard t(threads);
    Vec<P> y;
    ker::spmv(ker::Context{ker::Backend::Auto}, A, x, y);
    EXPECT_TRUE(bits_equal(ref, y));
  }
}

TEST(ThreadDeterminism, SpmvKernelAutoBytesIdenticalAcrossThreadCounts) {
  check_spmv_kernel_threads<Posit32_2>();
  check_spmv_kernel_threads<Posit32_3>();
}

TEST(ThreadDeterminism, DenseGemvBytesIdenticalAcrossThreadCounts) {
  // rows*cols above kParMinDenseWork (1<<20): 1100^2 > 1.2M.
  const int n = 1100;
  Dense<double> A(n, n);
  std::mt19937_64 rng(34);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (auto& v : A.data()) v = dist(rng);
  Vec<double> x(n);
  for (auto& v : x) v = dist(rng);
  Vec<double> y1, y8;
  {
    ThreadsGuard t("1");
    y1 = A * x;
  }
  {
    ThreadsGuard t("8");
    y8 = A * x;
  }
  EXPECT_TRUE(bits_equal(y1, y8));
}

// --- backward error: parallel exact and sampled modes -----------------------

TEST(Berr, ExactModeDeterministicAcrossThreadCounts) {
  const int n = 300;
  const auto A = rand_spd<double>(n, 41);
  const auto f = la::cholesky(A);
  ASSERT_EQ(f.status, la::CholStatus::ok);
  double b1, b8;
  {
    ThreadsGuard t("1");
    b1 = la::factorization_backward_error(A, f.R);
  }
  {
    ThreadsGuard t("8");
    b8 = la::factorization_backward_error(A, f.R);
  }
  // Not just close: the tiled index-ordered reduction makes the double
  // bit-identical.
  EXPECT_EQ(b1, b8);
  // And it is the true backward error of an accurate factorization.
  EXPECT_LT(b1, 1e-13);
  EXPECT_GE(b1, 0.0);
}

TEST(Berr, SampledModeEstimatesExact) {
  const int n = 220;
  const auto A = rand_spd<Posit16_1>(n, 42);
  const auto f = la::cholesky(A);
  ASSERT_EQ(f.status, la::CholStatus::ok);
  const double exact = la::factorization_backward_error(A, f.R);
  la::BerrOptions opt;
  opt.mode = la::BerrOptions::Mode::sampled;
  opt.sample_pairs = 20000;
  const double est = la::factorization_backward_error(A, f.R, opt);
  ASSERT_GT(exact, 0.0);  // 16-bit factorization: real rounding error
  // A Monte Carlo Frobenius estimate with 20k cells of a 220^2 grid: right
  // order of magnitude, deterministic seed so no flakiness.
  EXPECT_GT(est, exact / 4);
  EXPECT_LT(est, exact * 4);
  // Same options -> same bits, any thread count.
  {
    ThreadsGuard t("7");
    EXPECT_EQ(la::factorization_backward_error(A, f.R, opt), est);
  }
}

TEST(Berr, AutoModePicksExactBelowThresholdAndSampledAbove) {
  const int n = 96;
  const auto A = rand_spd<double>(n, 43);
  const auto f = la::cholesky(A);
  ASSERT_EQ(f.status, la::CholStatus::ok);
  la::BerrOptions exact_opt;  // defaults: exact
  la::BerrOptions auto_small;
  auto_small.mode = la::BerrOptions::Mode::auto_mode;
  EXPECT_EQ(la::factorization_backward_error(A, f.R, auto_small),
            la::factorization_backward_error(A, f.R, exact_opt));
  la::BerrOptions auto_forced = auto_small;
  auto_forced.auto_exact_max_n = n - 1;  // now n is "large": sampled path
  la::BerrOptions sampled = auto_forced;
  sampled.mode = la::BerrOptions::Mode::sampled;
  EXPECT_EQ(la::factorization_backward_error(A, f.R, auto_forced),
            la::factorization_backward_error(A, f.R, sampled));
}

}  // namespace
