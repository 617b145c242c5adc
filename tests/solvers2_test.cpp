// Tests for the second wave of solver machinery: GMRES / GMRES-IR, Jacobi
// PCG, double-double arithmetic, three-precision IR, and the Instrumented<T>
// telemetry scalar.
#include <gtest/gtest.h>

#include <random>

#include "common/instrumented.hpp"
#include "ieee/softfloat.hpp"
#include "la/gmres.hpp"
#include "la/ir.hpp"
#include "la/pcg.hpp"
#include "matrices/generator.hpp"
#include "mp/dd.hpp"
#include "posit/posit.hpp"

namespace {

using namespace pstab;

matrices::GeneratedMatrix small_spd() {
  matrices::MatrixSpec spec{"s2_spd", 60, 500, 1.0e4, 8.0, 1.0e2};
  return matrices::generate_spd(spec, 0);
}

// ---------------------------------------------------------------------------
// GMRES

TEST(Gmres, SolvesUnpreconditioned) {
  const auto g = small_spd();
  const auto b = matrices::paper_rhs(g.dense);
  la::Vec<double> x;
  const auto rep = la::gmres_solve(g.dense, b, x, nullptr, 1e-10, 400, 60);
  ASSERT_TRUE(rep.converged());
  const auto r = la::residual(g.dense, b, x);
  EXPECT_LT(la::kernels::nrm2_d(r) / la::kernels::nrm2_d(b), 1e-9);
}

TEST(Gmres, PreconditionerCutsIterations) {
  const auto g = small_spd();
  const auto b = matrices::paper_rhs(g.dense);
  la::Vec<double> x1, x2;
  const auto plain = la::gmres_solve(g.dense, b, x1, nullptr, 1e-8, 400, 40);
  // Exact preconditioner (double Cholesky): converges in ~1 iteration.
  const auto f = la::cholesky(g.dense);
  ASSERT_EQ(f.status, la::CholStatus::ok);
  const auto minv = [&](const la::Vec<double>& v) {
    return la::solve_upper(f.R, la::solve_lower_rt(f.R, v));
  };
  const auto pre = la::gmres_solve(g.dense, b, x2, minv, 1e-8, 400, 40);
  ASSERT_TRUE(pre.converged());
  EXPECT_LT(pre.iterations, 4);
  if (plain.converged()) {
    EXPECT_LT(pre.iterations, plain.iterations);
  }
}

TEST(Gmres, RestartStillConverges) {
  // Small restart windows stagnate on hard problems (a well-known GMRES(m)
  // property), so use a mildly conditioned system here.
  matrices::MatrixSpec spec{"s2_easy", 40, 300, 50.0, 2.0, 10.0};
  const auto g = matrices::generate_spd(spec, 0);
  const auto b = matrices::paper_rhs(g.dense);
  la::Vec<double> x;
  const auto rep = la::gmres_solve(g.dense, b, x, nullptr, 1e-8, 2000, 5);
  EXPECT_TRUE(rep.converged());  // tiny restart window, many restarts
}

TEST(GmresIr, ConvergesWhereApplicable) {
  const auto g = small_spd();
  const auto b = matrices::paper_rhs(g.dense);
  la::Vec<double> x;
  const auto rep = la::gmres_ir<Half>(g.dense, b, x);
  ASSERT_EQ(rep.status, la::IrStatus::converged);
  EXPECT_LE(rep.final_berr, 4.5e-16);
  const auto r = la::residual(g.dense, b, x);
  EXPECT_LT(la::kernels::norm_inf_d(r) / la::kernels::norm_inf_d(b), 1e-12);
}

TEST(GmresIr, AtLeastAsRobustAsPlainIr) {
  // A matrix where the Float16 cast is rough: GMRES-IR must not do worse.
  matrices::MatrixSpec spec{"s2_hard", 50, 400, 3.0e5, 2.0e4, 3.0e4};
  const auto g = matrices::generate_spd(spec, 0);
  const auto b = matrices::paper_rhs(g.dense);
  la::Vec<double> x;
  const auto plain = la::mixed_ir<Half>(g.dense, b, x);
  const auto gm = la::gmres_ir<Half>(g.dense, b, x);
  if (plain.status == la::IrStatus::converged) {
    EXPECT_EQ(gm.status, la::IrStatus::converged);
  }
}

// ---------------------------------------------------------------------------
// PCG

TEST(Pcg, MatchesCgSolutionInDouble) {
  const auto g = small_spd();
  const auto b = matrices::paper_rhs(g.dense);
  const auto S = g.csr;
  la::Vec<double> diag(g.n);
  for (int i = 0; i < g.n; ++i) diag[i] = g.dense(i, i);
  la::Vec<double> x;
  la::CgOptions opt;
  opt.tol = 1e-9;
  opt.max_iter = 5000;
  const auto rep = la::pcg_jacobi_solve(S, b, x, diag, opt);
  ASSERT_EQ(rep.status, la::CgStatus::converged);
  const auto r = la::residual(g.dense, b, x);
  EXPECT_LT(la::kernels::nrm2_d(r) / la::kernels::nrm2_d(b), 1e-8);
}

TEST(Pcg, AcceleratesBadlyScaledSystems) {
  // Strong diagonal spread: Jacobi helps a lot vs plain CG.
  matrices::MatrixSpec spec{"s2_jac", 80, 700, 1.0e6, 1.0e3, 1.0e1};
  const auto g = matrices::generate_spd(spec, 0);
  const auto b = matrices::paper_rhs(g.dense);
  la::Vec<double> diag(g.n);
  for (int i = 0; i < g.n; ++i) diag[i] = g.dense(i, i);
  la::Vec<double> x1, x2;
  la::CgOptions opt;
  opt.max_iter = 20000;
  const auto plain = la::cg_solve(g.csr, b, x1, opt);
  const auto pcg = la::pcg_jacobi_solve(g.csr, b, x2, diag, opt);
  ASSERT_EQ(pcg.status, la::CgStatus::converged);
  if (plain.status == la::CgStatus::converged) {
    EXPECT_LT(pcg.iterations, plain.iterations);
  }
}

TEST(Pcg, RejectsNonpositiveDiagonal) {
  la::Csr<double> S = la::Csr<double>::from_triplets(2, 2, {{0, 0, 1.0},
                                                            {1, 1, -1.0}});
  la::Vec<double> b{1, 1}, x;
  la::Vec<double> diag{1.0, -1.0};
  const auto rep = la::pcg_jacobi_solve(S, b, x, diag);
  EXPECT_EQ(rep.status, la::CgStatus::breakdown);
}

// ---------------------------------------------------------------------------
// Double-double

TEST(DoubleDouble, ErrorFreeTransforms) {
  const auto s = mp::two_sum(1.0, 1e-20);
  EXPECT_EQ(s.hi, 1.0);
  EXPECT_EQ(s.lo, 1e-20);  // nothing lost
  const auto p = mp::two_prod(1.0 + 1e-8, 1.0 - 1e-8);
  // exact product = 1 - 1e-16: hi+lo reproduces it beyond double precision.
  EXPECT_EQ(p.hi + p.lo, p.hi + p.lo);
  EXPECT_NE(p.lo, 0.0);
}

TEST(DoubleDouble, SumsBeyondDoublePrecision) {
  mp::DD s(0.0);
  for (int i = 0; i < 1000; ++i) s = s + mp::DD(0.1);
  // Plain double accumulation errs at ~1e-13; DD is ~exact at double output.
  EXPECT_NEAR(s.to_double(), 100.0, 1e-13);
  EXPECT_LT(std::fabs(s.to_double() - 100.0), 3e-14);
}

TEST(DoubleDouble, ArithmeticIdentities) {
  const mp::DD a(3.5), b(1.25);
  EXPECT_EQ((a + b).to_double(), 4.75);
  EXPECT_EQ((a - b).to_double(), 2.25);
  EXPECT_EQ((a * b).to_double(), 4.375);
  EXPECT_EQ((a / b).to_double(), 2.8);
  EXPECT_TRUE(b < a);
}

TEST(DoubleDouble, ResidualCatchesCancellation) {
  // b - A*x where the answer is tiny relative to the operands.
  la::Dense<double> A(1, 1);
  A(0, 0) = 1.0 + std::ldexp(1.0, -30);
  la::Vec<double> x{1.0 - std::ldexp(1.0, -30)};
  la::Vec<double> b{1.0};
  const auto r = mp::dd_residual(A, b, x);
  // exact: 1 - (1+2^-30)(1-2^-30) = 2^-60.
  EXPECT_NEAR(r[0], std::ldexp(1.0, -60), 1e-22);
}

TEST(Ir3, ConvergesWithSmallBackwardError) {
  const auto g = small_spd();
  const auto b = matrices::paper_rhs(g.dense);
  la::Vec<double> x;
  const auto r2 = la::mixed_ir<Half>(g.dense, b, x);
  la::IrOptions dd;
  dd.residual = la::ResidualPrec::dd;
  const auto r3 = la::mixed_ir<Half>(g.dense, b, x, dd);
  ASSERT_EQ(r3.status, la::IrStatus::converged);
  ASSERT_EQ(r2.status, la::IrStatus::converged);
  EXPECT_LE(r3.final_berr, r2.final_berr * 1.5);  // never meaningfully worse
}

// ---------------------------------------------------------------------------
// Instrumented<T>

// Instrumented counts through the telemetry layer; scope recording per test.
struct TelemetryOn {
  TelemetryOn() {
    telemetry::reset();
    telemetry::set_enabled(true);
  }
  ~TelemetryOn() { telemetry::set_enabled(false); }
};

TEST(Instrumented, CountsOperations) {
  using I = Instrumented<float>;
  TelemetryOn scope;
  const I a(2.0), b(3.0);
  const I c = a + b;
  const I d = c * a - b;
  (void)d;
  scalar_traits<I>::sqrt(a);
  const auto s = I::counters();
  EXPECT_EQ(s[telemetry::Event::add], 1u);
  EXPECT_EQ(s[telemetry::Event::sub], 1u);
  EXPECT_EQ(s[telemetry::Event::mul], 1u);
  EXPECT_EQ(s[telemetry::Event::sqrt], 1u);
  EXPECT_EQ(s.total_ops(), 4u);
}

TEST(Instrumented, CountsNothingWhileDisabled) {
  using I = Instrumented<float>;
  telemetry::reset();
  telemetry::set_enabled(false);
  const I a(2.0), b(3.0);
  (void)(a + b);
  EXPECT_EQ(I::counters().total_ops(), 0u);
}

TEST(Instrumented, TracksDriftAgainstShadow) {
  using I = Instrumented<Half>;
  TelemetryOn scope;
  // 1/3 in Half is off by ~5e-4 relative; shadow carries the exact double.
  const I x = I(1.0) / I(3.0);
  const auto s = I::counters();
  EXPECT_GT(s.max_rel_drift, 1e-5);
  EXPECT_LT(s.max_rel_drift, 1e-3);
  EXPECT_NEAR(scalar_traits<I>::to_double(x), 1.0 / 3.0, 1e-3);
}

TEST(Instrumented, ZeroDriftInMatchingFormat) {
  using I = Instrumented<double>;
  TelemetryOn scope;
  I s(0.0);
  for (int i = 1; i <= 50; ++i) s += I(double(i)) * I(0.5);
  EXPECT_EQ(I::counters().max_rel_drift, 0.0);  // shadow IS the format
  EXPECT_EQ(scalar_traits<I>::to_double(s), 0.5 * 50 * 51 / 2);
}

TEST(Instrumented, WorksInsideCg) {
  using I = Instrumented<Posit32_2>;
  TelemetryOn scope;
  const auto g = small_spd();
  const auto b = matrices::paper_rhs(g.dense);
  const auto Ai = g.csr.cast<I>();
  const auto bi = la::kernels::from_double_vec<I>(b);
  la::Vec<I> x;
  const auto rep = la::cg_solve(Ai, bi, x, {});
  EXPECT_EQ(rep.status, la::CgStatus::converged);
  EXPECT_GT(I::counters().total_ops(), 1000u);
}

}  // namespace
