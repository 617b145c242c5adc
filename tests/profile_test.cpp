// Profile-bounded Cholesky (la/profile.hpp): the bounded factorization,
// triangular solves, backward error and refinement must reproduce, bit for
// bit, the same code run with full-triangle bounds (la::set_profile_bounds
// (false)).  Covers every Table I matrix × plain / diag / Higham scaling ×
// seven formats × block widths × backends, the whole IrReport of the
// refinement grid, and the directed cases behind the three exactness rules:
// a −0 seed, a non-finite solve, an installed fault observer, telemetry
// recording, and a budget that trips mid-factorization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/budget.hpp"
#include "core/telemetry/telemetry.hpp"
#include "ieee/softfloat.hpp"
#include "la/cholesky.hpp"
#include "la/ir.hpp"
#include "matrices/generator.hpp"
#include "matrices/suite.hpp"
#include "posit/posit.hpp"
#include "resilience/inject.hpp"
#include "scaling/higham.hpp"
#include "scaling/scaling.hpp"

namespace {

using namespace pstab;
using la::kernels::Backend;

// Small enough for the full-bounds reference of 7 formats × 4 widths ×
// 3 backends per matrix; msc00726's band (w = 23) still fits.
constexpr int kSizeCap = 120;

/// Runs the enclosed code with full-triangle bounds: the reference.
struct FullBounds {
  FullBounds() { la::set_profile_bounds(false); }
  ~FullBounds() { la::set_profile_bounds(true); }
  FullBounds(const FullBounds&) = delete;
  FullBounds& operator=(const FullBounds&) = delete;
};

template <class T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) ==
                           0);
}

template <class T>
bool same_bits(const la::Dense<T>& a, const la::Dense<T>& b) {
  return a.rows() == b.rows() && same_bits(a.data(), b.data());
}

// ---------------------------------------------------------------------------
// Factor + solves + backward error, bounded vs full.

template <class T>
struct Outcome {
  la::CholResult<T> f;
  la::Vec<T> y, x, y_alone, x_alone;
  double berr = 0.0;
};

template <class T>
Outcome<T> factor_and_solve(const la::Dense<T>& A, const la::Vec<T>& b,
                            const la::kernels::Context& kc) {
  Outcome<T> o;
  o.f = la::cholesky(A, nullptr, kc);
  if (o.f.status != la::CholStatus::ok) return o;
  o.y = la::solve_lower_rt(o.f.R, b, kc, o.f.profile);
  o.x = la::solve_upper(o.f.R, o.y, kc, o.f.profile);
  o.y_alone = la::solve_lower_rt(o.f.R, b, kc);
  o.x_alone = la::solve_upper(o.f.R, o.y_alone, kc);
  o.berr = la::factorization_backward_error(A, o.f.R);
  return o;
}

template <class T>
void expect_same(const Outcome<T>& got, const Outcome<T>& ref,
                 const std::string& where) {
  EXPECT_EQ(got.f.status, ref.f.status) << where;
  EXPECT_EQ(got.f.failed_column, ref.f.failed_column) << where;
  EXPECT_TRUE(same_bits(got.f.R, ref.f.R)) << where << ": factor bits";
  EXPECT_TRUE(same_bits(got.y, ref.y)) << where << ": R^T y = b";
  EXPECT_TRUE(same_bits(got.x, ref.x)) << where << ": R x = y";
  EXPECT_TRUE(same_bits(got.y_alone, ref.y_alone)) << where << ": R alone";
  EXPECT_TRUE(same_bits(got.x_alone, ref.x_alone)) << where << ": R alone";
  EXPECT_TRUE(same_bits(got.berr, ref.berr)) << where << ": backward error";
}

template <class T>
void check_factor_grid(const la::Dense<double>& As, const la::Vec<double>& b,
                       const std::string& where) {
  const la::Dense<T> A = As.template cast_clamped<T>();
  const la::Vec<T> bt = la::kernels::from_double_clamped<T>(b);
  const int n = A.rows();
  for (const int block : {n, 1, 7, 64}) {
    for (const Backend be : {Backend::Scalar, Backend::Batched, Backend::Auto}) {
      const la::kernels::Context kc{be, block};
      const Outcome<T> got = factor_and_solve(A, bt, kc);
      Outcome<T> ref;
      {
        FullBounds full;
        ref = factor_and_solve(A, bt, kc);
      }
      expect_same(got, ref,
                  where + " " + scalar_traits<T>::name() + " block " +
                      std::to_string(block) + " " + la::kernels::to_string(be));
    }
  }
}

void check_all_formats(const la::Dense<double>& As, const la::Vec<double>& b,
                       const std::string& where) {
  check_factor_grid<double>(As, b, where);
  check_factor_grid<float>(As, b, where);
  check_factor_grid<Half>(As, b, where);
  check_factor_grid<Posit16_1>(As, b, where);
  check_factor_grid<Posit16_2>(As, b, where);
  check_factor_grid<Posit32_2>(As, b, where);
  check_factor_grid<Posit32_3>(As, b, where);
}

// ---------------------------------------------------------------------------
// Refinement: the whole IrReport, bounded vs full.

void expect_same_ir(const la::IrReport& got, const la::IrReport& ref,
                    const la::Vec<double>& xg, const la::Vec<double>& xr,
                    const std::string& where) {
  EXPECT_EQ(got.status, ref.status) << where;
  EXPECT_EQ(got.iterations, ref.iterations) << where;
  EXPECT_EQ(got.chol_status, ref.chol_status) << where;
  EXPECT_TRUE(same_bits(got.final_berr, ref.final_berr)) << where;
  EXPECT_TRUE(same_bits(got.factorization_error, ref.factorization_error))
      << where;
  EXPECT_TRUE(same_bits(got.shift_used, ref.shift_used)) << where;
  EXPECT_TRUE(same_bits(got.history, ref.history)) << where;
  ASSERT_EQ(got.recovery.size(), ref.recovery.size()) << where;
  for (std::size_t i = 0; i < got.recovery.size(); ++i) {
    EXPECT_EQ(got.recovery[i].iteration, ref.recovery[i].iteration) << where;
    EXPECT_EQ(got.recovery[i].action, ref.recovery[i].action) << where;
    EXPECT_TRUE(same_bits(got.recovery[i].value, ref.recovery[i].value))
        << where;
  }
  EXPECT_TRUE(same_bits(xg, xr)) << where << ": refined x";
}

template <class F>
void check_ir(const la::Dense<double>& A, const la::Vec<double>& b, double mu,
              const std::string& where) {
  for (const bool higham : {false, true}) {
    la::Dense<double> Ah = A;
    scaling::HighamScaling hs;
    if (higham) hs = scaling::higham_scale(Ah, mu);
    for (const Backend be : {Backend::Scalar, Backend::Batched, Backend::Auto}) {
      for (const int block : {0, 7}) {
        la::IrOptions opt;
        opt.record_history = true;
        opt.kernels = la::kernels::Context{be, block};
        la::Vec<double> xg, xr;
        const auto run = [&](la::Vec<double>& x) {
          return higham ? la::mixed_ir<F>(A, b, x, opt, &hs, &Ah)
                        : la::mixed_ir<F>(A, b, x, opt);
        };
        const la::IrReport got = run(xg);
        la::IrReport ref;
        {
          FullBounds full;
          ref = run(xr);
        }
        expect_same_ir(got, ref, xg, xr,
                       where + (higham ? " higham " : " naive ") +
                           scalar_traits<F>::name() + " " +
                           la::kernels::to_string(be) + " block " +
                           std::to_string(block));
      }
    }
  }
}

class ProfileTable1P : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ProfileTable1P, FactorSolvesAndBackwardErrorMatchFullBounds) {
  const auto& spec = matrices::table1_specs()[GetParam()];
  const auto m = matrices::generate_spd(spec, kSizeCap);
  const la::Vec<double> b = matrices::paper_rhs(m.dense);
  check_all_formats(m.dense, b, spec.name + " plain");

  la::Dense<double> Ad = m.dense;
  la::Vec<double> bd = b;
  scaling::scale_diag_avg(Ad, bd);
  check_all_formats(Ad, bd, spec.name + " diag");

  la::Dense<double> Ah = m.dense;
  scaling::higham_scale(Ah, scaling::mu_ieee<Half>());
  check_all_formats(Ah, b, spec.name + " higham");
}

TEST_P(ProfileTable1P, RefinementReportsMatchFullBounds) {
  const auto& spec = matrices::table1_specs()[GetParam()];
  const auto m = matrices::generate_spd(spec, kSizeCap);
  const la::Vec<double> b = matrices::paper_rhs(m.dense);
  check_ir<Half>(m.dense, b, scaling::mu_ieee<Half>(), spec.name);
  check_ir<Posit16_1>(m.dense, b, scaling::mu_posit<16, 1>(), spec.name);
  check_ir<Posit16_2>(m.dense, b, scaling::mu_posit<16, 2>(), spec.name);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, ProfileTable1P,
    ::testing::Range(std::size_t(0), matrices::table1_specs().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return matrices::table1_specs()[info.param].name;
    });

// ---------------------------------------------------------------------------
// Structure: the envelope, and a factor that never fills outside it.

matrices::GeneratedMatrix banded_spd() {
  matrices::MatrixSpec spec{"band_spd", 80, 700, 1.0e4, 20.0, 1.0e2};
  return matrices::generate_spd(spec, 0);
}

int bandwidth(const la::Dense<double>& A) {
  int w = 0;
  for (int i = 0; i < A.rows(); ++i)
    for (int j = i + 1; j < A.cols(); ++j)
      if (A(i, j) != 0.0 && j - i > w) w = j - i;
  return w;
}

TEST(Profile, DetectsTheBandEnvelope) {
  const auto g = banded_spd();
  const int w = bandwidth(g.dense);
  EXPECT_GT(w, 0);
  EXPECT_LT(w, g.n);
  const la::Profile p = la::upper_profile(g.dense);
  ASSERT_EQ(int(p.size()), g.n);
  for (int j = 0; j < g.n; ++j) EXPECT_EQ(p[j], j > w ? j - w : 0) << j;
  const std::vector<int> ends = la::profile_row_ends(p);
  for (int i = 0; i < g.n; ++i)
    EXPECT_EQ(ends[i], i + w + 1 < g.n ? i + w + 1 : g.n) << i;
  const la::RowExtents e = la::row_extents(g.dense);
  for (int i = 0; i < g.n; ++i) {
    EXPECT_EQ(e.lo[i], i > w ? i - w : 0) << i;
    EXPECT_EQ(e.hi[i], i + w + 1 < g.n ? i + w + 1 : g.n) << i;
  }
}

TEST(Profile, BandFactorMatchesDenseBitForBit) {
  const auto g = banded_spd();
  const int w = bandwidth(g.dense);
  const auto rb = la::cholesky(g.dense);
  ASSERT_EQ(rb.status, la::CholStatus::ok);
  la::CholResult<double> rd;
  {
    FullBounds full;
    rd = la::cholesky(g.dense);
  }
  ASSERT_EQ(rd.status, la::CholStatus::ok);
  // The profile-bounded factor and the full dense factor agree bit for bit
  // inside the band ...
  for (int i = 0; i < g.n; ++i)
    for (int j = i; j <= i + w && j < g.n; ++j)
      EXPECT_TRUE(same_bits(rb.R(i, j), rd.R(i, j))) << i << "," << j;
  // ... and R has no fill outside it: the factor keeps A's envelope.
  for (int i = 0; i < g.n; ++i)
    for (int j = i + w + 1; j < g.n; ++j) {
      EXPECT_TRUE(la::bitwise_pos_zero(rb.R(i, j))) << i << "," << j;
      EXPECT_TRUE(la::bitwise_pos_zero(rd.R(i, j))) << i << "," << j;
    }
  EXPECT_EQ(la::upper_profile(rb.R), rb.profile);
}

TEST(Profile, BandSolveMatchesDense) {
  const auto g = banded_spd();
  const auto b = matrices::paper_rhs(g.dense);
  const auto f = la::cholesky(g.dense);
  ASSERT_EQ(f.status, la::CholStatus::ok);
  const auto x = la::solve_upper(f.R, la::solve_lower_rt(f.R, b, {}, f.profile),
                                 {}, f.profile);
  const auto r = la::residual(g.dense, b, x);
  EXPECT_LT(la::kernels::nrm2_d(r) / la::kernels::nrm2_d(b), 1e-10);
  la::Vec<double> xr;
  {
    FullBounds full;
    xr = la::solve_upper(f.R, la::solve_lower_rt(f.R, b));
  }
  EXPECT_TRUE(same_bits(x, xr));
}

TEST(Profile, BandSolveWorksInPosit) {
  const auto g = banded_spd();
  const auto A = g.dense.cast<Posit32_2>();
  const auto f = la::cholesky(A);
  ASSERT_EQ(f.status, la::CholStatus::ok);
  const auto b = matrices::paper_rhs(g.dense);
  const auto bp = la::kernels::from_double_vec<Posit32_2>(b);
  const auto x = la::solve_upper(
      f.R, la::solve_lower_rt(f.R, bp, {}, f.profile), {}, f.profile);
  const auto r = la::residual(g.dense, b, la::kernels::to_double_vec(x));
  EXPECT_LT(la::kernels::nrm2_d(r) / la::kernels::nrm2_d(b), 1e-5);
}

TEST(Profile, DetectsIndefiniteBandMatrix) {
  // Tridiagonal with eigenvalues 1 ± 4 cos(k pi / 5): indefinite.
  la::Dense<double> A(4, 4);
  for (int i = 0; i < 4; ++i) A(i, i) = 1;
  for (int i = 0; i + 1 < 4; ++i) A(i, i + 1) = A(i + 1, i) = 4;
  for (const int block : {4, 1, 2}) {
    const auto f = la::cholesky(A, nullptr, {Backend::Auto, block});
    EXPECT_EQ(f.status, la::CholStatus::not_positive_definite);
    la::CholResult<double> ref;
    {
      FullBounds full;
      ref = la::cholesky(A, nullptr, {Backend::Auto, block});
    }
    EXPECT_EQ(f.failed_column, ref.failed_column);
    EXPECT_EQ(f.failed_column, 1);
    EXPECT_TRUE(same_bits(f.R, ref.R));
  }
}

// ---------------------------------------------------------------------------
// Rule 1: a −0 seed runs the full chain.

template <class T>
void check_negative_zero_seed() {
  // Element (1,3) has seed −0, and its skipped term R(0,1) R(0,3) is
  // (+0)(−0.5) = −0: the full chain gives −0 − (−0) = +0.
  la::Dense<double> A(4, 4);
  const double v[4][4] = {{4, 0, 0, -1}, {0, 4, 1, -0.0}, {0, 1, 4, 1},
                          {-1, -0.0, 1, 4}};
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) A(i, j) = v[i][j];
  const la::Dense<T> At = A.template cast<T>();
  ASSERT_TRUE(la::is_neg_zero(At(1, 3)));
  EXPECT_EQ(la::upper_profile(At), (la::Profile{0, 1, 1, 0}));
  EXPECT_EQ(la::factor_profile(At, false), (la::Profile{0, 0, 1, 0}));
  for (const int block : {4, 1, 2}) {
    const auto f = la::cholesky(At, nullptr, {Backend::Auto, block});
    ASSERT_EQ(f.status, la::CholStatus::ok);
    EXPECT_TRUE(la::bitwise_pos_zero(f.R(1, 3))) << block;
    la::CholResult<T> ref;
    {
      FullBounds full;
      ref = la::cholesky(At, nullptr, {Backend::Auto, block});
    }
    EXPECT_TRUE(same_bits(f.R, ref.R)) << block;
  }

  // Forward solve: b[2] = −0, and the skipped term R(0,2) y[0] is
  // (+0)(negative) = −0.
  const auto f = la::cholesky(At);
  const la::Vec<double> bd = {-1, 0, -0.0, 1};
  const la::Vec<T> b = la::kernels::from_double_vec<T>(bd);
  const auto y = la::solve_lower_rt(f.R, b, {}, la::upper_profile(f.R));
  EXPECT_TRUE(la::bitwise_pos_zero(y[2]));
  {
    FullBounds full;
    EXPECT_TRUE(same_bits(y, la::solve_lower_rt(f.R, b)));
  }

  // Backward solve: row 0's chain is −0 where its profile ends, and the
  // skipped tail term R(0,2) x[2] is (+0)(−1) = −0.
  la::Dense<T> R(4, 4);
  for (int i = 0; i < 4; ++i) {
    R(i, i) = scalar_traits<T>::one();
    if (i + 1 < 4) R(i, i + 1) = scalar_traits<T>::one();
  }
  const la::Vec<T> yy = la::kernels::from_double_vec<T>({-0.0, -1, -1, 0});
  const la::Profile pr = la::upper_profile(R);
  EXPECT_EQ(la::profile_row_ends(pr)[0], 2);
  const auto x = la::solve_upper(R, yy, {}, pr);
  EXPECT_TRUE(la::bitwise_pos_zero(x[0]));
  {
    FullBounds full;
    EXPECT_TRUE(same_bits(x, la::solve_upper(R, yy)));
  }
}

TEST(Profile, NegativeZeroSeedRunsTheFullChain) {
  check_negative_zero_seed<double>();
  check_negative_zero_seed<float>();
  check_negative_zero_seed<Half>();
}

// ---------------------------------------------------------------------------
// Rule 2: a non-finite solve is redone with full chains.

TEST(Profile, NonFiniteSolveFallsBackToFullChains) {
  // Upper bidiagonal R in float: y[0] = 3e38 / 0.5 overflows, and the full
  // chain for y[2] meets R(0,2) y[0] = 0 * Inf = NaN.
  la::Dense<float> R(4, 4);
  for (int i = 0; i < 4; ++i) {
    R(i, i) = i == 0 ? 0.5f : 1.0f;
    if (i + 1 < 4) R(i, i + 1) = 1.0f;
  }
  const la::Profile pr = la::upper_profile(R);
  const la::Vec<float> b = {3e38f, 1, 1, 1};
  const auto y = la::solve_lower_rt(R, b, {}, pr);
  EXPECT_TRUE(std::isinf(y[0]));
  EXPECT_TRUE(std::isnan(y[2]));
  la::Vec<float> yref;
  {
    FullBounds full;
    yref = la::solve_lower_rt(R, b);
  }
  EXPECT_TRUE(same_bits(y, yref));

  // Backward: x[3] overflows, and row 0 meets R(0,3) x[3] = 0 * Inf.
  la::Dense<float> U(4, 4);
  for (int i = 0; i < 4; ++i) {
    U(i, i) = i == 3 ? 0.5f : 1.0f;
    if (i + 1 < 4) U(i, i + 1) = 1.0f;
  }
  const la::Vec<float> c = {1, 1, 1, 3e38f};
  const auto x = la::solve_upper(U, c, {}, la::upper_profile(U));
  EXPECT_TRUE(std::isnan(x[0]));
  la::Vec<float> xref;
  {
    FullBounds full;
    xref = la::solve_upper(U, c);
  }
  EXPECT_TRUE(same_bits(x, xref));

  // The residual takes the full rows for a non-finite x as well.
  const auto g = banded_spd();
  la::Vec<double> xx(std::size_t(g.n), 1.0);
  xx[0] = std::numeric_limits<double>::infinity();
  const auto bb = matrices::paper_rhs(g.dense);
  EXPECT_TRUE(same_bits(la::residual(g.dense, bb, xx, la::row_extents(g.dense)),
                        la::residual(g.dense, bb, xx)));
}

// ---------------------------------------------------------------------------
// Rule 3: a fault observer or recording telemetry means the full triangle.

template <class T>
void check_fault_observer() {
  const auto g = banded_spd();
  const la::Dense<T> A = g.dense.template cast<T>();
  for (const auto site : {la::fault::Site::vector_entry,
                          la::fault::Site::dot_result}) {
    for (int it = 0; it < g.n; it += 7) {
      for (const int block : {g.n, 7}) {
        resilience::FaultPlan plan;
        plan.seed = 11 + std::uint64_t(it);
        plan.site = site;
        plan.iteration = it;
        resilience::Injector<T> inj(plan), inj_ref(plan);
        const la::kernels::Context kc{Backend::Auto, block};
        const auto f = la::cholesky(A, nullptr, kc, &inj);
        EXPECT_EQ(f.profile, la::full_profile(g.n));
        la::CholResult<T> ref;
        {
          FullBounds full;
          ref = la::cholesky(A, nullptr, kc, &inj_ref);
        }
        const std::string where = std::string(la::fault::to_string(site)) +
                                  " it " + std::to_string(it) + " block " +
                                  std::to_string(block);
        EXPECT_EQ(f.status, ref.status) << where;
        EXPECT_EQ(f.failed_column, ref.failed_column) << where;
        EXPECT_TRUE(same_bits(f.R, ref.R)) << where;
      }
    }
  }
}

TEST(Profile, FaultObserverSeesTheFullLoops) {
  check_fault_observer<float>();
  check_fault_observer<Posit32_2>();
}

TEST(Profile, TelemetryCountsTheFullLoops) {
  const auto g = banded_spd();
  const auto b = matrices::paper_rhs(g.dense);
  const auto run = [&] {
    telemetry::reset();
    telemetry::set_enabled(true);
    EXPECT_FALSE(la::profile_bounds());
    const auto A = g.dense.cast<Posit32_2>();
    const auto f = la::cholesky(A);
    const auto bp = la::kernels::from_double_vec<Posit32_2>(b);
    (void)la::solve_upper(f.R, la::solve_lower_rt(f.R, bp, {}, f.profile), {},
                          f.profile);
    la::Vec<double> x;
    (void)la::mixed_ir<Half>(g.dense, b, x);
    telemetry::set_enabled(false);
    return telemetry::snapshot();
  };
  const auto got = run();
  std::vector<telemetry::FormatCounters> ref;
  {
    FullBounds full;
    ref = run();
  }
  ASSERT_EQ(got.size(), ref.size());
  bool counted = false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].format, ref[i].format);
    EXPECT_EQ(got[i].events, ref[i].events) << got[i].format;
    EXPECT_EQ(got[i].regime_hist, ref[i].regime_hist) << got[i].format;
    counted = counted || got[i].total_ops() > 0;
  }
  EXPECT_TRUE(counted);
  telemetry::reset();
  EXPECT_TRUE(la::profile_bounds());
}

// ---------------------------------------------------------------------------
// A budget trips at the same column with the same partial report.

TEST(Profile, BudgetTripsAtTheSameColumn) {
  const auto g = banded_spd();
  const auto A = g.dense.cast<Posit16_2>();
  const auto b = matrices::paper_rhs(g.dense);
  for (const std::uint64_t ticks : {1u, 5u, 37u, 79u}) {
    for (const int block : {g.n, 1, 7}) {
      const la::kernels::Context kc{Backend::Auto, block};
      core::Budget bud(ticks), bud_ref(ticks);
      const auto f = la::cholesky(A, nullptr, kc, nullptr, &bud);
      la::CholResult<Posit16_2> ref;
      {
        FullBounds full;
        ref = la::cholesky(A, nullptr, kc, nullptr, &bud_ref);
      }
      EXPECT_EQ(f.status, la::CholStatus::deadline_exceeded);
      EXPECT_EQ(f.status, ref.status);
      EXPECT_EQ(f.failed_column, int(ticks));
      EXPECT_EQ(f.failed_column, ref.failed_column);
      EXPECT_TRUE(same_bits(f.R, ref.R)) << ticks << " block " << block;
    }
    // Refinement: factorization columns and refinement steps share one
    // allowance, so a budget past n trips inside refinement.
    for (const std::uint64_t extra : {0u, 3u}) {
      core::Budget bud(ticks + extra + std::uint64_t(g.n)),
          bud_ref(ticks + extra + std::uint64_t(g.n));
      la::IrOptions opt, opt_ref;
      opt.record_history = opt_ref.record_history = true;
      opt.tol = opt_ref.tol = 0.0;  // only the budget stops it
      opt.budget = &bud;
      opt_ref.budget = &bud_ref;
      la::Vec<double> x, xr;
      const auto got = la::mixed_ir<Half>(g.dense, b, x, opt);
      la::IrReport ref;
      {
        FullBounds full;
        ref = la::mixed_ir<Half>(g.dense, b, xr, opt_ref);
      }
      EXPECT_EQ(got.status, la::IrStatus::deadline_exceeded);
      expect_same_ir(got, ref, x, xr, "ir budget " + std::to_string(ticks));
    }
  }
}

}  // namespace
