// General-systems refinement tests: LU-IR / GMRES-IR correctness against a
// GMP elimination oracle, the NaR/NaN pivot regressions in lu_factor, the
// solver registry round-trip, PrecisionTriple validation and cache keys,
// thread-count-independent artifact bytes, the shared LU-factor cache seam
// between lu_ir and gmres_ir requests, power-of-two equilibration
// invariants, DoubleQuire exactness, the rescue regime, and the
// escalate recovery ladder on lu_ir.
#include <gmpxx.h>
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/report_json.hpp"
#include "core/solve_api.hpp"
#include "ieee/softfloat.hpp"
#include "la/gmres.hpp"
#include "la/lu_ir.hpp"
#include "matrices/generator.hpp"
#include "matrices/suite.hpp"
#include "mp/dquire.hpp"
#include "mp/mpreal.hpp"
#include "posit/posit.hpp"
#include "resilience/recover.hpp"
#include "scaling/scaling.hpp"
#include "serve/cache.hpp"

namespace {

using namespace pstab;
using la::Dense;
using la::Vec;

// ---------------------------------------------------------------------------
// GMP oracle: Gaussian elimination with partial pivoting in 512-bit mpf.

Vec<double> gmp_solve(const Dense<double>& A, const Vec<double>& b) {
  const int n = A.rows();
  std::vector<mpf_class> M(static_cast<std::size_t>(n) * n);
  std::vector<mpf_class> y(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) M[i * n + j] = mp::make(A(i, j));
    y[i] = mp::make(b[i]);
  }
  for (int k = 0; k < n; ++k) {
    int piv = k;
    mpf_class best = abs(M[k * n + k]);
    for (int i = k + 1; i < n; ++i) {
      mpf_class v = abs(M[i * n + k]);
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (piv != k) {
      for (int j = 0; j < n; ++j) std::swap(M[k * n + j], M[piv * n + j]);
      std::swap(y[k], y[piv]);
    }
    for (int i = k + 1; i < n; ++i) {
      mpf_class l = M[i * n + k] / M[k * n + k];
      for (int j = k; j < n; ++j) M[i * n + j] -= l * M[k * n + j];
      y[i] -= l * y[k];
    }
  }
  Vec<double> x(n);
  for (int i = n - 1; i >= 0; --i) {
    mpf_class s = y[i];
    for (int j = i + 1; j < n; ++j) s -= M[i * n + j] * mp::make(x[j]);
    s /= M[i * n + i];
    x[i] = s.get_d();
  }
  return x;
}

TEST(LuIr, MatchesGmpEliminationOracle) {
  matrices::MatrixSpec spec{"luir_oracle", 60, 500, 1.0e3, 1.0, 1.0e2, false};
  const auto g = matrices::generate_general(spec, 0);
  const auto b = matrices::paper_rhs(g.dense);
  const Vec<double> exact = gmp_solve(g.dense, b);

  Vec<double> x;
  const auto rep = la::lu_ir<Float32Emu>(g.dense, b, x);
  ASSERT_EQ(rep.status, la::SolveStatus::converged);
  EXPECT_LE(rep.final_berr, 4.0 * 1.11e-16);
  // Converged backward error + kappa ~ 1e3 bounds the forward error well
  // below 1e-11 against the 512-bit elimination.
  for (int i = 0; i < g.n; ++i) EXPECT_NEAR(x[i], exact[i], 1e-11) << i;
}

TEST(GmresIr, MatchesGmpEliminationOracle) {
  matrices::MatrixSpec spec{"gmir_oracle", 50, 400, 1.0e4, 1.0, 1.0e3, false};
  const auto g = matrices::generate_general(spec, 0);
  const auto b = matrices::paper_rhs(g.dense);
  const Vec<double> exact = gmp_solve(g.dense, b);

  Vec<double> x;
  la::IrOptions opt;
  opt.residual = la::ResidualPrec::dd;
  const auto rep = la::gmres_ir_lu<BFloat16>(g.dense, b, x, opt);
  ASSERT_EQ(rep.status, la::SolveStatus::converged);
  for (int i = 0; i < g.n; ++i) EXPECT_NEAR(x[i], exact[i], 1e-10) << i;
}

// ---------------------------------------------------------------------------
// Directed regressions: non-finite entries reaching lu_factor's active block
// must classify as arithmetic_error (never `singular`, never a divide).

TEST(LuFactor, NanInPivotColumnIsArithmeticError) {
  Dense<double> A(3, 3);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) A(i, j) = (i == j) ? 4.0 : 1.0;
  A(2, 1) = std::nan("");  // column-1 pivot scan must reject, not skip, this
  const auto f = la::lu_factor(A);
  EXPECT_EQ(f.status, la::LuStatus::arithmetic_error);
  EXPECT_EQ(f.failed_column, 1);
}

TEST(LuFactor, NanSeedingThePivotScanIsArithmeticError) {
  // NaN on the diagonal seeds the max-scan: a plain `>` scan freezes on row k
  // and pivots on poison.  Must be arithmetic_error, not a NaN division.
  Dense<double> A(2, 2);
  A(0, 0) = std::nan("");
  A(0, 1) = 1.0;
  A(1, 0) = 2.0;
  A(1, 1) = 1.0;
  const auto f = la::lu_factor(A);
  EXPECT_EQ(f.status, la::LuStatus::arithmetic_error);
  EXPECT_NE(f.status, la::LuStatus::singular);
  EXPECT_EQ(f.failed_column, 0);
}

TEST(LuFactor, NanInPivotRowIsArithmeticError) {
  // Poison in U's row k (to the right of the pivot) historically slipped the
  // column-only check and multiplied into the whole trailing block.
  Dense<double> A(3, 3);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) A(i, j) = (i == j) ? 4.0 : 1.0;
  A(0, 2) = std::numeric_limits<double>::infinity();
  const auto f = la::lu_factor(A);
  EXPECT_EQ(f.status, la::LuStatus::arithmetic_error);
  EXPECT_EQ(f.failed_column, 0);
}

TEST(LuFactor, PositNarIsArithmeticErrorNotSingular) {
  Dense<Posit16_2> A(3, 3);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      A(i, j) = Posit16_2::from_double((i == j) ? 4.0 : 1.0);
  A(1, 1) = Posit16_2::nar();
  const auto f = la::lu_factor(A);
  EXPECT_EQ(f.status, la::LuStatus::arithmetic_error);
  EXPECT_NE(f.status, la::LuStatus::singular);
  EXPECT_STREQ(la::to_string(f.status), "arithmetic_error");
}

TEST(LuIr, NarPoisonedFactorizationReportsFactorizationFailed) {
  // End-to-end: a matrix whose Posit16_2 cast stays finite but whose
  // elimination is fed NaR via an exactly-zero column pair is classified at
  // the lu_ir level, not silently refined against garbage.
  Dense<double> A(2, 2);
  A(0, 0) = 1;
  A(0, 1) = 2;
  A(1, 0) = 2;
  A(1, 1) = 4;  // singular: lu_status reports, status = factorization_failed
  Vec<double> x;
  const auto rep = la::lu_ir<Posit16_2>(A, Vec<double>{1, 2}, x);
  EXPECT_EQ(rep.status, la::SolveStatus::factorization_failed);
  EXPECT_EQ(rep.lu_status, la::LuStatus::singular);
}

// ---------------------------------------------------------------------------
// Solver registry round-trip.

TEST(SolverRegistry, RoundTripsEveryNameAndAlias) {
  for (const auto& info : core::solver_registry()) {
    core::Solver s;
    ASSERT_TRUE(core::parse_solver(info.name, s)) << info.name;
    EXPECT_EQ(s, info.id);
    EXPECT_STREQ(core::to_string(info.id), info.name);
    for (const char* alias : info.aliases) {
      ASSERT_TRUE(core::parse_solver(alias, s)) << alias;
      EXPECT_EQ(s, info.id) << alias;
    }
  }
}

TEST(SolverRegistry, OldSpellingsStillParse) {
  core::Solver s;
  ASSERT_TRUE(core::parse_solver("chol", s));
  EXPECT_EQ(s, core::Solver::cholesky);
  ASSERT_TRUE(core::parse_solver("ir", s));
  EXPECT_EQ(s, core::Solver::ir);
  ASSERT_TRUE(core::parse_solver("lu-ir", s));
  EXPECT_EQ(s, core::Solver::lu_ir);
  ASSERT_TRUE(core::parse_solver("gmres-ir", s));
  EXPECT_EQ(s, core::Solver::gmres_ir);
  EXPECT_FALSE(core::parse_solver("qr", s));
}

TEST(SolverRegistry, DefaultsDriveRequestAccessors) {
  core::SolveRequest req;
  req.solver = core::Solver::lu_ir;
  EXPECT_DOUBLE_EQ(req.effective_tol(), 4.0 * 1.11e-16);
  EXPECT_EQ(req.effective_max_iter(500), 1000);
  EXPECT_EQ(req.effective_residual(), "dd");

  req.solver = core::Solver::gmres_ir;
  EXPECT_EQ(req.effective_max_iter(500), 100);
  EXPECT_EQ(req.effective_residual(), "dd");

  req.solver = core::Solver::cg;
  EXPECT_EQ(req.effective_max_iter(10), 150);  // 15n
  EXPECT_EQ(req.effective_residual(), "f64");

  EXPECT_TRUE(core::solver_info(core::Solver::lu_ir).requires_spd == false);
  EXPECT_TRUE(core::solver_info(core::Solver::cg).requires_spd);
  EXPECT_TRUE(core::solver_info(core::Solver::cholesky).requires_spd);
}

// ---------------------------------------------------------------------------
// PrecisionTriple: validation and cache-key identity.

TEST(PrecisionTriple, ValidationNamesTheOffendingMember) {
  core::SolveRequest req;
  req.solver = core::Solver::lu_ir;
  EXPECT_TRUE(req.precision_error().empty());

  req.precision.factor = "f8";
  EXPECT_NE(req.precision_error().find("f8"), std::string::npos);
  req.precision.factor = "bf16";
  req.precision.residual = "quire";
  EXPECT_TRUE(req.precision_error().empty());

  req.precision.working = "f32";
  EXPECT_NE(req.precision_error().find("working"), std::string::npos);
  req.precision.working = "f64";

  req.precision.residual = "triple";
  EXPECT_NE(req.precision_error().find("triple"), std::string::npos);
  req.precision.residual = "auto";

  // Direct/Krylov SPD solvers take no triple; classic ir keeps its fixed grid.
  req.solver = core::Solver::cg;
  EXPECT_NE(req.precision_error().find("does not take"), std::string::npos);
  req.solver = core::Solver::ir;
  EXPECT_NE(req.precision_error().find("grid"), std::string::npos);
  req.precision.factor = "grid";
  EXPECT_TRUE(req.precision_error().empty());
}

TEST(PrecisionTriple, DistinguishesBatchKeysButNotRhsSeeds) {
  core::SolveRequest a;
  a.solver = core::Solver::lu_ir;
  a.matrix = "west0132";
  core::SolveRequest b = a;
  EXPECT_EQ(a.batch_key(), b.batch_key());

  b.precision.factor = "f16";
  EXPECT_NE(a.batch_key(), b.batch_key());
  b = a;
  b.precision.residual = "quire";
  EXPECT_NE(a.batch_key(), b.batch_key());

  // Same factorization, different right-hand side: batchable, not memoizable.
  b = a;
  b.rhs_seed = 7;
  EXPECT_EQ(a.batch_key(), b.batch_key());
  EXPECT_NE(a.canonical_key(), b.canonical_key());

  // lu_ir and gmres_ir are distinct work even with equal knobs.
  b = a;
  b.solver = core::Solver::gmres_ir;
  EXPECT_NE(a.batch_key(), b.batch_key());
}

// ---------------------------------------------------------------------------
// Thread-count independence of the new artifacts.

/// RAII override of PSTAB_THREADS, restored on scope exit.
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* v) {
    const char* old = std::getenv("PSTAB_THREADS");
    if (old) saved_ = old;
    had_ = old != nullptr;
    setenv("PSTAB_THREADS", v, 1);
  }
  ~ThreadsEnv() {
    if (had_)
      setenv("PSTAB_THREADS", saved_.c_str(), 1);
    else
      unsetenv("PSTAB_THREADS");
  }

 private:
  std::string saved_;
  bool had_ = false;
};

std::vector<matrices::GeneratedMatrix> tiny_general_suite() {
  std::vector<matrices::GeneratedMatrix> ms;
  ms.push_back(matrices::generate_general(
      {"tg_easy", 48, 300, 1.0e2, 1.0, 5.0e1, false}, 0));
  ms.push_back(matrices::generate_general(
      {"tg_hard", 56, 400, 1.0e5, 8.0, 1.0e4, false}, 0));
  return ms;
}

TEST(LuIrGrid, ArtifactBytesIdenticalAcrossThreadCounts) {
  const auto ms = tiny_general_suite();
  const std::vector<const matrices::GeneratedMatrix*> suite = {&ms[0], &ms[1]};
  core::SolveRequest req;
  req.solver = core::Solver::lu_ir;

  std::string one, eight;
  {
    ThreadsEnv env("1");
    one = core::lu_ir_results_json("lu_ir", core::run_lu_ir_suite(suite, req),
                                   req);
  }
  {
    ThreadsEnv env("8");
    eight = core::lu_ir_results_json("lu_ir",
                                     core::run_lu_ir_suite(suite, req), req);
  }
  EXPECT_EQ(one, eight);
}

TEST(GmresIrGrid, ArtifactBytesIdenticalAcrossThreadCounts) {
  const auto ms = tiny_general_suite();
  const std::vector<const matrices::GeneratedMatrix*> suite = {&ms[0], &ms[1]};
  core::SolveRequest req;
  req.solver = core::Solver::gmres_ir;
  req.max_iter = 40;  // keep the stalled baseline cells cheap

  std::string one, eight;
  {
    ThreadsEnv env("1");
    one = core::gmres_ir_results_json(
        "gmres_ir", core::run_gmres_ir_suite(suite, req), req);
  }
  {
    ThreadsEnv env("8");
    eight = core::gmres_ir_results_json(
        "gmres_ir", core::run_gmres_ir_suite(suite, req), req);
  }
  EXPECT_EQ(one, eight);
}

// ---------------------------------------------------------------------------
// The cache seam: lu_ir and gmres_ir requests share one LU factorization, and
// warm responses are byte-identical to cold ones.

TEST(ServeCache, LuFactorSharedAcrossSolversAndWarmBytesIdentical) {
  serve::Cache cache(std::size_t(64) << 20);

  core::SolveRequest lu;
  lu.solver = core::Solver::lu_ir;
  lu.matrix = "gre_216a";
  lu.precision.factor = "f16";
  const auto cold = core::run_request(lu, &cache);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  const auto st_cold = cache.stats();

  // Same matrix + factor format through gmres_ir: the "lufact/" key has no
  // solver component, so the factorization (and the generated matrix) must
  // come back as hits even though the response is new work.
  core::SolveRequest gm = lu;
  gm.solver = core::Solver::gmres_ir;
  const auto gm_resp = core::run_request(gm, &cache);
  ASSERT_TRUE(gm_resp.ok) << gm_resp.error;
  const auto st_shared = cache.stats();
  EXPECT_GE(st_shared.hits, st_cold.hits + 2);  // matrix + shared LU factor

  // Warm replay of the first request: memo hit, identical serialized bytes.
  const auto warm = core::run_request(lu, &cache);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.result_json, cold.result_json);

  // A different factor format is different numerics: no false sharing.
  core::SolveRequest p16 = lu;
  p16.precision.factor = "p16_1";
  const auto other = core::run_request(p16, &cache);
  ASSERT_TRUE(other.ok);
  EXPECT_NE(other.result_json, cold.result_json);
}

// ---------------------------------------------------------------------------
// Equilibration invariants.

TEST(Equilibrate, PowerOfTwoScalingsNormalizeEveryRowAndColumn) {
  std::mt19937 rng(29);
  std::normal_distribution<double> g;
  std::uniform_int_distribution<int> dec(-8, 8);
  const int n = 40;
  Dense<double> A(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      A(i, j) = g(rng) * std::pow(10.0, dec(rng));
  const Dense<double> orig = A;

  const auto gs = scaling::equilibrate_general(A);
  const auto is_pow2 = [](double v) {
    int e = 0;
    const double m = std::frexp(v, &e);
    return m == 0.5 || m == -0.5;
  };
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(is_pow2(gs.row[i])) << gs.row[i];
    EXPECT_TRUE(is_pow2(gs.col[i])) << gs.col[i];
  }
  // Scaling by powers of two is exact: A_scaled == diag(row)*orig*diag(col)
  // bit for bit, and every row/column inf-norm lands in [1/2, 2].
  for (int i = 0; i < n; ++i) {
    double rmax = 0;
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(A(i, j), orig(i, j) * gs.row[i] * gs.col[j]);
      rmax = std::max(rmax, std::fabs(A(i, j)));
    }
    EXPECT_GE(rmax, 0.5);
    EXPECT_LE(rmax, 2.0);
  }
  for (int j = 0; j < n; ++j) {
    double cmax = 0;
    for (int i = 0; i < n; ++i) cmax = std::max(cmax, std::fabs(A(i, j)));
    EXPECT_GE(cmax, 0.5);
    EXPECT_LE(cmax, 2.0);
  }
}

// ---------------------------------------------------------------------------
// DoubleQuire: exact accumulation, checked against 512-bit GMP.

TEST(DoubleQuire, CorrectlyRoundsAnExactSumVsGmp) {
  std::mt19937 rng(101);
  std::normal_distribution<double> g;
  std::uniform_int_distribution<int> ex(-140, 140);

  mp::DoubleQuire q;
  mpf_class exact(0, mp::kPrecBits);
  for (int t = 0; t < 200; ++t) {
    const double a = std::ldexp(g(rng), ex(rng));
    const double b = std::ldexp(g(rng), ex(rng));
    q.add_product(a, b);
    exact += mp::make(a) * mp::make(b);
  }
  const double r = q.to_double();
  // r must be the sum correctly rounded: no double on either side of r is
  // closer to the exact value.
  const mpf_class dr = abs(mp::make(r) - exact);
  const double up = std::nextafter(r, std::numeric_limits<double>::infinity());
  const double dn = std::nextafter(r, -std::numeric_limits<double>::infinity());
  EXPECT_LE(dr, abs(mp::make(up) - exact));
  EXPECT_LE(dr, abs(mp::make(dn) - exact));
}

TEST(DoubleQuire, SurvivesCatastrophicCancellation) {
  mp::DoubleQuire q;
  q.add(1e300);
  q.add(1.0);
  q.sub(1e300);
  EXPECT_EQ(q.to_double(), 1.0);
}

// ---------------------------------------------------------------------------
// The rescue regime, pinned on a fixed spec (independent of PSTAB_SIZE_CAP).

TEST(GmresIr, RescuesACellWherePlainLuIrStalls) {
  // kappa ~ 1.3e6 against Float16's u_f ~ 4.9e-4: plain refinement cannot
  // contract (kappa * u_f >> 1) but kappa stays well inside u_f^{-2} ~ 4e6,
  // exactly the Carson & Higham GMRES-IR window.  The generator seeds from
  // the spec name; this instance plateaus at berr ~ 2e-6 under plain LU-IR.
  const matrices::MatrixSpec spec{"rescue_a", 240,   2248, 1.3e6,
                                  1.6e2,      8.0e4, false};
  const auto m = matrices::generate_general(spec, 0);

  core::SolveRequest req;
  req.solver = core::Solver::gmres_ir;
  req.max_iter = 60;  // both legs capped at 60: enough for GMRES-IR's handful
  req.precision.factor = "f16";
  const auto row = core::run_gmres_ir_experiment(m, req);
  ASSERT_EQ(row.cells.size(), 1u);
  const auto& c = row.cells[0];
  EXPECT_EQ(c.format, "f16");
  EXPECT_EQ(c.gmres.status, la::SolveStatus::converged);
  EXPECT_NE(c.lu.status, la::SolveStatus::converged);
  EXPECT_TRUE(c.rescued());
  EXPECT_EQ(row.rescue_count(), 1);
  EXPECT_GT(c.gmres.inner_iterations, 0);
}

// ---------------------------------------------------------------------------
// Recovery ladder: escalate promotes the lu_ir factorization format.

TEST(Resilience, LuIrEscalatesPastAHalfRangeFailure) {
  // ||A||_2 ~ 4e8 saturates every Half entry to maxpos: the factorization is
  // information-free and refinement fails, but one rung up (Float32Emu) the
  // range fits and the solve converges; the trail must say so.
  const matrices::MatrixSpec spec{"esc_range", 48,    360,  1.0e3,
                                  4.1e8,      1.0e2, false};
  const auto g = matrices::generate_general(spec, 0);
  const auto b = matrices::paper_rhs(g.dense);

  la::IrOptions opt;
  opt.resilience.enabled = true;
  Vec<double> x;
  const auto rep =
      resilience::escalate<Half, scaling::GeneralScaling>(g.dense, b, x, opt);
  EXPECT_EQ(rep.status, la::SolveStatus::converged);
  ASSERT_FALSE(rep.recovery.empty());
  EXPECT_EQ(rep.recovery[0].action, "escalate:Float32Emu");

  // Without resilience the same call is a plain (failing) lu_ir<Half>.
  la::IrOptions off;
  Vec<double> x2;
  const auto plain =
      resilience::escalate<Half, scaling::GeneralScaling>(g.dense, b, x2, off);
  EXPECT_NE(plain.status, la::SolveStatus::converged);
  EXPECT_TRUE(plain.recovery.empty());
}

}  // namespace
