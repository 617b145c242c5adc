// Tests of the core experiment drivers and of the paper-shape invariants
// they must reproduce, parameterized over the full Table I suite
// (INSTANTIATE_TEST_SUITE_P): every suite matrix must satisfy the structural
// properties the paper's figures rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel_for.hpp"
#include "core/experiments.hpp"
#include "core/histogram.hpp"
#include "core/precision.hpp"
#include "core/report_json.hpp"
#include "la/cholesky.hpp"
#include "la/kernels/simd/simd.hpp"
#include "matrices/suite.hpp"
#include "serve/cache.hpp"

namespace {

using namespace pstab;

// ---------------------------------------------------------------------------
// Per-matrix structural invariants, across the whole suite.

class SuiteMatrixP : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteMatrixP, GeneratedMatrixMatchesSpecDecades) {
  const auto& g = matrices::suite_matrix(GetParam());
  EXPECT_NEAR(std::log10(g.cond_measured()), std::log10(g.spec.cond), 0.35)
      << GetParam();
  EXPECT_NEAR(std::log10(g.lambda_max), std::log10(g.spec.norm2), 0.15)
      << GetParam();
}

TEST_P(SuiteMatrixP, SymmetricPositiveDefinite) {
  const auto& g = matrices::suite_matrix(GetParam());
  EXPECT_TRUE(g.dense.symmetric(1e-12));
  EXPECT_EQ(la::cholesky(g.dense).status, la::CholStatus::ok);
}

TEST_P(SuiteMatrixP, Float64CgConverges) {
  // Sanity floor for every experiment: double CG must converge on every
  // suite matrix at the paper's 1e-5 criterion.
  const auto& g = matrices::suite_matrix(GetParam());
  la::CgOptions opt;
  opt.max_iter = 15 * g.n;
  const auto cell =
      core::cg_in_format<double>(g.csr, matrices::paper_rhs(g.dense), opt);
  EXPECT_EQ(cell.status, la::CgStatus::converged) << GetParam();
  EXPECT_LT(cell.true_relres, 1e-4) << GetParam();
}

TEST_P(SuiteMatrixP, RescaledCholeskyPositBeatsFloat) {
  // The Fig 9 invariant, the paper's strongest claim: after diagonal
  // re-scaling, Posit(32,2) achieves a lower backward error than Float32.
  const auto& g = matrices::suite_matrix(GetParam());
  core::SolveRequest req;
  req.rescale = true;
  const auto row = core::run_cholesky_experiment(g, req);
  if (row.f32.converged() && row.p32_2.converged()) {
    EXPECT_GT(row.extra_digits(row.p32_2), 0.0) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTable1Matrices, SuiteMatrixP,
    ::testing::Values("plat362", "mhd416b", "662_bus", "lund_b", "bcsstk02",
                      "685_bus", "1138_bus", "494_bus", "nos5", "bcsstk22",
                      "nos6", "bcsstk09", "lund_a", "nos1", "bcsstk01",
                      "bcsstk06", "msc00726", "bcsstk08", "nos2"),
    [](const auto& info) {
      std::string n = info.param;
      for (auto& c : n)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

// ---------------------------------------------------------------------------
// Driver-level behaviour on a single cheap matrix.

TEST(CgExperiment, ReportsAllFourFormats) {
  const auto& g = matrices::suite_matrix("bcsstk02");  // n = 66
  const auto row = core::run_cg_experiment(g);
  EXPECT_EQ(row.matrix, "bcsstk02");
  EXPECT_TRUE(row.f64.converged());
  EXPECT_TRUE(row.f32.converged());
  EXPECT_TRUE(row.p32_2.converged());
  EXPECT_TRUE(row.p32_3.converged());
  // Converged runs honour the paper's backward-error criterion in double.
  EXPECT_LT(row.f32.true_relres, 1e-4);
  EXPECT_LT(row.p32_2.true_relres, 1e-4);
}

// A cache key embeds the matrix's content digest, computed once where the
// matrix was built.  A matrix without one must never share a key.
TEST(CacheKeys, MatrixWithoutADigestThrowsInsteadOfSharingAKey) {
  matrices::GeneratedMatrix g = matrices::suite_matrix("bcsstk01");
  g.digest.reset();
  serve::Cache cache(std::size_t(16) << 20);
  core::SolveRequest req;
  for (const bool rescale : {false, true}) {
    req.rescale = rescale;
    EXPECT_THROW((void)core::run_cholesky_experiment(g, req, &cache),
                 std::logic_error);
    EXPECT_THROW((void)core::run_ir_experiment(g, req, &cache),
                 std::logic_error);
    EXPECT_THROW((void)core::run_lu_ir_experiment(g, req, &cache),
                 std::logic_error);
    EXPECT_THROW((void)core::run_gmres_ir_experiment(g, req, &cache),
                 std::logic_error);
  }
  EXPECT_EQ(cache.stats().insertions, 0u);
  // Without a cache no key is built: the solve is the one the digested
  // matrix gets.
  EXPECT_EQ(core::cholesky_row_json(core::run_cholesky_experiment(g, req)),
            core::cholesky_row_json(core::run_cholesky_experiment(
                matrices::suite_matrix("bcsstk01"), req)));
}

TEST(CgExperiment, PctImprovementSignConvention) {
  core::CgRow row;
  row.f32.status = la::CgStatus::converged;
  row.f32.iterations = 100;
  core::CgCell posit;
  posit.status = la::CgStatus::converged;
  posit.iterations = 80;
  EXPECT_DOUBLE_EQ(row.pct_improvement(posit), 20.0);  // posit 20% better
  posit.iterations = 150;
  EXPECT_DOUBLE_EQ(row.pct_improvement(posit), -50.0);  // posit worse
  posit.status = la::CgStatus::breakdown;
  EXPECT_TRUE(std::isnan(row.pct_improvement(posit)));
}

TEST(CholExperiment, ExtraDigitsConvention) {
  core::CholRow row;
  row.f32.status = la::CholStatus::ok;
  row.f32.true_relres = 1e-6;
  core::CholCell posit;
  posit.status = la::CholStatus::ok;
  posit.true_relres = 1e-7;
  EXPECT_NEAR(row.extra_digits(posit), 1.0, 1e-12);  // 10x better = 1 digit
  posit.true_relres = 1e-5;
  EXPECT_NEAR(row.extra_digits(posit), -1.0, 1e-12);
  posit.status = la::CholStatus::not_positive_definite;
  EXPECT_TRUE(std::isnan(row.extra_digits(posit)));
}

TEST(IrExperiment, PctReductionUsesBestPosit) {
  core::IrRow row;
  row.f16.status = la::IrStatus::converged;
  row.f16.iterations = 40;
  row.p16_1.status = la::IrStatus::converged;
  row.p16_1.iterations = 10;
  row.p16_2.status = la::IrStatus::converged;
  row.p16_2.iterations = 25;
  EXPECT_DOUBLE_EQ(row.pct_reduction(), 75.0);
  // A capped format counts as 1000 (paper convention).
  row.p16_1.status = la::IrStatus::max_iterations;
  EXPECT_DOUBLE_EQ(row.pct_reduction(), 37.5);
}

// ---------------------------------------------------------------------------
// Parallel grid runner: determinism and ordering.

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

std::vector<const matrices::GeneratedMatrix*> small_suite() {
  return {&matrices::suite_matrix("bcsstk02"), &matrices::suite_matrix("nos6"),
          &matrices::suite_matrix("494_bus")};
}

TEST(ParallelFor, ThreadCountHonorsEnv) {
  ThreadsEnv env("3");
  EXPECT_EQ(parallel_threads(), 3);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadsEnv env("8");
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h = 0;
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadsEnv env("4");
  EXPECT_THROW(
      parallel_for(64,
                   [&](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ExperimentGrid, CgSuiteDeterministicAcrossThreadCounts) {
  const auto ms = small_suite();  // generate before the parallel region
  core::SolveRequest req;
  req.record_history = true;

  std::vector<core::CgRow> serial, parallel;
  {
    ThreadsEnv env("1");
    serial = core::run_cg_suite(ms, req);
  }
  {
    ThreadsEnv env("8");
    parallel = core::run_cg_suite(ms, req);
  }
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].matrix, ms[i]->spec.name);  // deterministic ordering
    EXPECT_EQ(parallel[i].matrix, serial[i].matrix);
    for (auto get :
         {+[](const core::CgRow& r) { return &r.f64; },
          +[](const core::CgRow& r) { return &r.f32; },
          +[](const core::CgRow& r) { return &r.p32_2; },
          +[](const core::CgRow& r) { return &r.p32_3; }}) {
      const core::CgCell& s = *get(serial[i]);
      const core::CgCell& p = *get(parallel[i]);
      EXPECT_EQ(s.status, p.status) << serial[i].matrix;
      EXPECT_EQ(s.iterations, p.iterations) << serial[i].matrix;
      EXPECT_EQ(s.true_relres, p.true_relres) << serial[i].matrix;
      ASSERT_EQ(s.history.size(), p.history.size()) << serial[i].matrix;
      for (std::size_t k = 0; k < s.history.size(); ++k)
        EXPECT_EQ(s.history[k], p.history[k])
            << serial[i].matrix << " iter " << k;
      EXPECT_FALSE(s.history.empty()) << serial[i].matrix;
    }
  }
}

TEST(ExperimentGrid, CholeskySuiteDeterministicAcrossThreadCounts) {
  const auto ms = small_suite();
  std::vector<core::CholRow> serial, parallel;
  {
    ThreadsEnv env("1");
    serial = core::run_cholesky_suite(ms);
  }
  {
    ThreadsEnv env("8");
    parallel = core::run_cholesky_suite(ms);
  }
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].matrix, parallel[i].matrix);
    EXPECT_EQ(serial[i].f32.status, parallel[i].f32.status);
    EXPECT_EQ(serial[i].f32.true_relres, parallel[i].f32.true_relres);
    EXPECT_EQ(serial[i].p32_2.true_relres, parallel[i].p32_2.true_relres);
    EXPECT_EQ(serial[i].p32_3.true_relres, parallel[i].p32_3.true_relres);
  }
}

// ---------------------------------------------------------------------------
// Artifact byte-determinism: pstab-results-v1 documents promise that nothing
// time- or thread-dependent lands in the file — whatever PSTAB_THREADS says
// and whichever vector ISA executed.

namespace simd = pstab::la::kernels::simd;

/// RAII pin of the vector ISA (la/kernels/simd), cleared on scope exit.
class ForcedIsa {
 public:
  explicit ForcedIsa(simd::Isa i) { simd::force_isa(i); }
  ~ForcedIsa() { simd::clear_forced_isa(); }
};

TEST(ArtifactDeterminism, CgResultsByteIdenticalAcrossIsaAndThreads) {
  // The strongest form of the SIMD bit-identity contract: a whole CG
  // experiment grid through Backend::Simd serializes to the same bytes on
  // the native ISA (8 threads) as on the forced-scalar path (1 thread).
  const auto ms = small_suite();
  core::SolveRequest req;
  req.backend = la::kernels::Backend::Simd;
  std::string native, scalar_isa;
  {
    ThreadsEnv env("8");
    native = core::cg_results_json("cg", core::run_cg_suite(ms, req), req);
  }
  {
    ThreadsEnv env("1");
    ForcedIsa f(simd::Isa::kScalar);
    scalar_isa = core::cg_results_json("cg", core::run_cg_suite(ms, req), req);
  }
  EXPECT_EQ(native, scalar_isa);
}

// ---------------------------------------------------------------------------
// Precision model (Fig 3) and histogram (Fig 5).

TEST(PrecisionModel, GoldenZonePeaksAtOne) {
  // Posit(32,2) at 1.0: 28 significand bits (27 fraction + hidden) = 8.43
  // decimal digits; Float32 flat at 24 bits = 7.22 digits.
  EXPECT_NEAR(core::digits_at<Posit32_2>(1.0), 28 * std::log10(2.0), 1e-9);
  EXPECT_NEAR(core::digits_at<float>(1.0), 24 * std::log10(2.0), 1e-9);
  EXPECT_NEAR(core::digits_at<float>(1e30), 24 * std::log10(2.0), 1e-9);
  // Taper: strictly fewer bits three decades out than at 1.
  EXPECT_LT(core::digits_at<Posit32_2>(1e9), core::digits_at<Posit32_2>(1.0));
  // Posit(32,3) tapers slower than Posit(32,2).
  EXPECT_GT(core::digits_at<Posit32_3>(1e9), core::digits_at<Posit32_2>(1e9));
}

TEST(PrecisionModel, CrossoverNearTenToFifth) {
  // The paper: Posit(32,2) has better relative precision until ~1e-5.
  EXPECT_GE(core::digits_at<Posit32_2>(1e-4), core::digits_at<float>(1e-4));
  EXPECT_LE(core::digits_at<Posit32_2>(1e-6), core::digits_at<float>(1e-6));
}

TEST(PrecisionModel, HalfRangeEdges) {
  EXPECT_EQ(core::significand_bits_at(Half{}, 65504.0), 11);
  EXPECT_EQ(core::significand_bits_at(Half{}, 1e6), 0);     // overflow
  EXPECT_EQ(core::significand_bits_at(Half{}, 1e-9), 0);    // underflow
  EXPECT_GT(core::significand_bits_at(Half{}, 1e-5), 0);    // subnormal
  EXPECT_LT(core::significand_bits_at(Half{}, 1e-5), 11);
}

TEST(Histogram, WeightsMatricesEqually) {
  auto m1 = la::Csr<double>::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, 2.0}});
  auto m2 = la::Csr<double>::from_triplets(
      3, 3, {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}, {0, 1, 1.0}});
  std::map<int, double> h;
  core::accumulate_extra_bits<32, 2>(m1, h);
  core::accumulate_extra_bits<32, 2>(m2, h);
  double total = 0;
  for (auto& [k, v] : h) total += v;
  EXPECT_NEAR(total, 2.0, 1e-12);  // one unit of weight per matrix
}

TEST(Histogram, GoldenZoneEntriesGetPlusFour) {
  // Entries near 1 carry 27 posit fraction bits vs Float32's 23: +4.
  auto m = la::Csr<double>::from_triplets(1, 1, {{0, 0, 1.5}});
  std::map<int, double> h;
  core::accumulate_extra_bits<32, 2>(m, h);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h.begin()->first, 4);
}

TEST(Histogram, Float32FractionBitsModel) {
  EXPECT_EQ(core::float32_fraction_bits(1.0), 23);
  EXPECT_EQ(core::float32_fraction_bits(1e38), 23);
  EXPECT_EQ(core::float32_fraction_bits(1e39), 0);   // overflow
  EXPECT_EQ(core::float32_fraction_bits(0.0), 0);
  EXPECT_LT(core::float32_fraction_bits(1e-40), 23);  // subnormal
  EXPECT_GT(core::float32_fraction_bits(1e-40), 0);
}

}  // namespace
