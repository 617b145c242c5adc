// Matrix substrate tests: Matrix Market round-trips and fidelity of the
// synthetic Table I suite (condition number, 2-norm, density, SPD-ness).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>

#include "la/cholesky.hpp"
#include "la/norms.hpp"
#include "matrices/generator.hpp"
#include "matrices/mm_io.hpp"
#include "matrices/suite.hpp"

namespace {

using namespace pstab;

TEST(MatrixMarket, ParsesCoordinateReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 4\n"
      "1 1 2.5\n"
      "2 2 -1\n"
      "3 1 4\n"
      "3 3 1e2\n");
  const auto m = matrices::read_matrix_market(in);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.nnz(), 4u);
  const auto d = m.to_dense();
  EXPECT_EQ(d(0, 0), 2.5);
  EXPECT_EQ(d(1, 1), -1.0);
  EXPECT_EQ(d(2, 0), 4.0);
  EXPECT_EQ(d(2, 2), 100.0);
}

TEST(MatrixMarket, ExpandsSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "1 1 3\n"
      "2 1 7\n");
  const auto d = matrices::read_matrix_market(in).to_dense();
  EXPECT_EQ(d(0, 1), 7.0);
  EXPECT_EQ(d(1, 0), 7.0);
  EXPECT_EQ(d(0, 0), 3.0);
}

TEST(MatrixMarket, ParsesPatternAndArray) {
  std::istringstream p(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n2 1\n");
  const auto dp = matrices::read_matrix_market(p).to_dense();
  EXPECT_EQ(dp(0, 1), 1.0);
  EXPECT_EQ(dp(1, 0), 1.0);
  std::istringstream a(
      "%%MatrixMarket matrix array real general\n"
      "2 2\n"
      "1\n2\n3\n4\n");
  const auto da = matrices::read_matrix_market(a).to_dense();
  EXPECT_EQ(da(0, 0), 1.0);
  EXPECT_EQ(da(1, 0), 2.0);  // column-major
  EXPECT_EQ(da(0, 1), 3.0);
}

TEST(MatrixMarket, RejectsMalformed) {
  std::istringstream bad1("hello world\n");
  EXPECT_THROW(matrices::read_matrix_market(bad1), std::runtime_error);
  std::istringstream bad2(
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
  EXPECT_THROW(matrices::read_matrix_market(bad2), std::runtime_error);
  std::istringstream bad3(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n");
  EXPECT_THROW(matrices::read_matrix_market(bad3), std::runtime_error);
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  auto m = la::Csr<double>::from_triplets(
      3, 3, {{0, 0, 1.5}, {1, 0, -2.25}, {1, 1, 3.0}, {2, 2, 0.125}});
  std::stringstream s;
  matrices::write_matrix_market(s, m, /*symmetric=*/false);
  const auto m2 = matrices::read_matrix_market(s);
  ASSERT_EQ(m2.nnz(), m.nnz());
  const auto d1 = m.to_dense(), d2 = m2.to_dense();
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_EQ(d1(i, j), d2(i, j));
}

TEST(Generator, HitsConditionAndNorm) {
  matrices::MatrixSpec spec{"testmat", 120, 1200, 1.0e6, 3.0e3, 1.0e3};
  const auto g = matrices::generate_spd(spec, 0);
  EXPECT_EQ(g.n, 120);
  // Spectrum placement: condition within 2x, norm within 20% (power-iteration
  // estimates carry some error; the *decade* is what the experiments need).
  EXPECT_NEAR(std::log10(g.cond_measured()), 6.0, 0.3);
  EXPECT_NEAR(g.lambda_max, 3.0e3, 0.2 * 3.0e3);
  // SPD in double.
  EXPECT_EQ(la::cholesky(g.dense).status, la::CholStatus::ok);
  // Symmetry.
  EXPECT_TRUE(g.dense.symmetric(1e-12));
}

TEST(Generator, RespectsSizeCapAndDensity) {
  matrices::MatrixSpec spec{"capme", 1000, 9000, 1.0e4, 1.0, 1.0e2};
  const auto g = matrices::generate_spd(spec, 100);
  EXPECT_EQ(g.n, 100);
  // Per-row density preserved: nnz/row ~ 9.
  const double per_row = double(g.csr.nnz()) / g.n;
  EXPECT_NEAR(per_row, 9.0, 3.0);
}

TEST(Generator, Deterministic) {
  matrices::MatrixSpec spec{"det", 50, 400, 1.0e5, 10.0, 1.0e2};
  const auto g1 = matrices::generate_spd(spec, 0);
  const auto g2 = matrices::generate_spd(spec, 0);
  for (std::size_t i = 0; i < g1.dense.data().size(); ++i)
    ASSERT_EQ(g1.dense.data()[i], g2.dense.data()[i]);
}

TEST(Generator, PaperRhsIsAUnitVectorImage) {
  matrices::MatrixSpec spec{"rhs", 30, 200, 1.0e3, 5.0, 1.0e2};
  const auto g = matrices::generate_spd(spec, 0);
  const auto b = matrices::paper_rhs(g.dense);
  // b = A * (1/sqrt(n)) * ones: recompute directly.
  la::Vec<double> ones(30, 1.0 / std::sqrt(30.0));
  const auto b2 = g.dense * ones;
  for (int i = 0; i < 30; ++i) EXPECT_EQ(b[i], b2[i]);
}

TEST(Suite, HasAllNineteenTableOneMatrices) {
  EXPECT_EQ(matrices::table1_specs().size(), 19u);
  EXPECT_TRUE(matrices::find_spec("plat362").has_value());
  EXPECT_TRUE(matrices::find_spec("nos2").has_value());
  EXPECT_FALSE(matrices::find_spec("nonexistent").has_value());
  // Paper order: increasing 2-norm.
  const auto& specs = matrices::table1_specs();
  for (std::size_t i = 1; i < specs.size(); ++i)
    EXPECT_LE(specs[i - 1].norm2, specs[i].norm2) << specs[i].name;
}

TEST(Suite, SmallMatricesMatchSpecClosely) {
  // bcsstk01 (n=48) generates at full published size regardless of cap.
  const auto& g = matrices::suite_matrix("bcsstk01");
  EXPECT_EQ(g.n, 48);
  EXPECT_NEAR(std::log10(g.cond_measured()), std::log10(8.8e5), 0.3);
  EXPECT_NEAR(std::log10(g.lambda_max), std::log10(3.0e9), 0.15);
}

// Every generated or loaded matrix carries its content digest, computed
// once; cache keys read that field instead of rehashing per request.
std::uint64_t expect_digest_set(const matrices::MatrixSpec& spec) {
  const auto g = matrices::make_suite_matrix(spec.name);
  EXPECT_TRUE(g.digest == matrices::dense_digest(g.dense)) << spec.name;
  return g.digest.value_or(0);
}

TEST(Suite, DenseMatricesCarryDistinctDenseDigests) {
  std::set<std::uint64_t> seen;
  for (const auto* specs :
       {&matrices::table1_specs(), &matrices::general_specs()})
    for (const auto& spec : *specs)
      EXPECT_TRUE(seen.insert(expect_digest_set(spec)).second) << spec.name;
}

TEST(Suite, SparseOnlyMatricesCarryTheDigestOfTheirEmptyDenseImage) {
  for (const auto& spec : matrices::large_specs()) expect_digest_set(spec);
}

TEST(Suite, CachedInstanceIsStable) {
  const auto& a = matrices::suite_matrix("lund_b");
  const auto& b = matrices::suite_matrix("lund_b");
  EXPECT_EQ(&a, &b);
}

}  // namespace
