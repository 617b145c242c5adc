// Integration test of the PSTAB_MTX_DIR override path: when a real .mtx
// file for a suite matrix exists, it is loaded instead of the synthetic
// stand-in.  Must run in its own process (the suite cache is per-process),
// which this dedicated binary guarantees.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "matrices/mm_io.hpp"
#include "matrices/suite.hpp"

namespace {

using namespace pstab;

TEST(MtxOverride, LoadsFileInsteadOfSynthetic) {
  // Write a tiny SPD "lund_b.mtx" (nothing like the real one) to a temp dir.
  const std::string dir = ::testing::TempDir();
  {
    std::ofstream f(dir + "/lund_b.mtx");
    f << "%%MatrixMarket matrix coordinate real symmetric\n"
      << "3 3 4\n"
      << "1 1 4.0\n2 2 5.0\n3 3 6.0\n2 1 1.0\n";
  }
  ASSERT_EQ(setenv("PSTAB_MTX_DIR", dir.c_str(), 1), 0);

  const auto& g = matrices::suite_matrix("lund_b");
  EXPECT_EQ(g.n, 3);             // the file's size, not the spec's 147
  EXPECT_EQ(g.csr.nnz(), 5u);    // symmetric expansion: 3 diag + 2 offdiag
  EXPECT_EQ(g.dense(0, 0), 4.0);
  EXPECT_EQ(g.dense(1, 0), 1.0);
  EXPECT_EQ(g.dense(0, 1), 1.0);

  // Matrices without a file still come from the generator at spec size.
  const auto& synth = matrices::suite_matrix("bcsstk01");
  EXPECT_EQ(synth.n, 48);
  unsetenv("PSTAB_MTX_DIR");
}

TEST(MtxOverride, LoadedMatrixCarriesItsDenseDigest) {
  const std::string dir = ::testing::TempDir();
  {
    std::ofstream f(dir + "/bcsstk02.mtx");
    f << "%%MatrixMarket matrix coordinate real symmetric\n"
      << "2 2 3\n"
      << "1 1 2.0\n2 2 3.0\n2 1 -1.0\n";
  }
  ASSERT_EQ(setenv("PSTAB_MTX_DIR", dir.c_str(), 1), 0);
  const auto loaded = matrices::make_suite_matrix("bcsstk02");
  unsetenv("PSTAB_MTX_DIR");
  ASSERT_EQ(loaded.n, 2);
  ASSERT_TRUE(loaded.digest.has_value());
  EXPECT_EQ(*loaded.digest, matrices::dense_digest(loaded.dense));
  // The synthetic stand-in is different content, so a different key.
  const auto synth = matrices::make_suite_matrix("bcsstk02");
  EXPECT_NE(*loaded.digest, *synth.digest);
}

}  // namespace
