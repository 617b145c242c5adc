// Edge-semantics tests across the formats: IEEE special values in the soft
// floats, NaR in quire products for 8-bit posits (exhaustive vs GMP), CSR
// scaling/cast coherence, and the integer construction paths.
#include <gtest/gtest.h>

#include "ieee/softfloat.hpp"
#include "la/csr.hpp"
#include "mp/mpreal.hpp"
#include "mp/oracle.hpp"
#include "posit/posit.hpp"
#include "posit/quire.hpp"

namespace {

using namespace pstab;

TEST(SoftFloatEdge, SqrtSpecials) {
  EXPECT_TRUE(pstab::sqrt(Half(-4.0)).is_nan());
  EXPECT_EQ(pstab::sqrt(Half(0.0)).bits(), 0u);
  EXPECT_TRUE(pstab::sqrt(Half::infinity()).is_inf());
  EXPECT_TRUE(pstab::sqrt(Half::quiet_nan()).is_nan());
}

TEST(SoftFloatEdge, InfArithmetic) {
  const Half inf = Half::infinity();
  EXPECT_TRUE((inf + Half(1.0)).is_inf());
  EXPECT_TRUE((inf - inf).is_nan());
  EXPECT_TRUE((Half(0.0) * inf).is_nan());
  EXPECT_TRUE((Half(1.0) / Half(0.0)).is_inf());
  EXPECT_TRUE((Half(1.0) / -Half(0.0)).sign());  // -inf
  EXPECT_EQ((Half(1.0) / inf).to_double(), 0.0);
}

TEST(SoftFloatEdge, Fp8ExhaustiveRoundTrip) {
  for (std::uint32_t b = 0; b < 256; ++b) {
    const Fp8e5m2 f = Fp8e5m2::from_bits(b);
    if (f.is_nan()) continue;
    EXPECT_EQ(Fp8e5m2::from_double(f.to_double()).bits(), b) << b;
  }
}

TEST(SoftFloatEdge, Fp8ExhaustiveOpsMatchDoubleRounding) {
  // For every pair: op in double rounded once must equal the soft op
  // (definitionally true given the implementation, but this pins the
  // conversion paths at a width where we can afford exhaustion).
  for (std::uint32_t a = 0; a < 256; ++a) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      const Fp8e5m2 fa = Fp8e5m2::from_bits(a), fb = Fp8e5m2::from_bits(b);
      if (fa.is_nan() || fb.is_nan()) continue;
      const auto want =
          Fp8e5m2::from_double(fa.to_double() * fb.to_double());
      const auto got = fa * fb;
      if (want.is_nan()) {
        EXPECT_TRUE(got.is_nan());
      } else {
        EXPECT_EQ(got.bits(), want.bits()) << a << "*" << b;
      }
    }
  }
}

TEST(Posit8Quire, ExhaustiveSingleProductsVsGmp) {
  using P = Posit<8, 1>;
  for (std::uint32_t a = 0; a < 256; ++a) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      const P pa = P::from_bits(a), pb = P::from_bits(b);
      if (pa.is_nar() || pb.is_nar()) continue;
      Quire<8, 1> q;
      q.add_product(pa, pb);
      const mpf_class exact = mp::to_mpf(pa) * mp::to_mpf(pb);
      const P want =
          exact == 0 ? P::zero() : mp::oracle_round<8, 1>(exact);
      ASSERT_EQ(q.to_posit().bits(), want.bits()) << a << " " << b;
    }
  }
}

TEST(Posit8Quire, TwoProductAccumulationVsGmp) {
  using P = Posit<8, 0>;
  // Structured sweep: (a*b + c*d) for a dense sample of quadruples.
  for (std::uint32_t a = 1; a < 256; a += 5) {
    for (std::uint32_t b = 1; b < 256; b += 7) {
      for (std::uint32_t c = 1; c < 256; c += 11) {
        const std::uint32_t d = (a * 13 + b * 7 + c) % 256;
        const P pa = P::from_bits(a), pb = P::from_bits(b);
        const P pc = P::from_bits(c), pd = P::from_bits(d);
        if (pa.is_nar() || pb.is_nar() || pc.is_nar() || pd.is_nar())
          continue;
        Quire<8, 0> q;
        q.add_product(pa, pb);
        q.add_product(pc, pd);
        const mpf_class exact = mp::to_mpf(pa) * mp::to_mpf(pb) +
                                mp::to_mpf(pc) * mp::to_mpf(pd);
        const P want =
            exact == 0 ? P::zero() : mp::oracle_round<8, 0>(exact);
        ASSERT_EQ(q.to_posit().bits(), want.bits())
            << a << " " << b << " " << c << " " << d;
      }
    }
  }
}

TEST(PositEdge, IntConstruction) {
  EXPECT_EQ(Posit32_2(7).to_double(), 7.0);
  EXPECT_EQ(Posit32_2(-3).to_double(), -3.0);
  EXPECT_EQ(Posit32_2(0).bits(), 0u);
  EXPECT_EQ(Posit16_2(1000).to_double(), 1000.0);
}

TEST(PositEdge, IsNegativeAndSignedPattern) {
  EXPECT_TRUE(Posit32_2(-1).is_negative());
  EXPECT_FALSE(Posit32_2(1).is_negative());
  EXPECT_FALSE(Posit32_2::zero().is_negative());
  EXPECT_FALSE(Posit32_2::nar().is_negative());  // NaR is not a sign
  EXPECT_LT(Posit32_2::nar().signed_pattern(), Posit32_2(-1).signed_pattern());
}

TEST(CsrEdge, ScaleValuesAffectsCastsToo) {
  auto m = la::Csr<double>::from_triplets(2, 2, {{0, 0, 2.0}, {1, 1, 4.0}});
  m.scale_values(0.5);
  const auto d = m.to_dense();
  EXPECT_EQ(d(0, 0), 1.0);
  EXPECT_EQ(d(1, 1), 2.0);
  // Cast re-rounds from the scaled values.
  const auto mp = m.cast<Posit16_2>();
  EXPECT_EQ(mp.to_dense()(0, 0).to_double(), 1.0);
}

TEST(CsrEdge, EmptyRowsAndColumns) {
  auto m = la::Csr<double>::from_triplets(3, 3, {{1, 1, 5.0}});
  la::Vec<double> y;
  m.spmv({1.0, 2.0, 3.0}, y);
  EXPECT_EQ(y[0], 0.0);
  EXPECT_EQ(y[1], 10.0);
  EXPECT_EQ(y[2], 0.0);
}

}  // namespace
