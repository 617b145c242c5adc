// Resilience subsystem tests: the replayable bit-flip injector, the
// recovery policies (CG restart, Cholesky shift ladder, IR precision
// escalation), and the campaign driver's determinism contract — the same
// (seed, options) must produce byte-identical artifacts for any
// PSTAB_THREADS, and disabled hooks must be bit-transparent.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "la/cg.hpp"
#include "la/cholesky.hpp"
#include "la/ir.hpp"
#include "matrices/generator.hpp"
#include "resilience/campaign.hpp"
#include "resilience/inject.hpp"
#include "resilience/recover.hpp"

namespace {

using namespace pstab;
using resilience::BitField;
using resilience::FaultPlan;
using resilience::Injector;

matrices::GeneratedMatrix clean() {
  matrices::MatrixSpec spec{"res", 30, 250, 1.0e3, 4.0, 1.0e2};
  return matrices::generate_spd(spec, 0);
}

// --- bit-field decoding ----------------------------------------------------

std::uint64_t p16mask(std::uint64_t pattern, BitField f) {
  return resilience::detail::posit_field_mask<16, 2>(pattern, f);
}

TEST(Resilience, PositFieldMasksPartitionTheEncoding) {
  // For every 16-bit posit pattern, sign | regime | exponent | fraction must
  // tile the word exactly: disjoint fields, union = all bits.
  for (std::uint64_t pat = 0; pat < (1ull << 16); ++pat) {
    const auto sign = p16mask(pat, BitField::sign);
    const auto regime = p16mask(pat, BitField::regime);
    const auto exp = p16mask(pat, BitField::exponent);
    const auto frac = p16mask(pat, BitField::fraction);
    ASSERT_EQ(sign & regime, 0u) << pat;
    ASSERT_EQ(regime & exp, 0u) << pat;
    ASSERT_EQ(exp & frac, 0u) << pat;
    ASSERT_EQ(sign & (exp | frac), 0u) << pat;
    ASSERT_EQ(sign | regime | exp | frac, 0xFFFFull) << pat;
    ASSERT_EQ(p16mask(pat, BitField::any), 0xFFFFull);
  }
}

TEST(Resilience, PositFieldMaskKnownLayouts) {
  // 1.0 in Posit16_2 is 0x4000: regime bits are "10" at the top of the body
  // (positions 14..13), then 2 exponent bits, then 11 fraction bits.
  const std::uint64_t one = Posit16_2::from_double(1.0).bits();
  EXPECT_EQ(one, 0x4000u);
  EXPECT_EQ(p16mask(one, BitField::sign), 0x8000u);
  EXPECT_EQ(p16mask(one, BitField::regime), 0x6000u);
  EXPECT_EQ(p16mask(one, BitField::exponent), 0x1800u);
  EXPECT_EQ(p16mask(one, BitField::fraction), 0x07FFu);
}

TEST(Resilience, IeeeFieldMasksPartitionTheEncoding) {
  const auto sign = resilience::detail::ieee_field_mask(5, 10, BitField::sign);
  const auto exp =
      resilience::detail::ieee_field_mask(5, 10, BitField::exponent);
  const auto frac =
      resilience::detail::ieee_field_mask(5, 10, BitField::fraction);
  EXPECT_EQ(sign, 0x8000u);
  EXPECT_EQ(exp, 0x7C00u);
  EXPECT_EQ(frac, 0x03FFu);
  EXPECT_EQ(sign | exp | frac, 0xFFFFull);
  // regime is a posit concept; IEEE formats report an empty mask and the
  // injector falls back to the non-sign body.
  EXPECT_EQ(resilience::detail::ieee_field_mask(5, 10, BitField::regime), 0u);
}

// --- injector --------------------------------------------------------------

TEST(Resilience, InjectorIsDeterministic) {
  const FaultPlan plan{42, la::fault::Site::vector_entry, BitField::any, 3};
  std::vector<Posit32_2> v1(8, Posit32_2::from_double(1.5));
  std::vector<Posit32_2> v2 = v1;

  Injector<Posit32_2> a(plan), b(plan);
  a.iteration(3);
  a.touch(la::fault::Site::vector_entry, v1.data(), sizeof(Posit32_2),
          v1.size());
  b.iteration(3);
  b.touch(la::fault::Site::vector_entry, v2.data(), sizeof(Posit32_2),
          v2.size());

  ASSERT_TRUE(a.fired());
  ASSERT_TRUE(b.fired());
  EXPECT_EQ(a.element(), b.element());
  EXPECT_EQ(a.bit(), b.bit());
  EXPECT_EQ(a.before_bits(), b.before_bits());
  EXPECT_EQ(a.after_bits(), b.after_bits());
  for (std::size_t i = 0; i < v1.size(); ++i)
    EXPECT_EQ(v1[i].bits(), v2[i].bits());
  // Exactly one element changed, by exactly one bit.
  EXPECT_EQ(std::uint64_t(v1[a.element()].bits()), a.after_bits());
  EXPECT_EQ(std::popcount(a.before_bits() ^ a.after_bits()), 1);
}

TEST(Resilience, InjectorFiresExactlyOnce) {
  const FaultPlan plan{7, la::fault::Site::dot_result, BitField::any, 0};
  Injector<double> inj(plan);
  double s = 3.25, t = 3.25;
  inj.iteration(0);
  inj.touch(la::fault::Site::dot_result, &s, sizeof(double), 1);
  ASSERT_TRUE(inj.fired());
  EXPECT_NE(s, 3.25);
  inj.touch(la::fault::Site::dot_result, &t, sizeof(double), 1);
  EXPECT_EQ(t, 3.25);  // one-shot: retries after recovery run clean
}

TEST(Resilience, InjectorWaitsForItsIterationAndSite) {
  const FaultPlan plan{7, la::fault::Site::dot_result, BitField::any, 5};
  Injector<double> inj(plan);
  double s = 1.0;
  inj.iteration(4);
  inj.touch(la::fault::Site::dot_result, &s, sizeof(double), 1);
  EXPECT_FALSE(inj.fired());  // too early
  inj.iteration(5);
  inj.touch(la::fault::Site::vector_entry, &s, sizeof(double), 1);
  EXPECT_FALSE(inj.fired());  // wrong site
  float f = 1.0f;
  inj.touch(la::fault::Site::dot_result, &f, sizeof(float), 1);
  EXPECT_FALSE(inj.fired());  // element width mismatch (not this format)
  inj.touch(la::fault::Site::dot_result, &s, sizeof(double), 1);
  EXPECT_TRUE(inj.fired());
  EXPECT_EQ(inj.fired_iteration(), 5);
}

TEST(Resilience, SignFieldFlipsExactlyTheSignBit) {
  const FaultPlan plan{11, la::fault::Site::dot_result, BitField::sign, 0};
  Injector<double> inj(plan);
  double s = 2.5;
  inj.iteration(0);
  inj.touch(la::fault::Site::dot_result, &s, sizeof(double), 1);
  ASSERT_TRUE(inj.fired());
  EXPECT_EQ(inj.bit(), 63);
  EXPECT_EQ(s, -2.5);
}

// --- zero-overhead contract ------------------------------------------------

/// Records touches without mutating anything.
class PassiveObserver final : public la::fault::Observer {
 public:
  void iteration(int) noexcept override {}
  void touch(la::fault::Site, void*, std::size_t, std::size_t) noexcept
      override {
    ++touches;
  }
  int touches = 0;
};

TEST(Resilience, PassiveObserverLeavesCgBitIdentical) {
  const auto g = clean();
  const auto S = g.csr.cast<Posit32_2>();
  la::Vec<Posit32_2> b(g.n, Posit32_2::from_double(1.0));

  la::Vec<Posit32_2> x_plain, x_observed;
  const auto rep_plain = la::cg_solve(S, b, x_plain, {});

  PassiveObserver obs;
  la::CgOptions opt;
  opt.fault = &obs;
  const auto rep_obs = la::cg_solve(S, b, x_observed, opt);

  EXPECT_GT(obs.touches, 0);
  EXPECT_EQ(rep_plain.status, rep_obs.status);
  EXPECT_EQ(rep_plain.iterations, rep_obs.iterations);
  ASSERT_EQ(x_plain.size(), x_observed.size());
  for (std::size_t i = 0; i < x_plain.size(); ++i)
    EXPECT_EQ(x_plain[i].bits(), x_observed[i].bits()) << i;
}

TEST(Resilience, DisabledRecoveryLeavesCleanCgBitIdentical) {
  const auto g = clean();
  const auto S = g.csr.cast<Posit32_2>();
  la::Vec<Posit32_2> b(g.n, Posit32_2::from_double(1.0));

  la::Vec<Posit32_2> x_plain, x_res;
  la::cg_solve(S, b, x_plain, {});
  la::CgOptions opt;
  opt.resilience.enabled = false;  // explicit: the default
  const auto rep = la::cg_solve(S, b, x_res, opt);
  EXPECT_TRUE(rep.recovery.empty());
  for (std::size_t i = 0; i < x_plain.size(); ++i)
    EXPECT_EQ(x_plain[i].bits(), x_res[i].bits()) << i;
}

// --- recovery policies -----------------------------------------------------

TEST(Resilience, CholeskyShiftLadderRecoversAnIndefiniteMatrix) {
  const auto g = clean();
  auto A = g.dense;
  // Knock one diagonal entry negative: plain Cholesky must fail, and the
  // doubling shift ladder must find a diagonal boost that factors.
  A(7, 7) = -0.5 * A(7, 7);
  ASSERT_NE(la::cholesky(A).status, la::CholStatus::ok);

  la::ResilientOptions res;
  res.enabled = true;
  const auto f = la::cholesky_resilient(A, res);
  ASSERT_EQ(f.status, la::CholStatus::ok);
  EXPECT_GT(f.shift_used, 0.0);
  ASSERT_FALSE(f.recovery.empty());
  for (const auto& e : f.recovery) EXPECT_EQ(e.action, "shift");

  // Disabled recovery must not shift.
  la::ResilientOptions off;
  const auto f_off = la::cholesky_resilient(A, off);
  EXPECT_NE(f_off.status, la::CholStatus::ok);
  EXPECT_EQ(f_off.shift_used, 0.0);
}

TEST(Resilience, IrEscalatesPastAnUnderflowedHalfFactorization) {
  // diag(1, 1e-9): 1e-9 underflows to zero in Half, so the Half
  // factorization fails; Float32Emu (one tier up) represents it fine.
  la::Dense<double> A(2, 2);
  A(0, 0) = 1.0;
  A(1, 1) = 1e-9;
  const la::Vec<double> b{1.0, 2e-9};

  la::Vec<double> x;
  la::IrOptions opt;
  const auto rep_off = resilience::escalate<Half>(A, b, x, opt);
  EXPECT_EQ(rep_off.status, la::IrStatus::factorization_failed);

  opt.resilience.enabled = true;
  opt.resilience.max_shifts = 0;  // starve the shift ladder: only the
                                  // precision escalation can rescue this
  const auto rep = resilience::escalate<Half>(A, b, x, opt);
  EXPECT_EQ(rep.status, la::IrStatus::converged);
  ASSERT_FALSE(rep.recovery.empty());
  bool escalated = false;
  for (const auto& e : rep.recovery)
    if (e.action.rfind("escalate:", 0) == 0) escalated = true;
  EXPECT_TRUE(escalated);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-6);
}

TEST(Resilience, ShiftLadderAlsoRescuesHalfUnderflowWhenAllowed) {
  // Same system, shifts allowed: the diagonal boost alone makes the Half
  // factorization succeed, and the recovery trail records the shift instead
  // of an escalation.
  la::Dense<double> A(2, 2);
  A(0, 0) = 1.0;
  A(1, 1) = 1e-9;
  const la::Vec<double> b{1.0, 2e-9};
  la::Vec<double> x;
  la::IrOptions opt;
  opt.resilience.enabled = true;
  const auto rep = resilience::escalate<Half>(A, b, x, opt);
  EXPECT_EQ(rep.status, la::IrStatus::converged);
  ASSERT_FALSE(rep.recovery.empty());
  EXPECT_EQ(rep.recovery.front().action, "shift");
  EXPECT_GT(rep.shift_used, 0.0);
}

TEST(Resilience, CgRestartRecoversFromInjectedBreakdown) {
  const auto g = clean();
  const auto S = g.csr.cast<Posit32_2>();
  la::Vec<Posit32_2> b(g.n, Posit32_2::from_double(1.0));

  la::Vec<Posit32_2> x_clean;
  const auto rep_clean = la::cg_solve(S, b, x_clean, {});
  ASSERT_EQ(rep_clean.status, la::SolveStatus::converged);

  // Make <p, Ap> NaR mid-solve by flipping the dot result to NaR via a sign
  // flip on a poisoned plan; easier: flip any bit of the dot scalar and rely
  // on the restart path if it breaks.  Use a plan that historically breaks:
  // sign flip of <p, Ap> makes it negative -> breakdown.
  FaultPlan plan{3, la::fault::Site::dot_result, BitField::sign, 2};
  Injector<Posit32_2> inj(plan);
  la::CgOptions opt;
  opt.fault = &inj;
  la::Vec<Posit32_2> x_off;
  const auto rep_off = la::cg_solve(S, b, x_off, opt);
  ASSERT_TRUE(inj.fired());
  ASSERT_EQ(rep_off.status, la::SolveStatus::breakdown);

  Injector<Posit32_2> inj2(plan);
  la::CgOptions ropt;
  ropt.fault = &inj2;
  ropt.resilience.enabled = true;
  la::Vec<Posit32_2> x_rec;
  const auto rep_rec = la::cg_solve(S, b, x_rec, ropt);
  EXPECT_EQ(rep_rec.status, la::SolveStatus::converged);
  bool restarted = false;
  for (const auto& e : rep_rec.recovery)
    if (e.action == "restart") restarted = true;
  EXPECT_TRUE(restarted);
}

// --- campaign driver -------------------------------------------------------

resilience::CampaignOptions small_campaign() {
  resilience::CampaignOptions opt;
  opt.solver = "cholesky";
  opt.formats = "p32_2";
  opt.n = 12;
  opt.trials = 2;
  opt.seed = 5;
  return opt;
}

TEST(Resilience, CampaignIsAPureFunctionOfItsOptions) {
  const auto opt = small_campaign();
  const auto a = resilience::run_campaign(opt);
  const auto b = resilience::run_campaign(opt);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(resilience::campaign_json(a), resilience::campaign_json(b));

  auto opt2 = opt;
  opt2.seed = 6;
  EXPECT_NE(resilience::run_campaign(opt2).digest, a.digest);
}

TEST(Resilience, CampaignJsonIsThreadCountInvariant) {
  // PSTAB_THREADS is re-read on every parallel_for call, so one process can
  // compare both schedules directly.
  const auto opt = small_campaign();
  ::setenv("PSTAB_THREADS", "1", 1);
  const auto serial = resilience::campaign_json(resilience::run_campaign(opt));
  ::setenv("PSTAB_THREADS", "8", 1);
  const auto threaded =
      resilience::campaign_json(resilience::run_campaign(opt));
  ::unsetenv("PSTAB_THREADS");
  EXPECT_EQ(serial, threaded);
}

TEST(Resilience, CampaignRecoveryCorrectsAndNeverHangs) {
  auto opt = small_campaign();
  opt.trials = 4;
  opt.recovery = true;
  const auto r = resilience::run_campaign(opt);
  int corrected = 0, hang = 0;
  for (const auto& c : r.cells) {
    corrected += c.counts[int(resilience::Outcome::corrected)];
    hang += c.counts[int(resilience::Outcome::hang)];
  }
  EXPECT_GT(corrected, 0);
  EXPECT_EQ(hang, 0);
}

TEST(Resilience, CampaignWithoutRecoveryClassifiesEverythingSafely) {
  // Recovery off: every trial still lands in a classification bucket (the
  // counts tile the trial budget) and nothing crashes on the way.
  const auto r = resilience::run_campaign(small_campaign());
  ASSERT_FALSE(r.cells.empty());
  for (const auto& c : r.cells) {
    int total = 0;
    for (int o = 0; o < resilience::kOutcomeCount; ++o) total += c.counts[o];
    EXPECT_EQ(total, int(c.trials.size()));
    EXPECT_EQ(c.counts[int(resilience::Outcome::corrected)], 0);
  }
}

}  // namespace
