#include "fuzz/fuzz.hpp"

#include <gmpxx.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "ieee/softfloat.hpp"
#include "la/csr.hpp"
#include "la/dense.hpp"
#include "la/gmres.hpp"
#include "la/ir.hpp"
#include "la/lu_ir.hpp"
#include "la/kernels/kernels.hpp"
#include "la/kernels/simd/simd.hpp"
#include "mp/mpreal.hpp"
#include "mp/oracle.hpp"
#include "mp/oracle_ieee.hpp"
#include "posit/posit.hpp"
#include "posit/quire.hpp"
#include "resilience/campaign.hpp"
#include "resilience/inject.hpp"
#include "scaling/higham.hpp"
#include "serve/chaos.hpp"

namespace pstab::fuzz {
namespace {

using detail::u64;

// The posit N x ES grid and the SoftFloat formats the fuzzer drives.  Kept as
// X-macros so the format-id dispatch, the generator tables, and the replay
// tables can never fall out of sync.
#define PSTAB_FUZZ_POSIT_GRID(X) \
  X(8, 0) X(8, 1) X(8, 2) X(16, 1) X(16, 2) X(32, 2) X(32, 3) X(64, 3)
#define PSTAB_FUZZ_SF_GRID(X) X(5, 10) X(8, 7) X(5, 2) X(8, 23)

// ---------------------------------------------------------------------------
// Exact arithmetic helpers.
//
// mp::kPrecBits (512) is plenty for single values and products, but NOT for
// exact sums across a wide posit's dynamic range: a Posit<64,3> addition can
// span ~1100 bits, and an 8-term quire dot over products spans ~2300.  All
// sums/accumulations below are therefore evaluated into kExactBits targets
// (gmpxx expression templates compute straight into the assignment target at
// the target's precision, so `wide = a + b` is exact whenever the result
// fits kExactBits).
constexpr int kExactBits = 4096;

[[nodiscard]] mpf_class wide(const mpf_class& v = mpf_class()) {
  mpf_class r(0, kExactBits);
  r = v;
  return r;
}

/// Three-way comparison, usable on mixed-precision operands (exact in GMP).
[[nodiscard]] int cmp3(const mpf_class& a, const mpf_class& b) {
  return mpf_cmp(a.get_mpf_t(), b.get_mpf_t());
}

// ---------------------------------------------------------------------------
// Comparator-based oracle rounding.
//
// Quotients and square roots are not exactly representable in mpf, so instead
// of rounding an approximation we re-run the oracle's monotone search with an
// EXACT comparator: cmp(v) = sign(|exact| - v), evaluated by cross-multiplying
// (div: |a| vs v*|b|) or squaring (sqrt: x vs v^2) — both sides dyadic and far
// below kExactBits, hence exact.

template <int N, int ES, class Cmp>
[[nodiscard]] Posit<N, ES> oracle_round_posit_cmp(bool neg, const Cmp& cmp) {
  using P = Posit<N, ES>;
  const u64 maxpat = P::maxpos().bits();
  if (cmp(mp::oracle_decode(maxpat, N, ES)) >= 0)
    return neg ? -P::maxpos() : P::maxpos();
  if (cmp(mp::oracle_decode(1, N, ES)) <= 0)
    return neg ? -P::minpos() : P::minpos();
  u64 lo = 1, hi = maxpat;
  while (lo < hi) {
    const u64 mid = lo + (hi - lo + 1) / 2;
    if (cmp(mp::oracle_decode(mid, N, ES)) >= 0)
      lo = mid;
    else
      hi = mid - 1;
  }
  const mpf_class vmid = mp::oracle_decode(
      (static_cast<unsigned __int128>(lo) << 1) | 1, N + 1, ES);
  const int c = cmp(vmid);
  u64 pat = lo;
  if (c > 0)
    pat = lo + 1;
  else if (c == 0)
    pat = (lo & 1) == 0 ? lo : lo + 1;
  const P r = P::from_bits(pat);
  return neg ? -r : r;
}

template <int E, int M, class Cmp>
[[nodiscard]] SoftFloat<E, M> oracle_round_ieee_cmp(bool neg, const Cmp& cmp) {
  using F = SoftFloat<E, M>;
  const std::uint32_t smask = neg ? (1u << (E + M)) : 0u;
  mpf_class half_min = mp::ieee_decode<E, M>(1);
  mpf_div_2exp(half_min.get_mpf_t(), half_min.get_mpf_t(), 1);
  if (cmp(half_min) <= 0) return F::from_bits(smask);  // tie: 0 is even
  const std::uint32_t maxpat = (((1u << E) - 1) << M) - 1;
  {
    mpf_class thr = mp::ieee_decode<E, M>(maxpat);
    mpf_class ulp(1, mp::kPrecBits);
    const long s = F::emax - M - 1;  // half ulp at emax
    if (s >= 0)
      mpf_mul_2exp(ulp.get_mpf_t(), ulp.get_mpf_t(), static_cast<unsigned>(s));
    else
      mpf_div_2exp(ulp.get_mpf_t(), ulp.get_mpf_t(),
                   static_cast<unsigned>(-s));
    thr += ulp;
    if (cmp(thr) >= 0) return F::infinity(neg);
  }
  std::uint32_t lo = 0, hi = maxpat;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo + 1) / 2;
    if (cmp(mp::ieee_decode<E, M>(mid)) >= 0)
      lo = mid;
    else
      hi = mid - 1;
  }
  if (lo == maxpat) return F::from_bits(smask | maxpat);
  mpf_class vmid = mp::ieee_decode<E, M>(lo) + mp::ieee_decode<E, M>(lo + 1);
  mpf_div_2exp(vmid.get_mpf_t(), vmid.get_mpf_t(), 1);
  const int c = cmp(vmid);
  std::uint32_t pat = lo;
  if (c > 0)
    pat = lo + 1;
  else if (c == 0)
    pat = (lo & 1) == 0 ? lo : lo + 1;
  return F::from_bits(smask | pat);
}

// ---------------------------------------------------------------------------
// Verdict plumbing.

[[nodiscard]] Verdict fail(std::string detail) { return {false, std::move(detail)}; }

[[nodiscard]] Verdict fail_bits(const char* what, u64 expected, u64 actual) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s expected=0x%llx actual=0x%llx", what,
                static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(actual));
  return fail(buf);
}

/// Structurally invalid cases (bad arity, unknown op) get a "malformed:"
/// prefix so the minimizer never mistakes a self-inflicted parse failure for
/// a genuine arithmetic mismatch.
[[nodiscard]] bool is_malformed(const Verdict& v) {
  return v.detail.rfind("malformed", 0) == 0;
}

// ---------------------------------------------------------------------------
// Posit surface: every scalar op vs the pattern-space oracle.

template <int N, int ES>
[[nodiscard]] Verdict check_posit(const Case& c) {
  using P = Posit<N, ES>;
  std::size_t arity = 2;
  if (c.op == "sqrt" || c.op == "recip") arity = 1;
  if (c.op == "fma") arity = 3;
  if (c.args.size() != arity) return fail("malformed: bad arity for " + c.op);
  const P a = P::from_bits(c.args[0]);
  const P b = arity >= 2 ? P::from_bits(c.args[1]) : P::zero();
  const P f3 = arity >= 3 ? P::from_bits(c.args[2]) : P::zero();

  P actual, expected;
  if (c.op == "add" || c.op == "sub" || c.op == "fma") {
    actual = c.op == "add"  ? a + b
             : c.op == "sub" ? a - b
                             : pstab::fma(a, b, f3);
    if (a.is_nar() || b.is_nar() || (arity == 3 && f3.is_nar())) {
      expected = P::nar();
    } else {
      mpf_class s = wide();
      if (c.op == "fma") {
        mpf_class prod(0, kExactBits);
        prod = mp::to_mpf(a) * mp::to_mpf(b);  // exact: <= 130 bits
        s = prod + mp::to_mpf(f3);
      } else if (c.op == "add") {
        s = mp::to_mpf(a) + mp::to_mpf(b);
      } else {
        s = mp::to_mpf(a) - mp::to_mpf(b);
      }
      expected = s == 0 ? P::zero() : mp::oracle_round<N, ES>(s);
    }
  } else if (c.op == "mul") {
    actual = a * b;
    if (a.is_nar() || b.is_nar()) {
      expected = P::nar();
    } else {
      mpf_class s = wide();
      s = mp::to_mpf(a) * mp::to_mpf(b);
      expected = s == 0 ? P::zero() : mp::oracle_round<N, ES>(s);
    }
  } else if (c.op == "div") {
    actual = a / b;
    if (a.is_nar() || b.is_nar() || b.is_zero()) {
      expected = P::nar();
    } else if (a.is_zero()) {
      expected = P::zero();
    } else {
      const mpf_class na = abs(mp::to_mpf(a)), nb = abs(mp::to_mpf(b));
      const bool neg = a.is_negative() != b.is_negative();
      expected = oracle_round_posit_cmp<N, ES>(neg, [&](const mpf_class& v) {
        mpf_class t(0, kExactBits);
        t = v * nb;
        return cmp3(na, t);
      });
    }
  } else if (c.op == "sqrt") {
    actual = pstab::sqrt(a);
    if (a.is_nar() || a.is_negative()) {
      expected = P::nar();
    } else if (a.is_zero()) {
      expected = P::zero();
    } else {
      const mpf_class x = mp::to_mpf(a);
      expected = oracle_round_posit_cmp<N, ES>(false, [&](const mpf_class& v) {
        mpf_class t(0, kExactBits);
        t = v * v;
        return cmp3(x, t);
      });
    }
  } else if (c.op == "recip") {
    actual = pstab::reciprocal(a);
    if (a.is_nar() || a.is_zero()) {
      expected = P::nar();
    } else {
      const mpf_class na = abs(mp::to_mpf(a));
      const mpf_class one = mp::make(1.0);
      expected =
          oracle_round_posit_cmp<N, ES>(a.is_negative(), [&](const mpf_class& v) {
            mpf_class t(0, kExactBits);
            t = v * na;
            return cmp3(one, t);
          });
    }
  } else {
    return fail("malformed: unknown posit op " + c.op);
  }
  if (actual.bits() != expected.bits())
    return fail_bits(c.op.c_str(), expected.bits(), actual.bits());
  return {};
}

// ---------------------------------------------------------------------------
// Quire surface: exact k-term dot vs GMP, plus the chunked partial-quire
// merge (the associativity the batched fused dot depends on).

template <int N, int ES>
[[nodiscard]] Verdict check_quire(const Case& c) {
  using P = Posit<N, ES>;
  if (c.args.size() < 2) return fail("malformed: quire case too short");
  const u64 k = c.args[0], split = c.args[1];
  if (k < 1 || k > 16 || split > k || c.args.size() != 2 + 2 * k)
    return fail("malformed: bad quire shape");
  std::vector<P> x, y;
  for (u64 i = 0; i < k; ++i) {
    x.push_back(P::from_bits(c.args[2 + i]));
    y.push_back(P::from_bits(c.args[2 + k + i]));
  }

  const P actual = quire_dot(x.data(), y.data(), k);

  // Merge check: accumulate a prefix and a suffix into separate quires, add
  // them, and require bit equality with the single-quire result.
  Quire<N, ES> q1, q2;
  for (u64 i = 0; i < split; ++i) q1.add_product(x[i], y[i]);
  for (u64 i = split; i < k; ++i) q2.add_product(x[i], y[i]);
  q1.add(q2);
  const P merged = q1.to_posit();

  bool any_nar = false;
  mpf_class acc(0, kExactBits);
  for (u64 i = 0; i < k; ++i) {
    if (x[i].is_nar() || y[i].is_nar()) any_nar = true;
    mpf_class prod(0, kExactBits);
    prod = mp::to_mpf(x[i]) * mp::to_mpf(y[i]);
    acc += prod;
  }
  const P expected = any_nar         ? P::nar()
                     : acc == 0      ? P::zero()
                                     : mp::oracle_round<N, ES>(acc);
  if (actual.bits() != expected.bits())
    return fail_bits("dot", expected.bits(), actual.bits());
  if (merged.bits() != actual.bits())
    return fail_bits("merge", actual.bits(), merged.bits());
  return {};
}

// ---------------------------------------------------------------------------
// Convert surface: double round trips and cross-format recasts.

template <int N, int ES>
[[nodiscard]] Verdict check_convert(const Case& c) {
  using P = Posit<N, ES>;
  if (c.op == "fromd") {
    if (c.args.size() != 1) return fail("malformed: fromd wants 1 arg");
    const double d = std::bit_cast<double>(c.args[0]);
    const P actual = P::from_double(d);
    P expected;
    if (std::isnan(d) || std::isinf(d))
      expected = P::nar();
    else if (d == 0.0)
      expected = P::zero();
    else
      expected = mp::oracle_round<N, ES>(mp::make(d));  // mpf(double) is exact
    if (actual.bits() != expected.bits())
      return fail_bits("fromd", expected.bits(), actual.bits());
    return {};
  }
  if (c.op == "roundtrip") {
    if (c.args.size() != 1) return fail("malformed: roundtrip wants 1 arg");
    const P p = P::from_bits(c.args[0]);
    P back;
    if constexpr (N <= 32) {
      back = P::from_double(p.to_double());
      // to_double must be value-exact for every N <= 32 pattern.
      if (!p.is_nar() && !p.is_zero() &&
          cmp3(mp::make(p.to_double()), mp::to_mpf(p)) != 0)
        return fail_bits("to_double-inexact", p.bits(), p.bits());
    } else {
      back = P::from_long_double(p.to_long_double());
    }
    if (back.bits() != p.bits())
      return fail_bits("roundtrip", p.bits(), back.bits());
    return {};
  }
  if (c.op == "recast") {
    if (c.args.size() != 2) return fail("malformed: recast wants 2 args");
    const P p = P::from_bits(c.args[0]);
    const u64 tgt = c.args[1] % 8;
    u64 idx = 0;
#define X(N2, ES2)                                                        \
  if (idx++ == tgt) {                                                     \
    using T = Posit<N2, ES2>;                                             \
    const T actual = p.template recast<N2, ES2>();                        \
    T expected;                                                           \
    if (p.is_nar())                                                       \
      expected = T::nar();                                                \
    else if (p.is_zero())                                                 \
      expected = T::zero();                                               \
    else                                                                  \
      expected = mp::oracle_round<N2, ES2>(mp::to_mpf(p));                \
    if (actual.bits() != expected.bits())                                 \
      return fail_bits("recast", expected.bits(), actual.bits());         \
    return Verdict{};                                                     \
  }
    PSTAB_FUZZ_POSIT_GRID(X)
#undef X
    return fail("malformed: bad recast target");
  }
  return fail("malformed: unknown convert op " + c.op);
}

// ---------------------------------------------------------------------------
// SoftFloat surface.  Finite cases go through the independent IEEE oracle;
// special values (NaN/inf/div-by-zero/sqrt of negative) and result-sign-of-
// zero are resolved by hardware double arithmetic, which is authoritative for
// IEEE semantics since every SoftFloat value converts exactly.  Float32Emu is
// additionally compared bit-for-bit against hardware float.

template <int E, int M>
[[nodiscard]] Verdict check_sf(const Case& c) {
  using F = SoftFloat<E, M>;
  const std::uint32_t sign_mask = 1u << (E + M);

  const auto same = [](F expected, F actual) {
    return (expected.is_nan() && actual.is_nan()) ||
           expected.bits() == actual.bits();
  };

  if (c.op == "fromd") {
    if (c.args.size() != 1) return fail("malformed: fromd wants 1 arg");
    const double d = std::bit_cast<double>(c.args[0]);
    const F actual = F::from_double(d);
    F expected;
    if (std::isnan(d))
      expected = F::quiet_nan();
    else if (std::isinf(d))
      expected = F::infinity(std::signbit(d));
    else if (d == 0.0)
      expected = F::from_bits(std::signbit(d) ? sign_mask : 0u);
    else
      expected = mp::oracle_round_ieee<E, M>(mp::make(d));
    if (!same(expected, actual))
      return fail_bits("fromd", expected.bits(), actual.bits());
    if constexpr (E == 8 && M == 23) {
      const float hw = static_cast<float>(d);
      if (std::isnan(hw) != actual.is_nan() ||
          (!std::isnan(hw) && std::bit_cast<std::uint32_t>(hw) != actual.bits()))
        return fail_bits("fromd-vs-float", std::bit_cast<std::uint32_t>(hw),
                         actual.bits());
    }
    return {};
  }
  if (c.op == "roundtrip") {
    if (c.args.size() != 1) return fail("malformed: roundtrip wants 1 arg");
    const F f = F::from_bits(c.args[0]);
    const F back = F::from_double(f.to_double());
    if (!same(f, back)) return fail_bits("roundtrip", f.bits(), back.bits());
    return {};
  }

  std::size_t arity = 2;
  if (c.op == "sqrt") arity = 1;
  if (c.op == "fma") arity = 3;
  if (c.args.size() != arity) return fail("malformed: bad arity for " + c.op);
  const F a = F::from_bits(static_cast<std::uint32_t>(c.args[0]));
  const F b = arity >= 2 ? F::from_bits(static_cast<std::uint32_t>(c.args[1]))
                         : F::zero();
  const F g = arity >= 3 ? F::from_bits(static_cast<std::uint32_t>(c.args[2]))
                         : F::zero();
  const double ad = a.to_double(), bd = b.to_double(), gd = g.to_double();

  F actual;
  double dr = 0.0;  // hardware-double reference (exact operands)
  if (c.op == "add") {
    actual = a + b;
    dr = ad + bd;
  } else if (c.op == "sub") {
    actual = a - b;
    dr = ad - bd;
  } else if (c.op == "mul") {
    actual = a * b;
    dr = ad * bd;
  } else if (c.op == "div") {
    actual = a / b;
    dr = ad / bd;
  } else if (c.op == "sqrt") {
    actual = pstab::sqrt(a);
    dr = std::sqrt(ad);
  } else if (c.op == "fma") {
    actual = scalar_traits<F>::fma(a, b, g);
    dr = std::fma(ad, bd, gd);
  } else {
    return fail("malformed: unknown softfloat op " + c.op);
  }

  F expected;
  const bool special = std::isnan(ad) || std::isnan(bd) || std::isnan(gd) ||
                       std::isinf(ad) || std::isinf(bd) || std::isinf(gd) ||
                       (c.op == "div" && bd == 0.0) ||
                       (c.op == "sqrt" && ad < 0.0);
  if (special) {
    // The exact result is NaN, +-inf, or +-0 — all exactly representable, so
    // the (correctly rounded) hardware double result IS the expected value.
    if (std::isnan(dr))
      expected = F::quiet_nan();
    else if (std::isinf(dr))
      expected = F::infinity(std::signbit(dr));
    else
      expected = F::from_bits(std::signbit(dr) ? sign_mask : 0u);
  } else if (c.op == "sqrt") {
    if (ad == 0.0) {
      expected = a;  // sqrt(+-0) = +-0
    } else {
      const mpf_class x = mp::make(ad);
      expected = oracle_round_ieee_cmp<E, M>(false, [&](const mpf_class& v) {
        mpf_class t(0, kExactBits);
        t = v * v;
        return cmp3(x, t);
      });
    }
  } else if (c.op == "div") {
    if (ad == 0.0) {
      expected = F::from_bits(std::signbit(dr) ? sign_mask : 0u);
    } else {
      const mpf_class na = mp::make(std::fabs(ad)), nb = mp::make(std::fabs(bd));
      expected = oracle_round_ieee_cmp<E, M>(
          std::signbit(ad) != std::signbit(bd), [&](const mpf_class& v) {
            mpf_class t(0, kExactBits);
            t = v * nb;
            return cmp3(na, t);
          });
    }
  } else {
    mpf_class s = wide();
    if (c.op == "add") {
      s = mp::make(ad) + mp::make(bd);
    } else if (c.op == "sub") {
      s = mp::make(ad) - mp::make(bd);
    } else if (c.op == "mul") {
      s = mp::make(ad) * mp::make(bd);
    } else {  // fma
      mpf_class prod(0, kExactBits);
      prod = mp::make(ad) * mp::make(bd);
      s = prod + mp::make(gd);
    }
    if (s == 0)
      // Exact zero: IEEE assigns the sign by rule, which the hardware result
      // (also exactly zero here) carries.
      expected = F::from_bits(std::signbit(dr) ? sign_mask : 0u);
    else
      expected = mp::oracle_round_ieee<E, M>(s);
  }
  if (!same(expected, actual))
    return fail_bits(c.op.c_str(), expected.bits(), actual.bits());

  if constexpr (E == 8 && M == 23) {
    // Differential vs hardware float: SoftFloat<8,23> documents bit-for-bit
    // IEEE binary32 behavior.
    const float fa = static_cast<float>(ad), fb = static_cast<float>(bd),
                fg = static_cast<float>(gd);
    float fr = 0.0f;
    if (c.op == "add")
      fr = fa + fb;
    else if (c.op == "sub")
      fr = fa - fb;
    else if (c.op == "mul")
      fr = fa * fb;
    else if (c.op == "div")
      fr = fa / fb;
    else if (c.op == "sqrt")
      fr = std::sqrt(fa);
    else
      fr = std::fmaf(fa, fb, fg);
    if (std::isnan(fr) != actual.is_nan() ||
        (!std::isnan(fr) && std::bit_cast<std::uint32_t>(fr) != actual.bits()))
      return fail_bits("vs-float", std::bit_cast<std::uint32_t>(fr),
                       actual.bits());
  }
  return {};
}

// ---------------------------------------------------------------------------
// Solver surface: tiny SPD systems through cholesky / mixed_ir.  Checked for
// internal invariants, not against GMP: no non-finite escapes, status-field
// consistency, history bookkeeping, and (when both the plain and the
// Higham-scaled run converge) agreement of independently recomputed double
// backward errors.

[[nodiscard]] double double_berr(const la::Dense<double>& A,
                                 const la::Vec<double>& b,
                                 const la::Vec<double>& x) {
  const la::Vec<double> r = la::residual(A, b, x);
  return la::kernels::norm_inf_d(r) /
         (la::kernels::norm_inf(A) * la::kernels::norm_inf_d(x) +
          la::kernels::norm_inf_d(b));
}

[[nodiscard]] Verdict check_ir_invariants(const la::Dense<double>& A,
                                          const la::Vec<double>& b,
                                          const la::Vec<double>& x,
                                          const la::IrReport& rep,
                                          const la::IrOptions& opt) {
  using S = la::IrStatus;
  if (rep.status == S::factorization_failed) {
    if (rep.chol_status == la::CholStatus::ok)
      return fail("factorization_failed but CholStatus::ok");
    if (rep.iterations != 0) return fail("iterations ran after failed factorization");
    return {};
  }
  if (rep.chol_status != la::CholStatus::ok)
    return fail("refinement ran on a failed factorization");
  if (rep.iterations < 1 || rep.iterations > opt.max_iter)
    return fail("iteration count out of range");
  if (static_cast<int>(rep.history.size()) != rep.iterations)
    return fail("history length != iterations");
  if (rep.history.empty())
    return fail("final berr missing from history");
  const double hb = rep.history.back();
  if (hb != rep.final_berr && !(std::isnan(hb) && std::isnan(rep.final_berr)))
    return fail("final berr missing from history");
  if (rep.status == S::converged) {
    if (!std::isfinite(rep.final_berr) || rep.final_berr > opt.tol)
      return fail("converged but final berr above tol");
    if (!la::kernels::all_finite(x))
      return fail("converged with non-finite solution");
    const double check = double_berr(A, b, x);
    if (!(check <= 16.0 * opt.tol))
      return fail("converged but recomputed double berr disagrees");
  } else if (rep.status == S::max_iterations) {
    if (std::isfinite(rep.final_berr) && rep.final_berr <= opt.tol)
      return fail("max_iterations with berr under tol");
  } else if (rep.status != S::diverged) {
    return fail("unexpected IR status");
  }
  return {};
}

/// The LuIrReport analogue of check_ir_invariants: same status taxonomy
/// (SolveStatus instead of IrStatus, LuStatus instead of CholStatus), same
/// history bookkeeping, same double-recomputed convergence check.
[[nodiscard]] Verdict check_lu_ir_invariants(const la::Dense<double>& A,
                                             const la::Vec<double>& b,
                                             const la::Vec<double>& x,
                                             const la::LuIrReport& rep,
                                             const la::IrOptions& opt) {
  using S = la::SolveStatus;
  if (rep.status == S::factorization_failed) {
    if (rep.lu_status == la::LuStatus::ok)
      return fail("factorization_failed but LuStatus::ok");
    if (rep.iterations != 0)
      return fail("iterations ran after failed factorization");
    return {};
  }
  if (rep.lu_status != la::LuStatus::ok)
    return fail("refinement ran on a failed factorization");
  if (rep.iterations < 1 || rep.iterations > opt.max_iter)
    return fail("iteration count out of range");
  if (static_cast<int>(rep.history.size()) != rep.iterations)
    return fail("history length != iterations");
  const double hb = rep.history.back();
  if (hb != rep.final_berr && !(std::isnan(hb) && std::isnan(rep.final_berr)))
    return fail("final berr missing from history");
  if (rep.inner_iterations < 0) return fail("negative inner iteration count");
  if (rep.status == S::converged) {
    if (!std::isfinite(rep.final_berr) || rep.final_berr > opt.tol)
      return fail("converged but final berr above tol");
    if (!la::kernels::all_finite(x))
      return fail("converged with non-finite solution");
    if (!(double_berr(A, b, x) <= 16.0 * opt.tol))
      return fail("converged but recomputed double berr disagrees");
  } else if (rep.status == S::max_iterations) {
    if (std::isfinite(rep.final_berr) && rep.final_berr <= opt.tol)
      return fail("max_iterations with berr under tol");
  } else if (rep.status != S::diverged) {
    return fail("unexpected LU-IR status");
  }
  return {};
}

/// Tiny general (non-symmetric) refinement cases: ops "lu" (la::lu_ir) and
/// "gmres_ir" (la::gmres_ir_lu), each run plain and — when the third arg is
/// set — again through two-sided power-of-two equilibration, with the
/// equilibrated solution held to the same invariants against the ORIGINAL
/// system (the scaling must cancel exactly).
template <class F>
[[nodiscard]] Verdict check_general_solver_impl(const Case& c) {
  const int n = static_cast<int>(c.args[0]);
  SplitMix64 r(c.args[1]);
  const bool with_equil = c.args[2] != 0;

  // Random dense A with log-uniform magnitudes (the spread stresses both the
  // low-precision cast and the equilibration path), b uniform in [-1, 1].
  la::Dense<double> A(n, n);
  const int spread = static_cast<int>(r.below(7));  // powers of two, 0..6
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      const double m = 0.5 + double(r.below(1u << 20)) / double(1u << 20);
      const int sc = static_cast<int>(r.below(2 * spread + 1)) - spread;
      A(i, j) = (r.below(2) ? -1.0 : 1.0) * std::ldexp(m, 4 * sc);
    }
  la::Vec<double> b(n);
  for (int i = 0; i < n; ++i) {
    const double sgn = r.below(2) ? -1.0 : 1.0;
    b[i] = sgn * double(r.below(1u << 20)) / double(1u << 20);
  }

  la::IrOptions opt;
  opt.record_history = true;
  opt.max_iter = 60;
  opt.residual = la::ResidualPrec::dd;
  const bool gmres = c.op == "gmres_ir";

  la::Vec<double> x1;
  const la::LuIrReport rep1 =
      gmres ? la::gmres_ir_lu<F>(A, b, x1, opt) : la::lu_ir<F>(A, b, x1, opt);
  Verdict v = check_lu_ir_invariants(A, b, x1, rep1, opt);
  if (!v.ok) {
    v.detail = "plain: " + v.detail;
    return v;
  }
  if (!gmres && rep1.inner_iterations != 0)
    return fail("plain lu_ir reported GMRES inner iterations");
  if (!with_equil) return {};

  la::Dense<double> As = A;
  const scaling::GeneralScaling gs = scaling::equilibrate_general(As);
  la::Vec<double> x2;
  const la::LuIrReport rep2 = gmres
                                  ? la::gmres_ir_lu<F>(A, b, x2, opt, &gs, &As)
                                  : la::lu_ir<F>(A, b, x2, opt, &gs, &As);
  v = check_lu_ir_invariants(A, b, x2, rep2, opt);
  if (!v.ok) {
    v.detail = "equilibrated: " + v.detail;
    return v;
  }
  if (rep1.status == la::SolveStatus::converged &&
      rep2.status == la::SolveStatus::converged) {
    const double e1 = double_berr(A, b, x1), e2 = double_berr(A, b, x2);
    if (!(e1 <= 16.0 * opt.tol) || !(e2 <= 16.0 * opt.tol))
      return fail("equilibrated/plain residual disagreement in double");
  }
  return {};
}

template <class F>
[[nodiscard]] Verdict check_solver_impl(const Case& c, double mu) {
  if (c.args.size() != 3) return fail("malformed: solver wants 3 args");
  const int n = static_cast<int>(c.args[0]);
  if (n < 2 || n > 8) return fail("malformed: solver order out of range");
  if (c.op == "lu" || c.op == "gmres_ir")
    return check_general_solver_impl<F>(c);
  SplitMix64 r(c.args[1]);
  const bool with_scaling = c.args[2] != 0;

  // Random SPD system: A = Mx^T Mx + delta*I with log-uniform magnitudes (the
  // spread stresses the Higham scaling path), b uniform in [-1, 1].
  la::Dense<double> A(n, n);
  {
    la::Dense<double> Mx(n, n);
    const int spread = static_cast<int>(r.below(7));  // powers of two, 0..6
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        const double m = 0.5 + double(r.below(1u << 20)) / double(1u << 20);
        const int sc = static_cast<int>(r.below(2 * spread + 1)) - spread;
        Mx(i, j) = (r.below(2) ? -1.0 : 1.0) * std::ldexp(m, 4 * sc);
      }
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        double s = 0;
        for (int k = 0; k < n; ++k) s += Mx(k, i) * Mx(k, j);
        A(i, j) = s;
      }
    double tr = 0;
    for (int i = 0; i < n; ++i) tr += A(i, i);
    const double delta = tr > 0 && std::isfinite(tr) ? 1e-3 * tr / n : 1.0;
    for (int i = 0; i < n; ++i) A(i, i) += delta;
  }
  la::Vec<double> b(n);
  for (int i = 0; i < n; ++i) {
    const double sgn = r.below(2) ? -1.0 : 1.0;
    b[i] = sgn * double(r.below(1u << 20)) / double(1u << 20);
  }

  if (c.op == "chol") {
    const la::Dense<F> Ah = A.template cast_clamped<F>();
    const auto f = la::cholesky(Ah);
    if (f.status == la::CholStatus::ok) {
      for (const F& v : f.R.data())
        if (!scalar_traits<F>::finite(v))
          return fail("non-finite factor entry under CholStatus::ok");
      const double fe = la::factorization_backward_error(Ah, f.R);
      if (std::isnan(fe)) return fail("NaN factorization backward error");
    }
    return {};
  }
  if (c.op != "ir") return fail("malformed: unknown solver op " + c.op);

  la::IrOptions opt;
  opt.record_history = true;
  opt.max_iter = 60;
  la::Vec<double> x1;
  const la::IrReport rep1 = la::mixed_ir<F>(A, b, x1, opt);
  Verdict v = check_ir_invariants(A, b, x1, rep1, opt);
  if (!v.ok) {
    v.detail = "plain: " + v.detail;
    return v;
  }
  if (!with_scaling) return {};

  la::Dense<double> Ah = A;
  const scaling::HighamScaling hs = scaling::higham_scale(Ah, mu);
  la::Vec<double> x2;
  const la::IrReport rep2 = la::mixed_ir<F>(A, b, x2, opt, &hs, &Ah);
  v = check_ir_invariants(A, b, x2, rep2, opt);
  if (!v.ok) {
    v.detail = "scaled: " + v.detail;
    return v;
  }
  if (rep1.status == la::IrStatus::converged &&
      rep2.status == la::IrStatus::converged) {
    // Both claim double-precision accuracy on the SAME system; the
    // independently recomputed double backward errors must both agree.
    const double e1 = double_berr(A, b, x1), e2 = double_berr(A, b, x2);
    if (!(e1 <= 16.0 * opt.tol) || !(e2 <= 16.0 * opt.tol))
      return fail("scaled/unscaled residual disagreement in double");
  }
  return {};
}

[[nodiscard]] Verdict check_solver(const Case& c) {
  if (c.format == "p16_1")
    return check_solver_impl<Posit<16, 1>>(c, scaling::mu_posit<16, 1>());
  if (c.format == "p16_2")
    return check_solver_impl<Posit<16, 2>>(c, scaling::mu_posit<16, 2>());
  if (c.format == "p32_2")
    return check_solver_impl<Posit<32, 2>>(c, scaling::mu_posit<32, 2>());
  if (c.format == "sf5_10")
    return check_solver_impl<Half>(c, scaling::mu_ieee<Half>());
  if (c.format == "sf5_2")
    return check_solver_impl<Fp8e5m2>(c, scaling::mu_ieee<Fp8e5m2>());
  if (c.format == "sf8_23")
    return check_solver_impl<Float32Emu>(c, scaling::mu_ieee<Float32Emu>());
  return fail("malformed: unknown solver format " + c.format);
}

// ---------------------------------------------------------------------------
// Inject surface: the resilience bit-flip injector (src/resilience).
//
//   flip      args = [seed, site, field, pattern (, expected_after)]
//             Two injectors armed with the same FaultPlan must flip the same
//             single bit, inside the requested field mask of the original
//             pattern (or the non-sign body when the field is empty for that
//             value); a checked-in record's optional 5th arg pins the exact
//             flipped pattern forever.
//   campaign  args = [solver, seed, n, trials, recovery (, expected_digest)]
//             (solver: 0 = cg, 1 = cholesky, 2 = ir; format = campaign format
//             filter.)  Replays a whole miniature campaign and checks its
//             determinism digest — the corpus pins end-to-end classification.

template <class T>
[[nodiscard]] Verdict check_inject_flip(const Case& c) {
  using FF = resilience::FaultFormat<T>;
  if (c.args.size() < 4 || c.args.size() > 5)
    return fail("malformed: flip wants 4-5 args");
  if (c.args[1] >= std::uint64_t(la::fault::kSiteCount))
    return fail("malformed: bad site");
  if (c.args[2] >= std::uint64_t(resilience::kBitFieldCount))
    return fail("malformed: bad field");
  resilience::FaultPlan plan;
  plan.seed = c.args[0];
  plan.site = la::fault::Site(int(c.args[1]));
  plan.field = resilience::BitField(int(c.args[2]));
  plan.iteration = 0;
  const u64 width_mask =
      FF::width >= 64 ? ~u64(0) : (u64(1) << FF::width) - 1;
  const u64 pattern = c.args[3] & width_mask;

  T v1 = FF::from_bits(pattern), v2 = FF::from_bits(pattern);
  resilience::Injector<T> a(plan), b(plan);
  a.iteration(0);
  a.touch(plan.site, &v1, sizeof(T), 1);
  b.iteration(0);
  b.touch(plan.site, &v2, sizeof(T), 1);
  if (!a.fired() || !b.fired()) return fail("armed injector did not fire");
  if (a.bit() != b.bit() || a.after_bits() != b.after_bits())
    return fail("same plan flipped different bits");
  const u64 diff = a.before_bits() ^ a.after_bits();
  if (std::popcount(diff) != 1) return fail("flip changed != 1 bit");
  u64 mask = FF::field_mask(a.before_bits(), plan.field);
  if (mask == 0) mask = width_mask >> 1;  // empty field: non-sign body
  if ((diff & mask) == 0) return fail("flipped bit escaped the field mask");
  if (FF::bits(v1) != a.after_bits())
    return fail("stored value disagrees with the flip record");
  if (c.args.size() == 5 && a.after_bits() != c.args[4]) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "expected 0x%llx got 0x%llx",
                  static_cast<unsigned long long>(c.args[4]),
                  static_cast<unsigned long long>(a.after_bits()));
    return fail(buf);
  }
  return {};
}

[[nodiscard]] Verdict check_inject_campaign(const Case& c) {
  if (c.args.size() < 5 || c.args.size() > 6)
    return fail("malformed: campaign wants 5-6 args");
  static constexpr const char* kSolvers[] = {"cg", "cholesky", "ir"};
  if (c.args[0] >= 3) return fail("malformed: bad campaign solver");
  resilience::CampaignOptions opt;
  opt.solver = kSolvers[c.args[0]];
  opt.seed = c.args[1];
  opt.n = int(c.args[2]);
  opt.trials = int(c.args[3]);
  opt.recovery = c.args[4] != 0;
  opt.formats = c.format;
  if (opt.n < 4 || opt.n > 64 || opt.trials < 1 || opt.trials > 8)
    return fail("malformed: campaign size out of range");
  const auto r = resilience::run_campaign(opt);
  if (r.cells.empty()) return fail("malformed: campaign matched no formats");
  if (c.args.size() == 6 && r.digest != c.args[5]) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "digest expected 0x%llx got 0x%llx",
                  static_cast<unsigned long long>(c.args[5]),
                  static_cast<unsigned long long>(r.digest));
    return fail(buf);
  }
  return {};
}

[[nodiscard]] Verdict check_inject(const Case& c) {
  if (c.op == "campaign") return check_inject_campaign(c);
  if (c.op != "flip")
    return fail("malformed: unknown inject op " + c.op);
#define X(N, ES) \
  if (c.format == "p" #N "_" #ES) \
    return check_inject_flip<Posit<N, ES>>(c);
  PSTAB_FUZZ_POSIT_GRID(X)
#undef X
#define X(E, M) \
  if (c.format == "sf" #E "_" #M) return check_inject_flip<SoftFloat<E, M>>(c);
  PSTAB_FUZZ_SF_GRID(X)
#undef X
  if (c.format == "f64") return check_inject_flip<double>(c);
  if (c.format == "f32") return check_inject_flip<float>(c);
  return fail("malformed: unknown inject format " + c.format);
}

// ---------------------------------------------------------------------------
// Simd surface: the vector backend (la/kernels/simd) differentially against
// the scalar kernels, on every ISA the host can execute.  Cases carry a
// (length, stream seed) shape instead of raw operands: the vectors are
// re-expanded from the seed with the boundary-biased posit pattern generator,
// which keeps replay records one line long at any chain length.  The spmv op
// reads its length as the row count of a square CSR matrix whose rows hold
// 0-20 terms in distinct columns, all drawn from the same stream.  Bit
// identity per ISA is the verdict; a host with no vector ISA degenerates to
// scalar-vs-scalar and trivially passes (the CI ISA matrix keeps the vector
// legs exercised).

template <int N, int ES>
[[nodiscard]] u64 gen_posit_pattern(SplitMix64& r);

/// Runs `check` on every executable vector ISA, then through the unforced
/// dispatch (kill switch / env honored as-is).
template <class F>
[[nodiscard]] Verdict per_isa(F&& check) {
  namespace simd = la::kernels::simd;
  for (const simd::Isa isa :
       {simd::Isa::kAvx2, simd::Isa::kAvx512, simd::Isa::kNeon}) {
    if (!simd::available(isa)) continue;
    if (!simd::force_isa(isa)) continue;
    Verdict v = check();
    simd::clear_forced_isa();
    if (!v.ok) {
      v.detail = std::string(simd::isa_name(isa)) + ": " + v.detail;
      return v;
    }
  }
  return check();
}

template <int N, int ES>
[[nodiscard]] Verdict check_simd_spmv(const Case& c) {
  using P = Posit<N, ES>;
  namespace ker = la::kernels;
  const int n = int(c.args[0]);
  SplitMix64 r(c.args[1]);
  std::vector<std::tuple<int, int, double>> trips;
  std::vector<int> cols;
  for (int i = 0; i < n; ++i) {
    const int len = int(std::min<u64>(r.below(21), u64(n)));
    cols.clear();
    while (int(cols.size()) < len) {
      const int j = int(r.below(u64(n)));
      if (std::find(cols.begin(), cols.end(), j) == cols.end())
        cols.push_back(j);
    }
    for (const int j : cols)
      trips.emplace_back(
          i, j, P::from_bits(gen_posit_pattern<N, ES>(r)).to_double());
  }
  const auto A = la::Csr<P>::from_triplets(n, n, std::move(trips));
  la::Vec<P> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = P::from_bits(gen_posit_pattern<N, ES>(r));

  la::Vec<P> ref;
  ker::spmv(ker::Context{ker::Backend::Scalar}, A, x, ref);
  return per_isa([&]() -> Verdict {
    la::Vec<P> y;
    ker::spmv(ker::Context{ker::Backend::Simd}, A, x, y);
    for (std::size_t i = 0; i < ref.size(); ++i)
      if (y[i].bits() != ref[i].bits())
        return fail_bits("spmv", ref[i].bits(), y[i].bits());
    return {};
  });
}

template <int N, int ES>
[[nodiscard]] Verdict check_simd(const Case& c) {
  using P = Posit<N, ES>;
  namespace ker = la::kernels;
  const std::size_t arity = c.op == "chain" ? 3 : 2;
  if (c.args.size() != arity) return fail("malformed: bad arity for " + c.op);
  const u64 n = c.args[0];
  if (n < 1 || n > 8192) return fail("malformed: simd length out of range");
  if (c.op != "dot" && c.op != "chain" && c.op != "axpy" && c.op != "spmv")
    return fail("malformed: unknown simd op " + c.op);
  if (c.op == "spmv") return check_simd_spmv<N, ES>(c);

  // Deterministic expansion: scalar knobs first (statement order!), then the
  // operand vectors.  The generator's special-value branches seed NaR and
  // near-zero patterns into the stream on their own.
  SplitMix64 r(c.args[1]);
  const P knob = P::from_bits(gen_posit_pattern<N, ES>(r));
  la::Vec<P> x(n), y(n);
  for (u64 i = 0; i < n; ++i) x[i] = P::from_bits(gen_posit_pattern<N, ES>(r));
  for (u64 i = 0; i < n; ++i) y[i] = P::from_bits(gen_posit_pattern<N, ES>(r));

  const ker::Context ks{ker::Backend::Scalar}, kv{ker::Backend::Simd};
  const bool sub = arity == 3 && c.args[2] != 0;

  // Scalar reference once; then every executable vector ISA against it.
  P ref_s{};
  la::Vec<P> ref_v;
  if (c.op == "dot") {
    ref_s = ker::dot(ks, x, y);
  } else if (c.op == "chain") {
    ref_s = ker::update_chain(ks, knob, x.data(), 1, y.data(), 1,
                              std::size_t(n), sub);
  } else {
    ref_v = y;
    ker::axpy(ks, knob, x, ref_v);
  }

  const auto run_vector = [&]() -> Verdict {
    if (c.op == "dot") {
      const P dv = ker::dot(kv, x, y);
      if (dv.bits() != ref_s.bits())
        return fail_bits("dot", ref_s.bits(), dv.bits());
    } else if (c.op == "chain") {
      const P cv = ker::update_chain(kv, knob, x.data(), 1, y.data(), 1,
                                     std::size_t(n), sub);
      if (cv.bits() != ref_s.bits())
        return fail_bits("chain", ref_s.bits(), cv.bits());
    } else {
      la::Vec<P> yv = y;
      ker::axpy(kv, knob, x, yv);
      for (u64 i = 0; i < n; ++i)
        if (yv[i].bits() != ref_v[i].bits())
          return fail_bits("axpy", ref_v[i].bits(), yv[i].bits());
    }
    return {};
  };

  return per_isa(run_vector);
}

[[nodiscard]] Verdict check_simd(const Case& c) {
  if (c.format == "p16_1") return check_simd<16, 1>(c);
  if (c.format == "p32_2") return check_simd<32, 2>(c);
  if (c.format == "p32_3") return check_simd<32, 3>(c);
  return fail("malformed: unknown simd format " + c.format);
}

// ---------------------------------------------------------------------------
// Case generation: boundary-biased operand distributions.

template <int N, int ES>
[[nodiscard]] u64 gen_posit_pattern(SplitMix64& r) {
  using P = Posit<N, ES>;
  const u64 mask = detail::posit_mask<N>();
  switch (r.below(8)) {
    case 0:
      return r.next() & mask;  // uniform over all patterns
    case 1:  // neighborhood of 1.0 (exact-tie-rich for add/sub)
      return (P::one().bits() + r.below(17) - 8) & mask;
    case 2:  // zero / minpos neighborhood (underflow saturation)
      return r.below(9) & mask;
    case 3:  // maxpos neighborhood (overflow saturation)
      return (P::maxpos().bits() - r.below(8)) & mask;
    case 4:  // NaR edge: most-negative patterns
      return (P::nar().bits() + r.below(17) - 8) & mask;
    case 5: {  // exact regime transitions: scale = k * 2^ES, fraction 1.0
      const int k = static_cast<int>(r.below(2 * (N - 1) + 1)) - (N - 1);
      return detail::posit_encode<N, ES>(r.below(2) != 0, k * (1 << ES),
                                         u64(1) << 63, false);
    }
    case 6: {  // sparse fraction at random scale: rounding-tie-rich
      u64 frac = u64(1) << 63;
      for (u64 b = r.below(3); b > 0; --b) frac |= u64(1) << (63 - r.below(40));
      const int scale =
          static_cast<int>(r.below(2 * P::max_scale + 1)) - P::max_scale;
      return detail::posit_encode<N, ES>(r.below(2) != 0, scale, frac, false);
    }
    default: {  // low-Hamming-weight patterns
      u64 p = 0;
      for (u64 b = 0; b <= r.below(3); ++b) p |= u64(1) << r.below(N);
      return p & mask;
    }
  }
}

template <int E, int M>
[[nodiscard]] u64 gen_sf_pattern(SplitMix64& r) {
  using F = SoftFloat<E, M>;
  const std::uint32_t mask =
      (E + M + 1 == 32) ? ~0u : ((1u << (E + M + 1)) - 1);
  switch (r.below(8)) {
    case 0:
      return static_cast<std::uint32_t>(r.next()) & mask;  // uniform
    case 1:  // neighborhood of 1.0
      return (F::one().bits() + static_cast<std::uint32_t>(r.below(17)) - 8) &
             mask;
    case 2:  // zero / denorm_min neighborhood
      return static_cast<std::uint32_t>(r.below(9));
    case 3:  // max_finite neighborhood (overflow edge)
      return (F::max_finite().bits() - static_cast<std::uint32_t>(r.below(8))) &
             mask;
    case 4:  // subnormal/normal boundary
      return ((1u << M) + static_cast<std::uint32_t>(r.below(17)) - 8) & mask;
    case 5:  // infinities and NaNs
      return (F::infinity(r.below(2) != 0).bits() +
              static_cast<std::uint32_t>(r.below(3))) &
             mask;
    case 6: {  // sparse mantissa at uniform exponent: tie-rich
      std::uint32_t m = 0;
      for (u64 b = r.below(3); b > 0; --b) m |= 1u << r.below(M);
      const std::uint32_t e = static_cast<std::uint32_t>(r.below((1u << E) - 1));
      return (static_cast<std::uint32_t>(r.below(2)) << (E + M)) | (e << M) | m;
    }
    default: {  // low-Hamming-weight patterns
      std::uint32_t p = 0;
      for (u64 b = 0; b <= r.below(3); ++b) p |= 1u << r.below(E + M + 1);
      return p & mask;
    }
  }
}

// NOTE: every generator draws from the RNG in statement order only — two
// draws inside one expression would make the case stream depend on the
// compiler's (unspecified) evaluation order and break seed replay.
[[nodiscard]] double gen_double(SplitMix64& r) {
  switch (r.below(6)) {
    case 0:
      return std::bit_cast<double>(r.next());  // anything, incl. NaN/inf/denorm
    case 1: {  // modest dyadics near 1
      const double m = double(r.below(1u << 20)) / double(1u << 20);
      const double sgn = r.below(2) ? -1.0 : 1.0;
      return sgn * std::ldexp(1.0 + m, static_cast<int>(r.below(41)) - 20);
    }
    case 2: {  // extreme binades (posit regime edges / IEEE over-underflow)
      const double m = 1.0 + double(r.below(1u << 30)) / double(1u << 30);
      const double sgn = r.below(2) ? -1.0 : 1.0;
      return sgn * std::ldexp(m, static_cast<int>(r.below(1200)) - 600);
    }
    case 3: {  // exact integers of varying width
      const u64 bits = r.next();
      const u64 v = bits >> r.below(64);
      return (r.below(2) ? -1.0 : 1.0) * double(v);
    }
    case 4: {  // sparse mantissa: halfway-case-rich
      u64 m = 0;
      for (u64 b = r.below(4); b > 0; --b) m |= u64(1) << r.below(52);
      const u64 sign = r.below(2);
      const u64 e = r.below(2047);
      return std::bit_cast<double>((sign << 63) | (e << 52) | m);
    }
    default:
      return r.below(2) ? -0.0 : 0.0;
  }
}

template <int N, int ES>
[[nodiscard]] std::string posit_id() {
  return "p" + std::to_string(N) + "_" + std::to_string(ES);
}
template <int E, int M>
[[nodiscard]] std::string sf_id() {
  return "sf" + std::to_string(E) + "_" + std::to_string(M);
}

template <int N, int ES>
[[nodiscard]] Case gen_posit_case(SplitMix64& r) {
  Case c;
  c.surface = "posit";
  c.format = posit_id<N, ES>();
  static constexpr const char* kOps[] = {"add", "sub",   "mul", "div",
                                         "sqrt", "recip", "fma"};
  const u64 op = r.below(7);
  c.op = kOps[op];
  const int arity = op <= 3 ? 2 : op <= 5 ? 1 : 3;
  for (int i = 0; i < arity; ++i) c.args.push_back(gen_posit_pattern<N, ES>(r));
  return c;
}

template <int N, int ES>
[[nodiscard]] Case gen_quire_case(SplitMix64& r) {
  Case c;
  c.surface = "quire";
  c.format = posit_id<N, ES>();
  c.op = "dot";
  const u64 k = 1 + r.below(8);
  c.args = {k, r.below(k + 1)};
  for (u64 i = 0; i < 2 * k; ++i) c.args.push_back(gen_posit_pattern<N, ES>(r));
  return c;
}

template <int N, int ES>
[[nodiscard]] Case gen_convert_case(SplitMix64& r) {
  Case c;
  c.surface = "convert";
  c.format = posit_id<N, ES>();
  switch (r.below(3)) {
    case 0:
      c.op = "fromd";
      c.args = {std::bit_cast<u64>(gen_double(r))};
      break;
    case 1:
      c.op = "roundtrip";
      c.args = {gen_posit_pattern<N, ES>(r)};
      break;
    default:
      c.op = "recast";
      c.args = {gen_posit_pattern<N, ES>(r), r.below(8)};
      break;
  }
  return c;
}

template <int E, int M>
[[nodiscard]] Case gen_sf_case(SplitMix64& r) {
  Case c;
  c.surface = "softfloat";
  c.format = sf_id<E, M>();
  static constexpr const char* kOps[] = {"add",  "sub", "mul",   "div",
                                         "sqrt", "fma", "fromd", "roundtrip"};
  const u64 op = r.below(8);
  c.op = kOps[op];
  if (c.op == "fromd") {
    c.args = {std::bit_cast<u64>(gen_double(r))};
  } else {
    const int arity = c.op == "sqrt" || c.op == "roundtrip" ? 1
                      : c.op == "fma"                       ? 3
                                                            : 2;
    for (int i = 0; i < arity; ++i) c.args.push_back(gen_sf_pattern<E, M>(r));
  }
  return c;
}

[[nodiscard]] Case gen_inject_case(SplitMix64& r) {
  Case c;
  c.surface = "inject";
  c.op = "flip";  // campaign cases are corpus-only (too costly per-case)
  static constexpr const char* kFmts[] = {"p8_0",   "p16_1", "p16_2", "p32_2",
                                          "p64_3",  "sf5_10", "sf8_7",
                                          "sf8_23", "f64",   "f32"};
  static constexpr int kWidths[] = {8, 16, 16, 32, 64, 16, 16, 32, 64, 32};
  const u64 f = r.below(std::size(kFmts));
  c.format = kFmts[f];
  const u64 mask =
      kWidths[f] >= 64 ? ~u64(0) : (u64(1) << kWidths[f]) - 1;
  c.args = {r.next(), r.below(la::fault::kSiteCount),
            r.below(resilience::kBitFieldCount), r.next() & mask};
  return c;
}

[[nodiscard]] Case gen_simd_case(SplitMix64& r) {
  Case c;
  c.surface = "simd";
  static constexpr const char* kFmts[] = {"p16_1", "p32_2", "p32_3"};
  c.format = kFmts[r.below(3)];
  static constexpr const char* kOps[] = {"dot", "chain", "axpy", "spmv"};
  c.op = kOps[r.below(4)];
  // Lengths biased to the vector edges: sub-lane tails, the lane count
  // itself, the 128-element block boundary, and occasional long chains.
  u64 n = 0;
  switch (r.below(6)) {
    case 0:
      n = 1 + r.below(17);
      break;
    case 1:
      n = 7 + r.below(4);
      break;
    case 2:
      n = 126 + r.below(6);
      break;
    case 3:
      n = 254 + r.below(6);
      break;
    case 4:
      n = 1 + r.below(256);
      break;
    default:
      n = 1 + r.below(2048);
      break;
  }
  c.args = {n, r.next()};
  if (c.op == "chain") c.args.push_back(r.below(2));
  return c;
}

[[nodiscard]] Case gen_solver_case(SplitMix64& r) {
  Case c;
  c.surface = "solver";
  static constexpr const char* kFmts[] = {"p16_1",  "p16_2", "p32_2",
                                          "sf5_10", "sf5_2", "sf8_23"};
  c.format = kFmts[r.below(6)];
  static constexpr const char* kOps[] = {"chol", "ir",      "ir",
                                         "ir",   "lu",      "lu",
                                         "gmres_ir", "gmres_ir"};
  c.op = kOps[r.below(8)];
  c.args = {2 + r.below(5), r.next(), r.below(2)};
  return c;
}

[[nodiscard]] Case gen_serve_chaos_case(SplitMix64& r) {
  // args = [sessions, seed, engine threads]: a whole adversarial client
  // session stream against a live engine (serve/chaos.hpp), kept tiny — one
  // case is already dozens of solves.
  Case c;
  c.surface = "serve_chaos";
  c.format = "v1";
  c.op = "session";
  c.args = {1 + r.below(2), r.next(), 1 + r.below(2)};
  return c;
}

[[nodiscard]] Verdict check_serve_chaos(const Case& c) {
  if (c.args.size() != 3) return fail("malformed: serve_chaos wants 3 args");
  serve::ChaosOptions opt;
  opt.sessions = static_cast<int>(c.args[0]);
  opt.seed = c.args[1];
  opt.threads = static_cast<int>(c.args[2]);
  if (opt.sessions < 1 || opt.sessions > 16 || opt.threads < 1 ||
      opt.threads > 8)
    return fail("malformed: serve_chaos size out of range");
  const serve::ChaosReport r1 = serve::run_chaos(opt);
  if (!r1.ok()) return fail("chaos: " + r1.first_failure);
  // Same seed, same sessions: the digest over response bytes must replay
  // exactly (the engine's byte-determinism contract, exercised under chaos).
  const serve::ChaosReport r2 = serve::run_chaos(opt);
  if (!r2.ok()) return fail("chaos rerun: " + r2.first_failure);
  if (r1.digest != r2.digest) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "chaos digest not replayable: 0x%llx vs 0x%llx",
                  static_cast<unsigned long long>(r1.digest),
                  static_cast<unsigned long long>(r2.digest));
    return fail(buf);
  }
  return {};
}

using GenFn = Case (*)(SplitMix64&);

[[nodiscard]] Case gen_case(int surface, SplitMix64& r) {
#define X(N, ES) &gen_posit_case<N, ES>,
  static constexpr GenFn kPositGens[] = {PSTAB_FUZZ_POSIT_GRID(X)};
#undef X
#define X(N, ES) &gen_quire_case<N, ES>,
  static constexpr GenFn kQuireGens[] = {PSTAB_FUZZ_POSIT_GRID(X)};
#undef X
#define X(N, ES) &gen_convert_case<N, ES>,
  static constexpr GenFn kConvertGens[] = {PSTAB_FUZZ_POSIT_GRID(X)};
#undef X
#define X(E, M) &gen_sf_case<E, M>,
  static constexpr GenFn kSfGens[] = {PSTAB_FUZZ_SF_GRID(X)};
#undef X
  switch (surface) {
    case kPosit:
      return kPositGens[r.below(std::size(kPositGens))](r);
    case kSoftFloat:
      return kSfGens[r.below(std::size(kSfGens))](r);
    case kQuire:
      return kQuireGens[r.below(std::size(kQuireGens))](r);
    case kConvert:
      return kConvertGens[r.below(std::size(kConvertGens))](r);
    case kInject:
      return gen_inject_case(r);
    case kSimd:
      return gen_simd_case(r);
    default:
      return gen_solver_case(r);
  }
}

// ---------------------------------------------------------------------------
// Digest: order-sensitive FNV-1a over every case and its verdict.

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void digest_byte(std::uint64_t& h, unsigned char b) {
  h = (h ^ b) * kFnvPrime;
}
void digest_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) digest_byte(h, (v >> (8 * i)) & 0xff);
}
void digest_str(std::uint64_t& h, const std::string& s) {
  for (char c : s) digest_byte(h, static_cast<unsigned char>(c));
  digest_byte(h, 0);
}

[[nodiscard]] int surface_index(const std::string& s) {
  for (int i = 0; i < kSurfaceCount; ++i)
    if (s == surface_name(i)) return i;
  return -1;
}

}  // namespace

const char* surface_name(int s) noexcept {
  static constexpr const char* kNames[] = {"posit",  "softfloat", "quire",
                                           "convert", "inject",   "simd",
                                           "solver", "serve_chaos"};
  return (s >= 0 && s < kSurfaceCount) ? kNames[s] : "?";
}

std::string format_line(const Case& c) {
  std::string s = "pstab-fuzz-v1 " + c.surface + " " + c.format + " " + c.op;
  char buf[32];
  for (u64 a : c.args) {
    std::snprintf(buf, sizeof buf, " 0x%llx",
                  static_cast<unsigned long long>(a));
    s += buf;
  }
  if (!c.note.empty()) {
    s += "  # ";
    for (char ch : c.note) s += ch == '\n' ? ' ' : ch;
  }
  return s;
}

bool parse_line(const std::string& line, Case& out) {
  const std::size_t hash = line.find('#');
  std::istringstream is(line.substr(0, hash));
  std::string tag;
  if (!(is >> tag) || tag != "pstab-fuzz-v1") return false;
  if (!(is >> out.surface >> out.format >> out.op)) return false;
  out.args.clear();
  out.note.clear();
  if (hash != std::string::npos) {
    // Trailing "# note" comment round-trips through format_line.
    std::size_t b = line.find_first_not_of(" \t", hash + 1);
    if (b != std::string::npos) {
      std::size_t e = line.find_last_not_of(" \t\r");
      out.note = line.substr(b, e - b + 1);
    }
  }
  std::string tok;
  while (is >> tok) {
    try {
      std::size_t used = 0;
      out.args.push_back(std::stoull(tok, &used, 0));
      if (used != tok.size()) return false;
    } catch (...) {
      return false;
    }
  }
  return true;
}

Verdict replay(const Case& c) {
  if (c.surface == "posit") {
#define X(N, ES) \
  if (c.format == "p" #N "_" #ES) return check_posit<N, ES>(c);
    PSTAB_FUZZ_POSIT_GRID(X)
#undef X
  } else if (c.surface == "quire") {
#define X(N, ES) \
  if (c.format == "p" #N "_" #ES) return check_quire<N, ES>(c);
    PSTAB_FUZZ_POSIT_GRID(X)
#undef X
  } else if (c.surface == "convert") {
#define X(N, ES) \
  if (c.format == "p" #N "_" #ES) return check_convert<N, ES>(c);
    PSTAB_FUZZ_POSIT_GRID(X)
#undef X
  } else if (c.surface == "softfloat") {
#define X(E, M) \
  if (c.format == "sf" #E "_" #M) return check_sf<E, M>(c);
    PSTAB_FUZZ_SF_GRID(X)
#undef X
  } else if (c.surface == "inject") {
    return check_inject(c);
  } else if (c.surface == "simd") {
    return check_simd(c);
  } else if (c.surface == "solver") {
    return check_solver(c);
  } else if (c.surface == "serve_chaos") {
    return check_serve_chaos(c);
  }
  return fail("malformed: unknown surface/format " + c.surface + "/" +
              c.format);
}

Case minimize(const Case& c) {
  Case best = c;
  // A serve_chaos replay is dozens of engine sessions run twice; bit-clearing
  // its (sessions, seed, threads) args only produces DIFFERENT session
  // streams, never a smaller version of the same failure.
  if (c.surface == "serve_chaos") {
    best.note = replay(best).detail;
    return best;
  }
  {
    const Verdict v = replay(best);
    if (v.ok || is_malformed(v)) return c;
  }
  // Structural args (quire shape) must stay fixed or the case degenerates to
  // a malformed record instead of a smaller failure.
  const std::size_t first = c.surface == "quire" ? 2 : 0;
  int budget = 4096;  // replay calls; generous for every surface but solver
  bool improved = true;
  while (improved && budget > 0) {
    improved = false;
    for (std::size_t i = first; i < best.args.size() && budget > 0; ++i) {
      for (int b = 63; b >= 0 && budget > 0; --b) {
        if (!((best.args[i] >> b) & 1)) continue;
        Case trial = best;
        trial.args[i] &= ~(u64(1) << b);
        --budget;
        const Verdict v = replay(trial);
        if (!v.ok && !is_malformed(v)) {
          best = std::move(trial);
          improved = true;
        }
      }
    }
  }
  best.note = replay(best).detail;
  return best;
}

Stats run(const Options& opt) {
  bool enabled[kSurfaceCount] = {};
  if (opt.surfaces.empty() || opt.surfaces == "all") {
    for (bool& e : enabled) e = true;
  } else {
    std::stringstream ss(opt.surfaces);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const int idx = surface_index(tok);
      if (idx >= 0) enabled[idx] = true;
    }
  }
  // Cheap scalar surfaces fill the pool; solver and serve_chaos cases are
  // orders of magnitude costlier and get rationed slots instead.
  std::vector<int> pool;
  for (int s = 0; s < kSolver; ++s)
    if (enabled[s]) pool.push_back(s);
  const bool costly = enabled[kSolver] || enabled[kServeChaos];

  Stats st;
  SplitMix64 rng(opt.seed);
  std::uint64_t digest = kFnvOffset;
  for (long i = 0; i < opt.cases; ++i) {
    Case c;
    if (costly && (pool.empty() || (i & 63) == 63)) {
      // Solver micro-cases are ~100x costlier than scalar ops; ration them
      // to 1/64 of the budget (or all of it if only costly surfaces are
      // enabled).  serve_chaos cases — whole engine lifecycles, ~100x
      // costlier again — take every sixteenth rationed slot.
      const bool chaos =
          enabled[kServeChaos] &&
          (!enabled[kSolver] || ((i >> 6) & 15) == 15);
      c = chaos ? gen_serve_chaos_case(rng) : gen_solver_case(rng);
    } else if (!pool.empty()) {
      c = gen_case(pool[rng.below(pool.size())], rng);
    } else {
      break;  // no surface enabled
    }
    const Verdict v = replay(c);
    ++st.cases;
    const int sidx = surface_index(c.surface);
    if (sidx >= 0) ++st.per_surface[sidx];
    digest_str(digest, c.surface);
    digest_str(digest, c.format);
    digest_str(digest, c.op);
    for (u64 a : c.args) digest_u64(digest, a);
    digest_u64(digest, v.ok ? 1 : 0);
    if (!v.ok) {
      ++st.mismatches;
      if (static_cast<long>(st.failures.size()) < opt.max_failures) {
        Case m = opt.minimize ? minimize(c) : c;
        if (m.note.empty()) m.note = v.detail;
        if (!opt.corpus_dir.empty())
          append_corpus(opt.corpus_dir + "/" + c.surface + ".corpus", m);
        st.failures.push_back(std::move(m));
      }
    }
  }
  st.digest = digest;
  return st;
}

int replay_corpus_dir(const std::string& dir, long* total,
                      std::vector<Case>* failures) {
  namespace fs = std::filesystem;
  long executed = 0;
  int failing = 0;
  std::vector<fs::path> files;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    // A missing corpus directory must not read as a clean replay.
    if (failures) {
      Case c;
      c.surface = "corpus";
      c.op = "open";
      c.note = dir + ": not a directory";
      failures->push_back(std::move(c));
    }
    if (total) *total = 0;
    return 1;
  }
  for (const auto& e : fs::directory_iterator(dir, ec))
    if (e.path().extension() == ".corpus") files.push_back(e.path());
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::string line;
    long lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const std::size_t ws = line.find_first_not_of(" \t\r");
      if (ws == std::string::npos || line[ws] == '#') continue;
      Case c;
      ++executed;
      Verdict v;
      if (!parse_line(line, c)) {
        c.surface = "corpus";
        c.op = "parse";
        v = fail("unparseable record");
      } else {
        v = replay(c);
      }
      if (!v.ok) {
        ++failing;
        if (failures) {
          c.note = path.filename().string() + ":" + std::to_string(lineno) +
                   ": " + v.detail;
          failures->push_back(std::move(c));
        }
      }
    }
  }
  if (total) *total = executed;
  return failing;
}

bool append_corpus(const std::string& path, const Case& c) {
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  out << format_line(c) << '\n';
  return bool(out);
}

}  // namespace pstab::fuzz
