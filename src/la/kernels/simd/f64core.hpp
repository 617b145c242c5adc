// The f64-domain core shared by every SIMD ISA leg (la/kernels/simd/).
//
// Every finite Posit<16,1> / Posit<32,2> / Posit<32,3> value is exactly
// representable as an IEEE double (<= 28 significant bits), so the vector
// legs do posit arithmetic in the f64 domain and pin the posit rounding with
// two tricks:
//
//  * Single-op rounds (products, sums): round-to-odd at 53 bits — fl(a op b)
//    plus the exact FMA/TwoSum residual folded into the pattern LSB — then
//    one hardware RNE add against a per-binade constant C = 1.5 * 2^(52-fb+e)
//    (RoundTable below).  Valid whenever the result binade keeps fb >= 1
//    posit fraction bits; C == 0.0 marks the (rare) taper/saturation binades
//    that re-run the proven integer core.
//    The lane-per-row SpMV chains these single-op rounds, one row per lane.
//  * The serial accumulate chain (dot/gemv/update_chain): FpChain holds the
//    accumulator as T = C + r so ONE hardware FP add per term performs the
//    exact add AND the posit-ulp RNE.  Unsigned pattern-range compares detect
//    band exits, which recover r exactly and re-run batched::chain_add.
//
// Bit-identity with the scalar core is the contract: every helper here
// defers to posit_round_unpacked / add_exact / mul_exact the moment a case
// leaves the proven-fast region.  tests/kernels_exhaustive_test.cpp pins the
// 16-bit single-op paths exhaustively and the 8-bit all-pairs dot per ISA.
#pragma once

#include <cmath>
#include <limits>

#include "common/bits.hpp"
#include "la/kernels/batched.hpp"
#include "posit/posit.hpp"

namespace pstab::la::kernels::simd::detail {

using pstab::detail::bits_f64;
using pstab::detail::c_pin;
using pstab::detail::f64_bits;
using pstab::detail::pow2_f64;
using pstab::detail::u64;
using U = pstab::detail::Unpacked;

/// Unpacked (left-justified frac, hidden bit at 63) -> exact double.  Only
/// valid for rounded format values: bits below frac bit 11 must be zero.
PSTAB_HOT_INLINE double unp_to_f64(bool sign, int scale, u64 frac) noexcept {
  const u64 mant = (frac >> 11) & ((u64(1) << 52) - 1);
  return bits_f64((u64(sign) << 63) | (u64(1023 + scale) << 52) | mant);
}
PSTAB_HOT_INLINE double unp_to_f64(const U& u) noexcept {
  return unp_to_f64(u.sign, u.scale, u.frac);
}

/// Exact double (normal, nonzero) -> Unpacked.
PSTAB_HOT_INLINE U f64_to_unp(double d) noexcept {
  const u64 b = f64_bits(d);
  U u;
  u.sign = (b >> 63) != 0;
  u.scale = int((b >> 52) & 0x7ff) - 1023;
  u.frac = (u64(1) << 63) | ((b & ((u64(1) << 52) - 1)) << 11);
  return u;
}

/// Posit fraction bits available in the binade with scale `es`; < 1 means the
/// C-trick does not apply there (taper or saturation region).
template <int N, int ES>
constexpr int band_fb(int es) noexcept {
  constexpr int L = N - 1;
  const int k = es >> ES;
  if (k >= L - 1 || k <= -L) return -1;
  const int reglen = k >= 0 ? k + 2 : 1 - k;
  return L - reglen - ES;
}

/// Per-binade rounding constants, indexed by the IEEE biased exponent of the
/// value being rounded: c[be] = 1.5 * 2^(52 - fb + scale) when the binade
/// keeps fb >= 1 fraction bits, else 0.0 (sentinel: integer-core fixup).
template <int N, int ES>
struct RoundTable {
  double c[2048];
  constexpr RoundTable() : c{} {
    for (int be = 0; be < 2048; ++be) {
      const int scale = be - 1023;
      const int fb = band_fb<N, ES>(scale);
      if (fb >= 1) c[be] = c_pin(52 - fb + scale);
    }
  }
};
template <int N, int ES>
inline constexpr RoundTable<N, ES> kRoundTable{};

// The biased-accumulator chain itself (FpChain) lives in fpchain.inl and is
// instantiated with internal linkage inside each ISA translation unit; see
// body.hpp for why it must not be a shared comdat.

// ---------------------------------------------------------------------------
// Scalar lane replays: the integer-core computation for exactly one slot of
// an elementwise kernel, bit-identical to the batched loop body.  Used for
// vector tails and for lanes the f64 path flags for fixup (taper results,
// saturation).  alpha/beta are pre-decoded and pre-checked non-special.
// ---------------------------------------------------------------------------

/// round(a * x) as an exact double; 0.0 / NaN for zero / NaR inputs.
template <class P>
PSTAB_HOT_INLINE double mul_round_slot(P a, P b) noexcept {
  using bops = batched::ops<P>;
  if (a.is_nar() || b.is_nar()) return std::numeric_limits<double>::quiet_NaN();
  if (a.is_zero() || b.is_zero()) return 0.0;
  const auto m = pstab::detail::mul_exact(bops::decode1(a), bops::decode1(b));
  const U u = pstab::detail::posit_round_unpacked<P::nbits, P::es>(
      m.sign, m.scale, m.frac, m.sticky);
  return unp_to_f64(u);
}

/// round(a * b) for format values held as exact doubles (NaN = NaR).
template <class P>
PSTAB_HOT_INLINE double mul_round_f64(double a, double b) noexcept {
  if (std::isnan(a) || std::isnan(b))
    return std::numeric_limits<double>::quiet_NaN();
  if (a == 0.0 || b == 0.0) return 0.0;
  const auto m = pstab::detail::mul_exact(f64_to_unp(a), f64_to_unp(b));
  return unp_to_f64(pstab::detail::posit_round_unpacked<P::nbits, P::es>(
      m.sign, m.scale, m.frac, m.sticky));
}

/// round(s + t) for format values held as exact doubles (NaN = NaR).
template <class P>
PSTAB_HOT_INLINE double add_round_f64(double s, double t) noexcept {
  if (std::isnan(s) || std::isnan(t))
    return std::numeric_limits<double>::quiet_NaN();
  if (s == 0.0) return t;
  if (t == 0.0) return s;
  U x = f64_to_unp(s);
  if (!batched::ops<P>::chain_add(x, f64_to_unp(t))) return 0.0;
  return unp_to_f64(x);
}

/// y_i slot of batched axpy (alpha non-special, pre-decoded).
template <class P>
PSTAB_HOT_INLINE P axpy_slot(const U& ua, P xi, P yi) noexcept {
  using bops = batched::ops<P>;
  if (xi.is_nar()) return P::nar();
  if (xi.is_zero()) return yi;
  const auto m = pstab::detail::mul_exact(ua, bops::decode1(xi));
  const U t = pstab::detail::posit_round_unpacked<P::nbits, P::es>(
      m.sign, m.scale, m.frac, m.sticky);
  if (yi.is_nar()) return yi;
  if (yi.is_zero()) return bops::enc(t);
  const auto s = pstab::detail::add_exact(bops::decode1(yi), t);
  return s.zero ? P::zero()
                : P::from_bits(pstab::detail::posit_encode<P::nbits, P::es>(
                      s.sign, s.scale, s.frac, s.sticky));
}

/// x_i slot of batched scal (alpha non-special, pre-decoded).
template <class P>
PSTAB_HOT_INLINE P scal_slot(const U& ua, P xi) noexcept {
  using bops = batched::ops<P>;
  if (xi.is_zero() || xi.is_nar()) return xi;
  const auto m = pstab::detail::mul_exact(bops::decode1(xi), ua);
  return P::from_bits(pstab::detail::posit_encode<P::nbits, P::es>(
      m.sign, m.scale, m.frac, m.sticky));
}

/// z_i slot of batched xpby (beta may be anything; checked here).
template <class P>
PSTAB_HOT_INLINE P xpby_slot(P beta, P xi, P yi) noexcept {
  using bops = batched::ops<P>;
  if (beta.is_nar() || yi.is_nar() || xi.is_nar()) return P::nar();
  if (beta.is_zero() || yi.is_zero()) return xi;
  const auto m =
      pstab::detail::mul_exact(bops::decode1(beta), bops::decode1(yi));
  const U t = pstab::detail::posit_round_unpacked<P::nbits, P::es>(
      m.sign, m.scale, m.frac, m.sticky);
  if (xi.is_zero()) return bops::enc(t);
  const auto s = pstab::detail::add_exact(bops::decode1(xi), t);
  return s.zero ? P::zero()
                : P::from_bits(pstab::detail::posit_encode<P::nbits, P::es>(
                      s.sign, s.scale, s.frac, s.sticky));
}

/// round(x[i] * y[i]) slot (for the elementwise mul test hook).
template <class P>
PSTAB_HOT_INLINE P mul_slot(P a, P b) noexcept {
  using bops = batched::ops<P>;
  if (a.is_nar() || b.is_nar()) return P::nar();
  if (a.is_zero() || b.is_zero()) return P::zero();
  const auto m = pstab::detail::mul_exact(bops::decode1(a), bops::decode1(b));
  return P::from_bits(pstab::detail::posit_encode<P::nbits, P::es>(
      m.sign, m.scale, m.frac, m.sticky));
}

}  // namespace pstab::la::kernels::simd::detail
