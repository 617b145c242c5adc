// Generic vector implementation of the Backend::Simd kernels, instantiated
// once per ISA translation unit.  The including TU defines
//
//   PSTAB_SIMD_NS     — the ISA namespace (avx2 / avx512 / neon)
//   PSTAB_SIMD_LANES  — f64 lanes per vector (4 / 8 / 2)
//
// and is built with the matching -m flags (src/CMakeLists.txt).  Everything
// below lives in an anonymous namespace: per-file ISA flags mean any comdat
// this TU emitted could be compiled with instructions older CPUs lack, and
// the linker is free to pick it over a baseline copy from another TU.
// Internal linkage removes that hazard; the shared primitives this file
// leans on (posit_round_unpacked, chain_add, the f64core helpers) are all
// force-inlined, so they never materialize as out-of-line comdats here
// either.  Only tables() — reachable strictly through runtime dispatch that
// has already checked CPU support — is exported.
//
// The algorithms are written against GCC's portable vector extensions, so
// one body serves every ISA; see docs/simd.md for the lane-level walkthrough
// and f64core.hpp for why the f64-domain rounding is bit-identical to the
// scalar core.
#if !defined(PSTAB_SIMD_NS) || !defined(PSTAB_SIMD_LANES)
#error "body.hpp must be included by a per-ISA simd translation unit"
#endif

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "la/kernels/simd/f64core.hpp"
#include "la/kernels/simd/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace pstab::la::kernels::simd {
namespace PSTAB_SIMD_NS {
namespace {

namespace fd = pstab::la::kernels::simd::detail;
using pstab::detail::i64;
using pstab::detail::u64;
using U = pstab::detail::Unpacked;

constexpr int kLanes = PSTAB_SIMD_LANES;
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

typedef double f64v __attribute__((vector_size(kLanes * 8)));
typedef i64 i64v __attribute__((vector_size(kLanes * 8)));
typedef u64 u64v __attribute__((vector_size(kLanes * 8)));
typedef std::uint16_t u16v __attribute__((vector_size(kLanes * 2)));
typedef std::uint32_t u32v __attribute__((vector_size(kLanes * 4)));

// Vector casts reinterpret bits; __builtin_convertvector converts values.
inline u64v as_u(f64v v) noexcept { return (u64v)v; }
inline u64v as_u(i64v v) noexcept { return (u64v)v; }
inline i64v as_i(u64v v) noexcept { return (i64v)v; }
inline f64v as_f(u64v v) noexcept { return (f64v)v; }

inline f64v splat_f(double x) noexcept {
  f64v v;
  for (int l = 0; l < kLanes; ++l) v[l] = x;
  return v;
}
inline u64v splat_u(u64 x) noexcept {
  u64v v;
  for (int l = 0; l < kLanes; ++l) v[l] = x;
  return v;
}
inline i64v splat_i(i64 x) noexcept {
  i64v v;
  for (int l = 0; l < kLanes; ++l) v[l] = x;
  return v;
}

/// Branchless lane select; m lanes must be 0 or ~0 (comparison results).
inline u64v blend(u64v m, u64v a, u64v b) noexcept {
#if defined(__AVX2__) && PSTAB_SIMD_LANES == 4 && !defined(__AVX512F__)
  // One vblendvpd (keyed on the mask sign bit, set in every ~0 lane) instead
  // of the three-op and/andn/or sequence.
  return (u64v)_mm256_blendv_pd((__m256d)b, (__m256d)a, (__m256d)m);
#else
  return (a & m) | (b & ~m);
#endif
}
inline i64v blend_i(u64v m, i64v a, i64v b) noexcept {
  return as_i(blend(m, as_u(a), as_u(b)));
}
inline f64v blend_f(u64v m, f64v a, f64v b) noexcept {
  return as_f(blend(m, as_u(a), as_u(b)));
}
inline i64v vmin_i(i64v a, i64v b) noexcept { return blend_i(as_u(a < b), a, b); }
inline i64v vmax_i(i64v a, i64v b) noexcept { return blend_i(as_u(a > b), a, b); }

inline bool any(u64v m) noexcept {
#if defined(__AVX2__) && PSTAB_SIMD_LANES == 4 && !defined(__AVX512F__)
  return !_mm256_testz_si256((__m256i)m, (__m256i)m);
#elif defined(__AVX512F__) && PSTAB_SIMD_LANES == 8
  return _mm512_test_epi64_mask((__m512i)m, (__m512i)m) != 0;
#else
  u64 r = 0;
  for (int l = 0; l < kLanes; ++l) r |= m[l];
  return r != 0;
#endif
}

/// Table lookup base[idx[l]] per lane (hardware gather where available; the
/// lane-extract loop spills through the stack and dominates c_round without
/// it).
inline f64v gather_f(const double* base, u64v idx) noexcept {
#if defined(__AVX2__) && PSTAB_SIMD_LANES == 4 && !defined(__AVX512F__)
  return (f64v)_mm256_i64gather_pd(base, (__m256i)idx, 8);
#elif defined(__AVX512F__) && PSTAB_SIMD_LANES == 8
  return (f64v)_mm512_i64gather_pd((__m512i)idx, base, 8);
#else
  f64v c;
  for (int l = 0; l < kLanes; ++l) c[l] = base[idx[l]];
  return c;
#endif
}

/// base[idx[l]] per lane for kLanes consecutive 32-bit indices (the SpMV
/// column gather).
inline f64v gather_f(const double* base, const int* idx) noexcept {
#if defined(__AVX2__) && PSTAB_SIMD_LANES == 4 && !defined(__AVX512F__)
  return (f64v)_mm256_i32gather_pd(
      base, _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx)), 8);
#elif defined(__AVX512F__) && PSTAB_SIMD_LANES == 8
  return (f64v)_mm512_i32gather_pd(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)), base, 8);
#else
  f64v c;
  for (int l = 0; l < kLanes; ++l) c[l] = base[idx[l]];
  return c;
#endif
}

/// 31 - floor(log2(u)) for u in [1, 2^32): the leading-zero count inside a
/// 32-bit window.  The generic leg computes the msb with the OR-magic FP
/// trick (bits.hpp msb_via_f64: one f64 subtract per lane); AVX-512 has a
/// native per-lane lzcnt (vplzcntq, AVX512CD) that is shorter in both ops
/// and latency and stays off the FP ports the decode already saturates.
inline u64v vclz32(u64v u) noexcept {
#if defined(__AVX512CD__) && PSTAB_SIMD_LANES == 8
  return (u64v)_mm512_lzcnt_epi64((__m512i)u) - splat_u(32);
#else
  const f64v dm = as_f(u | splat_u(u64(1075) << 52)) - splat_f(0x1p52);
  return splat_u(31 + 1023) - (as_u(dm) >> 52);
#endif
}

/// Exact fused multiply-add per lane.  The Dekker residual err = fma(a,b,-d)
/// MUST be a real FMA — compiler contraction of a*b-d is not guaranteed and
/// silently yields err == 0, which would mis-round every inexact product —
/// so the x86/NEON legs use the explicit intrinsic.
inline f64v vfma(f64v a, f64v b, f64v c) noexcept {
#if defined(__FMA__) && PSTAB_SIMD_LANES == 4
  return _mm256_fmadd_pd(a, b, c);
#elif defined(__AVX512F__) && PSTAB_SIMD_LANES == 8
  return _mm512_fmadd_pd(a, b, c);
#elif defined(__aarch64__) && PSTAB_SIMD_LANES == 2
  return vfmaq_f64(c, a, b);
#else
  f64v r;
  for (int l = 0; l < kLanes; ++l) r[l] = __builtin_fma(a[l], b[l], c[l]);
  return r;
#endif
}

// Unaligned, strict-aliasing-safe loads/stores (memcpy folds to vmovup*).
inline f64v load_f(const double* p) noexcept {
  f64v v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store_f(double* p, f64v v) noexcept { std::memcpy(p, &v, sizeof v); }

// Pattern (storage_t) <-> u64-lane conversion.  GCC lowers the generic
// __builtin_convertvector through scalar element inserts/extracts (a dozen
// instructions per load), so the x86 legs use the native widening/narrowing
// forms (vpmovzx / vpmov) directly.
template <class ST>
inline u64v load_pats(const ST* p) noexcept {
#if defined(__AVX2__) && PSTAB_SIMD_LANES == 4 && !defined(__AVX512F__)
  if constexpr (sizeof(ST) == 2)
    return (u64v)_mm256_cvtepu16_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  else
    return (u64v)_mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
#elif defined(__AVX512F__) && PSTAB_SIMD_LANES == 8
  if constexpr (sizeof(ST) == 2)
    return (u64v)_mm512_cvtepu16_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  else
    return (u64v)_mm512_cvtepu32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
#else
  if constexpr (sizeof(ST) == 2) {
    u16v v;
    std::memcpy(&v, p, sizeof v);
    return __builtin_convertvector(v, u64v);
  } else {
    static_assert(sizeof(ST) == 4);
    u32v v;
    std::memcpy(&v, p, sizeof v);
    return __builtin_convertvector(v, u64v);
  }
#endif
}
template <class ST>
inline void store_pats(ST* p, u64v v) noexcept {
#if defined(__AVX2__) && PSTAB_SIMD_LANES == 4 && !defined(__AVX512F__)
  // Pack the low 32 bits of each lane into the bottom 128 (lane values are
  // < 2^32, so a dword permute loses nothing), then narrow once more for u16.
  const __m256i p32 = _mm256_permutevar8x32_epi32(
      (__m256i)v, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
  const __m128i lo = _mm256_castsi256_si128(p32);
  if constexpr (sizeof(ST) == 2) {
    const __m128i w = _mm_shuffle_epi8(
        lo, _mm_setr_epi8(0, 1, 4, 5, 8, 9, 12, 13, -1, -1, -1, -1, -1, -1,
                          -1, -1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), w);
  } else {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), lo);
  }
#elif defined(__AVX512F__) && PSTAB_SIMD_LANES == 8
  if constexpr (sizeof(ST) == 2)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                     _mm512_cvtepi64_epi16((__m512i)v));
  else
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                        _mm512_cvtepi64_epi32((__m512i)v));
#else
  if constexpr (sizeof(ST) == 2) {
    const u16v t = __builtin_convertvector(v, u16v);
    std::memcpy(p, &t, sizeof t);
  } else {
    static_assert(sizeof(ST) == 4);
    const u32v t = __builtin_convertvector(v, u32v);
    std::memcpy(p, &t, sizeof t);
  }
#endif
}

// Compiled with this TU's ISA flags on purpose: only reachable through this
// ISA's kernel table, i.e. after runtime dispatch confirmed CPU support.
#include "la/kernels/simd/fpchain.inl"

template <class P>
struct VOps {
  static constexpr int N = P::nbits;
  static constexpr int ES = P::es;
  static constexpr int L = N - 1;
  static constexpr u64 kMask = (u64(1) << N) - 1;
  static constexpr u64 kNarBits = u64(1) << (N - 1);
  static constexpr u64 kMaxposBits = (u64(1) << (N - 1)) - 1;
  using ST = typename P::storage_t;
  using bops = batched::ops<P>;
  static_assert(sizeof(P) == sizeof(ST), "pattern loads rely on Posit layout");

  static u64v load_p(const P* p) noexcept {
    return load_pats(reinterpret_cast<const ST*>(p));
  }
  static void store_p(P* p, u64v v) noexcept {
    store_pats(reinterpret_cast<ST*>(p), v);
  }

  /// Patterns (low N bits) -> exact posit values: +0.0 for zero, qNaN for
  /// NaR.  Branch-free: two's-complement magnitude, regime run length via
  /// the OR-magic msb (bits.hpp msb_via_f64, one FP subtract per lane), then
  /// direct assembly of the IEEE bits.
  PSTAB_HOT_INLINE static f64v vdecode(u64v pat) noexcept {
    const u64v sign = pat >> (N - 1);
    const u64v negm = u64v{} - sign;
    const u64v mag = ((pat ^ negm) + sign) & splat_u(kMask);
    // Left-justify the regime+exponent+fraction body in 32 bits; the |1
    // keeps the lane defined (not meaningful) for zero/NaR patterns, whose
    // results are blended away below.
    const u64v body = (mag << (33 - N)) & splat_u(0xffffffffu);
    const u64v r0 = body >> 31;
    const u64v r0m = u64v{} - r0;
    const u64v u = ((body ^ r0m) & splat_u(0xffffffffu)) | splat_u(1);
    const u64v run = vclz32(u);
    const u64v kk = blend(r0m, run - splat_u(1), u64v{} - run);
    const u64v rest = (body << (run + splat_u(1))) & splat_u(0xffffffffu);
    u64v e = u64v{};
    if constexpr (ES > 0) e = rest >> (32 - ES);
    const i64v scale = (as_i(kk) << ES) + as_i(e);
    const u64v frac52 = ((rest << ES) & splat_u(0xffffffffu)) << 20;
    const u64v bits =
        (sign << 63) | (as_u(scale + splat_i(1023)) << 52) | frac52;
    f64v val = as_f(bits);
    val = blend_f(as_u(pat == u64v{}), f64v{}, val);
    val = blend_f(as_u(pat == splat_u(kNarBits)), splat_f(kNan), val);
    return val;
  }

  /// Exact posit values (or +-0.0 / NaN) -> patterns.  Inputs must be
  /// representable in the format — C-rounded results, decoded values, and
  /// fixup lanes are overwritten after the store, so the contract holds.
  PSTAB_HOT_INLINE static u64v vencode(f64v val) noexcept {
    const u64v b = as_u(val);
    const u64v sign = b >> 63;
    const i64v scale = as_i((b >> 52) & splat_u(0x7ff)) - splat_i(1023);
    const u64v mant = b & splat_u((u64(1) << 52) - 1);
    // Clamp k so zero/NaN lanes (scale -1023 / +1024) cannot drive shift
    // amounts out of range; their patterns are blended at the end.
    const i64v k =
        vmax_i(vmin_i(scale >> ES, splat_i(L)), splat_i(-L));
    const i64v e = scale - (k << ES);
    const u64v km = as_u(k >= i64v{});
    const i64v reglen = blend_i(km, k + splat_i(2), splat_i(1) - k);
    const i64v regc = vmin_i(reglen, splat_i(L));
    const u64v sh_lead = as_u(vmax_i(k + splat_i(2), i64v{}));
    const u64v lead =
        blend(km, (splat_u(1) << sh_lead) - splat_u(2), splat_u(1));
    const i64v shift = splat_i(L) - regc;  // in [0, L-1] after the clamps
    const u64v body = lead << as_u(shift);
    // Exponent field: top min(ES, room) bits; the bits a taper pattern
    // drops are zero for every representable value.
    const i64v se = shift - splat_i(ES);
    const u64v eu = as_u(e);
    const u64v epart = blend(as_u(se >= i64v{}), eu << as_u(vmax_i(se, i64v{})),
                             eu >> as_u(vmax_i(-se, i64v{})));
    // Fraction: top fb = se bits of the mantissa (mant == 0 in taper lanes).
    const u64v fpart = mant >> as_u(splat_i(52) - se);
    u64v pat = body | epart | fpart;
    pat = blend(as_u(k >= splat_i(L - 1)), splat_u(kMaxposBits), pat);
    pat = blend(u64v{} - sign, (u64v{} - pat) & splat_u(kMask), pat);
    pat = blend(as_u(val == f64v{}), u64v{}, pat);
    pat = blend(as_u(val != val), splat_u(kNarBits), pat);
    return pat;
  }

  struct VR {
    f64v r;    // posit-rounded result (exact double)
    u64v fix;  // lanes needing the integer-core replay (taper/saturation)
  };

  /// Posit RNE of v = d + err (err the exact residual, |err| <= ulp(d)/2):
  /// round-to-odd at 53 bits — RTO preserves the binade and 53 >= fb+2
  /// makes the double rounding exact — then one RNE add against the
  /// per-binade constant C.  C == 0.0 flags taper/saturation lanes for the
  /// integer core; zero and NaN lanes come out correct directly.
  PSTAB_HOT_INLINE static VR c_round(f64v d, f64v err) noexcept {
    const u64v db = as_u(d);
    const u64v eb = as_u(err);
    const u64v nz = as_u(err != f64v{});
    const u64v away = ((db ^ eb) >> 63) & nz & splat_u(1);
    const u64v rto = (db - away) | (nz & splat_u(1));
    const u64v be = (rto >> 52) & splat_u(0x7ff);
    const f64v c = gather_f(fd::kRoundTable<N, ES>.c, be);
    const f64v r = (as_f(rto) + c) - c;
    const u64v special = as_u(d == f64v{}) | as_u(d != d);
    return {r, as_u(c == f64v{}) & ~special};
  }

  PSTAB_HOT_INLINE static VR vmul_round(f64v a, f64v b) noexcept {
    const f64v d = a * b;
    return c_round(d, vfma(a, b, -d));
  }

  /// round(x + t) via Knuth TwoSum (exact for any scale gap) + c_round.
  PSTAB_HOT_INLINE static VR vadd_round(f64v x, f64v t) noexcept {
    const f64v s = x + t;
    const f64v bv = s - x;
    const f64v av = s - bv;
    const f64v be = t - bv;
    const f64v ae = x - av;
    return c_round(s, ae + be);
  }

  // -- chained kernels ------------------------------------------------------

  static constexpr std::size_t kBlock = 128;

  /// Phase A of a chained kernel: one block of rounded products as exact
  /// doubles (0.0 for zero terms, NaN for NaR), from pattern arrays.
  static void block_products(const ST* ap, const ST* bp, std::size_t m,
                             double* md) noexcept {
    std::size_t j = 0;
    for (; j + kLanes <= m; j += kLanes) {
      const VR mr = vmul_round(vdecode(load_pats(ap + j)),
                               vdecode(load_pats(bp + j)));
      f64v t = mr.r;
      if (any(mr.fix)) [[unlikely]] {
        for (int l = 0; l < kLanes; ++l)
          if (mr.fix[l])
            t[l] = fd::mul_round_slot(P::from_bits(ap[j + l]),
                                      P::from_bits(bp[j + l]));
      }
      store_f(md + j, t);
    }
    for (; j < m; ++j)
      md[j] = fd::mul_round_slot(P::from_bits(ap[j]), P::from_bits(bp[j]));
  }

  static void gather(const P* p, std::ptrdiff_t s, std::size_t off,
                     std::size_t m, ST* out) noexcept {
    if (s == 1) {
      std::memcpy(out, p + off, m * sizeof(ST));
    } else {
      for (std::size_t j = 0; j < m; ++j)
        out[j] = ST(p[(std::ptrdiff_t(off) + std::ptrdiff_t(j)) * s].bits());
    }
  }

  /// Software-pipelined accumulate driver: vector product groups run D
  /// groups ahead of the serial FP chain through a small ring buffer.  The
  /// chain is latency-bound (one dependent FP add per element) while the
  /// products are throughput-bound, so interleaving them at group
  /// granularity lets the out-of-order core hide nearly all of the product
  /// work under the chain's add latency; the D-group gap also keeps the
  /// chain's scalar loads clear of the still-in-flight vector stores.
  /// `group(g)` returns the rounded products for elements [g*kLanes,
  /// (g+1)*kLanes).
  template <class PG>
  static void run_chain(FpChain<N, ES>& c, std::size_t ng,
                        PG&& group) noexcept {
    constexpr std::size_t G = std::size_t(kLanes);
    constexpr std::size_t D = 4;  // product groups in flight ahead
    double ring[D * G];
    std::size_t g = 0;
    const std::size_t fill = ng < D ? ng : D;
    for (; g < fill; ++g) store_f(ring + (g % D) * G, group(g));
    for (; g < ng; ++g) {
      if (c.nar) return;
      const double* m = ring + (g % D) * G;  // group g - D lives here
      for (std::size_t l = 0; l < G; ++l) c.step(m[l]);
      store_f(ring + (g % D) * G, group(g));
    }
    for (std::size_t d = g < D ? 0 : g - D; d < ng; ++d) {
      if (c.nar) return;
      const double* m = ring + (d % D) * G;
      for (std::size_t l = 0; l < G; ++l) c.step(m[l]);
    }
  }

  static P update_chain(P seed, const P* a, std::ptrdiff_t sa, const P* b,
                        std::ptrdiff_t sb, std::size_t n, bool subtract) {
    if (seed.is_nar()) return P::nar();
    FpChain<N, ES> c;
    if (seed.is_zero()) {
      c.set_zero_state();
    } else {
      const U u = bops::decode1(seed);
      c.set_band(u.sign, u.scale, u.frac);
    }
    constexpr std::size_t G = std::size_t(kLanes);
    if (sa == 1 && sb == 1) {
      const ST* ap = reinterpret_cast<const ST*>(a);
      const ST* bp = reinterpret_cast<const ST*>(b);
      // Subtraction is a sign flip on the rounded product (the scalar chain
      // negates before its rounded add, and posit rounding is symmetric).
      const f64v sflip = subtract ? splat_f(-0.0) : splat_f(0.0);
      const std::size_t ng = n / G;
      run_chain(c, ng, [&](std::size_t g) {
        const std::size_t i = g * G;
        const VR mr =
            vmul_round(vdecode(load_pats(ap + i)), vdecode(load_pats(bp + i)));
        f64v t = mr.r;
        if (any(mr.fix)) [[unlikely]] {
          for (int l = 0; l < kLanes; ++l)
            if (mr.fix[l]) t[l] = fd::mul_round_slot(a[i + l], b[i + l]);
        }
        return as_f(as_u(t) ^ as_u(sflip));
      });
      for (std::size_t i = ng * G; i < n && !c.nar; ++i) {
        const double m = fd::mul_round_slot(a[i], b[i]);
        c.step(subtract ? -m : m);
      }
      return c.value();
    }
    // Strided fallback (triangular solves, Cholesky columns): stage block
    // pattern copies, then the two-phase product/chain loop.
    ST ap[kBlock], bp[kBlock];
    double md[kBlock];
    std::size_t i = 0;
    while (i < n) {
      const std::size_t m = std::min(kBlock, n - i);
      gather(a, sa, i, m, ap);
      gather(b, sb, i, m, bp);
      block_products(ap, bp, m, md);
      if (subtract)
        for (std::size_t j = 0; j < m; ++j) md[j] = -md[j];
      for (std::size_t j = 0; j < m; ++j) c.step(md[j]);
      if (c.nar) return P::nar();
      i += m;
    }
    return c.value();
  }

  static P dot(const P* x, const P* y, std::size_t n) {
    return update_chain(P::zero(), x, 1, y, 1, n, false);
  }

  static void gemv(const P* a, int rows, int cols, const P* x, P* y) {
    const std::size_t nc = std::size_t(cols);
    std::vector<double> xd(nc);
    decode_f64(x, nc, xd.data());
    double md[kBlock];
    for (int r = 0; r < rows; ++r) {
      const P* row = a + std::size_t(r) * nc;
      FpChain<N, ES> c;
      c.set_zero_state();
      std::size_t i = 0;
      while (i < nc && !c.nar) {
        const std::size_t m = std::min(kBlock, nc - i);
        std::size_t j = 0;
        for (; j + kLanes <= m; j += kLanes) {
          const VR mr = vmul_round(
              vdecode(load_p(row + i + j)), load_f(xd.data() + i + j));
          f64v t = mr.r;
          if (any(mr.fix)) [[unlikely]] {
            for (int l = 0; l < kLanes; ++l)
              if (mr.fix[l])
                t[l] = fd::mul_round_slot(row[i + j + l], x[i + j + l]);
          }
          store_f(md + j, t);
        }
        for (; j < m; ++j) md[j] = fd::mul_round_slot(row[i + j], x[i + j]);
        for (j = 0; j < m; ++j) c.step(md[j]);
        i += m;
      }
      y[r] = c.value();
    }
  }

  // -- lane-per-row SpMV ----------------------------------------------------

  // The integer-core replays of flagged lanes, kept out of line so the rare
  // path does not cost the hot loop its registers.
  [[gnu::noinline]] static f64v replay_mul(f64v r, u64v fix, f64v a,
                                           f64v b) noexcept {
    for (int l = 0; l < kLanes; ++l)
      if (fix[l]) r[l] = fd::mul_round_f64<P>(a[l], b[l]);
    return r;
  }
  [[gnu::noinline]] static f64v replay_add(f64v r, u64v fix, f64v x,
                                           f64v t) noexcept {
    for (int l = 0; l < kLanes; ++l)
      if (fix[l]) r[l] = fd::add_round_f64<P>(x[l], t[l]);
    return r;
  }

  /// Rows [r0, r1) of y = A * x over the SELL-C plane, one row per lane.
  /// Each lane runs its row's scalar chain s = round(s + round(a_k * x_k)) in
  /// CSR term order through the single-op rounds, so no chain is
  /// reassociated; a lane that a round flags replays that one op through the
  /// integer core.  A lane past its row's length keeps s: its padding slot
  /// holds 0.0, which would still poison s against a NaR x.  Chunks run G at
  /// a time so four independent vector chains are in flight.
  static void spmv(const SellPlane& A, const double* xd, P* y, int r0,
                   int r1) {
    constexpr int C = SellPlane::kC;
    static_assert(C % kLanes == 0, "a chunk is whole vectors");
    constexpr int VC = C / kLanes;          // vectors per chunk
    constexpr int G = VC >= 4 ? 1 : 4 / VC;  // chunks per pass
    constexpr int NV = G * VC;
    const double* val = A.val.data();
    const int* col = A.col.data();
    const int cend = (r1 + C - 1) / C;
    for (int c0 = r0 / C; c0 < cend; c0 += G) {
      const int g = std::min(G, cend - c0);
      std::size_t base[NV];
      int w[NV];
      i64v len[NV];
      f64v s[NV];
      int wmax = 0;
      for (int v = 0; v < NV; ++v) {
        const int c = c0 + v / VC;
        const std::size_t lane0 = std::size_t(v % VC) * kLanes;
        s[v] = f64v{};
        len[v] = i64v{};
        base[v] = 0;
        w[v] = 0;
        if (v / VC >= g) continue;
        base[v] = std::size_t(A.chunk[std::size_t(c)]) * C + lane0;
        w[v] = A.chunk[std::size_t(c) + 1] - A.chunk[std::size_t(c)];
        for (int l = 0; l < kLanes; ++l)
          len[v][l] = A.len[std::size_t(c) * C + lane0 + std::size_t(l)];
        wmax = std::max(wmax, w[v]);
      }
      for (int j = 0; j < wmax; ++j) {
        const i64v jv = splat_i(j);
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v) {
          if (j >= w[v]) continue;
          const std::size_t at = base[v] + std::size_t(j) * C;
          const f64v a = load_f(val + at);
          const f64v xv = gather_f(xd, col + at);
          const u64v act = as_u(jv < len[v]);
          const VR m = vmul_round(a, xv);
          f64v t = m.r;
          if (any(m.fix & act)) [[unlikely]]
            t = replay_mul(t, m.fix & act, a, xv);
          const VR r = vadd_round(s[v], t);
          f64v ns = r.r;
          if (any(r.fix & act)) [[unlikely]]
            ns = replay_add(ns, r.fix & act, s[v], t);
          s[v] = blend_f(act, ns, s[v]);
        }
      }
      for (int v = 0; v < NV && v / VC < g; ++v) {
        const int row = (c0 + v / VC) * C + (v % VC) * kLanes;
        const u64v pats = vencode(s[v]);
        if (row + kLanes <= r1) {
          store_p(y + row, pats);
        } else {
          for (int l = 0; row + l < r1; ++l) y[row + l] = P::from_bits(pats[l]);
        }
      }
    }
  }

  // -- elementwise kernels --------------------------------------------------

  static void decode_f64(const P* x, std::size_t n, double* out) {
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
      store_f(out + i, vdecode(load_p(x + i)));
    for (; i < n; ++i) {
      const P p = x[i];
      out[i] = p.is_nar()    ? kNan
               : p.is_zero() ? 0.0
                             : fd::unp_to_f64(bops::decode1(p));
    }
  }

  static void encode_f64(const double* x, std::size_t n, P* out) {
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
      store_p(out + i, vencode(load_f(x + i)));
    for (; i < n; ++i) {
      const double d = x[i];
      out[i] = std::isnan(d)  ? P::nar()
               : d == 0.0     ? P::zero()
                              : bops::enc(fd::f64_to_unp(d));
    }
  }

  static void mul_round(const P* x, const P* y, P* z, std::size_t n) {
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      const u64v xp = load_p(x + i), yp = load_p(y + i);
      const VR m = vmul_round(vdecode(xp), vdecode(yp));
      store_p(z + i, vencode(m.r));
      if (any(m.fix)) [[unlikely]] {
        for (int l = 0; l < kLanes; ++l)
          if (m.fix[l])
            z[i + l] = fd::mul_slot(P::from_bits(u64(xp[l])),
                                    P::from_bits(u64(yp[l])));
      }
    }
    for (; i < n; ++i) z[i] = fd::mul_slot(x[i], y[i]);
  }

  static void axpy(P alpha, const P* x, P* y, std::size_t n) {
    // The special-alpha ladders mirror batched::axpy exactly.
    if (alpha.is_nar()) {
      for (std::size_t i = 0; i < n; ++i) y[i] = P::nar();
      return;
    }
    if (alpha.is_zero()) {
      for (std::size_t i = 0; i < n; ++i)
        if (x[i].is_nar()) y[i] = P::nar();
      return;
    }
    const U ua = bops::decode1(alpha);
    const f64v av = splat_f(fd::unp_to_f64(ua));
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      const u64v xp = load_p(x + i), yp = load_p(y + i);
      const VR t = vmul_round(av, vdecode(xp));
      const VR r = vadd_round(vdecode(yp), t.r);
      store_p(y + i, vencode(r.r));
      const u64v fix = t.fix | r.fix;
      if (any(fix)) [[unlikely]] {
        for (int l = 0; l < kLanes; ++l)
          if (fix[l])
            y[i + l] = fd::axpy_slot(ua, P::from_bits(u64(xp[l])),
                                     P::from_bits(u64(yp[l])));
      }
    }
    for (; i < n; ++i) y[i] = fd::axpy_slot(ua, x[i], y[i]);
  }

  static void scal(P alpha, P* x, std::size_t n) {
    if (alpha.is_nar()) {
      for (std::size_t i = 0; i < n; ++i) x[i] = P::nar();
      return;
    }
    if (alpha.is_zero()) {
      for (std::size_t i = 0; i < n; ++i)
        x[i] = x[i].is_nar() ? P::nar() : P::zero();
      return;
    }
    const U ua = bops::decode1(alpha);
    const f64v av = splat_f(fd::unp_to_f64(ua));
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      const u64v xp = load_p(x + i);
      const VR m = vmul_round(vdecode(xp), av);
      store_p(x + i, vencode(m.r));
      if (any(m.fix)) [[unlikely]] {
        for (int l = 0; l < kLanes; ++l)
          if (m.fix[l]) x[i + l] = fd::scal_slot(ua, P::from_bits(u64(xp[l])));
      }
    }
    for (; i < n; ++i) x[i] = fd::scal_slot(ua, x[i]);
  }

  static void xpby(const P* x, P beta, const P* y, P* z, std::size_t n) {
    // NaN/zero beta flow through the lanes with batched's ladder semantics:
    // NaR beta poisons every slot, zero beta leaves z = x (0 * NaR is still
    // NaR via the NaN product).
    const f64v bv = splat_f(beta.is_nar()    ? kNan
                            : beta.is_zero() ? 0.0
                                             : fd::unp_to_f64(bops::decode1(beta)));
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      const u64v xp = load_p(x + i), yp = load_p(y + i);
      const VR t = vmul_round(bv, vdecode(yp));
      const VR r = vadd_round(vdecode(xp), t.r);
      store_p(z + i, vencode(r.r));
      const u64v fix = t.fix | r.fix;
      if (any(fix)) [[unlikely]] {
        for (int l = 0; l < kLanes; ++l)
          if (fix[l])
            z[i + l] = fd::xpby_slot(beta, P::from_bits(u64(xp[l])),
                                     P::from_bits(u64(yp[l])));
      }
    }
    for (; i < n; ++i) z[i] = fd::xpby_slot(beta, x[i], y[i]);
  }
};

template <class P>
Kernels<P> make_kernels() noexcept {
  using V = VOps<P>;
  Kernels<P> k{&V::dot,        &V::update_chain, &V::axpy,
               &V::scal,       &V::xpby,         &V::gemv,
               &V::decode_f64, &V::encode_f64,   &V::mul_round,
               nullptr};
  if constexpr (ops<P>::lane_spmv) k.spmv = &V::spmv;
  return k;
}

}  // namespace

const IsaTables& tables() noexcept {
  static const IsaTables t{make_kernels<Posit<16, 1>>(),
                           make_kernels<Posit<32, 2>>(),
                           make_kernels<Posit<32, 3>>()};
  return t;
}

}  // namespace PSTAB_SIMD_NS
}  // namespace pstab::la::kernels::simd
