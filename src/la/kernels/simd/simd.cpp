// Runtime ISA dispatch for Backend::Simd (see simd.hpp for the contract).
//
// Resolution precedence: force_isa() runtime override (tests) > PSTAB_SIMD
// environment (latched on first use) > best ISA the binary carries that the
// running CPU supports.  Every resolution also requires the default FP
// environment (round-to-nearest): the f64-domain cores are only bit-identical
// to the scalar core under RNE, so a nonstandard rounding mode disables the
// vector legs entirely rather than silently mis-rounding.
#include "la/kernels/simd/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <cstdlib>
#include <cstring>

namespace pstab::la::kernels::simd {

// Per-ISA tables, compiled only when src/CMakeLists.txt builds the leg.
#if defined(PSTAB_SIMD_HAVE_AVX2)
namespace avx2 {
const IsaTables& tables() noexcept;
}
#endif
#if defined(PSTAB_SIMD_HAVE_AVX512)
namespace avx512 {
const IsaTables& tables() noexcept;
}
#endif
#if defined(PSTAB_SIMD_HAVE_NEON)
namespace neon {
const IsaTables& tables() noexcept;
}
#endif

namespace {

bool cpu_supports(Isa i) noexcept {
  switch (i) {
    case Isa::kScalar:
      return true;
#if defined(PSTAB_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
#if defined(PSTAB_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512cd");
#endif
#if defined(PSTAB_SIMD_HAVE_NEON)
    case Isa::kNeon:
      return true;  // AdvSIMD is baseline on aarch64
#endif
    default:
      return false;  // leg not compiled into this binary
  }
}

bool fp_env_ok() noexcept { return std::fegetround() == FE_TONEAREST; }

Isa best_isa() noexcept {
  if (cpu_supports(Isa::kAvx512)) return Isa::kAvx512;
  if (cpu_supports(Isa::kAvx2)) return Isa::kAvx2;
  if (cpu_supports(Isa::kNeon)) return Isa::kNeon;
  return Isa::kScalar;
}

// -1 = no runtime override; otherwise an Isa value.
std::atomic<int> g_forced{-1};

struct Resolution {
  Isa active;
  const char* note;  // non-null when a vector request fell back to scalar
};

Resolution resolve() noexcept {
  struct EnvReq {
    bool has;
    Isa isa;
    bool bad;
  };
  static const EnvReq env = [] {
    EnvReq r{false, Isa::kScalar, false};
    if (const char* e = std::getenv("PSTAB_SIMD")) {
      r.has = true;
      r.bad = !parse_isa(e, r.isa);
    }
    return r;
  }();
  if (!fp_env_ok()) return {Isa::kScalar, "simd:fp-env->scalar"};
  const int forced = g_forced.load(std::memory_order_relaxed);
  Isa want;
  bool bad = false;
  if (forced >= 0) {
    want = Isa(forced);
  } else if (env.has) {
    want = env.isa;
    bad = env.bad;
  } else {
    return {best_isa(), nullptr};
  }
  if (bad) return {Isa::kScalar, "simd:unknown->scalar"};
  if (want == Isa::kScalar) return {Isa::kScalar, nullptr};  // kill switch
  if (cpu_supports(want)) return {want, nullptr};
  switch (want) {
    case Isa::kAvx2:
      return {Isa::kScalar, "simd:avx2->scalar"};
    case Isa::kAvx512:
      return {Isa::kScalar, "simd:avx512->scalar"};
    default:
      return {Isa::kScalar, "simd:neon->scalar"};
  }
}

}  // namespace

bool parse_isa(const char* s, Isa& out) noexcept {
  if (!std::strcmp(s, "scalar") || !std::strcmp(s, "0")) {
    out = Isa::kScalar;
    return true;
  }
  if (!std::strcmp(s, "avx2")) {
    out = Isa::kAvx2;
    return true;
  }
  if (!std::strcmp(s, "avx512")) {
    out = Isa::kAvx512;
    return true;
  }
  if (!std::strcmp(s, "neon")) {
    out = Isa::kNeon;
    return true;
  }
  return false;
}

bool available(Isa i) noexcept {
  if (i == Isa::kScalar) return true;
  return cpu_supports(i) && fp_env_ok();
}

Isa active_isa() noexcept { return resolve().active; }

const char* fallback_note() noexcept { return resolve().note; }

const IsaTables* tables_for(Isa i) noexcept {
  if (!available(i)) return nullptr;
  switch (i) {
#if defined(PSTAB_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      return &avx2::tables();
#endif
#if defined(PSTAB_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      return &avx512::tables();
#endif
#if defined(PSTAB_SIMD_HAVE_NEON)
    case Isa::kNeon:
      return &neon::tables();
#endif
    default:
      return nullptr;
  }
}

const IsaTables* active_tables() noexcept { return tables_for(active_isa()); }

bool force_isa(Isa i) noexcept {
  g_forced.store(int(i), std::memory_order_relaxed);
  return available(i);
}

void clear_forced_isa() noexcept {
  g_forced.store(-1, std::memory_order_relaxed);
}

SellPlane make_sell_plane(int rows, const int* ptr, const int* col,
                          const double* val) {
  constexpr int C = SellPlane::kC;
  const int nchunks = (rows + C - 1) / C;
  SellPlane s;
  s.len.assign(std::size_t(nchunks) * C, 0);
  s.chunk.assign(std::size_t(nchunks) + 1, 0);
  for (int c = 0; c < nchunks; ++c) {
    int w = 0;
    for (int r = c * C; r < rows && r < (c + 1) * C; ++r) {
      s.len[std::size_t(r)] = ptr[r + 1] - ptr[r];
      w = std::max(w, s.len[std::size_t(r)]);
    }
    s.chunk[std::size_t(c) + 1] = s.chunk[std::size_t(c)] + w;
  }
  const std::size_t slots = std::size_t(s.chunk.back()) * C;
  s.col.assign(slots, 0);
  s.val.assign(slots, 0.0);
  for (int r = 0; r < rows; ++r) {
    const std::size_t base = std::size_t(s.chunk[std::size_t(r / C)]) * C +
                             std::size_t(r % C);
    for (int k = ptr[r]; k < ptr[r + 1]; ++k) {
      const std::size_t at = base + std::size_t(k - ptr[r]) * C;
      s.col[at] = col[k];
      s.val[at] = val[k];
    }
  }
  return s;
}

}  // namespace pstab::la::kernels::simd
