// la::kernels::simd — runtime-dispatched vector backends for the decoded-
// plane kernels (Backend::Simd in la/kernels/kernels.hpp).
//
// Per-ISA translation units (simd_avx2.cpp / simd_avx512.cpp / simd_neon.cpp,
// each built with its own -m flags) instantiate the generic f64-domain body
// (body.hpp) for Posit<16,1>, Posit<32,2> and Posit<32,3> and export a table
// of function pointers.  The two 32-bit formats also carry the lane-per-row
// SpMV over a matrix's SellPlane (below); Posit<16,1> keeps the scalar SpMV.
// simd.cpp resolves which table is active:
//
//   * CPUID/HWCAP detection picks the best ISA compiled in AND supported by
//     the running CPU (AVX-512 > AVX2 on x86-64; NEON on aarch64).
//   * PSTAB_SIMD=avx2|avx512|neon|scalar forces an ISA (latched at startup);
//     "scalar" is the kill switch.  force_isa() is the runtime equivalent
//     for tests.
//   * A forced ISA that is unavailable resolves to scalar and leaves a
//     fallback note (fallback_note()) that the solvers surface in their
//     SolveReport instead of crashing.
//
// Bit-identity with the scalar core is the hard contract for every table
// entry; see f64core.hpp for the rounding machinery and docs/simd.md for the
// dispatch rules and how to add an ISA.
#pragma once

#include <cstddef>
#include <vector>

#include "posit/posit.hpp"

namespace pstab::la::kernels::simd {

enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kNeon = 3 };

[[nodiscard]] constexpr const char* isa_name(Isa i) noexcept {
  switch (i) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
    default:
      return "scalar";
  }
}

/// Parses a PSTAB_SIMD value; returns false on an unknown name.
[[nodiscard]] bool parse_isa(const char* s, Isa& out) noexcept;

/// The decoded SELL-C plane of a CSR matrix, the operand of the lane-per-row
/// SpMV: rows are cut into chunks of kC consecutive rows in CSR order (no
/// sort), and chunk c stores its rows' terms column-major, so slot (j, lane)
/// holds term j of row c*kC + lane at index (chunk[c] + j) * kC + lane.  A
/// chunk is as wide as its longest row; the padding slots hold value 0.0 and
/// column 0 and are masked off by the row lengths.  Values are the exact
/// doubles of the format values (NaN for NaR), built once per matrix.
struct SellPlane {
  static constexpr int kC = 8;
  std::vector<int> chunk;    // first slot group of each chunk, plus the end
  std::vector<int> len;      // row lengths; 0 for the last chunk's pad rows
  std::vector<int> col;      // column of each slot
  std::vector<double> val;   // exact value of each slot
};

/// Builds the plane of a CSR matrix whose stored values decode to `val`.
[[nodiscard]] SellPlane make_sell_plane(int rows, const int* ptr,
                                        const int* col, const double* val);

/// One format's kernel entry points for one ISA.  The elementwise hooks
/// (decode/encode/mul_round) exist for the exhaustive/fuzz test tiers, which
/// pin every lane of every ISA against the scalar core.
template <class P>
struct Kernels {
  P (*dot)(const P*, const P*, std::size_t);
  P (*update_chain)(P, const P*, std::ptrdiff_t, const P*, std::ptrdiff_t,
                    std::size_t, bool);
  void (*axpy)(P, const P*, P*, std::size_t);
  void (*scal)(P, P*, std::size_t);
  void (*xpby)(const P*, P, const P*, P*, std::size_t);
  void (*gemv)(const P*, int, int, const P*, P*);
  void (*decode_f64)(const P*, std::size_t, double*);
  void (*encode_f64)(const double*, std::size_t, P*);
  void (*mul_round)(const P*, const P*, P*, std::size_t);
  /// Rows [r0, r1) of y = A * x, one row per lane, against x decoded to
  /// exact doubles; r0 is a multiple of SellPlane::kC.  nullptr for formats
  /// without the leg (ops<P>::lane_spmv).
  void (*spmv)(const SellPlane&, const double*, P*, int, int);
};

struct IsaTables {
  Kernels<Posit<16, 1>> p16;
  Kernels<Posit<32, 2>> p32;
  Kernels<Posit<32, 3>> p32_3;
};

/// True when this binary carries a vector leg for `i` AND the running CPU
/// (and FP environment: round-to-nearest) can execute it.
[[nodiscard]] bool available(Isa i) noexcept;

/// The ISA Backend::Simd currently runs on (kScalar = fall back to the
/// scalar/batched paths).  Resolution: force_isa() override, else PSTAB_SIMD,
/// else best available.
[[nodiscard]] Isa active_isa() noexcept;

/// Kernel table for the active ISA; nullptr when active_isa() == kScalar.
[[nodiscard]] const IsaTables* active_tables() noexcept;

/// Kernel table for a specific ISA (tests); nullptr if unavailable.
[[nodiscard]] const IsaTables* tables_for(Isa i) noexcept;

/// Runtime ISA override (tests): kScalar disables the vector legs; an
/// unavailable request resolves to scalar and sets the fallback note.
/// Returns true when the request was honored as given.
bool force_isa(Isa i) noexcept;
/// Drop the runtime override, returning to the PSTAB_SIMD / autodetect rule.
void clear_forced_isa() noexcept;

/// Non-null exactly when the last resolution wanted a vector ISA but had to
/// fall back to scalar ("simd:avx512->scalar"); solvers record it in
/// SolveReport::recovery instead of failing.
[[nodiscard]] const char* fallback_note() noexcept;

/// Formats with a SIMD implementation.  `lane_spmv` marks the formats whose
/// SpMV runs one row per lane.  Posit<16,1> keeps the decoded-plane rows:
/// its narrow fraction band sends many lanes to the integer-core replay, and
/// no solver request runs a 16-bit SpMV (docs/simd.md).
template <class T>
struct ops {
  static constexpr bool supported = false;
  static constexpr bool lane_spmv = false;
};
template <>
struct ops<Posit<16, 1>> {
  static constexpr bool supported = true;
  static constexpr bool lane_spmv = false;
  static const Kernels<Posit<16, 1>>& table(const IsaTables& t) noexcept {
    return t.p16;
  }
};
template <>
struct ops<Posit<32, 2>> {
  static constexpr bool supported = true;
  static constexpr bool lane_spmv = true;
  static const Kernels<Posit<32, 2>>& table(const IsaTables& t) noexcept {
    return t.p32;
  }
};
template <>
struct ops<Posit<32, 3>> {
  static constexpr bool supported = true;
  static constexpr bool lane_spmv = true;
  static const Kernels<Posit<32, 3>>& table(const IsaTables& t) noexcept {
    return t.p32_3;
  }
};

}  // namespace pstab::la::kernels::simd
