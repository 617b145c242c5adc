// la::kernels — the single entry point for the BLAS-1/2 kernels the solvers
// use, with a pluggable backend per call site.
//
//   kernels::Context ctx{kernels::Backend::Auto};   // or Scalar / Batched
//   T s = kernels::dot(ctx, x, y);
//
// Backends:
//   * Scalar  — the original per-element loops (decode/op/encode per scalar).
//   * Batched — decoded-plane kernels (la/kernels/batched.hpp), bit-identical
//               to Scalar by construction.
//   * Simd    — runtime-dispatched vector kernels (la/kernels/simd/) for
//               Posit<16,1> / Posit<32,2> / Posit<32,3>, bit-identical to
//               Scalar; falls back to the scalar paths when no vector ISA is
//               active or the kernel has no vector variant (dot_fused, and
//               spmv for Posit<16,1>).  The 32-bit spmv runs one row per
//               lane over the matrix's SELL-C plane (Csr::sell()).
//   * Auto    — Simd (then Batched) for supported formats and non-tiny
//               vectors, unless the process default says otherwise (below).
//
// The process default backend is Auto, overridden by the PSTAB_KERNELS
// environment variable — "scalar" or "0" is the kill switch mirroring
// PSTAB_LUT, "batched" / "simd" force a backend on — and by
// set_default_backend() at runtime (tests).  An explicit per-context choice
// wins over the default; Auto defers to it.  PSTAB_SIMD=avx2|avx512|neon|
// scalar additionally pins WHICH vector ISA the Simd backend runs on (see
// la/kernels/simd/simd.hpp).
//
// Telemetry: when telemetry::active(), every dispatch falls back to the
// scalar path so the per-op/per-encode counters record exactly the totals the
// scalar kernels would — the batched path skips the instrumented tailpaths.
#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/parallel_for.hpp"
#include "common/scalar_traits.hpp"
#include "core/telemetry/telemetry.hpp"
#include "la/kernels/batched.hpp"
#include "la/kernels/simd/simd.hpp"

namespace pstab::la {

template <class T>
using Vec = std::vector<T>;

template <class T>
class Dense;
template <class T>
class Csr;

namespace kernels {

enum class Backend { Scalar, Batched, Simd, Auto };

[[nodiscard]] constexpr const char* to_string(Backend b) noexcept {
  switch (b) {
    case Backend::Scalar:
      return "scalar";
    case Backend::Batched:
      return "batched";
    case Backend::Simd:
      return "simd";
    default:
      return "auto";
  }
}

namespace detail {
inline std::atomic<Backend>& default_backend_state() {
  static std::atomic<Backend> state{[] {
    if (const char* e = std::getenv("PSTAB_KERNELS")) {
      if (std::strcmp(e, "scalar") == 0 || std::strcmp(e, "0") == 0)
        return Backend::Scalar;
      if (std::strcmp(e, "batched") == 0) return Backend::Batched;
      if (std::strcmp(e, "simd") == 0) return Backend::Simd;
    }
    return Backend::Auto;
  }()};
  return state;
}
}  // namespace detail

/// Backend an Auto context resolves to (PSTAB_KERNELS at startup, then
/// set_default_backend).  Backend::Auto means "batched where supported".
[[nodiscard]] inline Backend default_backend() noexcept {
  return detail::default_backend_state().load(std::memory_order_relaxed);
}
inline void set_default_backend(Backend b) noexcept {
  detail::default_backend_state().store(b, std::memory_order_relaxed);
}

/// Per-call-site backend selection, threaded through CgOptions /
/// core::SolveRequest down to every kernel invocation.
struct Context {
  Backend backend = Backend::Auto;
  /// Factorization panel width for the blocked Cholesky/LU paths: 0 = auto
  /// (blocked above a size threshold with a picked width — see
  /// la/blocked.hpp), >= 1 forces that width (1 degenerates to rank-1
  /// panels).  Blocked and unblocked factors are bit-identical for every
  /// format, so this is purely a performance knob; it still participates in
  /// SolveRequest::batch_key so cached artifacts stay honestly keyed.
  int block = 0;
};

/// Below this length Auto stays scalar: plane setup isn't worth it.
inline constexpr std::size_t kAutoMinN = 8;

/// Row-partition thresholds for the parallel BLAS-2 drivers below.  Under
/// the threshold the row loop runs inline (fork-join overhead dominates);
/// over it, rows are fanned out in fixed index-owned tiles through
/// pstab::parallel_tiles.  Every row's chain is self-contained, so the
/// parallel and serial paths — and any PSTAB_THREADS count — produce
/// byte-identical vectors.
inline constexpr int kParMinSparseRows = 8192;
inline constexpr int kSparseRowTile = 2048;
inline constexpr std::size_t kParMinDenseWork = std::size_t(1) << 20;
inline constexpr int kDenseRowTile = 256;

/// The vector-backend dispatch predicate (exposed so tests can pin the
/// routing itself).  True only when a vector ISA is actually active: an
/// explicit Backend::Simd with the kill switch on (PSTAB_SIMD=scalar, or an
/// unavailable forced ISA) degrades to the scalar paths.
template <class T>
[[nodiscard]] inline bool use_simd(const Context& c, std::size_t n) noexcept {
  if constexpr (!simd::ops<T>::supported) {
    (void)c;
    (void)n;
    return false;
  } else {
    const Backend b =
        c.backend == Backend::Auto ? default_backend() : c.backend;
    if (b == Backend::Scalar || b == Backend::Batched) return false;
    if (telemetry::active()) return false;  // keep counter totals scalar-exact
    if (simd::active_isa() == simd::Isa::kScalar) return false;
    if (b == Backend::Simd) return true;
    return n >= kAutoMinN && !batched::ops<T>::prefer_scalar();
  }
}

/// The decoded-plane dispatch predicate (exposed so tests can pin the
/// routing itself).  Backend::Simd never routes here: its scalar fallback is
/// the Scalar backend so the two are interchangeable bit-for-bit.
template <class T>
[[nodiscard]] inline bool use_batched(const Context& c,
                                      std::size_t n) noexcept {
  if constexpr (!batched::ops<T>::supported) {
    (void)c;
    (void)n;
    return false;
  } else {
    const Backend b =
        c.backend == Backend::Auto ? default_backend() : c.backend;
    if (b == Backend::Scalar || b == Backend::Simd) return false;
    if (telemetry::active()) return false;  // keep counter totals scalar-exact
    if (b == Backend::Batched) return true;
    return n >= kAutoMinN && !batched::ops<T>::prefer_scalar();
  }
}

// ---------------------------------------------------------------------------
// BLAS-1
// ---------------------------------------------------------------------------

/// dot(x, y) with per-operation rounding in T (paper §II-C ground rule).
template <class T>
[[nodiscard]] T dot(const Context& c, const Vec<T>& x, const Vec<T>& y) {
  if constexpr (simd::ops<T>::supported) {
    if (use_simd<T>(c, x.size()))
      return simd::ops<T>::table(*simd::active_tables())
          .dot(x.data(), y.data(), x.size());
  }
  if constexpr (batched::ops<T>::supported) {
    if (use_batched<T>(c, x.size()))
      return batched::ops<T>::dot(x.data(), y.data(), x.size());
  }
  T s = scalar_traits<T>::zero();
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

/// Fused (deferred-rounding) dot: the quire for posits, a double accumulator
/// for everything else.  The posit batched variant chunks partial quires
/// across threads; quire addition is exact, so the bits never depend on the
/// thread count.
template <class T>
[[nodiscard]] T dot_fused(const Context& c, const Vec<T>& x, const Vec<T>& y) {
  if constexpr (requires {
                  batched::ops<T>::dot_fused(x.data(), y.data(), x.size());
                }) {
    if (use_batched<T>(c, x.size()))
      return batched::ops<T>::dot_fused(x.data(), y.data(), x.size());
    return quire_dot(x.data(), y.data(), x.size());
  } else {
    (void)c;
    double s = 0;
    for (std::size_t i = 0; i < x.size(); ++i)
      s += scalar_traits<T>::to_double(x[i]) * scalar_traits<T>::to_double(y[i]);
    return scalar_traits<T>::from_double(s);
  }
}

/// y += alpha * x
template <class T>
void axpy(const Context& c, T alpha, const Vec<T>& x, Vec<T>& y) {
  if constexpr (simd::ops<T>::supported) {
    if (use_simd<T>(c, x.size())) {
      simd::ops<T>::table(*simd::active_tables())
          .axpy(alpha, x.data(), y.data(), x.size());
      return;
    }
  }
  if constexpr (batched::ops<T>::supported) {
    if (use_batched<T>(c, x.size())) {
      batched::ops<T>::axpy(alpha, x.data(), y.data(), x.size());
      return;
    }
  }
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

/// x *= alpha
template <class T>
void scal(const Context& c, T alpha, Vec<T>& x) {
  if constexpr (simd::ops<T>::supported) {
    if (use_simd<T>(c, x.size())) {
      simd::ops<T>::table(*simd::active_tables())
          .scal(alpha, x.data(), x.size());
      return;
    }
  }
  if constexpr (batched::ops<T>::supported) {
    if (use_batched<T>(c, x.size())) {
      batched::ops<T>::scal(alpha, x.data(), x.size());
      return;
    }
  }
  for (auto& v : x) v *= alpha;
}

/// z = x + beta * y (z may alias x or y)
template <class T>
void xpby(const Context& c, const Vec<T>& x, T beta, const Vec<T>& y,
          Vec<T>& z) {
  if constexpr (simd::ops<T>::supported) {
    if (use_simd<T>(c, x.size())) {
      simd::ops<T>::table(*simd::active_tables())
          .xpby(x.data(), beta, y.data(), z.data(), x.size());
      return;
    }
  }
  if constexpr (batched::ops<T>::supported) {
    if (use_batched<T>(c, x.size())) {
      batched::ops<T>::xpby(x.data(), beta, y.data(), z.data(), x.size());
      return;
    }
  }
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i] + beta * y[i];
}

/// 2-norm computed in T (sqrt of the T-rounded dot).
template <class T>
[[nodiscard]] T nrm2(const Context& c, const Vec<T>& x) {
  return scalar_traits<T>::sqrt(dot(c, x, x));
}

/// t = seed; for i in [0, n): t = t ∓ a[i*sa] * b[i*sb] — the strided
/// multiply-accumulate chain inside Cholesky columns and triangular solves,
/// with per-operation rounding in T.
template <class T>
[[nodiscard]] T update_chain(const Context& c, T seed, const T* a,
                             std::ptrdiff_t sa, const T* b, std::ptrdiff_t sb,
                             std::size_t n, bool subtract) {
  if constexpr (simd::ops<T>::supported) {
    if (use_simd<T>(c, n))
      return simd::ops<T>::table(*simd::active_tables())
          .update_chain(seed, a, sa, b, sb, n, subtract);
  }
  if constexpr (batched::ops<T>::supported) {
    if (use_batched<T>(c, n))
      return batched::ops<T>::update_chain(seed, a, sa, b, sb, n, subtract);
  }
  T t = seed;
  for (std::size_t i = 0; i < n; ++i) {
    const T m = a[static_cast<std::ptrdiff_t>(i) * sa] *
                b[static_cast<std::ptrdiff_t>(i) * sb];
    if (subtract)
      t -= m;
    else
      t += m;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Blocked-factorization panel updates
// ---------------------------------------------------------------------------

namespace detail {

/// Scalar core shared by gemm_update/syrk_update: for each row r in [r0, r1)
/// and column c in [tri ? max(c0, r) : c0, c1) run the per-element chain
///   C[r*ldc + c] = chain(C[r*ldc + c] ∓ a_rows[r][i] * b_cols[c][i])
/// with slice r at a_rows + (r-r0)*lda and slice c at b_cols + (c-c0)*ldb.
/// Four columns are kept in flight for ILP; the chains are independent, so
/// interleaving them never reassociates a chain — every element's rounding
/// sequence is exactly the scalar update_chain's.
template <class T>
void panel_update_scalar(T* C, std::size_t ldc, int r0, int r1, int c0,
                         int c1, bool tri, const T* a_rows, std::size_t lda,
                         const T* b_cols, std::size_t ldb, std::size_t k,
                         bool subtract) {
  for (int r = r0; r < r1; ++r) {
    const T* a = a_rows + static_cast<std::size_t>(r - r0) * lda;
    T* crow = C + static_cast<std::size_t>(r) * ldc;
    const int cs = tri && r > c0 ? r : c0;
    int c = cs;
    for (; c + 4 <= c1; c += 4) {
      const T* b0 = b_cols + static_cast<std::size_t>(c - c0) * ldb;
      const T* b1 = b0 + ldb;
      const T* b2 = b1 + ldb;
      const T* b3 = b2 + ldb;
      T t0 = crow[c], t1 = crow[c + 1], t2 = crow[c + 2], t3 = crow[c + 3];
      if (subtract) {
        for (std::size_t i = 0; i < k; ++i) {
          const T ai = a[i];
          t0 -= ai * b0[i];
          t1 -= ai * b1[i];
          t2 -= ai * b2[i];
          t3 -= ai * b3[i];
        }
      } else {
        for (std::size_t i = 0; i < k; ++i) {
          const T ai = a[i];
          t0 += ai * b0[i];
          t1 += ai * b1[i];
          t2 += ai * b2[i];
          t3 += ai * b3[i];
        }
      }
      crow[c] = t0;
      crow[c + 1] = t1;
      crow[c + 2] = t2;
      crow[c + 3] = t3;
    }
    for (; c < c1; ++c) {
      const T* b = b_cols + static_cast<std::size_t>(c - c0) * ldb;
      T t = crow[c];
      if (subtract) {
        for (std::size_t i = 0; i < k; ++i) t -= a[i] * b[i];
      } else {
        for (std::size_t i = 0; i < k; ++i) t += a[i] * b[i];
      }
      crow[c] = t;
    }
  }
}

template <class T>
void panel_update(const Context& c, T* C, std::size_t ldc, int r0, int r1,
                  int c0, int c1, bool tri, const T* a_rows, std::size_t lda,
                  const T* b_cols, std::size_t ldb, std::size_t k,
                  bool subtract) {
  if (r1 <= r0 || c1 <= c0 || k == 0) return;
  if constexpr (simd::ops<T>::supported) {
    if (use_simd<T>(c, k)) {
      const auto& tbl = simd::ops<T>::table(*simd::active_tables());
      for (int r = r0; r < r1; ++r) {
        const T* a = a_rows + static_cast<std::size_t>(r - r0) * lda;
        T* crow = C + static_cast<std::size_t>(r) * ldc;
        const int cs = tri && r > c0 ? r : c0;
        for (int cc = cs; cc < c1; ++cc)
          crow[cc] = tbl.update_chain(
              crow[cc], a, 1, b_cols + static_cast<std::size_t>(cc - c0) * ldb,
              1, k, subtract);
      }
      return;
    }
  }
  if constexpr (batched::ops<T>::supported) {
    if (use_batched<T>(c, k)) {
      batched::ops<T>::panel_update(C, ldc, r0, r1, c0, c1, tri, a_rows, lda,
                                    b_cols, ldb, k, subtract);
      return;
    }
  }
  panel_update_scalar(C, ldc, r0, r1, c0, c1, tri, a_rows, lda, b_cols, ldb,
                      k, subtract);
}

}  // namespace detail

/// Rectangular trailing-submatrix update for blocked LU: every element
/// (r, c) with r in [r0, r1), c in [c0, c1) runs its own multiply-subtract
/// chain over k packed panel terms (slice layout in panel_update_scalar's
/// doc).  All three backend legs are pinned bit-identical to the scalar
/// chain; the kernel itself is serial — callers tile the row range through
/// pstab::parallel_tiles for the deterministic parallel path.
template <class T>
void gemm_update(const Context& c, T* C, std::size_t ldc, int r0, int r1,
                 int c0, int c1, const T* a_rows, std::size_t lda,
                 const T* b_cols, std::size_t ldb, std::size_t k,
                 bool subtract) {
  detail::panel_update(c, C, ldc, r0, r1, c0, c1, /*tri=*/false, a_rows, lda,
                       b_cols, ldb, k, subtract);
}

/// Triangular (upper) variant for blocked Cholesky: column start is
/// max(c0, r), so only the upper trailing triangle is touched.
template <class T>
void syrk_update(const Context& c, T* C, std::size_t ldc, int r0, int r1,
                 int c0, int c1, const T* a_rows, std::size_t lda,
                 const T* b_cols, std::size_t ldb, std::size_t k,
                 bool subtract) {
  detail::panel_update(c, C, ldc, r0, r1, c0, c1, /*tri=*/true, a_rows, lda,
                       b_cols, ldb, k, subtract);
}

// ---------------------------------------------------------------------------
// BLAS-2
// ---------------------------------------------------------------------------

/// y = A * x for dense row-major A, row-partitioned over fixed tiles when
/// the matrix is large enough to pay for the fork-join.
template <class T>
void gemv(const Context& c, const Dense<T>& A, const Vec<T>& x, Vec<T>& y) {
  const int rows = A.rows();
  const int cols = A.cols();
  const bool par = static_cast<std::size_t>(rows) *
                       static_cast<std::size_t>(cols) >=
                   kParMinDenseWork;
  if constexpr (simd::ops<T>::supported) {
    if (use_simd<T>(c, x.size())) {
      y.assign(static_cast<std::size_t>(rows), scalar_traits<T>::zero());
      const auto& tbl = simd::ops<T>::table(*simd::active_tables());
      const T* a = A.data().data();
      if (par) {
        pstab::parallel_tiles(
            static_cast<std::size_t>(rows),
            static_cast<std::size_t>(kDenseRowTile),
            [&](std::size_t lo, std::size_t hi) {
              tbl.gemv(a + lo * static_cast<std::size_t>(cols),
                       static_cast<int>(hi - lo), cols, x.data(),
                       y.data() + lo);
            });
      } else {
        tbl.gemv(a, rows, cols, x.data(), y.data());
      }
      return;
    }
  }
  if constexpr (batched::ops<T>::supported) {
    if (use_batched<T>(c, x.size())) {
      y.assign(static_cast<std::size_t>(rows), scalar_traits<T>::zero());
      typename batched::ops<T>::XPlane px;
      batched::ops<T>::decode_x(x.data(), x.size(), px);
      const T* a = A.data().data();
      if (par) {
        pstab::parallel_tiles(
            static_cast<std::size_t>(rows),
            static_cast<std::size_t>(kDenseRowTile),
            [&](std::size_t lo, std::size_t hi) {
              batched::ops<T>::gemv_range(a, cols, px, y.data(),
                                          static_cast<int>(lo),
                                          static_cast<int>(hi));
            });
      } else {
        batched::ops<T>::gemv_range(a, cols, px, y.data(), 0, rows);
      }
      return;
    }
  }
  A.gemv(x, y);
}

/// y = A * x for CSR A: the x plane is decoded once and shared across the
/// row tiles.  The vector leg runs one row per lane over A.sell(); the tiles
/// are multiples of its chunk height, so every tile owns whole chunks.
template <class T>
void spmv(const Context& c, const Csr<T>& A, const Vec<T>& x, Vec<T>& y) {
  static_assert(kSparseRowTile % simd::SellPlane::kC == 0);
  if constexpr (simd::ops<T>::lane_spmv) {
    if (use_simd<T>(c, x.size())) {
      const int rows = A.rows();
      y.assign(static_cast<std::size_t>(rows), scalar_traits<T>::zero());
      const auto& tbl = simd::ops<T>::table(*simd::active_tables());
      std::vector<double> xd(x.size());
      tbl.decode_f64(x.data(), x.size(), xd.data());
      const auto run = [&](std::size_t lo, std::size_t hi) {
        tbl.spmv(A.sell(), xd.data(), y.data(), static_cast<int>(lo),
                 static_cast<int>(hi));
      };
      if (rows >= kParMinSparseRows)
        pstab::parallel_tiles(static_cast<std::size_t>(rows),
                              static_cast<std::size_t>(kSparseRowTile), run);
      else
        run(0, static_cast<std::size_t>(rows));
      return;
    }
  }
  if constexpr (batched::ops<T>::supported) {
    if (use_batched<T>(c, x.size())) {
      const int rows = A.rows();
      y.assign(static_cast<std::size_t>(rows), scalar_traits<T>::zero());
      typename batched::ops<T>::XPlane px;
      batched::ops<T>::decode_x(x.data(), x.size(), px);
      const auto run = [&](std::size_t lo, std::size_t hi) {
        batched::ops<T>::spmv_range(A.values().data(), A.col_idx().data(),
                                    A.row_ptr().data(), px, y.data(),
                                    static_cast<int>(lo),
                                    static_cast<int>(hi));
      };
      if (rows >= kParMinSparseRows)
        pstab::parallel_tiles(static_cast<std::size_t>(rows),
                              static_cast<std::size_t>(kSparseRowTile), run);
      else
        run(0, static_cast<std::size_t>(rows));
      return;
    }
  }
  A.spmv(x, y);
}

/// y = A * x for any operator: routes Csr/Dense through the backend kernels
/// and falls back to the operator's own spmv/gemv member otherwise.
template <class Op, class T>
void apply(const Context& c, const Op& A, const Vec<T>& x, Vec<T>& y) {
  if constexpr (std::is_same_v<Op, Csr<T>>) {
    spmv(c, A, x, y);
  } else if constexpr (std::is_same_v<Op, Dense<T>>) {
    gemv(c, A, x, y);
  } else if constexpr (requires { A.spmv(x, y); }) {
    A.spmv(x, y);
  } else {
    A.gemv(x, y);
  }
}

// ---------------------------------------------------------------------------
// Monitors and conversions (always double; backend-independent)
// ---------------------------------------------------------------------------

/// Reference 2-norm in double regardless of T (for monitoring only).
template <class T>
[[nodiscard]] double nrm2_d(const Vec<T>& x) {
  double s = 0;
  for (const auto& v : x) {
    const double d = scalar_traits<T>::to_double(v);
    s += d * d;
  }
  return std::sqrt(s);
}

template <class T>
[[nodiscard]] double norm_inf_d(const Vec<T>& x) {
  double m = 0;
  for (const auto& v : x) {
    const double d = std::fabs(scalar_traits<T>::to_double(v));
    if (d > m) m = d;
  }
  return m;
}

/// True when every element can still participate in arithmetic.
template <class T>
[[nodiscard]] bool all_finite(const Vec<T>& x) {
  for (const auto& v : x)
    if (!scalar_traits<T>::finite(v)) return false;
  return true;
}

/// Elementwise conversion from double with overflow clamped to the largest
/// finite value of T (the paper's rule when loading a matrix into a 16-bit
/// format: "if an entry is larger than the maximum representable value we
/// round down to this value").
template <class T>
[[nodiscard]] Vec<T> from_double_clamped(const Vec<double>& x) {
  using st = scalar_traits<T>;
  const double tmax = st::to_double(st::max());
  Vec<T> r(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    double d = x[i];
    if (d > tmax) d = tmax;
    if (d < -tmax) d = -tmax;
    r[i] = st::from_double(d);
  }
  return r;
}

template <class T>
[[nodiscard]] Vec<double> to_double_vec(const Vec<T>& x) {
  Vec<double> r(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    r[i] = scalar_traits<T>::to_double(x[i]);
  return r;
}

template <class T>
[[nodiscard]] Vec<T> from_double_vec(const Vec<double>& x) {
  Vec<T> r(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    r[i] = scalar_traits<T>::from_double(x[i]);
  return r;
}

}  // namespace kernels
}  // namespace pstab::la
