// Column profile (envelope) of an upper triangle, and the row extents of a
// dense matrix: the bounds that let the Cholesky-side loops (factorization,
// triangular solves, backward error, refinement residual) skip the region
// that is structurally +0.  docs/solvers.md ("Profile-bounded Cholesky") has
// the exactness argument; in short, every skipped term is a ±0 product of
// finite values, and subtracting it leaves the running value unchanged
// unless that value is −0, so the bounds are applied only where the running
// value at the cut is known not to be −0.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/telemetry/telemetry.hpp"
#include "la/dense.hpp"

namespace pstab::la {

/// profile[j] = the first row i <= j whose entry (i, j) of an upper triangle
/// is not bitwise +0 (j when there is none).  A profile of all zeros is the
/// full triangle: every chain runs its whole length.
using Profile = std::vector<int>;

namespace detail {
inline std::atomic<bool>& profile_bounds_state() {
  static std::atomic<bool> on{true};
  return on;
}
}  // namespace detail

/// Whether the Cholesky-side loops may use profile bounds.  False while
/// telemetry is recording (counter totals stay those of the full loops) or
/// after set_profile_bounds(false), which tests use to run the same code
/// with full-triangle bounds as the bit-for-bit reference.
[[nodiscard]] inline bool profile_bounds() noexcept {
  return detail::profile_bounds_state().load(std::memory_order_relaxed) &&
         !telemetry::active();
}
inline void set_profile_bounds(bool on) noexcept {
  detail::profile_bounds_state().store(on, std::memory_order_relaxed);
}

/// True when x is the bit pattern of +0 (posit zero, IEEE +0).
template <class T>
[[nodiscard]] inline bool bitwise_pos_zero(const T& x) noexcept {
  if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<std::uint64_t>(x) == 0;
  } else if constexpr (std::is_same_v<T, float>) {
    return std::bit_cast<std::uint32_t>(x) == 0;
  } else {
    return x.bits() == 0;  // Posit, SoftFloat
  }
}

/// True when x is an IEEE −0 (never for posits, which have one zero).
template <class T>
[[nodiscard]] inline bool is_neg_zero(const T& x) noexcept {
  if (bitwise_pos_zero(x)) return false;
  return scalar_traits<T>::to_double(x) == 0.0;
}

[[nodiscard]] inline Profile full_profile(int n) {
  return Profile(std::size_t(n > 0 ? n : 0), 0);
}

/// The envelope of M's upper triangle (bitwise +0 test, nothing else).
/// One row-major pass, so the scan reads memory in order.
template <class T>
[[nodiscard]] Profile upper_profile(const Dense<T>& M) {
  const int n = M.rows();
  Profile p(std::size_t(n > 0 ? n : 0));
  for (int j = 0; j < n; ++j) p[std::size_t(j)] = j;  // j = not yet seen
  for (int i = 0; i < n; ++i) {
    const T* row = &M(i, 0);
    for (int j = i + 1; j < n; ++j)
      if (p[std::size_t(j)] == j && !bitwise_pos_zero(row[j]))
        p[std::size_t(j)] = i;
  }
  return p;
}

/// The profile a Cholesky factorization of A may bound its chains by.
///  * The full triangle when a fault observer is installed (an injected flip
///    can create entries outside A's envelope) or !profile_bounds().
///  * Otherwise A's envelope, except that an IEEE −0 at (i, j) resets
///    profile[i] and profile[j] to 0: that chain's seed is −0, and
///    −0 − (−0) = +0, so it runs its full length.  Posits have one zero
///    (their only non-finite value is NaR), so they skip that pass.
template <class T>
[[nodiscard]] Profile factor_profile(const Dense<T>& A, bool fault_observed) {
  const int n = A.rows();
  if (fault_observed || !profile_bounds()) return full_profile(n);
  Profile p = upper_profile(A);
  if constexpr (!requires(const T& x) { x.is_nar(); }) {
    for (int i = 0; i < n; ++i) {
      const T* row = &A(i, 0);
      for (int j = i + 1; j < n; ++j)
        if (is_neg_zero(row[j])) {
          p[std::size_t(i)] = 0;
          p[std::size_t(j)] = 0;
        }
    }
  }
  return p;
}

/// Row extents of an upper factor with column profile `p`:
/// ext[i] = 1 + the last column j >= i with p[j] <= i.  Row i of the factor
/// is +0 beyond it (R(i, j) = +0 whenever i < p[j]).
[[nodiscard]] inline std::vector<int> profile_row_ends(const Profile& p) {
  const int n = int(p.size());
  std::vector<int> last(p.size(), -1);
  for (int j = 0; j < n; ++j) {
    int& l = last[std::size_t(p[std::size_t(j)])];
    if (j > l) l = j;
  }
  std::vector<int> ext(p.size());
  int run = -1;
  for (int i = 0; i < n; ++i) {
    if (last[std::size_t(i)] > run) run = last[std::size_t(i)];
    ext[std::size_t(i)] = run + 1;  // p[i] <= i, so run >= i
  }
  return ext;
}

/// Half-open column range [lo, hi) of each row of A outside which the row is
/// bitwise +0 (lo = hi = 0 for an all-+0 row; the full row when
/// !profile_bounds()).
struct RowExtents {
  std::vector<int> lo, hi;
};

template <class T>
[[nodiscard]] RowExtents row_extents(const Dense<T>& A) {
  const int n = A.rows(), m = A.cols();
  RowExtents e;
  e.lo.assign(std::size_t(n > 0 ? n : 0), 0);
  e.hi.assign(std::size_t(n > 0 ? n : 0), m);
  if (!profile_bounds()) return e;
  for (int i = 0; i < n; ++i) {
    int hi = m;
    while (hi > 0 && bitwise_pos_zero(A(i, hi - 1))) --hi;
    int lo = 0;
    while (lo < hi && bitwise_pos_zero(A(i, lo))) ++lo;
    e.lo[std::size_t(i)] = lo;
    e.hi[std::size_t(i)] = hi;
  }
  return e;
}

/// r = b - A*x in double over each row's extent.  Bit-identical to
/// la::residual: each row sum starts at +0 and adds products in ascending
/// column order; the skipped products are ±0 (x finite), adding ±0 to +0
/// gives +0, and a double sum that starts at +0 never becomes −0, so the
/// trailing ±0 terms leave it unchanged too.  A non-finite x (0·Inf = NaN)
/// takes the full rows.
[[nodiscard]] inline Vec<double> residual(const Dense<double>& A,
                                          const Vec<double>& b,
                                          const Vec<double>& x,
                                          const RowExtents& ext) {
  if (!kernels::all_finite(x)) return residual(A, b, x);
  const int n = A.rows();
  Vec<double> r(b.size());
  for (int i = 0; i < n; ++i) {
    const double* row = &A(i, 0);
    double s = 0;
    for (int j = ext.lo[std::size_t(i)]; j < ext.hi[std::size_t(i)]; ++j)
      s += row[j] * x[std::size_t(j)];
    r[std::size_t(i)] = b[std::size_t(i)] - s;
  }
  return r;
}

}  // namespace pstab::la
