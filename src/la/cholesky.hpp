// Cholesky factorization A = R^T R (R upper triangular) and triangular
// solves, templated over the scalar format.  This is the paper's direct
// solver (Algorithm 2's factorization step): chosen over LU because it needs
// no pivoting on the symmetric positive definite test matrices.
//
// Every inner product rounds after each operation in the target format.
//
// Two schedules produce the same bits (la/blocked.hpp has the argument):
//  - cholesky_unblocked: the paper-scale up-looking reference loops.
//  - cholesky_blocked: panels of `block` columns factored with the same
//    chains (panel-local prefix only), then one kernels::syrk_update applies
//    the panel's rank-`block` terms to the trailing submatrix through the
//    selected backend.  This is how n scales to 10^4..10^5: the trailing
//    chains run over packed unit-stride panel slices and row tiles fan out
//    across threads deterministically.
// cholesky() dispatches on Context::block (0 = auto).
//
// Both schedules, the triangular solves and the backward error are bounded
// by the column profile of the matrix (la/profile.hpp): a chain never runs
// the leading terms whose R entries are structurally +0, and a factor row
// never visits the columns it cannot reach.  The bytes are those of the full
// loops (docs/solvers.md, "Profile-bounded Cholesky").
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>

#include "common/parallel_for.hpp"
#include "common/rng.hpp"
#include "core/budget.hpp"
#include "core/telemetry/trace.hpp"
#include "la/blocked.hpp"
#include "la/dense.hpp"
#include "la/fault.hpp"
#include "la/profile.hpp"
#include "la/solve_report.hpp"

namespace pstab::la {

// CholStatus is la::SolveStatus (solve_report.hpp); Cholesky uses `ok`
// (= converged), `not_positive_definite` (a pivot was <= 0) and
// `arithmetic_error` (NaR / NaN / inf mid-factorization).

template <class T>
struct CholResult : SolveReport {
  int failed_column = -1;
  double shift_used = 0.0;  // diagonal shift of the accepted attempt
                            // (cholesky_resilient; 0 = unshifted)
  Dense<T> R;  // upper triangular factor (valid when status == ok)
  /// Column profile of the factored upper triangle (factor_profile): R is
  /// +0 above it, so solves with this factor may bound their chains by it.
  Profile profile;

  CholResult() { status = CholStatus::ok; }
};

/// Up-looking Cholesky in format T.  Pass a Trace to time the factorization
/// phase ("factor").  The multiply-subtract chains run through
/// kernels::update_chain, so `kc` selects the (bit-identical) backend.
/// An installed fault observer is clocked once per column and offered the
/// pivot chain result and the freshly computed factor row (outside the
/// parallel region, so injection stays deterministic under PSTAB_THREADS).
/// Long row sweeps fan out over fixed index-owned tiles: each R(k,j) is an
/// independent chain, so the bytes never depend on PSTAB_THREADS.
template <class T>
[[nodiscard]] CholResult<T> cholesky_unblocked(
    const Dense<T>& A, telemetry::Trace* trace = nullptr,
    const kernels::Context& kc = {}, fault::Observer* fault = nullptr,
    core::Budget* budget = nullptr) {
  using st = scalar_traits<T>;
  const int n = A.rows();
  CholResult<T> res;
  telemetry::TraceSpan span(trace, "factor");
  res.R = Dense<T>(n, n);
  res.profile = factor_profile(A, fault != nullptr);
  const int* pf = res.profile.data();
  const std::vector<int> row_end = profile_row_ends(res.profile);
  Dense<T>& R = res.R;
  const T* rd = R.data().data();  // column i of R: rd + i, stride n
  for (int k = 0; k < n; ++k) {
    // One budget tick per column — the factorization's deterministic work
    // unit (matches the fault observer's clock below).
    if (!core::budget_tick(budget)) {
      res.status = CholStatus::deadline_exceeded;
      res.failed_column = k;
      return res;
    }
    fault::on_iteration(fault, k);
    // Diagonal pivot: A(k,k) - sum_{i<k} R(i,k)^2; R(i,k) = +0 for i < pk.
    const int pk = pf[k];
    T s = kernels::update_chain(kc, A(k, k), rd + std::size_t(pk) * n + k, n,
                                rd + std::size_t(pk) * n + k, n,
                                std::size_t(k - pk), /*subtract=*/true);
    fault::touch_scalar(fault, fault::Site::dot_result, s);
    if (!st::finite(s)) {
      res.status = CholStatus::arithmetic_error;
      res.failed_column = k;
      return res;
    }
    if (!(st::to_double(s) > 0.0)) {
      res.status = CholStatus::not_positive_definite;
      res.failed_column = k;
      return res;
    }
    const T rkk = st::sqrt(s);
    R(k, k) = rkk;
    // Off-diagonal row of R: R(k,j) = (A(k,j) - sum_{i<k} R(i,k) R(i,j)) / rkk
    // for j < row_end[k]; beyond it R(k,j) stays +0.
    const int je = row_end[std::size_t(k)];
    const std::size_t span_j = std::size_t(je - k - 1);
    const auto row_sweep = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t q = lo; q < hi; ++q) {
        const int j = k + 1 + int(q);
        const int i0 = pk > pf[j] ? pk : pf[j];
        const T t = kernels::update_chain(
            kc, A(k, j), rd + std::size_t(i0) * n + k, n,
            rd + std::size_t(i0) * n + j, n,
            std::size_t(i0 < k ? k - i0 : 0), /*subtract=*/true);
        R(k, j) = t / rkk;
      }
    };
    if (span_j >= blocked::kParMinPanelSpan)
      pstab::parallel_tiles(span_j, blocked::kPanelTile, row_sweep);
    else
      row_sweep(0, span_j);
    if (k + 1 < n)
      fault::touch_range(fault, fault::Site::vector_entry, &R(k, k + 1),
                         std::size_t(n - k - 1));
    for (int j = k + 1; j < je; ++j) {
      if (!st::finite(R(k, j))) {
        res.status = CholStatus::arithmetic_error;
        res.failed_column = k;
        return res;
      }
    }
  }
  return res;
}

/// Right-looking blocked Cholesky: bit-identical to cholesky_unblocked for
/// every format and backend (see la/blocked.hpp for why), but with the bulk
/// of the flops in kernels::syrk_update over packed panels.
///
/// Schedule per panel [p, pe):
///   for each column k in the panel:
///     - pivot chain: seed W(k,k) (already carries terms i < p from earlier
///       trailing updates), subtract the panel-local prefix i in [p, k);
///     - the FULL row k (all j > k, trailing columns included) with the same
///       panel-local prefix — so row k is final at step k, and the fault
///       hooks and finite checks fire on exactly the values the unblocked
///       loop sees, in the same order.
///   then one trailing update: W(i,j) -= sum_{m in [p,pe)} R(m,i) R(m,j)
///   for i,j >= pe, row-tiled over threads.
/// Profile bounds: a chain starts at max(p, profile[i], profile[j]), row k
/// stops at row_end[k], and the trailing update covers only [pe, e) with
/// e = row_end[pe - 1] (every later column is +0 in rows [p, pe)).  Each
/// trailing row starts its chains at its own profile, so columns with a
/// later profile run a few extra ±0 terms from an unchanged seed.
/// On failure the returned status / failed_column match the unblocked path;
/// R's trailing contents are unspecified (partially updated), as they are
/// for any failed factorization.
template <class T>
[[nodiscard]] CholResult<T> cholesky_blocked(const Dense<T>& A,
                                             telemetry::Trace* trace,
                                             const kernels::Context& kc,
                                             fault::Observer* fault,
                                             int block,
                                             core::Budget* budget = nullptr) {
  using st = scalar_traits<T>;
  const int n = A.rows();
  const int nb = block > 0 ? (block < n ? block : n) : blocked::pick_block(n);
  CholResult<T> res;
  telemetry::TraceSpan span(trace, "factor");
  res.R = Dense<T>(n, n);
  res.profile = factor_profile(A, fault != nullptr);
  const int* pf = res.profile.data();
  const std::vector<int> row_end = profile_row_ends(res.profile);
  Dense<T>& R = res.R;
  // W lives in R's upper triangle: seed with A, accumulate trailing updates
  // in place, overwrite with factor rows as each column finalizes.
  for (int i = 0; i < n; ++i)
    for (int j = i; j < n; ++j) R(i, j) = A(i, j);
  T* rd = R.data().data();
  std::vector<T> panel;  // packed panel slices: slice j (j >= pe) holds
                         // R(p .. pe-1, j) contiguously
  for (int p = 0; p < n; p += nb) {
    const int pe = p + nb < n ? p + nb : n;
    const int w = pe - p;
    for (int k = p; k < pe; ++k) {
      // Same per-column tick as the unblocked loop: both schedules spend
      // identical ticks, so the deadline trips at the same column either way.
      if (!core::budget_tick(budget)) {
        res.status = CholStatus::deadline_exceeded;
        res.failed_column = k;
        return res;
      }
      fault::on_iteration(fault, k);
      // Panel-local prefix of the pivot chain (terms i < p were applied by
      // earlier trailing updates and live in the seed).
      const int pk = pf[k] > p ? pf[k] : p;
      T s = kernels::update_chain(kc, R(k, k), rd + std::size_t(pk) * n + k,
                                  n, rd + std::size_t(pk) * n + k, n,
                                  std::size_t(k - pk), /*subtract=*/true);
      fault::touch_scalar(fault, fault::Site::dot_result, s);
      if (!st::finite(s)) {
        res.status = CholStatus::arithmetic_error;
        res.failed_column = k;
        return res;
      }
      if (!(st::to_double(s) > 0.0)) {
        res.status = CholStatus::not_positive_definite;
        res.failed_column = k;
        return res;
      }
      const T rkk = st::sqrt(s);
      R(k, k) = rkk;
      const int je = row_end[std::size_t(k)];
      const std::size_t span_j = std::size_t(je - k - 1);
      const auto row_sweep = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t q = lo; q < hi; ++q) {
          const int j = k + 1 + int(q);
          const int i0 = pk > pf[j] ? pk : pf[j];
          const T t = kernels::update_chain(
              kc, R(k, j), rd + std::size_t(i0) * n + k, n,
              rd + std::size_t(i0) * n + j, n,
              std::size_t(i0 < k ? k - i0 : 0), /*subtract=*/true);
          R(k, j) = t / rkk;
        }
      };
      if (span_j >= blocked::kParMinPanelSpan)
        pstab::parallel_tiles(span_j, blocked::kPanelTile, row_sweep);
      else
        row_sweep(0, span_j);
      if (k + 1 < n)
        fault::touch_range(fault, fault::Site::vector_entry, &R(k, k + 1),
                           std::size_t(n - k - 1));
      for (int j = k + 1; j < je; ++j) {
        if (!st::finite(R(k, j))) {
          res.status = CholStatus::arithmetic_error;
          res.failed_column = k;
          return res;
        }
      }
    }
    const int e = row_end[std::size_t(pe - 1)];  // trailing extent
    if (pe < e) {
      const std::size_t m = std::size_t(e - pe);  // trailing order
      panel.assign(m * w, st::zero());
      const auto pack = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t q = lo; q < hi; ++q) {
          T* dst = panel.data() + q * w;
          const int j = pe + int(q);
          for (int i = 0; i < w; ++i) dst[i] = R(p + i, j);
        }
      };
      if (m >= blocked::kParMinPanelSpan)
        pstab::parallel_tiles(m, blocked::kPanelTile, pack);
      else
        pack(0, m);
      // Trailing update, symmetric: a-slice for row r and b-slice for column
      // c are the same packed panel column, so one buffer serves both sides.
      // Consecutive rows with the same chain start share one kernel call
      // (a full profile is one call per tile).
      const auto trail = [&](std::size_t lo, std::size_t hi) {
        const auto start = [&](int r) {
          const int o = pf[r] - p;
          return o < 0 ? 0 : (o > w ? w : o);
        };
        for (int r = pe + int(lo), rhi = pe + int(hi); r < rhi;) {
          const int o = start(r);
          int r1 = r + 1;
          while (r1 < rhi && start(r1) == o) ++r1;
          if (o < w)
            kernels::syrk_update(
                kc, rd, std::size_t(n), r, r1, pe, e,
                panel.data() + std::size_t(r - pe) * w + o, std::size_t(w),
                panel.data() + o, std::size_t(w), std::size_t(w - o),
                /*subtract=*/true);
          r = r1;
        }
      };
      if (m >= blocked::kParMinTrailRows)
        pstab::parallel_tiles(m, blocked::kTrailTile, trail);
      else
        trail(0, m);
    }
  }
  return res;
}

/// Cholesky entry point: dispatches on kc.block (0 = auto, picks the blocked
/// schedule above blocked::kAutoMinN; >= 1 forces that panel width, a width
/// >= n or a small matrix runs the unblocked reference loops).  Both
/// schedules are bit-identical, so callers never observe the dispatch.
template <class T>
[[nodiscard]] CholResult<T> cholesky(const Dense<T>& A,
                                     telemetry::Trace* trace = nullptr,
                                     const kernels::Context& kc = {},
                                     fault::Observer* fault = nullptr,
                                     core::Budget* budget = nullptr) {
  const int nb = blocked::effective_block(kc, A.rows());
  if (nb > 0) return cholesky_blocked(A, trace, kc, fault, nb, budget);
  return cholesky_unblocked(A, trace, kc, fault, budget);
}

/// Cholesky with the diagonal-shift retry ladder (ResilientOptions).  The
/// first attempt is the plain factorization; when recovery is off (or the
/// first attempt succeeds) the result is bit-identical to cholesky().  On
/// failure, retry with A + shift*I, the shift starting at
/// shift0_rel * mean|diag(A)| and multiplying by shift_growth per rung, at
/// most max_shifts attempts.  Every failed rung is recorded as a "shift"
/// RecoveryEvent (iteration = the failed column, value = the shift that
/// failed); on success `shift_used` holds the accepted shift.
template <class T>
[[nodiscard]] CholResult<T> cholesky_resilient(
    const Dense<T>& A, const ResilientOptions& res,
    telemetry::Trace* trace = nullptr, const kernels::Context& kc = {},
    fault::Observer* fault = nullptr, core::Budget* budget = nullptr) {
  using st = scalar_traits<T>;
  CholResult<T> out = cholesky(A, trace, kc, fault, budget);
  // An exhausted budget is terminal: the shift ladder would just burn the
  // same (already-spent) allowance again, so report the partial result.
  if (out.status == CholStatus::ok ||
      out.status == CholStatus::deadline_exceeded || !res.enabled)
    return out;

  const int n = A.rows();
  double mean_diag = 0.0;
  for (int i = 0; i < n; ++i) mean_diag += std::abs(st::to_double(A(i, i)));
  mean_diag = n > 0 ? mean_diag / n : 0.0;
  if (!std::isfinite(mean_diag) || !(mean_diag > 0.0)) mean_diag = 1.0;

  std::vector<RecoveryEvent> events;
  events.push_back({out.failed_column, "shift", 0.0});  // the unshifted try
  double shift = res.shift0_rel * mean_diag;
  Dense<T> As = A;
  for (int attempt = 0; attempt < res.max_shifts;
       ++attempt, shift *= res.shift_growth) {
    const T sh = st::from_double(shift);
    for (int i = 0; i < n; ++i) As(i, i) = A(i, i) + sh;
    // The budget's tick counter persists across rungs, so the whole ladder
    // shares one allowance; a rung that trips the deadline ends the ladder.
    CholResult<T> r = cholesky(As, trace, kc, fault, budget);
    if (r.status == CholStatus::ok) {
      r.shift_used = shift;
      r.recovery = std::move(events);
      return r;
    }
    if (r.status == CholStatus::deadline_exceeded) {
      r.recovery = std::move(events);
      return r;
    }
    events.push_back({r.failed_column, "shift", shift});
    out = std::move(r);
  }
  out.recovery = std::move(events);  // exhausted the ladder; report the trail
  return out;
}

namespace detail {

/// Forward substitution R^T y = b with each chain starting at prof[i]
/// (nullptr = 0): R(j,i) = +0 for j < prof[i], so the skipped terms are ±0
/// products while y is finite.  A −0 seed runs the full chain.
template <class T>
[[nodiscard]] Vec<T> lower_rt_pass(const Dense<T>& R, const Vec<T>& b,
                                   const kernels::Context& kc,
                                   const int* prof) {
  const int n = R.rows();
  const T* rd = R.data().data();
  Vec<T> y(n);
  for (int i = 0; i < n; ++i) {
    // s = b[i] - sum_{j<i} R(j,i) y[j]
    const int lo = prof && !is_neg_zero(b[i]) ? prof[i] : 0;
    const T s = kernels::update_chain(kc, b[i], rd + std::size_t(lo) * n + i,
                                      n, y.data() + lo, 1, std::size_t(i - lo),
                                      /*subtract=*/true);
    y[i] = s / R(i, i);
  }
  return y;
}

/// Backward substitution R x = y with row i's chain stopping at
/// row_end[i] (nullptr = n): the skipped tail is ±0 products while x is
/// finite, which leave the running value unchanged unless it is −0 — then
/// the tail is run after all.
template <class T>
[[nodiscard]] Vec<T> upper_pass(const Dense<T>& R, const Vec<T>& y,
                                const kernels::Context& kc,
                                const int* row_end) {
  const int n = R.rows();
  const T* rd = R.data().data();
  Vec<T> x(n);
  for (int i = n - 1; i >= 0; --i) {
    // s = y[i] - sum_{j>i} R(i,j) x[j]
    const T* row = rd + std::size_t(i) * n;
    const int hi = row_end ? row_end[i] : n;
    T s = kernels::update_chain(kc, y[i], row + (i + 1), 1, x.data() + (i + 1),
                                1, std::size_t(hi - 1 - i), /*subtract=*/true);
    if (hi < n && is_neg_zero(s))
      s = kernels::update_chain(kc, s, row + hi, 1, x.data() + hi, 1,
                                std::size_t(n - hi), /*subtract=*/true);
    x[i] = s / R(i, i);
  }
  return x;
}

}  // namespace detail

/// Solve R^T y = b (forward substitution; R upper triangular) with the
/// chains bounded by `prof`, R's column profile (CholResult::profile; empty
/// = full).  A result holding a non-finite entry is recomputed with full
/// chains (0 * Inf = NaN); !profile_bounds() uses full chains.
template <class T>
[[nodiscard]] Vec<T> solve_lower_rt(const Dense<T>& R, const Vec<T>& b,
                                    const kernels::Context& kc,
                                    const Profile& prof) {
  if (!prof.empty() && profile_bounds()) {
    Vec<T> y = detail::lower_rt_pass(R, b, kc, prof.data());
    if (kernels::all_finite(y)) return y;
  }
  return detail::lower_rt_pass(R, b, kc, nullptr);
}

/// Solve R^T y = b, bounded by the profile of R itself.
template <class T>
[[nodiscard]] Vec<T> solve_lower_rt(const Dense<T>& R, const Vec<T>& b,
                                    const kernels::Context& kc = {}) {
  return solve_lower_rt(R, b, kc,
                        profile_bounds() ? upper_profile(R) : Profile{});
}

/// Solve R x = y (backward substitution; R upper triangular) with the
/// chains bounded by `prof` (same contract as solve_lower_rt).
template <class T>
[[nodiscard]] Vec<T> solve_upper(const Dense<T>& R, const Vec<T>& y,
                                 const kernels::Context& kc,
                                 const Profile& prof) {
  if (!prof.empty() && profile_bounds()) {
    Vec<T> x =
        detail::upper_pass(R, y, kc, profile_row_ends(prof).data());
    if (kernels::all_finite(x)) return x;
  }
  return detail::upper_pass(R, y, kc, nullptr);
}

/// Solve R x = y, bounded by the profile of R itself.
template <class T>
[[nodiscard]] Vec<T> solve_upper(const Dense<T>& R, const Vec<T>& y,
                                 const kernels::Context& kc = {}) {
  return solve_upper(R, y, kc,
                     profile_bounds() ? upper_profile(R) : Profile{});
}

/// Full direct solve of A x = b via Cholesky in format T.
template <class T>
[[nodiscard]] std::optional<Vec<T>> cholesky_solve(
    const Dense<T>& A, const Vec<T>& b, const kernels::Context& kc = {}) {
  auto f = cholesky(A, nullptr, kc);
  if (f.status != CholStatus::ok) return std::nullopt;
  return solve_upper(f.R, solve_lower_rt(f.R, b, kc, f.profile), kc,
                     f.profile);
}

/// How factorization_backward_error evaluates ||R^T R - A||_F / ||A||_F.
/// `exact` is the paper metric: the full O(n^3) double-precision sum, run
/// over fixed row tiles whose partials are combined in index order — the
/// result is one specific summation order, independent of PSTAB_THREADS.
/// `sampled` estimates the same ratio from `sample_pairs` deterministic
/// SplitMix64-drawn (i, j) cells: the ratio of the sampled mean of
/// (R^T R - A)_{ij}^2 to the sampled mean of A_{ij}^2 converges to the
/// squared Frobenius ratio.  O(sample_pairs * n) — this is what makes the
/// metric affordable on the large-n tier.  `auto_mode` picks exact up to
/// auto_exact_max_n and sampled beyond.
struct BerrOptions {
  enum class Mode { exact, sampled, auto_mode };
  Mode mode = Mode::exact;
  int sample_pairs = 4096;
  int auto_exact_max_n = 2048;
  std::uint64_t seed = 0x706f736974626572ull;  // any fixed value; replayable
};

/// Factorization backward error ||R^T R - A||_F / ||A||_F, evaluated in
/// double (paper Fig. 10(b) metric).  Deterministic for any PSTAB_THREADS.
/// Each (R^T R)_{ij} sum starts at k = max(profile[i], profile[j]) of R's own
/// profile: the skipped terms are ±0 products, and a double sum that starts
/// at +0 stays +0 through them.  A non-finite entry in R (0 * Inf = NaN) or
/// !profile_bounds() takes the full sums.
template <class T>
[[nodiscard]] double factorization_backward_error(
    const Dense<T>& A, const Dense<T>& R, const BerrOptions& opt) {
  using st = scalar_traits<T>;
  const int n = A.rows();
  if (n == 0) return 0.0;
  Profile prof = upper_profile(R);
  bool full = !profile_bounds();
  for (int i = 0; i < n && !full; ++i)
    for (int j = i; j < n; ++j)
      if (!st::finite(R(i, j))) {
        full = true;
        break;
      }
  if (full) prof = full_profile(n);
  const int* pf = prof.data();
  const bool sampled =
      opt.mode == BerrOptions::Mode::sampled ||
      (opt.mode == BerrOptions::Mode::auto_mode && n > opt.auto_exact_max_n);
  if (sampled) {
    const std::size_t m = std::size_t(opt.sample_pairs > 0
                                          ? opt.sample_pairs
                                          : 1);
    // One slot per sample: every sample's contribution lands at its own
    // index, and the final reduction walks the slots in ascending order —
    // the double sums round identically no matter how tiles map to threads.
    std::vector<double> nums(m, 0.0), dens(m, 0.0);
    const auto sample = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s) {
        SplitMix64 rng(splitmix_mix(opt.seed, s));
        const int i = int(rng.below(std::uint64_t(n)));
        const int j = int(rng.below(std::uint64_t(n)));
        double rtr = 0;
        const int kmax = i < j ? i : j;
        for (int k = pf[i] > pf[j] ? pf[i] : pf[j]; k <= kmax; ++k)
          rtr += st::to_double(R(k, i)) * st::to_double(R(k, j));
        const double a = st::to_double(A(i, j));
        nums[s] = (rtr - a) * (rtr - a);
        dens[s] = a * a;
      }
    };
    pstab::parallel_tiles(m, 256, sample);
    double num = 0, den = 0;
    for (std::size_t s = 0; s < m; ++s) {
      num += nums[s];
      den += dens[s];
    }
    return den > 0 ? std::sqrt(num / den) : 0.0;
  }
  // Partial sums are accumulated per FIXED 128-row tile and combined in
  // ascending tile order — even serial runs use the same grouping, so the
  // (order-sensitive) double summation rounds identically for any thread
  // count.  parallel_for over tile indices, not parallel_tiles: the latter
  // would collapse a single-thread run into one big accumulation.
  const std::size_t tile = 128;
  const std::size_t ntiles = (std::size_t(n) + tile - 1) / tile;
  std::vector<double> nums(ntiles, 0.0), dens(ntiles, 0.0);
  pstab::parallel_for(ntiles, [&](std::size_t t) {
    const std::size_t lo = t * tile;
    const std::size_t hi = lo + tile < std::size_t(n) ? lo + tile
                                                      : std::size_t(n);
    double num = 0, den = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      for (int j = 0; j < n; ++j) {
        const int kmax = int(i) < j ? int(i) : j;
        const int k0 = pf[i] > pf[j] ? pf[i] : pf[j];
        // No terms and A(i, j) = +0: the cell adds +0 to both sums.
        if (k0 > kmax && bitwise_pos_zero(A(int(i), j))) continue;
        double rtr = 0;
        for (int k = k0; k <= kmax; ++k)
          rtr += st::to_double(R(k, int(i))) * st::to_double(R(k, j));
        const double a = st::to_double(A(int(i), j));
        num += (rtr - a) * (rtr - a);
        den += a * a;
      }
    }
    nums[t] = num;
    dens[t] = den;
  });
  double num = 0, den = 0;
  for (std::size_t t = 0; t < ntiles; ++t) {
    num += nums[t];
    den += dens[t];
  }
  return den > 0 ? std::sqrt(num / den) : 0.0;
}

template <class T>
[[nodiscard]] double factorization_backward_error(const Dense<T>& A,
                                                  const Dense<T>& R) {
  return factorization_backward_error(A, R, BerrOptions{});
}

}  // namespace pstab::la
