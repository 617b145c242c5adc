// Thread-safe per-format numerical event telemetry.
//
// The paper's argument is about *where* each format loses accuracy, so the
// library can account, per scalar format, for every arithmetic operation and
// every rounding event of interest: NaR/NaN production, overflow saturation,
// underflow (to minpos for posits, to zero for IEEE), subnormal results, and
// the regime-length distribution of encoded posits (the tapered-precision
// mechanism behind the golden zone).
//
// Design:
//   * Recording is behind a single relaxed atomic flag (`active()`).  Off by
//     default, the hooks in posit.hpp / softfloat.hpp cost one predictable
//     branch on a cached global; compiling with -DPSTAB_NO_TELEMETRY makes
//     `active()` a constant false and removes them entirely.  The runtime
//     switch follows the PSTAB_LUT pattern: `enable_defaults()` turns
//     telemetry on unless the environment says PSTAB_TELEMETRY=0.
//   * Counters live in per-thread blocks (registered on first use, merged
//     into a retired accumulator when a thread exits), so `parallel_for`
//     workers never contend and totals are exact: the same work yields the
//     same counts whatever PSTAB_THREADS is.  The persistent `parallel_for`
//     workers never exit; their blocks stay live, summed by `snapshot()`
//     and zeroed by `reset()` like any other.
//   * `snapshot()` aggregates retired + live blocks and returns per-format
//     counters sorted by format name, so emitted artifacts are deterministic
//     even though slot registration order depends on thread interleaving.
//
// While telemetry is active the 8-bit LUT *op* fast path is bypassed (a table
// hit would skip the rounding tailpath that classifies events); the decode
// tables stay on because decoding produces no events.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pstab::telemetry {

/// Event taxonomy.  Op counts first, then rounding/exception events; the
/// meaning of the range events depends on the format family (documented in
/// docs/observability.md).
enum class Event : int {
  add = 0,
  sub,
  mul,
  div,
  sqrt,
  fma,
  recip,
  nar_produced,    // posit: NaR result from non-NaR operands (0/0, x/0, sqrt<0)
  nan_produced,    // IEEE: NaN result from non-NaN operands (inf-inf, 0/0, ...)
  overflow_sat,    // posit: |exact| > maxpos, saturated; IEEE: rounded to +/-inf
  underflow_sat,   // posit: 0 < |exact| < minpos, saturated; IEEE: flushed to 0
  subnormal,       // IEEE only: result landed in the subnormal range
  kCount
};
inline constexpr int kEventCount = static_cast<int>(Event::kCount);

/// Regime histogram buckets: bucket i counts encodes whose regime field is
/// i bits long (clamped to N-1; bucket 0 is unused by construction).
inline constexpr int kRegimeBuckets = 64;

/// Fixed slot table: formats are registered lazily by name on first use.
inline constexpr int kMaxFormats = 32;

[[nodiscard]] const char* event_name(Event e) noexcept;

namespace detail {

inline std::atomic<bool> g_enabled{false};

/// One thread's counters, all formats.  Owner thread increments with relaxed
/// atomics (no contention: the block is thread-local); snapshot readers load
/// concurrently, which is why the members are atomic at all.
struct alignas(64) Block {
  std::atomic<std::uint64_t> ev[kMaxFormats][kEventCount];
  std::atomic<std::uint64_t> regime[kMaxFormats][kRegimeBuckets];
  std::atomic<double> max_drift[kMaxFormats];
  std::atomic<double> sum_drift[kMaxFormats];
  std::atomic<std::uint64_t> drift_n[kMaxFormats];

  Block() { zero(); }
  void zero() noexcept {
    for (int s = 0; s < kMaxFormats; ++s) {
      for (int e = 0; e < kEventCount; ++e)
        ev[s][e].store(0, std::memory_order_relaxed);
      for (int r = 0; r < kRegimeBuckets; ++r)
        regime[s][r].store(0, std::memory_order_relaxed);
      max_drift[s].store(0.0, std::memory_order_relaxed);
      sum_drift[s].store(0.0, std::memory_order_relaxed);
      drift_n[s].store(0, std::memory_order_relaxed);
    }
  }
};

/// The calling thread's block (created and registered on first use).
[[nodiscard]] Block& tl_block();

}  // namespace detail

/// True iff event recording is on.  The hot-path guard: a relaxed load of one
/// global, constant false when compiled out.
[[nodiscard]] inline bool active() noexcept {
#ifdef PSTAB_NO_TELEMETRY
  return false;
#else
  return detail::g_enabled.load(std::memory_order_relaxed);
#endif
}

/// Compile-time switch state (-DPSTAB_NO_TELEMETRY removes the hooks).
[[nodiscard]] constexpr bool compiled_in() noexcept {
#ifdef PSTAB_NO_TELEMETRY
  return false;
#else
  return true;
#endif
}

void set_enabled(bool on) noexcept;

/// Turn telemetry on unless the environment opts out with PSTAB_TELEMETRY=0
/// (mirrors lut::enable_defaults / PSTAB_LUT).  Returns the resulting state.
bool enable_defaults() noexcept;

/// True iff PSTAB_TELEMETRY is set to something other than "0" (the opt-in
/// spelling for contexts that default to off, e.g. the CLI without --json).
[[nodiscard]] bool env_requested() noexcept;

/// Zero every counter (retired and live blocks).  Call while no other thread
/// is recording; concurrent increments may survive the sweep.
void reset() noexcept;

/// Register (or look up) the slot for a format name.  Idempotent; returns -1
/// once kMaxFormats distinct names exist (recorders then drop the events).
int register_format(const std::string& name);

// -- Hot-path recorders (no-ops when slot < 0; callers guard on active()) ----

inline void count(int slot, Event e) noexcept {
  if (slot < 0) return;
  detail::tl_block().ev[slot][static_cast<int>(e)].fetch_add(
      1, std::memory_order_relaxed);
}

inline void record_regime(int slot, int len) noexcept {
  if (slot < 0) return;
  if (len < 0) len = 0;
  if (len >= kRegimeBuckets) len = kRegimeBuckets - 1;
  detail::tl_block().regime[slot][len].fetch_add(1, std::memory_order_relaxed);
}

inline void record_drift(int slot, double rel) noexcept {
  if (slot < 0) return;
  auto& b = detail::tl_block();
  double cur = b.max_drift[slot].load(std::memory_order_relaxed);
  while (cur < rel && !b.max_drift[slot].compare_exchange_weak(
                          cur, rel, std::memory_order_relaxed)) {
  }
  double sum = b.sum_drift[slot].load(std::memory_order_relaxed);
  b.sum_drift[slot].store(sum + rel, std::memory_order_relaxed);
  b.drift_n[slot].fetch_add(1, std::memory_order_relaxed);
}

/// Slot for Posit<N, ES>, named identically to scalar_traits::name().
template <int N, int ES>
[[nodiscard]] inline int posit_slot() {
  static const int s = register_format("Posit(" + std::to_string(N) + "," +
                                       std::to_string(ES) + ")");
  return s;
}

// -- Aggregation -------------------------------------------------------------

/// Aggregated counters for one format (plain values, safe to copy around).
struct FormatCounters {
  std::string format;
  std::array<std::uint64_t, kEventCount> events{};
  std::array<std::uint64_t, kRegimeBuckets> regime_hist{};
  double max_rel_drift = 0.0;
  double sum_rel_drift = 0.0;
  std::uint64_t drift_samples = 0;

  [[nodiscard]] std::uint64_t operator[](Event e) const noexcept {
    return events[static_cast<int>(e)];
  }
  [[nodiscard]] std::uint64_t total_ops() const noexcept {
    std::uint64_t t = 0;
    for (int e = static_cast<int>(Event::add); e <= static_cast<int>(Event::recip); ++e)
      t += events[e];
    return t;
  }
  [[nodiscard]] std::uint64_t regime_total() const noexcept {
    std::uint64_t t = 0;
    for (auto c : regime_hist) t += c;
    return t;
  }
  [[nodiscard]] double mean_rel_drift() const noexcept {
    return drift_samples ? sum_rel_drift / double(drift_samples) : 0.0;
  }
};

/// All registered formats, sorted by name (deterministic across runs and
/// thread counts), each summed over retired + live thread blocks.
[[nodiscard]] std::vector<FormatCounters> snapshot();

/// Counters for one format by name; all-zero (with `format` set) if the name
/// was never registered.
[[nodiscard]] FormatCounters snapshot_format(const std::string& name);

}  // namespace pstab::telemetry
