// Mixed-precision escalation for iterative refinement.
//
// la::mixed_ir<F> is templated on the factorization format F, so escalating
// "one precision tier up" changes a template argument — it cannot live inside
// the solver.  escalate<F> wraps it (and la::lu_ir<F> alike): when the solve
// comes back factorization_failed, diverged or max_iterations and
// ResilientOptions{enabled, escalate} allows, it re-runs the whole solve
// with F promoted along
//
//   Half -> Float32Emu -> double          (IEEE ladder)
//   BFloat16 -> Float32Emu -> double
//   Posit16_1 / Posit16_2 -> Posit32_2    (posit ladder)
//
// at most max_escalations rungs.  Each rung is recorded as an
// "escalate:<format>" RecoveryEvent prepended to the final report's recovery
// trail, so a corrected run is distinguishable from a first-try success.
// With recovery disabled this is exactly one driver call.
#pragma once

#include <string>
#include <type_traits>

#include "la/ir.hpp"
#include "la/lu_ir.hpp"

namespace pstab::resilience {

/// Next precision tier for the factorization format; `void` terminates the
/// ladder (double factors in the working precision already — nothing above).
template <class F>
struct NextTier {
  using type = void;
};
template <>
struct NextTier<Half> {
  using type = Float32Emu;
};
template <>
struct NextTier<BFloat16> {
  using type = Float32Emu;
};
template <>
struct NextTier<Float32Emu> {
  using type = double;
};
template <>
struct NextTier<Posit16_1> {
  using type = Posit32_2;
};
template <>
struct NextTier<Posit16_2> {
  using type = Posit32_2;
};

/// The escalation ladder of both refinement families: the Scaling type picks
/// the driver (Higham scaling -> la::mixed_ir, two-sided equilibration ->
/// la::lu_ir); on failure the solve re-runs at NextTier<F>, at most `budget`
/// rungs (default opt.resilience.max_escalations).
template <class F, class Scaling = scaling::HighamScaling>
auto escalate(const la::Dense<double>& A, const la::Vec<double>& b,
              la::Vec<double>& x, const la::IrOptions& opt = {},
              const Scaling* sc = nullptr,
              const la::Dense<double>* src = nullptr, int budget = -1) {
  if (budget < 0) budget = opt.resilience.max_escalations;
  auto rep = [&] {
    if constexpr (std::is_same_v<Scaling, scaling::GeneralScaling>)
      return la::lu_ir<F>(A, b, x, opt, sc, src);
    else
      return la::mixed_ir<F>(A, b, x, opt, sc, src);
  }();
  // max_iterations counts as failure here: a tier that cannot contract within
  // the cap will not be saved by more of the same precision, and escalating
  // is what keeps an injected campaign free of hangs.
  const bool failed = rep.status == la::SolveStatus::factorization_failed ||
                      rep.status == la::SolveStatus::diverged ||
                      rep.status == la::SolveStatus::max_iterations;
  if (!failed || budget <= 0 || !opt.resilience.enabled ||
      !opt.resilience.escalate)
    return rep;
  using G = typename NextTier<F>::type;
  if constexpr (std::is_void_v<G>) {
    return rep;
  } else {
    std::vector<la::RecoveryEvent> trail = std::move(rep.recovery);
    trail.push_back({rep.iterations,
                     std::string("escalate:") + scalar_traits<G>::name(),
                     double(opt.resilience.max_escalations - budget + 1)});
    // Escalation re-reads the factorization input from the authoritative
    // source.  A scaled source (Higham or equilibrated) is part of the
    // algorithm and is kept; an unscaled one stands in for the (possibly
    // corrupted) low-precision cast buffer, which a fresh cast from A leaves
    // behind.
    auto up = escalate<G>(A, b, x, opt, sc, sc ? src : nullptr, budget - 1);
    up.recovery.insert(up.recovery.begin(), trail.begin(), trail.end());
    return up;
  }
}

}  // namespace pstab::resilience
