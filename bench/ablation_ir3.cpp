// Ablation: two-precision IR (the paper's simplification) vs Carson-Higham
// three-precision IR with double-double residuals.  The paper computes all
// post-factorization quantities in Float64 "to avoid unnecessary
// complication"; this bench shows what the u_r = u^2 residual stage changes
// on the Higham-scaled suite.
#include "bench_common.hpp"
#include "core/experiments.hpp"
#include "ieee/softfloat.hpp"
#include "la/ir.hpp"
#include "scaling/higham.hpp"

namespace {

using namespace pstab;

std::string cell(const la::IrReport& r) {
  const bool failed = r.status == la::IrStatus::factorization_failed ||
                      r.status == la::IrStatus::diverged;
  return core::fmt_iters(failed, r.status == la::IrStatus::max_iterations,
                         r.iterations);
}

}  // namespace

int main() {
  bench::print_env("ablation: IR (2 precisions) vs IR3 (double-double residual)");

  core::Table t({"Matrix", "F16 IR", "F16 IR3", "P(16,1) IR", "P(16,1) IR3",
                 "berr F16 IR", "berr F16 IR3"});
  for (const auto* m : bench::suite()) {
    const auto b = matrices::paper_rhs(m->dense);
    la::Vec<double> x;
    la::IrOptions dd;
    dd.residual = la::ResidualPrec::dd;
    const auto f2 = la::mixed_ir<Half>(m->dense, b, x);
    const auto f3 = la::mixed_ir<Half>(m->dense, b, x, dd);
    const auto p2 = la::mixed_ir<Posit16_1>(m->dense, b, x);
    const auto p3 = la::mixed_ir<Posit16_1>(m->dense, b, x, dd);
    t.row({m->spec.name, cell(f2), cell(f3), cell(p2), cell(p3),
           core::fmt_sci(f2.final_berr, 1), core::fmt_sci(f3.final_berr, 1)});
  }
  t.print();
  std::printf(
      "\nExpected: the extra residual precision changes the achievable "
      "backward error, not which matrices converge — the paper's choice to "
      "skip it is benign for its comparison.\n");
  return 0;
}
