// Ablation: GMRES for the correction equation, on both solver families.
//
// Part 1 (SPD, paper §V-D.2): the paper remarks that naive mixed-precision
// IR failures "would be less likely to occur" with a GMRES strategy; we run
// plain IR and Cholesky-preconditioned GMRES-IR on the naive 16-bit casts
// and count the rescues.
//
// Part 2 (general suite): the Carson & Higham regime split made measurable.
// Plain LU-IR contracts while k(A)*u_f < 1; GMRES-IR with the SAME
// low-precision LU factors as preconditioner works out to k(A) ~ u_f^{-2}.
// Rows where plain refinement hits its cap but GMRES-IR converges in a
// handful of outer steps are the rescue regime; RESULTS_gmres_ir.json
// records the whole grid.
#include "bench_common.hpp"
#include "core/experiments.hpp"
#include "ieee/softfloat.hpp"
#include "la/gmres.hpp"

int main() {
  using namespace pstab;
  bench::print_env("ablation: plain refinement vs GMRES-IR");
  bench::telemetry_begin();

  // --- Part 1: SPD suite, Cholesky-preconditioned --------------------------
  const auto cell = [](la::IrStatus s, int iters) {
    if (s == la::IrStatus::converged) return std::to_string(iters);
    if (s == la::IrStatus::max_iterations) return std::string("cap");
    return std::string("-");
  };

  la::IrOptions gopt;
  gopt.max_iter = 200;  // outer cap; the inner GMRES is la::kGmresIrInner*

  int plain_ok = 0, gmres_ok = 0;
  core::Table t({"Matrix", "F16 IR", "F16 GMRES-IR", "P(16,2) IR",
                 "P(16,2) GMRES-IR"});
  for (const auto* m : bench::suite()) {
    const auto b = matrices::paper_rhs(m->dense);
    la::Vec<double> x;

    const auto pf = la::mixed_ir<Half>(m->dense, b, x);
    const auto gf = la::gmres_ir<Half>(m->dense, b, x, gopt);
    const auto pp = la::mixed_ir<Posit16_2>(m->dense, b, x);
    const auto gp = la::gmres_ir<Posit16_2>(m->dense, b, x, gopt);
    plain_ok += (pf.status == la::IrStatus::converged) +
                (pp.status == la::IrStatus::converged);
    gmres_ok += (gf.status == la::IrStatus::converged) +
                (gp.status == la::IrStatus::converged);
    t.row({m->spec.name, cell(pf.status, pf.iterations),
           cell(gf.status, gf.iterations), cell(pp.status, pp.iterations),
           cell(gp.status, gp.iterations)});
  }
  t.print();
  std::printf(
      "\nSPD suite (outer iterations shown): plain IR %d, GMRES-IR %d of 38 "
      "converged.  Expected: GMRES-IR rescues several '-'/cap rows, "
      "supporting the paper's remark.\n\n",
      plain_ok, gmres_ok);

  // --- Part 2: general suite, LU-preconditioned ----------------------------
  const auto lu_cell = [](const la::LuIrReport& r) {
    const bool failed = r.status == la::SolveStatus::factorization_failed ||
                        r.status == la::SolveStatus::diverged;
    return core::fmt_iters(failed, r.status == la::SolveStatus::max_iterations,
                           r.iterations);
  };

  core::SolveRequest req;
  req.solver = core::Solver::gmres_ir;
  const auto rows = core::run_gmres_ir_suite(matrices::general_suite(), req);

  int rescues = 0;
  core::Table g({"Matrix", "Format", "LU-IR", "GMRES-IR", "Inner", "Rescued"});
  for (const auto& row : rows) {
    for (const auto& c : row.cells) {
      g.row({row.matrix, c.format, lu_cell(c.lu), lu_cell(c.gmres),
             core::fmt_int(c.gmres.inner_iterations),
             c.rescued() ? "yes" : ""});
    }
    rescues += row.rescue_count();
  }
  g.print();
  bench::write_results(core::gmres_ir_results_json("gmres_ir", rows, req),
                       "RESULTS_gmres_ir.json");
  std::printf(
      "\nGeneral suite: %d (matrix, format) cells rescued — GMRES-IR "
      "converged from LU factors that plain refinement could not use.  "
      "Expected at the default size cap: the bf16 nnc261/west0132 rows flip "
      "from 1000+ to a handful of outer steps.\n",
      rescues);
  return 0;
}
