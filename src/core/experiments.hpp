// Experiment drivers for the paper's six studies (§IV):
//   1/2: CG without / with power-of-two re-scaling          (Figs 6, 7)
//   3/4: Cholesky solve without / with diagonal re-scaling  (Figs 8, 9)
//   5/6: mixed-precision IR, naive / Higham-scaled          (Tables II, III, Fig 10)
//
// Each driver casts the double-precision problem into the format under test,
// runs the templated solver from src/la with per-operation rounding, and
// reports format-under-test results with double-precision monitoring.
//
// All drivers take the unified core::SolveRequest (core/solve_api.hpp) for
// their options — the same struct the CLI and the serve engine parse — plus
// an optional ArtifactCache through which matrices, Higham equilibrations
// and Cholesky factorizations are memoized.  The request's `solver` field is
// overridden by each driver, so one request can be replayed across drivers;
// a null cache recomputes everything and is bit-identical to a cache hit.
#pragma once

#include <string>
#include <vector>

#include "core/solve_api.hpp"
#include "la/cg.hpp"
#include "la/ir.hpp"
#include "la/lu_ir.hpp"
#include "la/solve_report.hpp"
#include "matrices/generator.hpp"

namespace pstab::core {

// ---------------------------------------------------------------------------
// CG (experiments 1 & 2)

/// One grid cell is exactly the unified solver report (status, iterations,
/// true_relres recomputed in double, optional history/trace).
using CgCell = la::SolveReport;

struct CgRow {
  std::string matrix;
  double norm2 = 0, cond = 0;
  CgCell f64, f32, p32_2, p32_3;
  /// Paper Fig 6(b)/7(b): percent improvement of Posit32 over Float32
  /// (negative = posit worse).  NaN when either side failed.
  [[nodiscard]] double pct_improvement(const CgCell& posit) const;
};

CgRow run_cg_experiment(const matrices::GeneratedMatrix& m,
                        const SolveRequest& req = {},
                        ArtifactCache* cache = nullptr);

// ---------------------------------------------------------------------------
// Cholesky direct solve (experiments 3 & 4)

/// Direct-solver cells share the iterative cells' shape (PR 2's report
/// unification, finished here): status is `ok` / `not_positive_definite` /
/// `arithmetic_error`, iterations stays 0, and the backward error
/// ||b - Ax||_2 / ||b||_2 (computed in double) lands in both final_relres
/// and true_relres.
using CholCell = la::SolveReport;

struct CholRow {
  std::string matrix;
  double norm2 = 0;
  CholCell f64, f32, p32_2, p32_3;
  /// Paper Fig 8(a)/9: extra digits of precision of a posit format over
  /// Float32 = log10(float_residual / posit_residual).
  [[nodiscard]] double extra_digits(const CholCell& posit) const;
};

CholRow run_cholesky_experiment(const matrices::GeneratedMatrix& m,
                                const SolveRequest& req = {},
                                ArtifactCache* cache = nullptr);

// ---------------------------------------------------------------------------
// Mixed-precision iterative refinement (experiments 5 & 6)

struct IrRow {
  std::string matrix;
  la::IrReport f16, p16_1, p16_2;
  /// Paper Table III last column: percent reduction in refinement steps of
  /// the best posit format vs Float16.
  [[nodiscard]] double pct_reduction() const;
};

IrRow run_ir_experiment(const matrices::GeneratedMatrix& m,
                        const SolveRequest& req = {},
                        ArtifactCache* cache = nullptr);

// ---------------------------------------------------------------------------
// General-systems refinement: LU-IR and GMRES-IR (the registry's lu_ir and
// gmres_ir solvers).  Unlike the fixed-field SPD rows above, the general grid
// is a vector of (format, report) cells: the request's PrecisionTriple factor
// selects either the default 16-bit grid ("grid" -> f16/bf16/p16_1/p16_2) or
// a single column from factor_formats().

struct LuIrCell {
  std::string format;  // factor format tag ("f16", "bf16", "p16_1", ...)
  la::LuIrReport rep;
};

struct LuIrRow {
  std::string matrix;
  double norm2 = 0, cond = 0;
  std::vector<LuIrCell> cells;
};

LuIrRow run_lu_ir_experiment(const matrices::GeneratedMatrix& m,
                             const SolveRequest& req = {},
                             ArtifactCache* cache = nullptr);

/// One GMRES-IR grid cell runs plain LU-IR and GMRES-IR from the SAME
/// low-precision LU factors (one factorization per cell, shared through the
/// ArtifactCache with standalone lu_ir requests), so `rescued()` isolates
/// exactly what the Krylov correction solve adds over a triangular solve.
struct GmresIrCell {
  std::string format;
  la::LuIrReport lu;     // plain refinement baseline
  la::LuIrReport gmres;  // GMRES-IR with the same factors
  [[nodiscard]] bool rescued() const {
    return gmres.status == la::SolveStatus::converged &&
           lu.status != la::SolveStatus::converged;
  }
};

struct GmresIrRow {
  std::string matrix;
  double norm2 = 0, cond = 0;
  std::vector<GmresIrCell> cells;
  /// Number of cells where GMRES-IR converged but plain LU-IR did not.
  [[nodiscard]] int rescue_count() const;
};

GmresIrRow run_gmres_ir_experiment(const matrices::GeneratedMatrix& m,
                                   const SolveRequest& req = {},
                                   ArtifactCache* cache = nullptr);

// ---------------------------------------------------------------------------
// Whole-grid runners: one row per input matrix, rows in input order.
//
// The outer loop is embarrassingly parallel and runs across PSTAB_THREADS
// workers (src/common/parallel_for.hpp); results are deterministic and
// bitwise independent of the thread count — each row is computed by the
// same sequential solver code, threads only decide who computes it.
// Callers must pass matrices that are already generated/loaded (e.g.
// matrices::full_suite()), so no loader races inside the region.

std::vector<CgRow> run_cg_suite(
    const std::vector<const matrices::GeneratedMatrix*>& suite,
    const SolveRequest& req = {}, ArtifactCache* cache = nullptr);

std::vector<CholRow> run_cholesky_suite(
    const std::vector<const matrices::GeneratedMatrix*>& suite,
    const SolveRequest& req = {}, ArtifactCache* cache = nullptr);

std::vector<IrRow> run_ir_suite(
    const std::vector<const matrices::GeneratedMatrix*>& suite,
    const SolveRequest& req = {}, ArtifactCache* cache = nullptr);

std::vector<LuIrRow> run_lu_ir_suite(
    const std::vector<const matrices::GeneratedMatrix*>& suite,
    const SolveRequest& req = {}, ArtifactCache* cache = nullptr);

std::vector<GmresIrRow> run_gmres_ir_suite(
    const std::vector<const matrices::GeneratedMatrix*>& suite,
    const SolveRequest& req = {}, ArtifactCache* cache = nullptr);

/// The request's right-hand side: the paper's deterministic b = A * xhat with
/// xhat = (1/sqrt(n), ...) when rhs_seed == 0, otherwise b = A * xhat for a
/// seeded random unit xhat (SplitMix64; reproducible for a given seed).
[[nodiscard]] la::Vec<double> request_rhs(const matrices::GeneratedMatrix& m,
                                          std::uint64_t rhs_seed);

/// Generic single-format CG in format T (used by ablation benches).
template <class T>
CgCell cg_in_format(const la::Csr<double>& A, const la::Vec<double>& b,
                    const la::CgOptions& opt);

/// Generic single-format Cholesky solve backward error.  With a cache, the
/// factorization is looked up / stored under `factor_key` (which must
/// identify A's content, the format and the scaling; empty = never cache);
/// A is cast to T only on a miss.  `resilience` engages the diagonal-shift
/// retry ladder.  `budget` ticks once per factorization column; callers with
/// a deadline must pass an empty factor_key (a cached complete factor would
/// skip the ticks and a partial one must never be stored).
template <class T>
CholCell cholesky_in_format(const la::Dense<double>& A,
                            const la::Vec<double>& b,
                            const la::kernels::Context& kc = {},
                            ArtifactCache* cache = nullptr,
                            const std::string& factor_key = {},
                            const la::ResilientOptions& resilience = {},
                            Budget* budget = nullptr);

}  // namespace pstab::core
