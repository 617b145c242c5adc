// Deterministic synthetic SPD matrix generator.
//
// The build environment is offline, so the Matrix Market matrices of the
// paper's Table I are reproduced synthetically, matching per matrix:
//   n       — order (optionally capped, preserving per-row density),
//   nnz     — via the band width,
//   k(A)    — the 2-norm condition number, split into a "core" part that
//             survives diagonal equilibration (a shifted band Laplacian) and
//             a diagonal part D spreading entry magnitudes across decades
//             (what real badly-scaled matrices look like, and what the
//             paper's golden-zone/scaling phenomena are driven by),
//   ||A||_2 — by a final scalar scaling.
//
// Construction: A0 = D (L + eps I) D, where L is a jittered band Laplacian
// (PSD, lambda_min = 0) and eps = lambda_max(L)/cond_core; then a diagonal
// shift places lambda_max/lambda_min exactly at the target condition number,
// and a scalar scaling places ||A||_2.  All randomness is seeded from the
// matrix name: the suite is bit-reproducible.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "la/csr.hpp"
#include "la/dense.hpp"

namespace pstab::matrices {

struct MatrixSpec {
  std::string name;
  int n = 0;           // published order
  long nnz = 0;        // published nonzeros
  double cond = 1.0;   // published k(A)
  double norm2 = 1.0;  // published ||A||_2
  // Condition number remaining after two-sided diagonal equilibration;
  // calibrated per matrix from the paper's Table II/III behaviour (see
  // DESIGN.md).  Must be <= cond.
  double cond_core = 10.0;
  // SPD (Table I stand-ins, generate_spd) or general non-symmetric
  // (the LU-IR/GMRES-IR suite, generate_general).
  bool spd = true;
  // Large-n tier (synth10k..synth100k): generated straight into CSR by
  // generate_spd_sparse and never densified — GeneratedMatrix.dense stays
  // empty (rows() == 0) because an n=10^5 dense matrix is 80 GB.  Consumers
  // must use the csr member (experiments' RHS and CG paths do).
  bool sparse_only = false;
};

struct GeneratedMatrix {
  MatrixSpec spec;
  int n = 0;  // actual generated order (after any size cap)
  la::Dense<double> dense;
  la::Csr<double> csr;
  // dense_digest(dense), computed once by the generator or loader that
  // built the matrix; every cache key for this matrix embeds it.  Empty on a
  // hand-assembled matrix: building a cache key from one throws rather than
  // sharing a key with every other digest-less matrix.
  std::optional<std::uint64_t> digest;
  double lambda_max = 0, lambda_min = 0;
  [[nodiscard]] double cond_measured() const {
    return lambda_min > 0 ? lambda_max / lambda_min : 0;
  }
};

/// Generate the synthetic stand-in for `spec`.  If size_cap > 0 and
/// spec.n > size_cap, the matrix is generated at size_cap with the same
/// per-row density, condition number, and norm.
GeneratedMatrix generate_spd(const MatrixSpec& spec, int size_cap = 0);

/// Generate a general (non-symmetric, invertible) synthetic stand-in:
/// A = Dr * (H1 ... Hk * diag(sigma) * Hk' ... H1') * Dc with Householder
/// reflector products (orthogonal, so the singular-value ratio — cond_core —
/// is exact by construction) and power-of-two row/column scalings spreading
/// entry magnitudes across decades (removable by scaling::equilibrate_general,
/// mirroring what cond_core means for the SPD suite).  lambda_max/lambda_min
/// report the measured extreme singular values.
GeneratedMatrix generate_general(const MatrixSpec& spec, int size_cap = 0);

/// Large-n tier: a diagonally dominant jittered band Laplacian built
/// directly in CSR (dense left empty).  SPD by strict diagonal dominance
/// with margin 2/cond, so k(A) lands near spec.cond and CG converges in a
/// bounded iteration count at any n; lambda_max / lambda_min are Gershgorin
/// estimates, not measured.  O(nnz) construction — no dense spectral
/// calibration — which is what lets n reach 10^5.
GeneratedMatrix generate_spd_sparse(const MatrixSpec& spec, int size_cap = 0);

/// Content digest of a dense matrix: FNV-1a 64 over its dimensions, then
/// its row-major values.  An empty (sparse-only) matrix hashes its 0x0 shape.
[[nodiscard]] std::uint64_t dense_digest(const la::Dense<double>& A) noexcept;

/// The paper's right-hand side: b = A * xhat with xhat = (1/sqrt(n), ...)
/// so that ||xhat|| = 1 (§V-A.1).
la::Vec<double> paper_rhs(const la::Dense<double>& A);

/// Same RHS from CSR (the sparse-only large-n tier has no dense image).
la::Vec<double> paper_rhs(const la::Csr<double>& A);

}  // namespace pstab::matrices
