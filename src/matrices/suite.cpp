#include "matrices/suite.hpp"

#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <sys/stat.h>

#include "la/norms.hpp"
#include "matrices/mm_io.hpp"

namespace pstab::matrices {

const std::vector<MatrixSpec>& table1_specs() {
  // {name, n, nnz, k(A), ||A||_2, cond_core}.  The first four columns are
  // the paper's Table I.  cond_core is the share of k(A) that survives
  // diagonal equilibration, calibrated per matrix from the paper's Table
  // II/III behaviour (matrices that stay hard after Higham scaling get a
  // large core; matrices that become easy get a small one) — see DESIGN.md.
  static const std::vector<MatrixSpec> specs = {
      {"plat362", 362, 5786, 2.2e11, 7.7e-01, 1.0e9},
      {"mhd416b", 416, 2312, 5.1e9, 2.2e0, 1.0e2},
      {"662_bus", 662, 2474, 7.9e5, 4.0e3, 2.0e3},
      {"lund_b", 147, 2441, 3.0e4, 7.4e3, 1.0e2},
      {"bcsstk02", 66, 4356, 4.3e3, 1.8e4, 3.0e2},
      {"685_bus", 685, 3249, 4.2e5, 2.6e4, 5.0e2},
      {"1138_bus", 1138, 4054, 8.6e6, 3.0e4, 8.6e6},
      {"494_bus", 494, 1666, 2.4e6, 3.0e4, 1.0e6},
      {"nos5", 468, 5172, 1.1e4, 5.8e5, 2.5e2},
      {"bcsstk22", 138, 696, 1.1e5, 5.9e6, 5.0e2},
      {"nos6", 685, 3255, 7.7e6, 7.7e6, 5.0e5},
      {"bcsstk09", 1083, 18437, 9.5e3, 6.8e7, 2.0e3},
      {"lund_a", 147, 2449, 2.8e6, 2.2e8, 1.0e3},
      {"nos1", 237, 1017, 2.0e7, 2.5e9, 2.0e6},
      {"bcsstk01", 48, 400, 8.8e5, 3.0e9, 2.5e2},
      {"bcsstk06", 420, 7860, 7.6e6, 3.5e9, 1.5e3},
      {"msc00726", 726, 34518, 4.2e5, 4.2e9, 5.0e2},
      {"bcsstk08", 1074, 12960, 2.6e7, 7.7e10, 5.0e2},
      {"nos2", 957, 4137, 5.1e9, 1.57e11, 1.0e7},
  };
  return specs;
}

const std::vector<MatrixSpec>& general_specs() {
  // Non-symmetric Matrix Market stand-ins for the LU-IR / GMRES-IR sweep
  // ({name, n, nnz, k(A), ||A||_2, cond_core, spd}).  The list is graded so
  // the f16 rescue regime is populated at both ends: plain LU-IR needs
  // k(A)*u_f < 1 (u_f ~ 4.9e-4 for binary16, i.e. k below ~2e3), GMRES-IR
  // with the same factors works out to k ~ u_f^-2 ~ 4e6, so the upper rows
  // converge ONLY through GMRES-IR.  k(A) is capped at a few 1e6 because the
  // generator measures singular values through Cholesky of A^T A in double.
  static const std::vector<MatrixSpec> specs = {
      {"gre_216a", 216, 876, 6.1e2, 1.3e0, 1.5e2, false},
      {"bwm200", 200, 796, 2.4e3, 1.0e0, 3.0e2, false},
      {"mcfe", 765, 24382, 5.4e3, 1.9e2, 6.0e2, false},
      {"nnc261", 261, 1500, 2.7e4, 6.6e1, 5.0e3, false},
      {"west0132", 132, 414, 4.2e4, 3.2e3, 8.0e3, false},
      {"fs_183_1", 183, 1069, 1.1e5, 4.1e8, 2.0e4, false},
      {"pores_2", 1224, 9613, 1.3e6, 1.6e2, 8.0e4, false},
      {"steam1", 240, 2248, 2.8e6, 2.2e2, 2.4e5, false},
  };
  return specs;
}

const std::vector<MatrixSpec>& large_specs() {
  // The large-n scaling tier ({name, n, nnz, k(A), ||A||_2, cond_core, spd,
  // sparse_only}).  Band Laplacians with ~7 nnz/row, mildly conditioned so
  // CG converges in a bounded iteration count at any n; built straight into
  // CSR (generate_spd_sparse), never densified.  k(A) and ||A||_2 here are
  // construction targets, not published Matrix Market values.
  static const std::vector<MatrixSpec> specs = {
      {"synth10k", 10000, 69994, 1.0e4, 1.0, 1.0e4, true, true},
      {"synth50k", 50000, 349994, 1.0e4, 1.0, 1.0e4, true, true},
      {"synth100k", 100000, 699994, 1.0e4, 1.0, 1.0e4, true, true},
  };
  return specs;
}

std::optional<MatrixSpec> find_spec(const std::string& name) {
  for (const auto& s : table1_specs())
    if (s.name == name) return s;
  for (const auto& s : general_specs())
    if (s.name == name) return s;
  for (const auto& s : large_specs())
    if (s.name == name) return s;
  return std::nullopt;
}

int size_cap() {
  if (const char* env = std::getenv("PSTAB_SIZE_CAP")) {
    return std::atoi(env);
  }
  return 360;
}

int large_size_cap() {
  if (const char* env = std::getenv("PSTAB_LARGE_SIZE_CAP")) {
    return std::atoi(env);
  }
  return 0;
}

namespace {

std::optional<std::string> mtx_override_path(const std::string& name) {
  const char* dir = std::getenv("PSTAB_MTX_DIR");
  if (!dir) return std::nullopt;
  const std::string path = std::string(dir) + "/" + name + ".mtx";
  struct stat st{};
  if (stat(path.c_str(), &st) != 0) return std::nullopt;
  return path;
}

GeneratedMatrix load_or_generate(const MatrixSpec& spec) {
  if (auto path = mtx_override_path(spec.name)) {
    GeneratedMatrix g;
    g.spec = spec;
    g.csr = read_matrix_market_file(*path);
    g.n = g.csr.rows();
    // Large-tier overrides stay sparse; densifying an n=10^5 file would
    // defeat the tier's whole point.
    if (!spec.sparse_only) g.dense = g.csr.to_dense();
    g.digest = dense_digest(g.dense);
    g.lambda_max = la::kernels::norm2_est(g.csr);
    g.lambda_min = 0;  // not estimated for loaded matrices
    return g;
  }
  if (spec.sparse_only) return generate_spd_sparse(spec, large_size_cap());
  return spec.spd ? generate_spd(spec, size_cap())
                  : generate_general(spec, size_cap());
}

}  // namespace

const GeneratedMatrix& suite_matrix(const std::string& name) {
  static std::map<std::string, GeneratedMatrix> cache;
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  const auto spec = find_spec(name);
  if (!spec) throw std::invalid_argument("unknown suite matrix: " + name);
  return cache.emplace(name, load_or_generate(*spec)).first->second;
}

GeneratedMatrix make_suite_matrix(const std::string& name) {
  const auto spec = find_spec(name);
  if (!spec) throw std::invalid_argument("unknown suite matrix: " + name);
  return load_or_generate(*spec);
}

std::vector<const GeneratedMatrix*> full_suite() {
  std::vector<const GeneratedMatrix*> v;
  for (const auto& s : table1_specs()) v.push_back(&suite_matrix(s.name));
  return v;
}

std::vector<const GeneratedMatrix*> general_suite() {
  std::vector<const GeneratedMatrix*> v;
  for (const auto& s : general_specs()) v.push_back(&suite_matrix(s.name));
  return v;
}

std::vector<std::string> table2_names() {
  return {"mhd416b", "662_bus", "lund_b", "bcsstk02", "685_bus", "nos6",
          "494_bus", "bcsstk09", "lund_a", "bcsstk01", "nos2"};
}

std::vector<std::string> table3_names() {
  return {"mhd416b", "662_bus", "lund_b", "bcsstk02", "685_bus", "nos5",
          "nos6", "bcsstk22", "bcsstk09", "lund_a", "nos1", "bcsstk01",
          "bcsstk06", "msc00726", "bcsstk08", "nos2"};
}

}  // namespace pstab::matrices
