// Backend-equivalence suite for la::kernels: the batched decoded-plane
// kernels must be bit-identical to the scalar loops on every input —
// random data, specials (NaR / zero / ±maxpos / ±minpos, IEEE inf/NaN),
// degenerate and odd sizes — and the dispatch predicate itself must route
// exactly as documented (Auto thresholds, default-backend kill switch,
// telemetry fallback).  Solver-level identity (CG, Cholesky) and the
// thread-count determinism of batched artifacts close the loop.
// (The all-pairs 8-bit sweep against the GMP oracle is
// kernels_exhaustive_test.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiments.hpp"
#include "core/report_json.hpp"
#include "core/telemetry/telemetry.hpp"
#include "ieee/softfloat.hpp"
#include "la/cg.hpp"
#include "la/csr.hpp"
#include "la/dense.hpp"
#include "la/kernels/kernels.hpp"
#include "matrices/generator.hpp"
#include "matrices/suite.hpp"
#include "posit/lut.hpp"
#include "posit/posit.hpp"

namespace {

using namespace pstab;
namespace ker = pstab::la::kernels;

const ker::Context kScalar{ker::Backend::Scalar};
const ker::Context kBatched{ker::Backend::Batched};

template <class T>
bool bits_equal(const la::Vec<T>& a, const la::Vec<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <class T>
bool bits_equal(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Random vector; when `specials` is set roughly one element in eight is a
/// special value (posit NaR / zero / ±maxpos / ±minpos, IEEE ±inf / NaN /
/// zero) so the flag paths and propagation rules get exercised.
template <class T>
la::Vec<T> rand_vec(int n, unsigned seed, bool specials) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-4.0, 4.0);
  la::Vec<T> v(n);
  for (auto& x : v) x = scalar_traits<T>::from_double(dist(rng));
  if (!specials) return v;
  std::vector<T> s;
  if constexpr (requires { T::nar(); }) {
    s = {T::zero(),   T::nar(),     T::maxpos(),
         -T::maxpos(), T::minpos(), -T::minpos()};
  } else {
    const double inf = std::numeric_limits<double>::infinity();
    s = {scalar_traits<T>::zero(), scalar_traits<T>::from_double(inf),
         scalar_traits<T>::from_double(-inf),
         scalar_traits<T>::from_double(std::nan("")), scalar_traits<T>::max()};
  }
  for (auto& x : v)
    if (rng() % 8 == 0) x = s[rng() % s.size()];
  return v;
}

const int kSizes[] = {0, 1, 2, 3, 17, 257, 1000};

template <class T>
void check_blas1(bool specials) {
  unsigned seed = specials ? 900 : 100;
  for (const int n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n) +
                 (specials ? " specials" : " random"));
    const auto x = rand_vec<T>(n, seed++, specials);
    const auto y = rand_vec<T>(n, seed++, specials);
    const T alpha = scalar_traits<T>::from_double(1.25);
    const T beta = scalar_traits<T>::from_double(-0.75);

    EXPECT_TRUE(bits_equal(ker::dot(kScalar, x, y), ker::dot(kBatched, x, y)));
    EXPECT_TRUE(bits_equal(ker::dot_fused(kScalar, x, y),
                           ker::dot_fused(kBatched, x, y)));
    EXPECT_TRUE(
        bits_equal(ker::nrm2(kScalar, x), ker::nrm2(kBatched, x)));

    auto ys = y, yb = y;
    ker::axpy(kScalar, alpha, x, ys);
    ker::axpy(kBatched, alpha, x, yb);
    EXPECT_TRUE(bits_equal(ys, yb));

    auto xs = x, xb = x;
    ker::scal(kScalar, alpha, xs);
    ker::scal(kBatched, alpha, xb);
    EXPECT_TRUE(bits_equal(xs, xb));

    la::Vec<T> zs(n), zb(n);
    ker::xpby(kScalar, x, beta, y, zs);
    ker::xpby(kBatched, x, beta, y, zb);
    EXPECT_TRUE(bits_equal(zs, zb));

    // Strided multiply-accumulate chains, both directions.
    for (const bool sub : {false, true}) {
      const std::size_t m = n / 2;
      const T ss = ker::update_chain(kScalar, alpha, x.data(), 2, y.data(), 1,
                                     m, sub);
      const T sb = ker::update_chain(kBatched, alpha, x.data(), 2, y.data(), 1,
                                     m, sub);
      EXPECT_TRUE(bits_equal(ss, sb));
    }
  }
}

template <class T>
void check_blas2(bool specials) {
  const int rows = 37, cols = 53;
  std::mt19937_64 rng(specials ? 7000 : 77);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  la::Dense<double> Ad(rows, cols);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j) Ad(i, j) = dist(rng);
  const auto A = Ad.template cast<T>();
  const auto x = rand_vec<T>(cols, specials ? 7001 : 78, specials);

  la::Vec<T> ys, yb;
  ker::gemv(kScalar, A, x, ys);
  ker::gemv(kBatched, A, x, yb);
  EXPECT_TRUE(bits_equal(ys, yb));

  // CSR with the x-side specials flowing through the gather.
  const matrices::MatrixSpec spec{"kerneq", 64, 640, 1e3, 1e1, 1e1};
  const auto g = matrices::generate_spd(spec, 3);
  const auto S = g.csr.template cast<T>();
  const auto xs = rand_vec<T>(64, specials ? 7002 : 79, specials);
  la::Vec<T> ss, sb;
  ker::spmv(kScalar, S, xs, ss);
  ker::spmv(kBatched, S, xs, sb);
  EXPECT_TRUE(bits_equal(ss, sb));
}

TEST(KernelsEquivalence, Posit16Blas1) {
  check_blas1<Posit16_1>(false);
  check_blas1<Posit16_1>(true);
}
TEST(KernelsEquivalence, Posit32Blas1) {
  check_blas1<Posit32_2>(false);
  check_blas1<Posit32_2>(true);
}
TEST(KernelsEquivalence, HalfBlas1) {
  check_blas1<Half>(false);
  check_blas1<Half>(true);
}
TEST(KernelsEquivalence, Posit16Blas2) {
  check_blas2<Posit16_1>(false);
  check_blas2<Posit16_1>(true);
}
TEST(KernelsEquivalence, Posit32Blas2) {
  check_blas2<Posit32_2>(false);
  check_blas2<Posit32_2>(true);
}
TEST(KernelsEquivalence, HalfBlas2) {
  check_blas2<Half>(false);
  check_blas2<Half>(true);
}

// ---------------------------------------------------------------------------
// Directed NaR propagation: a single poisoned element anywhere in the input
// must poison the reductions identically in both backends — the decoded-plane
// flag machinery may not lose, duplicate, or reorder the NaR no matter which
// lane or tail position it lands in.

template <class T>
void check_nar_propagation() {
  for (const int n : {1, 2, 7, 8, 9, 64, 257}) {
    const auto base = rand_vec<T>(n, 4242 + n, false);
    const auto y = rand_vec<T>(n, 5252 + n, false);
    for (const int pos : {0, n / 2, n - 1}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " pos=" + std::to_string(pos));
      auto x = base;
      x[pos] = T::nar();

      const T ds = ker::dot(kScalar, x, y);
      const T db = ker::dot(kBatched, x, y);
      EXPECT_TRUE(ds.is_nar());
      EXPECT_TRUE(bits_equal(ds, db));

      const T fs = ker::dot_fused(kScalar, x, y);
      const T fb = ker::dot_fused(kBatched, x, y);
      EXPECT_TRUE(fs.is_nar());
      EXPECT_TRUE(bits_equal(fs, fb));

      // Poison on the update-chain side too (the Cholesky inner loop).
      const T alpha = scalar_traits<T>::from_double(-1.5);
      const T cs =
          ker::update_chain(kScalar, alpha, x.data(), 1, y.data(), 1,
                            std::size_t(n), true);
      const T cb =
          ker::update_chain(kBatched, alpha, x.data(), 1, y.data(), 1,
                            std::size_t(n), true);
      EXPECT_TRUE(cs.is_nar());
      EXPECT_TRUE(bits_equal(cs, cb));

      // And through the elementwise updates into a full vector.
      auto as = y, ab = y;
      ker::axpy(kScalar, alpha, x, as);
      ker::axpy(kBatched, alpha, x, ab);
      EXPECT_TRUE(as[pos].is_nar());
      EXPECT_TRUE(bits_equal(as, ab));
    }
  }
}

TEST(KernelsEquivalence, NaRPropagationPosit16) {
  check_nar_propagation<Posit16_1>();
}
TEST(KernelsEquivalence, NaRPropagationPosit32) {
  check_nar_propagation<Posit32_2>();
}

TEST(KernelsEquivalence, NanPropagationHalf) {
  // IEEE twin of the NaR sweep: one quiet NaN must surface identically.
  for (const int n : {1, 8, 9, 257}) {
    const auto base = rand_vec<Half>(n, 6400 + n, false);
    const auto y = rand_vec<Half>(n, 6500 + n, false);
    for (const int pos : {0, n - 1}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " pos=" + std::to_string(pos));
      auto x = base;
      x[pos] = scalar_traits<Half>::from_double(std::nan(""));
      const Half ds = ker::dot(kScalar, x, y);
      const Half db = ker::dot(kBatched, x, y);
      EXPECT_TRUE(std::isnan(ds.to_double()));
      EXPECT_TRUE(bits_equal(ds, db));
      const Half cs = ker::update_chain(kScalar, Half(1.0), x.data(), 1,
                                        y.data(), 1, std::size_t(n), false);
      const Half cb = ker::update_chain(kBatched, Half(1.0), x.data(), 1,
                                        y.data(), 1, std::size_t(n), false);
      EXPECT_TRUE(std::isnan(cs.to_double()));
      EXPECT_TRUE(bits_equal(cs, cb));
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch routing.

TEST(KernelsDispatch, ExplicitBackendsWin) {
  EXPECT_FALSE(ker::use_batched<Posit32_2>(kScalar, 1 << 20));
  EXPECT_TRUE(ker::use_batched<Posit32_2>(kBatched, 1));
}

TEST(KernelsDispatch, AutoRespectsSizeFloor) {
  const ker::Context a{ker::Backend::Auto};
  EXPECT_FALSE(ker::use_batched<Posit32_2>(a, ker::kAutoMinN - 1));
  EXPECT_TRUE(ker::use_batched<Posit32_2>(a, ker::kAutoMinN));
}

TEST(KernelsDispatch, AutoDefersToLutPreference) {
  // Only the N <= 8 single-load result tables make the scalar path preferable
  // (the 16-bit decode-assist does not: batched still wins there).
  using P8 = Posit<8, 2>;
  const ker::Context a{ker::Backend::Auto};
  lut::enable<8, 2>();
  EXPECT_FALSE(ker::use_batched<P8>(a, 4096));        // LUT path preferred
  EXPECT_TRUE(ker::use_batched<P8>(kBatched, 4096));  // explicit wins
  lut::disable<8, 2>();
  EXPECT_TRUE(ker::use_batched<P8>(a, 4096));
}

TEST(KernelsDispatch, DefaultBackendKillSwitch) {
  // set_default_backend(Scalar) is exactly what PSTAB_KERNELS=scalar (or =0)
  // latches at startup: Auto contexts fall back, explicit contexts still win.
  const ker::Context a{ker::Backend::Auto};
  ASSERT_TRUE(ker::use_batched<Posit32_2>(a, 4096));
  ker::set_default_backend(ker::Backend::Scalar);
  EXPECT_FALSE(ker::use_batched<Posit32_2>(a, 4096));
  EXPECT_TRUE(ker::use_batched<Posit32_2>(kBatched, 4096));
  ker::set_default_backend(ker::Backend::Batched);
  EXPECT_TRUE(ker::use_batched<Posit32_2>(a, 1));  // forced, no size floor
  ker::set_default_backend(ker::Backend::Auto);
  EXPECT_TRUE(ker::use_batched<Posit32_2>(a, 4096));
}

TEST(KernelsDispatch, TelemetryForcesScalar) {
  telemetry::set_enabled(true);
  EXPECT_FALSE(ker::use_batched<Posit32_2>(kBatched, 4096));
  telemetry::set_enabled(false);
  telemetry::reset();
  EXPECT_TRUE(ker::use_batched<Posit32_2>(kBatched, 4096));
}

TEST(KernelsDispatch, UnsupportedScalarTypesStayScalar) {
  EXPECT_FALSE(ker::use_batched<float>(kBatched, 4096));
  EXPECT_FALSE(ker::use_batched<double>(kBatched, 4096));
}

// ---------------------------------------------------------------------------
// Solver-level identity: the backend choice must not change a single bit of
// any solve.

TEST(KernelsSolvers, CgBackendInvariant) {
  const auto& m = matrices::suite_matrix("bcsstk02");
  const la::Vec<double> b(static_cast<std::size_t>(m.csr.rows()), 1.0);
  la::CgOptions optS, optB;
  optS.kernels = kScalar;
  optB.kernels = kBatched;
  const auto cs = core::cg_in_format<Posit32_2>(m.csr, b, optS);
  const auto cb = core::cg_in_format<Posit32_2>(m.csr, b, optB);
  EXPECT_EQ(cs.status, cb.status);
  EXPECT_EQ(cs.iterations, cb.iterations);
  EXPECT_EQ(cs.final_relres, cb.final_relres);
  EXPECT_EQ(cs.true_relres, cb.true_relres);
}

TEST(KernelsSolvers, CholeskyBackendInvariant) {
  const auto& m = matrices::suite_matrix("bcsstk02");
  const la::Vec<double> b(static_cast<std::size_t>(m.dense.rows()), 1.0);
  const auto cs = core::cholesky_in_format<Posit32_2>(m.dense, b, kScalar);
  const auto cb = core::cholesky_in_format<Posit32_2>(m.dense, b, kBatched);
  EXPECT_EQ(cs.status, cb.status);
  EXPECT_EQ(cs.true_relres, cb.true_relres);
}

// ---------------------------------------------------------------------------
// Thread-count determinism: RESULTS artifacts from the batched backend must
// be byte-identical no matter how many threads ran the planes.

class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* v) {
    const char* old = std::getenv("PSTAB_THREADS");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    setenv("PSTAB_THREADS", v, 1);
  }
  ~ThreadsEnv() {
    if (had_)
      setenv("PSTAB_THREADS", saved_.c_str(), 1);
    else
      unsetenv("PSTAB_THREADS");
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(KernelsSolvers, BatchedArtifactsThreadCountInvariant) {
  const std::vector<const matrices::GeneratedMatrix*> suite = {
      &matrices::suite_matrix("bcsstk02"), &matrices::suite_matrix("lund_b")};
  core::SolveRequest req;
  req.backend = ker::Backend::Batched;

  const auto run = [&](const char* threads) {
    ThreadsEnv env(threads);
    const auto rows = core::run_cg_suite(suite, req);
    return core::cg_results_json("cg", rows, req);
  };
  const std::string doc1 = run("1");
  const std::string doc8 = run("8");
  EXPECT_EQ(doc1, doc8);
}

// ---------------------------------------------------------------------------
// Backend::Simd: per-ISA equivalence against the scalar loops, the dispatch
// rules (force/kill switch, Auto routing, unavailable-ISA fallback with a
// SolveReport note), and NaR/NaN propagation.  The exhaustive all-pairs and
// full-pattern sweeps live in kernels_exhaustive_test (slow tier); this is
// the fast routing-and-sanity tier.

namespace simd = pstab::la::kernels::simd;
const ker::Context kSimd{ker::Backend::Simd};

/// RAII ISA override; restores the PSTAB_SIMD / autodetect rule on exit.
class ForcedIsa {
 public:
  explicit ForcedIsa(simd::Isa i) : honored_(simd::force_isa(i)) {}
  ~ForcedIsa() { simd::clear_forced_isa(); }
  [[nodiscard]] bool honored() const { return honored_; }

 private:
  bool honored_;
};

/// The vector ISAs this binary + CPU can actually run (never includes
/// kScalar).  Empty on a machine with no compiled-in vector leg.
std::vector<simd::Isa> vector_isas() {
  std::vector<simd::Isa> v;
  for (const simd::Isa i :
       {simd::Isa::kAvx2, simd::Isa::kAvx512, simd::Isa::kNeon})
    if (simd::available(i)) v.push_back(i);
  return v;
}

/// A vector ISA this binary/CPU can NOT run (x86 can't run neon and vice
/// versa, so one always exists).
simd::Isa unavailable_isa() {
  for (const simd::Isa i :
       {simd::Isa::kNeon, simd::Isa::kAvx512, simd::Isa::kAvx2})
    if (!simd::available(i)) return i;
  return simd::Isa::kNeon;  // unreachable: no CPU runs all three
}

template <class T>
void check_simd_blas(bool specials) {
  unsigned seed = specials ? 2900 : 2100;
  for (const int n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n) +
                 (specials ? " specials" : " random"));
    const auto x = rand_vec<T>(n, seed++, specials);
    const auto y = rand_vec<T>(n, seed++, specials);
    const T alpha = scalar_traits<T>::from_double(1.25);
    const T beta = scalar_traits<T>::from_double(-0.75);

    EXPECT_TRUE(bits_equal(ker::dot(kScalar, x, y), ker::dot(kSimd, x, y)));
    EXPECT_TRUE(bits_equal(ker::nrm2(kScalar, x), ker::nrm2(kSimd, x)));

    auto ys = y, yv = y;
    ker::axpy(kScalar, alpha, x, ys);
    ker::axpy(kSimd, alpha, x, yv);
    EXPECT_TRUE(bits_equal(ys, yv));

    auto xs = x, xv = x;
    ker::scal(kScalar, alpha, xs);
    ker::scal(kSimd, alpha, xv);
    EXPECT_TRUE(bits_equal(xs, xv));

    la::Vec<T> zs(n), zv(n);
    ker::xpby(kScalar, x, beta, y, zs);
    ker::xpby(kSimd, x, beta, y, zv);
    EXPECT_TRUE(bits_equal(zs, zv));

    for (const bool sub : {false, true}) {
      const std::size_t m = n / 2;
      const T ss = ker::update_chain(kScalar, alpha, x.data(), 2, y.data(), 1,
                                     m, sub);
      const T sv = ker::update_chain(kSimd, alpha, x.data(), 2, y.data(), 1,
                                     m, sub);
      EXPECT_TRUE(bits_equal(ss, sv));
    }
  }

  // Dense gemv through the row-chained vector kernel.
  const int rows = 37, cols = 53;
  std::mt19937_64 rng(specials ? 2700 : 2770);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  la::Dense<double> Ad(rows, cols);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j) Ad(i, j) = dist(rng);
  const auto A = Ad.template cast<T>();
  const auto gx = rand_vec<T>(cols, specials ? 2701 : 2771, specials);
  la::Vec<T> gs, gv;
  ker::gemv(kScalar, A, gx, gs);
  ker::gemv(kSimd, A, gx, gv);
  EXPECT_TRUE(bits_equal(gs, gv));
}

TEST(SimdEquivalence, PerIsaBlas) {
  for (const simd::Isa isa : vector_isas()) {
    ForcedIsa f(isa);
    ASSERT_TRUE(f.honored());
    SCOPED_TRACE(simd::isa_name(isa));
    check_simd_blas<Posit16_1>(false);
    check_simd_blas<Posit16_1>(true);
    check_simd_blas<Posit32_2>(false);
    check_simd_blas<Posit32_2>(true);
    check_simd_blas<Posit32_3>(false);
    check_simd_blas<Posit32_3>(true);
  }
}

TEST(SimdEquivalence, NaRPropagationPerIsa) {
  for (const simd::Isa isa : vector_isas()) {
    ForcedIsa f(isa);
    SCOPED_TRACE(simd::isa_name(isa));
    const auto poison = [&](auto tag) {
      using T = decltype(tag);
      for (const int n : {1, 7, 8, 9, 64, 257}) {
        const auto base = rand_vec<T>(n, 8242 + n, false);
        const auto y = rand_vec<T>(n, 8252 + n, false);
        for (const int pos : {0, n / 2, n - 1}) {
          SCOPED_TRACE("n=" + std::to_string(n) +
                       " pos=" + std::to_string(pos));
          auto x = base;
          x[pos] = T::nar();

          const T ds = ker::dot(kScalar, x, y);
          const T dv = ker::dot(kSimd, x, y);
          EXPECT_TRUE(dv.is_nar());
          EXPECT_TRUE(bits_equal(ds, dv));

          const T alpha = scalar_traits<T>::from_double(-1.5);
          const T cs = ker::update_chain(kScalar, alpha, x.data(), 1,
                                         y.data(), 1, std::size_t(n), true);
          const T cv = ker::update_chain(kSimd, alpha, x.data(), 1, y.data(),
                                         1, std::size_t(n), true);
          EXPECT_TRUE(cv.is_nar());
          EXPECT_TRUE(bits_equal(cs, cv));

          auto as = y, av = y;
          ker::axpy(kScalar, alpha, x, as);
          ker::axpy(kSimd, alpha, x, av);
          EXPECT_TRUE(av[pos].is_nar());
          EXPECT_TRUE(bits_equal(as, av));
        }
      }
    };
    poison(Posit16_1{});
    poison(Posit32_2{});
    poison(Posit32_3{});
  }
}

// Lane-per-row SpMV against the scalar rows on a matrix built for the chunk
// edges: empty rows, rows shorter and longer than a chunk, a row count that
// is not a multiple of the chunk height, and NaR / zero / taper entries in
// both A and x.  The plane must follow every constructor and mutator.
template <class T>
std::vector<std::tuple<int, int, double>> spmv_edge_triplets(int rows,
                                                             int cols) {
  std::mt19937_64 rng(6100);
  std::uniform_real_distribution<double> dist(-3.0, 3.0);
  const auto dbl = [](T v) { return scalar_traits<T>::to_double(v); };
  const double special[] = {0.0,
                            std::nan(""),
                            dbl(T::maxpos()),
                            -dbl(T::minpos()),
                            dbl(T::from_bits(T::maxpos().bits() - 3)),
                            -dbl(T::from_bits(5))};
  static constexpr int kLens[] = {0, 1, 3, 7, 8, 9, 17, 41};
  std::vector<int> perm(static_cast<std::size_t>(cols));
  for (int j = 0; j < cols; ++j) perm[std::size_t(j)] = j;
  std::vector<std::tuple<int, int, double>> trips;
  for (int i = 0; i < rows; ++i) {
    const int len = std::min(cols, kLens[rng() % std::size(kLens)]);
    std::shuffle(perm.begin(), perm.end(), rng);
    for (int k = 0; k < len; ++k) {
      const double v =
          rng() % 6 == 0 ? special[rng() % std::size(special)] : dist(rng);
      trips.emplace_back(i, perm[std::size_t(k)], v);
    }
  }
  return trips;
}

template <class T>
void check_simd_spmv() {
  const int rows = 8 * 5 + 3, cols = 41;
  const auto trips = spmv_edge_triplets<T>(rows, cols);
  auto direct = la::Csr<T>::from_triplets(rows, cols, trips);
  const auto cast = la::Csr<double>::from_triplets(rows, cols, trips)
                        .template cast<T>();
  const T taper = T::from_bits(T::maxpos().bits() - 3);
  const auto check = [&](const la::Csr<T>& A, const char* what) {
    SCOPED_TRACE(what);
    for (unsigned seed = 0; seed < 12; ++seed) {
      SCOPED_TRACE("x seed " + std::to_string(seed));
      auto x = rand_vec<T>(cols, 6200 + seed, seed % 2 == 0);
      if (seed % 3 == 0) {
        x[seed % cols] = taper;
        x[(seed + 7) % cols] = -T::from_bits(5);
      }
      // Padding slots read column 0: a NaR there must not reach rows that
      // do not use it.
      if (seed % 4 == 1) x[0] = T::nar();
      la::Vec<T> ys, yv;
      ker::spmv(kScalar, A, x, ys);
      ker::spmv(kSimd, A, x, yv);
      EXPECT_TRUE(bits_equal(ys, yv));
    }
  };
  check(direct, "from_triplets");
  check(cast, "cast");
  direct.scale_values(0.75);
  check(direct, "scale_values");
}

TEST(SimdEquivalence, SpmvPerIsa) {
  for (const simd::Isa isa : vector_isas()) {
    ForcedIsa f(isa);
    ASSERT_TRUE(f.honored());
    SCOPED_TRACE(simd::isa_name(isa));
    check_simd_spmv<Posit32_2>();
    check_simd_spmv<Posit32_3>();
  }
}

// ---------------------------------------------------------------------------
// dot / axpy / gemv over posit16_1, posit32_2 and half at 128 and at 4096
// elements (gemv 256 x 4096 reaches the row-tile threshold): every backend
// must match the scalar loops bit for bit at 1 and 8 workers and with the
// vector legs routed through the scalar ISA.

template <class T>
void check_backend_grid() {
  const ker::Context kAuto{ker::Backend::Auto};
  for (const int n : {128, 4096}) {
    const int rows = n >= 4096 ? 256 : 8;
    for (const bool specials : {false, true}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (specials ? " specials" : " random"));
      const auto x = rand_vec<T>(n, specials ? 4101 : 4100, specials);
      const auto y = rand_vec<T>(n, specials ? 4201 : 4200, specials);
      const T alpha = scalar_traits<T>::from_double(-0.625);
      std::mt19937_64 rng(4300 + n);
      std::uniform_real_distribution<double> dist(-1.0, 1.0);
      la::Dense<double> Ad(rows, n);
      for (int i = 0; i < rows; ++i)
        for (int j = 0; j < n; ++j) Ad(i, j) = dist(rng);
      const auto A = Ad.template cast<T>();

      const T dot_ref = ker::dot(kScalar, x, y);
      auto axpy_ref = y;
      ker::axpy(kScalar, alpha, x, axpy_ref);
      la::Vec<T> gemv_ref;
      ker::gemv(kScalar, A, x, gemv_ref);
      for (const ker::Context& kc : {kBatched, kSimd, kAuto}) {
        SCOPED_TRACE(ker::to_string(kc.backend));
        EXPECT_TRUE(bits_equal(ker::dot(kc, x, y), dot_ref));
        auto ya = y;
        ker::axpy(kc, alpha, x, ya);
        EXPECT_TRUE(bits_equal(ya, axpy_ref));
        la::Vec<T> yg;
        ker::gemv(kc, A, x, yg);
        EXPECT_TRUE(bits_equal(yg, gemv_ref));
      }
    }
  }
}

TEST(KernelsEquivalence, BackendGridAcrossThreadsAndIsa) {
  const auto grid = [] {
    check_backend_grid<Posit16_1>();
    check_backend_grid<Posit32_2>();
    check_backend_grid<Posit32_3>();
    check_backend_grid<Half>();
  };
  for (const char* threads : {"1", "8"}) {
    SCOPED_TRACE(std::string("PSTAB_THREADS=") + threads);
    ThreadsEnv env(threads);
    grid();
  }
  SCOPED_TRACE("forced scalar ISA");
  ThreadsEnv env("1");
  ForcedIsa f(simd::Isa::kScalar);
  grid();
}

// ---------------------------------------------------------------------------
// Dispatch routing for the Simd backend.

TEST(SimdDispatch, ExplicitBackendRoutesWhenIsaActive) {
  const auto isas = vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector ISA on this runner";
  ForcedIsa f(isas.front());
  EXPECT_TRUE(ker::use_simd<Posit32_2>(kSimd, 1));  // no size floor
  EXPECT_TRUE(ker::use_simd<Posit32_3>(kSimd, 1));
  EXPECT_TRUE(ker::use_simd<Posit16_1>(kSimd, 1));
  EXPECT_FALSE(ker::use_simd<Posit32_2>(kScalar, 1 << 20));
  EXPECT_FALSE(ker::use_simd<Posit32_2>(kBatched, 1 << 20));
  // Backend::Simd never routes into the decoded-plane backend: its scalar
  // fallback is Backend::Scalar so the two stay interchangeable bitwise.
  EXPECT_FALSE(ker::use_batched<Posit32_2>(kSimd, 1 << 20));
}

TEST(SimdDispatch, AutoPicksSimdWhenAvailable) {
  // The env latch outranks auto dispatch, so this assertion only holds in a
  // default environment (the PSTAB_SIMD CI legs pin the ISA process-wide).
  if (std::getenv("PSTAB_SIMD")) GTEST_SKIP() << "PSTAB_SIMD pins dispatch";
  const auto isas = vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector ISA on this runner";
  const ker::Context a{ker::Backend::Auto};
  EXPECT_TRUE(ker::use_simd<Posit32_2>(a, ker::kAutoMinN));
  EXPECT_FALSE(ker::use_simd<Posit32_2>(a, ker::kAutoMinN - 1));
}

TEST(SimdDispatch, KillSwitchForcesScalarPath) {
  // force_isa(kScalar) is what PSTAB_SIMD=scalar latches at startup.
  ForcedIsa f(simd::Isa::kScalar);
  EXPECT_TRUE(f.honored());
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  EXPECT_EQ(simd::fallback_note(), nullptr);  // an honored request: no note
  EXPECT_FALSE(ker::use_simd<Posit32_2>(kSimd, 1 << 20));
  // The kernels still answer, through the scalar loops, bit-identically.
  const auto x = rand_vec<Posit32_2>(257, 31337, true);
  const auto y = rand_vec<Posit32_2>(257, 31338, true);
  EXPECT_TRUE(bits_equal(ker::dot(kScalar, x, y), ker::dot(kSimd, x, y)));
}

TEST(SimdDispatch, UnavailableIsaFallsBackToScalarWithNote) {
  const simd::Isa missing = unavailable_isa();
  ForcedIsa f(missing);
  EXPECT_FALSE(f.honored());
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  const char* note = simd::fallback_note();
  ASSERT_NE(note, nullptr);
  EXPECT_NE(std::string(note).find("->scalar"), std::string::npos);
  EXPECT_FALSE(ker::use_simd<Posit32_2>(kSimd, 1 << 20));

  // A solve that asked for the vector backend surfaces the note in its
  // report instead of failing — and still produces the scalar bits.
  const auto& m = matrices::suite_matrix("bcsstk02");
  const la::Vec<double> b(static_cast<std::size_t>(m.csr.rows()), 1.0);
  la::CgOptions optS, optV;
  optS.kernels = kScalar;
  optV.kernels = kSimd;
  const auto cs = core::cg_in_format<Posit32_2>(m.csr, b, optS);
  const auto cv = core::cg_in_format<Posit32_2>(m.csr, b, optV);
  EXPECT_EQ(cs.iterations, cv.iterations);
  EXPECT_EQ(cs.final_relres, cv.final_relres);

  const auto A = m.csr.template cast<Posit32_2>();
  const auto bp = la::kernels::from_double_vec<Posit32_2>(b);
  la::Vec<Posit32_2> xp;
  la::CgOptions direct;
  direct.kernels = kSimd;
  const auto rep = la::cg_solve(A, bp, xp, direct);
  ASSERT_FALSE(rep.recovery.empty());
  EXPECT_EQ(rep.recovery.front().action, note);
}

TEST(SimdDispatch, TelemetryForcesScalar) {
  telemetry::set_enabled(true);
  EXPECT_FALSE(ker::use_simd<Posit32_2>(kSimd, 4096));
  telemetry::set_enabled(false);
  telemetry::reset();
}

TEST(SimdDispatch, UnsupportedFormatsStayScalar) {
  EXPECT_FALSE(ker::use_simd<Half>(kSimd, 4096));
  EXPECT_FALSE(ker::use_simd<float>(kSimd, 4096));
  EXPECT_FALSE(ker::use_simd<Posit16_2>(kSimd, 4096));
  // The lane-per-row SpMV is a 32-bit leg only.
  EXPECT_FALSE(simd::ops<Posit16_1>::lane_spmv);
  EXPECT_TRUE(simd::ops<Posit32_2>::lane_spmv);
  EXPECT_TRUE(simd::ops<Posit32_3>::lane_spmv);
}

TEST(SimdDispatch, ParseIsaNamesRoundTrip) {
  simd::Isa out;
  EXPECT_TRUE(simd::parse_isa("scalar", out));
  EXPECT_EQ(out, simd::Isa::kScalar);
  EXPECT_TRUE(simd::parse_isa("0", out));
  EXPECT_EQ(out, simd::Isa::kScalar);
  for (const simd::Isa i :
       {simd::Isa::kAvx2, simd::Isa::kAvx512, simd::Isa::kNeon}) {
    EXPECT_TRUE(simd::parse_isa(simd::isa_name(i), out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(simd::parse_isa("sse9", out));
}

// ---------------------------------------------------------------------------
// Solver-level identity for the vector backend, per available ISA.

template <class T>
void check_cg_simd_per_isa() {
  const auto& m = matrices::suite_matrix("bcsstk02");
  const la::Vec<double> b(static_cast<std::size_t>(m.csr.rows()), 1.0);
  la::CgOptions optS;
  optS.kernels = kScalar;
  const auto cs = core::cg_in_format<T>(m.csr, b, optS);
  for (const simd::Isa isa : vector_isas()) {
    ForcedIsa f(isa);
    SCOPED_TRACE(simd::isa_name(isa));
    la::CgOptions optV;
    optV.kernels = kSimd;
    const auto cv = core::cg_in_format<T>(m.csr, b, optV);
    EXPECT_EQ(cs.status, cv.status);
    EXPECT_EQ(cs.iterations, cv.iterations);
    EXPECT_EQ(cs.final_relres, cv.final_relres);
    EXPECT_EQ(cs.true_relres, cv.true_relres);
  }
}

TEST(KernelsSolvers, CgSimdBackendInvariantPerIsa) {
  check_cg_simd_per_isa<Posit32_2>();
  check_cg_simd_per_isa<Posit32_3>();
}

TEST(KernelsSolvers, CholeskySimdBackendInvariantPerIsa) {
  const auto& m = matrices::suite_matrix("bcsstk02");
  const la::Vec<double> b(static_cast<std::size_t>(m.dense.rows()), 1.0);
  const auto cs = core::cholesky_in_format<Posit32_2>(m.dense, b, kScalar);
  for (const simd::Isa isa : vector_isas()) {
    ForcedIsa f(isa);
    SCOPED_TRACE(simd::isa_name(isa));
    const auto cv = core::cholesky_in_format<Posit32_2>(m.dense, b, kSimd);
    EXPECT_EQ(cs.status, cv.status);
    EXPECT_EQ(cs.true_relres, cv.true_relres);
  }
}

}  // namespace
