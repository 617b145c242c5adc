// Compressed-sparse-row matrix templated over the scalar format.  CG is a
// Krylov method driven by sparse matrix-vector products, so the suite
// matrices are held in CSR; direct solvers densify first.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <tuple>
#include <vector>

#include "la/dense.hpp"
#include "la/kernels/kernels.hpp"

namespace pstab::la {

template <class T>
class Csr {
 public:
  Csr() = default;

  /// Build from (row, col, value) triplets; duplicates are summed.
  static Csr from_triplets(int rows, int cols,
                           std::vector<std::tuple<int, int, double>> trips) {
    std::sort(trips.begin(), trips.end(), [](const auto& a, const auto& b) {
      return std::tie(std::get<0>(a), std::get<1>(a)) <
             std::tie(std::get<0>(b), std::get<1>(b));
    });
    Csr m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.ptr_.assign(rows + 1, 0);
    std::vector<double> vals;
    int last_row = -1;
    for (std::size_t k = 0; k < trips.size(); ++k) {
      const auto [i, j, v] = trips[k];
      assert(0 <= i && i < rows && 0 <= j && j < cols);
      if (!m.col_.empty() && last_row == i && m.col_.back() == j) {
        vals.back() += v;  // duplicate entry: accumulate
      } else {
        m.col_.push_back(j);
        vals.push_back(v);
        last_row = i;
        ++m.ptr_[i + 1];
      }
    }
    for (int i = 0; i < rows; ++i) m.ptr_[i + 1] += m.ptr_[i];
    m.val_ = kernels::from_double_vec<T>(vals);
    m.build_sell();
    return m;
  }

  static Csr from_dense(const Dense<double>& d, double drop_tol = 0.0) {
    std::vector<std::tuple<int, int, double>> trips;
    for (int i = 0; i < d.rows(); ++i)
      for (int j = 0; j < d.cols(); ++j)
        if (std::fabs(d(i, j)) > drop_tol)
          trips.emplace_back(i, j, d(i, j));
    return from_triplets(d.rows(), d.cols(), std::move(trips));
  }

  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] int cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return col_.size(); }

  [[nodiscard]] const std::vector<int>& row_ptr() const noexcept { return ptr_; }
  [[nodiscard]] const std::vector<int>& col_idx() const noexcept { return col_; }
  [[nodiscard]] const std::vector<T>& values() const noexcept { return val_; }
  /// The decoded SELL-C plane the lane-per-row vector SpMV reads; empty for
  /// formats without that leg (kernels::simd::ops<T>::lane_spmv).  Rebuilt
  /// by every constructor and mutator, so it always matches values().
  [[nodiscard]] const kernels::simd::SellPlane& sell() const noexcept {
    return sell_;
  }

  /// y = A * x with per-operation rounding in T.  Large matrices are
  /// row-partitioned over fixed index-owned tiles (kernels.hpp thresholds);
  /// each row's chain is self-contained, so the bytes never depend on the
  /// thread count.
  void spmv(const Vec<T>& x, Vec<T>& y) const {
    assert(int(x.size()) == cols_);
    y.assign(rows_, scalar_traits<T>::zero());
    const auto run = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        T s = scalar_traits<T>::zero();
        for (int k = ptr_[i]; k < ptr_[i + 1]; ++k) s += val_[k] * x[col_[k]];
        y[i] = s;
      }
    };
    kernels::sparse_row_tiles(std::size_t(rows_), run);
  }

  [[nodiscard]] Vec<T> operator*(const Vec<T>& x) const {
    Vec<T> y;
    spmv(x, y);
    return y;
  }

  [[nodiscard]] Dense<T> to_dense() const {
    Dense<T> d(rows_, cols_);
    for (int i = 0; i < rows_; ++i)
      for (int k = ptr_[i]; k < ptr_[i + 1]; ++k) d(i, col_[k]) = val_[k];
    return d;
  }

  /// Recast the values into another scalar format (no clamping).
  template <class U>
  [[nodiscard]] Csr<U> cast() const {
    Csr<U> r;
    r.rows_ = rows_;
    r.cols_ = cols_;
    r.ptr_ = ptr_;
    r.col_ = col_;
    r.val_ = kernels::from_double_vec<U>(kernels::to_double_vec(val_));
    r.build_sell();
    return r;
  }

  /// Multiply every stored value by a double scalar (exact when s is a power
  /// of two and the format is IEEE; posits may round — see paper §V-B).
  void scale_values(double s) {
    for (auto& v : val_)
      v = scalar_traits<T>::from_double(scalar_traits<T>::to_double(v) * s);
    build_sell();
  }

  template <class U>
  friend class Csr;

 private:
  void build_sell() {
    if constexpr (kernels::simd::ops<T>::lane_spmv) {
      const auto vd = kernels::to_double_vec(val_);
      sell_ = kernels::simd::make_sell_plane(rows_, ptr_.data(), col_.data(),
                                             vd.data());
    }
  }

  int rows_ = 0, cols_ = 0;
  std::vector<int> ptr_, col_;
  std::vector<T> val_;
  kernels::simd::SellPlane sell_;
};

}  // namespace pstab::la
