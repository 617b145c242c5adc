// Double-double ("compensated") arithmetic: ~106-bit significands from
// error-free transforms.  Carson & Higham's three-precision IR analysis
// (which the paper's §V-D cites) calls for computing residuals at TWICE the
// working precision; DD is the standard software realization, and
// la::mixed_ir uses it for the ResidualPrec::dd residual stage.
#pragma once

#include <cmath>

namespace pstab::mp {

struct DD {
  double hi = 0.0, lo = 0.0;

  constexpr DD() = default;
  constexpr DD(double h) : hi(h) {}
  constexpr DD(double h, double l) : hi(h), lo(l) {}

  [[nodiscard]] double to_double() const { return hi + lo; }
};

/// Error-free sum: a + b = s + e exactly (Knuth TwoSum).
inline DD two_sum(double a, double b) {
  const double s = a + b;
  const double bb = s - a;
  const double e = (a - (s - bb)) + (b - bb);
  return {s, e};
}

/// Error-free product via fma: a * b = p + e exactly.
inline DD two_prod(double a, double b) {
  const double p = a * b;
  const double e = std::fma(a, b, -p);
  return {p, e};
}

inline DD dd_normalize(double hi, double lo) {
  const DD s = two_sum(hi, lo);
  return s;
}

inline DD operator+(DD a, DD b) {
  DD s = two_sum(a.hi, b.hi);
  s.lo += a.lo + b.lo;
  return dd_normalize(s.hi, s.lo);
}

inline DD operator-(DD a) { return {-a.hi, -a.lo}; }
inline DD operator-(DD a, DD b) { return a + (-b); }

inline DD operator*(DD a, DD b) {
  DD p = two_prod(a.hi, b.hi);
  p.lo += a.hi * b.lo + a.lo * b.hi;
  return dd_normalize(p.hi, p.lo);
}

inline DD operator/(DD a, DD b) {
  const double q1 = a.hi / b.hi;
  DD r = a - b * DD(q1);
  const double q2 = r.hi / b.hi;
  r = r - b * DD(q2);
  const double q3 = r.hi / b.hi;
  return dd_normalize(q1, q2) + DD(q3);
}

inline bool operator<(DD a, DD b) {
  return a.hi < b.hi || (a.hi == b.hi && a.lo < b.lo);
}

/// Residual r = b - A x with the inner accumulation in double-double; the
/// returned vector is the DD result rounded to double — the extra precision
/// ensures the ROUNDED residual is fully accurate, which is what IR needs.
template <class DenseT, class VecT>
VecT dd_residual(const DenseT& A, const VecT& b, const VecT& x) {
  const int n = A.rows();
  VecT r(n);
  for (int i = 0; i < n; ++i) {
    DD s(b[i]);
    for (int j = 0; j < n; ++j) s = s - two_prod(A(i, j), x[j]);
    r[i] = s.to_double();
  }
  return r;
}

}  // namespace pstab::mp
