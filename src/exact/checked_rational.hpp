// Exact rationals over CheckedInt: the fast-path companion of Rational.
//
// The LLL Gram-Schmidt state and the pseudo-inverse coefficient bounds of
// the exact conflict decision are rational computations; running them over
// int64 numerators/denominators (trapping to BigInt on overflow) removes
// the last limb allocations from the conflict-free hot path.  The class
// mirrors exactly the Rational interface the templated kernels use; the
// RationalOf trait below picks the right rational type for a given integer
// scalar so one template body serves both substrates.
#pragma once

#include <compare>
#include <string>
#include <utility>

#include "exact/bigint.hpp"
#include "exact/checked_int.hpp"
#include "exact/rational.hpp"

namespace sysmap::exact {

class CheckedRational {
 public:
  /// Zero.
  CheckedRational() : num_(0), den_(1) {}

  /// Integer value (implicit: rationals extend the integer scalar type).
  CheckedRational(CheckedInt value)  // NOLINT(google-explicit-constructor)
      : num_(value), den_(1) {}
  CheckedRational(std::int64_t value)  // NOLINT(google-explicit-constructor)
      : num_(value), den_(1) {}

  /// num/den, normalized; throws OverflowError when den == 0.
  CheckedRational(CheckedInt num, CheckedInt den)
      : num_(std::move(num)), den_(std::move(den)) {
    normalize();
  }

  const CheckedInt& num() const noexcept { return num_; }
  const CheckedInt& den() const noexcept { return den_; }

  int signum() const noexcept { return num_.signum(); }
  bool is_zero() const noexcept { return num_.is_zero(); }
  bool is_integer() const noexcept { return den_.is_one(); }

  /// Integral value; throws std::domain_error when not an integer.
  CheckedInt to_integer() const {
    if (!is_integer()) {
      throw std::domain_error("CheckedRational: not an integer");
    }
    return num_;
  }

  /// Largest integer <= *this.
  CheckedInt floor() const { return CheckedInt::floor_div(num_, den_); }
  /// Smallest integer >= *this.
  CheckedInt ceil() const { return -CheckedInt::floor_div(-num_, den_); }

  /// "p/q" (or just "p" for integers).
  std::string to_string() const {
    return is_integer() ? num_.to_string()
                        : num_.to_string() + "/" + den_.to_string();
  }

  CheckedRational operator-() const {
    CheckedRational out;
    out.num_ = -num_;
    out.den_ = den_;
    return out;
  }
  CheckedRational abs() const {
    CheckedRational out;
    out.num_ = num_.abs();
    out.den_ = den_;
    return out;
  }

  CheckedRational& operator+=(const CheckedRational& rhs) {
    num_ = num_ * rhs.den_ + rhs.num_ * den_;
    den_ = den_ * rhs.den_;
    normalize();
    return *this;
  }
  CheckedRational& operator-=(const CheckedRational& rhs) {
    num_ = num_ * rhs.den_ - rhs.num_ * den_;
    den_ = den_ * rhs.den_;
    normalize();
    return *this;
  }
  CheckedRational& operator*=(const CheckedRational& rhs) {
    num_ = num_ * rhs.num_;
    den_ = den_ * rhs.den_;
    normalize();
    return *this;
  }
  CheckedRational& operator/=(const CheckedRational& rhs) {
    num_ = num_ * rhs.den_;
    den_ = den_ * rhs.num_;
    normalize();
    return *this;
  }

  friend CheckedRational operator+(CheckedRational a,
                                   const CheckedRational& b) {
    return a += b;
  }
  friend CheckedRational operator-(CheckedRational a,
                                   const CheckedRational& b) {
    return a -= b;
  }
  friend CheckedRational operator*(CheckedRational a,
                                   const CheckedRational& b) {
    return a *= b;
  }
  friend CheckedRational operator/(CheckedRational a,
                                   const CheckedRational& b) {
    return a /= b;
  }

  friend bool operator==(const CheckedRational& a,
                         const CheckedRational& b) noexcept {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend std::strong_ordering operator<=>(const CheckedRational& a,
                                          const CheckedRational& b) {
    // Cross-multiply with trapping products; both denominators are > 0.
    return a.num_ * b.den_ <=> b.num_ * a.den_;
  }

 private:
  CheckedInt num_;
  CheckedInt den_;  // always > 0

  void normalize() {
    if (den_.is_zero()) throw OverflowError("CheckedRational: zero denominator");
    if (den_.is_negative()) {
      num_ = -num_;
      den_ = -den_;
    }
    CheckedInt g = CheckedInt::gcd(num_, den_);
    if (!g.is_zero() && !g.is_one()) {
      num_ /= g;
      den_ /= g;
    }
    if (num_.is_zero()) den_ = CheckedInt(1);
  }
};

/// Maps an exact integer scalar to its rational companion, so templated
/// rational kernels (LLL, pseudo-inverse bounds) pick the right field.
template <typename Z>
struct RationalOf;

template <>
struct RationalOf<BigInt> {
  using type = Rational;
};

template <>
struct RationalOf<CheckedInt> {
  using type = CheckedRational;
};

/// The inverse map: the integer scalar a rational's floor() and
/// to_integer() return (BigInt for Rational, CheckedInt for
/// CheckedRational).
template <typename Q>
using IntegerOf = decltype(std::declval<const Q&>().to_integer());

}  // namespace sysmap::exact
