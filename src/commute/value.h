// Runtime value domain for ADT operation arguments.
//
// The paper's ADT operations carry Java values; for the reproduction all
// operation arguments are modelled as 64-bit integers (keys, node ids,
// element values, and opaque references such as "the Set pointed to by
// `set`" — references are identified by address cast to Value).
#pragma once

#include <cstdint>

namespace semlock::commute {

using Value = std::int64_t;

// The abstraction function phi : Value -> {alpha_0 .. alpha_{n-1}} of
// Section 5.1. The paper uses an arbitrary hash; we use a transparent
// modulus so tests can predict alpha assignments (e.g. Fig. 19 fixes
// phi(5) = alpha_1; with n = 2, 5 mod 2 = 1 reproduces it directly).
class ValueAbstraction {
 public:
  // `num_abstract` is n, the number of abstract values (paper uses up to 64).
  explicit constexpr ValueAbstraction(int num_abstract) noexcept
      : n_(num_abstract > 0 ? num_abstract : 1),
        mask_((n_ & (n_ - 1)) == 0 ? n_ - 1 : -1) {}

  constexpr int size() const noexcept { return n_; }

  // phi(v): non-negative remainder of v modulo n. For a power-of-two n that
  // is the low bits of v's two's complement, negatives included, so the
  // lookup on every keyed acquisition pays an AND instead of a division.
  constexpr int alpha_of(Value v) const noexcept {
    if (mask_ >= 0) return static_cast<int>(v & mask_);
    const Value m = v % n_;
    return static_cast<int>(m < 0 ? m + n_ : m);
  }

 private:
  int n_;
  int mask_;  // n - 1 when n is a power of two, else -1
};

}  // namespace semlock::commute
