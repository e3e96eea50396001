// The abstraction function phi (commute/value.h). Everything downstream —
// mode resolution, the PHI_COLLISION class of the attribution profiler, the
// abstract-values sweep — assumes alpha_of is a total function into
// [0, size()): in particular that negative keys do NOT get the C++ signed
// remainder (which would be negative and index out of bounds).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "commute/value.h"

namespace semlock::commute {
namespace {

TEST(ValueAbstraction, NegativeKeysGetTheNonNegativeRemainder) {
  const ValueAbstraction phi(4);
  EXPECT_EQ(phi.alpha_of(-1), 3);
  EXPECT_EQ(phi.alpha_of(-4), 0);
  EXPECT_EQ(phi.alpha_of(-5), 3);
  EXPECT_EQ(phi.alpha_of(-7), 1);
  for (Value v = -100; v <= 100; ++v) {
    const int a = phi.alpha_of(v);
    EXPECT_GE(a, 0) << "v=" << v;
    EXPECT_LT(a, phi.size()) << "v=" << v;
    // phi is periodic in n, across the sign boundary too.
    EXPECT_EQ(phi.alpha_of(v + 4), a) << "v=" << v;
  }
}

TEST(ValueAbstraction, ExtremeKeysStayInRange) {
  for (const int n : {1, 2, 3, 64, 1 << 20}) {
    const ValueAbstraction phi(n);
    for (const Value v : {std::numeric_limits<Value>::min(),
                          std::numeric_limits<Value>::min() + 1,
                          std::numeric_limits<Value>::max()}) {
      const int a = phi.alpha_of(v);
      EXPECT_GE(a, 0) << "n=" << n << " v=" << v;
      EXPECT_LT(a, n) << "n=" << n << " v=" << v;
    }
  }
}

TEST(ValueAbstraction, SingleClassMapsEverythingToZero) {
  const ValueAbstraction phi(1);
  EXPECT_EQ(phi.size(), 1);
  for (const Value v : {Value{0}, Value{1}, Value{-1}, Value{12345},
                        std::numeric_limits<Value>::min(),
                        std::numeric_limits<Value>::max()}) {
    EXPECT_EQ(phi.alpha_of(v), 0) << "v=" << v;
  }
}

TEST(ValueAbstraction, NonPositiveSizeClampsToOneClass) {
  EXPECT_EQ(ValueAbstraction(0).size(), 1);
  EXPECT_EQ(ValueAbstraction(-3).size(), 1);
  EXPECT_EQ(ValueAbstraction(0).alpha_of(42), 0);
  EXPECT_EQ(ValueAbstraction(-3).alpha_of(-42), 0);
}

TEST(ValueAbstraction, LargeNIsIdentityOnSmallKeys) {
  // When n exceeds the key range, distinct keys stay distinct — the regime
  // where the attribution sweep's false-conflict rate reaches zero.
  const ValueAbstraction phi(1 << 20);
  EXPECT_EQ(phi.alpha_of(0), 0);
  EXPECT_EQ(phi.alpha_of(123), 123);
  EXPECT_EQ(phi.alpha_of((1 << 20) - 1), (1 << 20) - 1);
  EXPECT_EQ(phi.alpha_of(1 << 20), 0);  // wraps exactly at n
}

TEST(ValueAbstraction, PinsTheFig19Assignment) {
  // Fig. 19 fixes phi(5) = alpha_1; with the transparent modulus and n = 2,
  // 5 mod 2 = 1 reproduces it directly (the header documents this).
  EXPECT_EQ(ValueAbstraction(2).alpha_of(5), 1);
}

TEST(ValueAbstraction, MaskAndDivisionAgreeOnTheNonNegativeRemainder) {
  // Power-of-two n takes the mask path, the others the division: both must
  // give ((v % n) + n) % n, across the sign boundary and at both extremes.
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  for (const int n : {1, 2, 3, 7, 64, 85, 256, 1024}) {
    const ValueAbstraction phi(n);
    for (const Value v :
         {kMin, kMin + 1, Value{-65}, Value{-64}, Value{-1}, Value{0},
          Value{1}, Value{63}, Value{64}, kMax}) {
      EXPECT_EQ(phi.alpha_of(v), static_cast<int>(((v % n) + n) % n))
          << "n=" << n << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace semlock::commute
