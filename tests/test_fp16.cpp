#include "common/fp16.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"

namespace gpurel {
namespace {

// --- Exact integer reference ------------------------------------------------
// A finite half is m * 2^(max(e, 1) - 25) for its 11-bit significand m and
// exponent field e: an integer count of 2^-24. Sums of halves are exact in
// that unit, products and product-sums in 2^-48, and 128-bit integers hold
// both. round_exact then rounds once, to nearest-even.

using i128 = __int128;
using u128 = unsigned __int128;

bool finite_half(std::uint16_t h) { return ((h >> 10) & 0x1fu) != 0x1fu; }

/// The value of finite half `h` in units of 2^-24.
i128 half_units(std::uint16_t h) {
  const unsigned e = (h >> 10) & 0x1fu;
  const std::uint32_t m = (h & 0x3ffu) | (e != 0 ? 0x400u : 0u);
  const i128 mag = static_cast<i128>(m) << (e != 0 ? e - 1 : 0);
  return (h & 0x8000u) != 0 ? -mag : mag;
}

/// Round v * 2^-scale (scale >= 24) to binary16, once, to nearest-even. An
/// exact zero takes the sign `zero_negative`; a nonzero value that rounds
/// to zero keeps its own sign.
std::uint16_t round_exact(i128 v, int scale, bool zero_negative) {
  if (v == 0) return zero_negative ? 0x8000u : 0u;
  const bool neg = v < 0;
  const u128 mag = neg ? static_cast<u128>(-v) : static_cast<u128>(v);
  const auto hi = static_cast<std::uint64_t>(mag >> 64);
  const int msb = hi != 0 ? 127 - std::countl_zero(hi)
                          : 63 - std::countl_zero(static_cast<std::uint64_t>(mag));
  // Keep 11 significant bits, but never finer than the 2^-24 subnormal step.
  const int shift = std::max(msb - 10, scale - 24);
  u128 q = mag >> shift;
  if (shift > 0) {
    const u128 rem = mag - (q << shift);
    const u128 halfway = u128{1} << (shift - 1);
    if (rem > halfway || (rem == halfway && (q & 1u) != 0)) ++q;
  }
  int e = shift - scale;  // value = q * 2^e
  if (q == 2048) {        // rounding carried into the next binade
    q = 1024;
    ++e;
  }
  std::uint32_t bits = 0;
  if (q < 1024) {
    bits = static_cast<std::uint32_t>(q);  // subnormal (e == -24) or zero
  } else if (e + 25 >= 31) {
    bits = 0x7c00u;  // overflow to infinity
  } else {
    bits = (static_cast<std::uint32_t>(e + 25) << 10) |
           static_cast<std::uint32_t>(q - 1024);
  }
  return static_cast<std::uint16_t>((neg ? 0x8000u : 0u) | bits);
}

std::uint16_t exact_add(std::uint16_t a, std::uint16_t b) {
  // x + (-x) is +0; only -0 + -0 is -0.
  return round_exact(half_units(a) + half_units(b), 24,
                     (a & b & 0x8000u) != 0);
}

std::uint16_t exact_mul(std::uint16_t a, std::uint16_t b) {
  return round_exact(half_units(a) * half_units(b), 48,
                     ((a ^ b) & 0x8000u) != 0);
}

std::uint16_t exact_fma(std::uint16_t a, std::uint16_t b, std::uint16_t c) {
  const i128 product = half_units(a) * half_units(b);
  const bool product_negative = ((a ^ b) & 0x8000u) != 0;
  return round_exact(product + (half_units(c) << 24), 48,
                     product_negative && (c & 0x8000u) != 0);
}

/// A uniformly drawn finite half bit pattern.
std::uint16_t random_finite(Rng& rng) {
  for (;;) {
    const auto h = static_cast<std::uint16_t>(rng.uniform_u64(0x10000));
    if (finite_half(h)) return h;
  }
}

TEST(Fp16, KnownEncodings) {
  EXPECT_EQ(f32_to_f16_bits(0.0f), 0x0000u);
  EXPECT_EQ(f32_to_f16_bits(-0.0f), 0x8000u);
  EXPECT_EQ(f32_to_f16_bits(1.0f), 0x3c00u);
  EXPECT_EQ(f32_to_f16_bits(-1.0f), 0xbc00u);
  EXPECT_EQ(f32_to_f16_bits(2.0f), 0x4000u);
  EXPECT_EQ(f32_to_f16_bits(0.5f), 0x3800u);
  EXPECT_EQ(f32_to_f16_bits(65504.0f), 0x7bffu);  // max finite half
}

TEST(Fp16, OverflowToInfinity) {
  EXPECT_EQ(f32_to_f16_bits(65520.0f), 0x7c00u);  // rounds up to inf
  EXPECT_EQ(f32_to_f16_bits(1e10f), 0x7c00u);
  EXPECT_EQ(f32_to_f16_bits(-1e10f), 0xfc00u);
}

TEST(Fp16, InfAndNanPropagate) {
  EXPECT_EQ(f32_to_f16_bits(INFINITY), 0x7c00u);
  EXPECT_EQ(f32_to_f16_bits(-INFINITY), 0xfc00u);
  EXPECT_TRUE(Half::from_float(NAN).is_nan());
  EXPECT_TRUE(Half::from_bits(0x7c00).is_inf());
  EXPECT_FALSE(Half::from_bits(0x7c00).is_nan());
}

TEST(Fp16, SubnormalsRoundTrip) {
  // Smallest positive subnormal: 2^-24.
  EXPECT_EQ(f32_to_f16_bits(std::ldexp(1.0f, -24)), 0x0001u);
  EXPECT_FLOAT_EQ(f16_bits_to_f32(0x0001), std::ldexp(1.0f, -24));
  // Largest subnormal: (1023/1024) * 2^-14.
  EXPECT_FLOAT_EQ(f16_bits_to_f32(0x03ff), std::ldexp(1023.0f, -24));
  // Below half the smallest subnormal rounds to zero.
  EXPECT_EQ(f32_to_f16_bits(std::ldexp(1.0f, -26)), 0x0000u);
}

TEST(Fp16, RoundToNearestEven) {
  // 1 + 2^-11 is exactly between 1.0 (0x3c00, even) and 1+2^-10 (0x3c01).
  EXPECT_EQ(f32_to_f16_bits(1.0f + std::ldexp(1.0f, -11)), 0x3c00u);
  // 1 + 3*2^-11 is between 0x3c01 (odd) and 0x3c02 (even): rounds to even.
  EXPECT_EQ(f32_to_f16_bits(1.0f + 3 * std::ldexp(1.0f, -11)), 0x3c02u);
}

TEST(Fp16, AllBitPatternsRoundTripThroughFloat) {
  // Property: every finite half converts to float and back unchanged.
  for (std::uint32_t b = 0; b < 0x10000u; ++b) {
    const auto h = static_cast<std::uint16_t>(b);
    const bool is_nan = ((h >> 10) & 0x1f) == 0x1f && (h & 0x3ff) != 0;
    if (is_nan) continue;
    EXPECT_EQ(f32_to_f16_bits(f16_bits_to_f32(h)), h) << "pattern " << b;
  }
}

TEST(Fp16, ArithmeticMatchesReferenceOnExactCases) {
  const Half two = Half::from_float(2.0f);
  const Half three = Half::from_float(3.0f);
  EXPECT_FLOAT_EQ(half_add(two, three).to_float(), 5.0f);
  EXPECT_FLOAT_EQ(half_mul(two, three).to_float(), 6.0f);
  EXPECT_FLOAT_EQ(half_fma(two, three, two).to_float(), 8.0f);
}

TEST(Fp16, AdditionRoundsOnce) {
  // 2048 + 1 = 2049 is not representable (spacing 2 at that magnitude);
  // RNE takes it to 2048.
  const Half big = Half::from_float(2048.0f);
  const Half one = Half::from_float(1.0f);
  EXPECT_FLOAT_EQ(half_add(big, one).to_float(), 2048.0f);
  // 2048 + 3 = 2051 ties between 2050 (odd mantissa) and 2052 (even): RNE
  // picks 2052.
  EXPECT_FLOAT_EQ(half_add(big, Half::from_float(3.0f)).to_float(), 2052.0f);
  // 2048 + 5 -> 2052 unambiguously (2053 is closer to 2052 than 2054).
  EXPECT_FLOAT_EQ(half_add(big, Half::from_float(5.0f)).to_float(), 2052.0f);
}

TEST(Fp16, FmaIsFused) {
  // Choose a, b, c where mul-then-round differs from fused: a*b slightly
  // below a representable value, c pushes across.
  Rng rng(99);
  int fused_differs = 0;
  for (int i = 0; i < 2000; ++i) {
    const Half a = Half::from_float(static_cast<float>(rng.uniform(0.5, 2.0)));
    const Half b = Half::from_float(static_cast<float>(rng.uniform(0.5, 2.0)));
    const Half c = Half::from_float(static_cast<float>(rng.uniform(-1.0, 1.0)));
    const Half fused = half_fma(a, b, c);
    const Half split = half_add(half_mul(a, b), c);
    const double exact =
        static_cast<double>(a.to_float()) * b.to_float() + c.to_float();
    // Fused result must be at least as close to exact as the split result.
    EXPECT_LE(std::fabs(fused.to_float() - exact),
              std::fabs(split.to_float() - exact) + 1e-12);
    if (fused.bits() != split.bits()) ++fused_differs;
  }
  EXPECT_GT(fused_differs, 0);  // fusion is observable
}

TEST(Fp16, ExactReferenceOnKnownCases) {
  EXPECT_EQ(exact_add(0x4000, 0x4200), 0x4500u);  // 2 + 3 = 5
  EXPECT_EQ(exact_add(0x6800, 0x3c00), 0x6800u);  // 2048 + 1: tie to even
  EXPECT_EQ(exact_add(0x6800, 0x4200), 0x6802u);  // 2048 + 3: tie to even
  EXPECT_EQ(exact_add(0x7bff, 0x7bff), 0x7c00u);  // overflow
  EXPECT_EQ(exact_add(0x3c00, 0xbc00), 0x0000u);  // x + (-x) = +0
  EXPECT_EQ(exact_add(0x8000, 0x8000), 0x8000u);  // -0 + -0 = -0
  EXPECT_EQ(exact_mul(0x0001, 0x3800), 0x0000u);  // 2^-25: tie to even 0
  EXPECT_EQ(exact_mul(0x8001, 0x3800), 0x8000u);  // ...keeping its sign
  EXPECT_EQ(exact_mul(0x0001, 0x3c00), 0x0001u);
  EXPECT_EQ(exact_mul(0x4000, 0x4200), 0x4600u);  // 2 * 3 = 6
  EXPECT_EQ(exact_fma(0x4000, 0x4200, 0x4000), 0x4800u);  // 2 * 3 + 2 = 8
}

TEST(Fp16, AddAndMulMatchExactReference) {
  // Every finite half as one operand, sampled finite halves as the other,
  // plus near-negations of the first to reach cancellation. float holds a
  // half product exactly, and a float sum rounds at 24 bits >= 2 * 11 + 2,
  // so rounding it again to half is still correct: both ops must match the
  // single exact rounding bit for bit.
  Rng rng(0xf16);
  constexpr unsigned kSamples = 48;
  std::uint64_t checked = 0;
  for (std::uint32_t x = 0; x < 0x10000u; ++x) {
    const auto a = static_cast<std::uint16_t>(x);
    if (!finite_half(a)) continue;
    const Half ha = Half::from_bits(a);
    auto check = [&](std::uint16_t b) {
      const Half hb = Half::from_bits(b);
      ASSERT_EQ(half_add(ha, hb).bits(), exact_add(a, b))
          << std::hex << "half_add(0x" << a << ", 0x" << b << ")";
      ASSERT_EQ(half_mul(ha, hb).bits(), exact_mul(a, b))
          << std::hex << "half_mul(0x" << a << ", 0x" << b << ")";
      ++checked;
    };
    for (unsigned i = 0; i < kSamples; ++i) check(random_finite(rng));
    for (unsigned d = 0; d < 7; ++d) {
      const auto b = static_cast<std::uint16_t>((a ^ 0x8000u) + d - 3u);
      if (finite_half(b) && ((b ^ a) & 0x8000u) != 0) check(b);
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(checked, 63488u * kSamples);
}

TEST(Fp16, FmaRoundsTwiceKnownDefect) {
  // half_fma rounds the exact product-sum to double, then float, then half,
  // not once. Here the exact value 1583.49994 rounds to 1583 (0x662f), but
  // float rounds it to the tie 1583.5 first and half then ties to even,
  // 1584 (0x6630). A fix changes campaign results, so it needs an engine
  // version bump and re-pinned digests (ROADMAP item 7); this pin keeps
  // the change deliberate.
  EXPECT_EQ(exact_fma(0xc6a2, 0xdb76, 0xad61), 0x662fu);
  EXPECT_EQ(half_fma(Half::from_bits(0xc6a2), Half::from_bits(0xdb76),
                     Half::from_bits(0xad61))
                .bits(),
            0x6630u);
}

TEST(Fp16, ConversionIsMonotonic) {
  // Property: increasing float inputs produce non-decreasing half values.
  float prev = f16_bits_to_f32(0x0000);
  for (std::uint16_t h = 1; h < 0x7c00; ++h) {
    const float cur = f16_bits_to_f32(h);
    EXPECT_GT(cur, prev) << "at " << h;
    prev = cur;
  }
}

}  // namespace
}  // namespace gpurel
