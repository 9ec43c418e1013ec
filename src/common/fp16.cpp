#include "common/fp16.hpp"

#include <cmath>

#include "common/bits.hpp"

namespace gpurel {

std::uint16_t f32_to_f16_bits(float f) {
  const std::uint32_t x = f32_bits(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t abs = x & 0x7fffffffu;

  if (abs >= 0x7f800000u) {
    // Inf / NaN. Preserve NaN-ness (quiet it, keep a payload bit set).
    if (abs > 0x7f800000u) return static_cast<std::uint16_t>(sign | 0x7e00u);
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs >= 0x477ff000u) {
    // Rounds to >= 2^16: overflow to infinity. (0x477ff000 = 65520.0f, the
    // smallest float that rounds up to half-infinity under RNE.)
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs < 0x38800000u) {
    // Subnormal half (or zero): |value| = half_mant * 2^-24 with
    // half_mant = mant24 * 2^(exp32 - 126), i.e. a right shift by
    // (126 - exp32) of the 24-bit significand, rounded to nearest-even.
    if (abs < 0x33000000u) {
      // Below half of the smallest subnormal: rounds to zero.
      return static_cast<std::uint16_t>(sign);
    }
    const unsigned shift = 126u - (abs >> 23);  // in [1, 24]
    const std::uint32_t mant = (abs & 0x7fffffu) | 0x800000u;  // implicit bit
    std::uint32_t half_mant = shift >= 32 ? 0 : (mant >> shift);
    const std::uint32_t dropped = mant & ((1u << shift) - 1);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (dropped > halfway || (dropped == halfway && (half_mant & 1u))) ++half_mant;
    // A carry out of the subnormal range lands exactly on the smallest
    // normal (exponent field 1), which the plain OR below encodes correctly.
    return static_cast<std::uint16_t>(sign | half_mant);
  }
  // Normal half. Re-bias exponent (127 -> 15) and round 23 -> 10 mantissa
  // bits; a rounding carry may legitimately overflow into the exponent,
  // producing the next binade or infinity.
  std::uint32_t h = (((abs >> 23) - 112u) << 10) | ((abs >> 13) & 0x3ffu);
  const std::uint32_t dropped = abs & 0x1fffu;
  if (dropped > 0x1000u || (dropped == 0x1000u && (h & 1u))) ++h;
  return static_cast<std::uint16_t>(sign | h);
}

float f16_bits_to_f32(std::uint16_t h) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;
  if (exp == 0) {
    if (mant == 0) return bits_f32(sign);  // signed zero
    // Subnormal: |value| = mant * 2^-24, exact in float.
    const float mag = std::ldexp(static_cast<float>(mant), -24);
    return sign ? -mag : mag;
  }
  if (exp == 0x1fu) {
    return bits_f32(sign | 0x7f800000u | (mant << 13));  // inf / NaN
  }
  return bits_f32(sign | ((exp + 112u) << 23) | (mant << 13));
}

Half Half::from_float(float f) { return from_bits(f32_to_f16_bits(f)); }

float Half::to_float() const { return f16_bits_to_f32(bits_); }

bool Half::is_nan() const {
  return ((bits_ >> 10) & 0x1fu) == 0x1fu && (bits_ & 0x3ffu) != 0;
}

bool Half::is_inf() const {
  return ((bits_ >> 10) & 0x1fu) == 0x1fu && (bits_ & 0x3ffu) == 0;
}

Half half_add(Half a, Half b) {
  // The float sum may round (65504 + 2^-24 needs 40 bits), but rounding to
  // float's 24-bit significand and then to half's 11 is still correct: 24
  // >= 2 * 11 + 2, so the first rounding never creates a false half tie.
  return Half::from_float(a.to_float() + b.to_float());
}

Half half_mul(Half a, Half b) {
  // Product of two 11-bit significands fits in 22 bits: exact in float.
  return Half::from_float(a.to_float() * b.to_float());
}

Half half_fma(Half a, Half b, Half c) {
  // Rounds up to three times: the product-sum to double, then to float, then
  // to half (see the header).
  const double exact = static_cast<double>(a.to_float()) * b.to_float() + c.to_float();
  return Half::from_float(static_cast<float>(exact));
}

}  // namespace gpurel
