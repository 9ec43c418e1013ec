// Software IEEE-754 binary16 ("half") arithmetic.
//
// Volta's mixed-precision cores operate on binary16 with round-to-nearest-
// even; the simulator stores a half in the low 16 bits of a 32-bit register.
// Arithmetic is performed by converting to float (exact: every half is
// exactly representable in float), computing, and rounding back. Add and
// multiply round correctly (see fp16.cpp). Fused multiply-add does not:
// see half_fma.
#pragma once

#include <cstdint>

namespace gpurel {

/// Opaque binary16 value. Construction from float rounds to nearest-even.
class Half {
 public:
  constexpr Half() = default;
  /// Wrap raw binary16 bits.
  static constexpr Half from_bits(std::uint16_t b) {
    Half h;
    h.bits_ = b;
    return h;
  }
  /// Round a float to binary16 (RNE, with proper subnormal/overflow handling).
  static Half from_float(float f);

  /// Exact widening conversion to float.
  float to_float() const;

  constexpr std::uint16_t bits() const { return bits_; }

  bool is_nan() const;
  bool is_inf() const;

 private:
  std::uint16_t bits_ = 0;
};

/// a + b with one binary16 rounding.
Half half_add(Half a, Half b);
/// a * b with one binary16 rounding.
Half half_mul(Half a, Half b);
/// a * b + c fused, but rounded twice: the product-sum is computed in
/// double, rounded to float, then to half. A result that float rounds onto
/// a half tie can then tie the wrong way, one ulp off the correctly rounded
/// value (e.g. 0xc6a2 * 0xdb76 + 0xad61 gives 0x6630, not 0x662f; about 40
/// in a million random finite triples). Kept as is: results and pinned
/// digests depend on it (ROADMAP item 7).
Half half_fma(Half a, Half b, Half c);

/// Convert float -> binary16 bits (RNE). Exposed for tests.
std::uint16_t f32_to_f16_bits(float f);
/// Convert binary16 bits -> float (exact).
float f16_bits_to_f32(std::uint16_t h);

}  // namespace gpurel
