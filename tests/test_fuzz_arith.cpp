// Differential fuzzing of the executor's arithmetic: random operation DAGs
// are emitted through the KernelBuilder and mirrored on the host with the
// same IEEE operations; results must match bit-for-bit for every thread.
// Each seed generates a distinct program; the parameterized sweep runs many.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "isa/kernel_builder.hpp"
#include "sim/device.hpp"

namespace gpurel::sim {
namespace {

using isa::KernelBuilder;
using isa::Program;
using isa::Reg;

enum class FuzzOp : unsigned {
  Fadd, Fmul, Ffma, Iadd, Imul, Imad, Shl, Shr, Shrs, And, Or, Xor,
  IminS, ImaxS, I2f, F2i, Rcp, Ex2, Mov,
  kCount,
};

struct Step {
  FuzzOp op;
  unsigned dst, a, b, c;
  unsigned amount;  // shifts
};

constexpr unsigned kSlots = 8;
constexpr unsigned kThreads = 64;
constexpr unsigned kSteps = 40;

std::vector<Step> make_program(Rng& rng) {
  std::vector<Step> steps(kSteps);
  for (auto& s : steps) {
    s.op = static_cast<FuzzOp>(rng.uniform_u64(static_cast<unsigned>(FuzzOp::kCount)));
    s.dst = static_cast<unsigned>(rng.uniform_u64(kSlots));
    s.a = static_cast<unsigned>(rng.uniform_u64(kSlots));
    s.b = static_cast<unsigned>(rng.uniform_u64(kSlots));
    s.c = static_cast<unsigned>(rng.uniform_u64(kSlots));
    s.amount = static_cast<unsigned>(rng.uniform_u64(31)) + 1;
  }
  return steps;
}

/// Keep float magnitudes tame so chains do not saturate to inf and NaN
/// payloads never propagate (their bit pattern is operand-order dependent
/// and hence compiler-specific): squash after every float producer.
float squash(float v) {
  if (!std::isfinite(v)) return 1.0f;
  if (std::fabs(v) > 1e6f) return v * 1e-6f;  // same op the device emits
  if (std::fabs(v) < 1e-6f) return v + 1.0f;
  return v;
}

std::uint32_t host_step(const Step& s, const std::vector<std::uint32_t>& r) {
  auto f = [&](unsigned i) { return bits_f32(r[i]); };
  switch (s.op) {
    case FuzzOp::Fadd: return f32_bits(squash(f(s.a) + f(s.b)));
    case FuzzOp::Fmul: return f32_bits(squash(f(s.a) * f(s.b)));
    case FuzzOp::Ffma: return f32_bits(squash(std::fma(f(s.a), f(s.b), f(s.c))));
    case FuzzOp::Iadd: return r[s.a] + r[s.b];
    case FuzzOp::Imul: return r[s.a] * r[s.b];
    case FuzzOp::Imad: return r[s.a] * r[s.b] + r[s.c];
    case FuzzOp::Shl: return r[s.a] << (s.amount & 31);
    case FuzzOp::Shr: return r[s.a] >> (s.amount & 31);
    case FuzzOp::Shrs:
      return static_cast<std::uint32_t>(static_cast<std::int32_t>(r[s.a]) >>
                                        (s.amount & 31));
    case FuzzOp::And: return r[s.a] & r[s.b];
    case FuzzOp::Or: return r[s.a] | r[s.b];
    case FuzzOp::Xor: return r[s.a] ^ r[s.b];
    case FuzzOp::IminS:
      return static_cast<std::uint32_t>(
          std::min(static_cast<std::int32_t>(r[s.a]),
                   static_cast<std::int32_t>(r[s.b])));
    case FuzzOp::ImaxS:
      return static_cast<std::uint32_t>(
          std::max(static_cast<std::int32_t>(r[s.a]),
                   static_cast<std::int32_t>(r[s.b])));
    case FuzzOp::I2f:
      return f32_bits(static_cast<float>(static_cast<std::int32_t>(r[s.a])));
    case FuzzOp::F2i: {
      const float v = f(s.a);
      if (std::isnan(v)) return 0;
      if (v >= 2147483648.0f) return 0x7fffffffu;
      if (v <= -2147483648.0f) return 0x80000000u;
      return static_cast<std::uint32_t>(static_cast<std::int32_t>(v));
    }
    case FuzzOp::Rcp: {
      // Same explicit IEEE zero handling as the executor's MUFU_RCP: the
      // bits are identical to 1/x, without tripping float-divide-by-zero.
      const float v = f(s.a);
      const float rcp =
          v == 0.0f ? std::copysign(std::numeric_limits<float>::infinity(), v)
                    : 1.0f / v;
      return f32_bits(squash(rcp));
    }
    case FuzzOp::Ex2: {
      // Clamp the exponent input so exp2 stays finite.
      float v = f(s.a);
      if (!std::isfinite(v) || std::fabs(v) > 20.0f) v = 1.5f;
      return f32_bits(std::exp2(v));
    }
    case FuzzOp::Mov: return r[s.a];
    default: return 0;
  }
}

/// Emit the same step through the builder. Squashing / clamping is emitted
/// as real instructions so device and host follow identical paths.
void emit_step(KernelBuilder& b, const Step& s, const std::vector<Reg>& slot,
               Reg scratch, isa::Pred p) {
  const Reg d = slot[s.dst], a = slot[s.a], b2 = slot[s.b], c = slot[s.c];
  auto emit_squash = [&](Reg v) {
    // Mirrors squash(): not-finite -> 1.0; |v|>1e6 -> v/1e6; |v|<1e-6 -> v+1.
    // Implemented with compare+select chains on the same thresholds.
    Reg abs = scratch;
    b.landi(abs, v, 0x7fffffff);
    Reg one = b.reg();
    b.movf(one, 1.0f);
    Reg t = b.reg();
    // finite check: abs < 0x7f800000 (bit pattern compare works: positive ints)
    Reg inf_bits = b.reg();
    b.movi(inf_bits, 0x7f800000);
    isa::Pred finite = b.pred();
    b.isetp(finite, abs, inf_bits, isa::CmpOp::LT);
    b.sel(v, v, one, finite);
    b.landi(abs, v, 0x7fffffff);
    // |v| > 1e6 ? (compare on the cleared-sign bit pattern)
    Reg big = b.reg();
    b.movf(big, 1e6f);
    Reg absf = b.reg();
    b.mov(absf, abs);
    isa::Pred p_big = b.pred();
    b.fsetp(p_big, absf, big, isa::CmpOp::GT);
    b.movf(t, 1e-6f);
    b.fmul(t, v, t);  // v/1e6 == v * 1e-6
    b.sel(v, t, v, p_big);
    // |v| < 1e-6 ?
    b.landi(abs, v, 0x7fffffff);
    b.mov(absf, abs);
    Reg small = b.reg();
    b.movf(small, 1e-6f);
    isa::Pred p_small = b.pred();
    b.fsetp(p_small, absf, small, isa::CmpOp::LT);
    b.fadd(t, v, one);
    b.sel(v, t, v, p_small);
    b.free(one);
    b.free(t);
    b.free(inf_bits);
    b.free(finite);
    b.free(big);
    b.free(absf);
    b.free(small);
    b.free(p_big);
    b.free(p_small);
  };
  switch (s.op) {
    case FuzzOp::Fadd: b.fadd(d, a, b2); emit_squash(d); break;
    case FuzzOp::Fmul: b.fmul(d, a, b2); emit_squash(d); break;
    case FuzzOp::Ffma: b.ffma(d, a, b2, c); emit_squash(d); break;
    case FuzzOp::Iadd: b.iadd(d, a, b2); break;
    case FuzzOp::Imul: b.imul(d, a, b2); break;
    case FuzzOp::Imad: b.imad(d, a, b2, c); break;
    case FuzzOp::Shl: b.shl(d, a, s.amount); break;
    case FuzzOp::Shr: b.shr(d, a, s.amount); break;
    case FuzzOp::Shrs: b.shrs(d, a, s.amount); break;
    case FuzzOp::And: b.land(d, a, b2); break;
    case FuzzOp::Or: b.lor(d, a, b2); break;
    case FuzzOp::Xor: b.lxor(d, a, b2); break;
    case FuzzOp::IminS: b.imnmx(d, a, b2, false); break;
    case FuzzOp::ImaxS: b.imnmx(d, a, b2, true); break;
    case FuzzOp::I2f: b.i2f(d, a); break;
    case FuzzOp::F2i: b.f2i(d, a); break;
    case FuzzOp::Rcp: b.rcp(d, a); emit_squash(d); break;
    case FuzzOp::Ex2: {
      // clamp like the host: |v|>20 or non-finite -> 1.5
      Reg abs = scratch;
      b.landi(abs, a, 0x7fffffff);
      Reg absf = b.reg();
      b.mov(absf, abs);
      Reg lim = b.reg();
      b.movf(lim, 20.0f);
      b.fsetp(p, absf, lim, isa::CmpOp::LE);
      Reg fallback = b.reg();
      b.movf(fallback, 1.5f);
      Reg in = b.reg();
      b.sel(in, a, fallback, p);
      b.ex2(d, in);
      b.free(absf);
      b.free(lim);
      b.free(fallback);
      b.free(in);
      break;
    }
    case FuzzOp::Mov: b.mov(d, a); break;
    default: break;
  }
}

/// A no-op observer whose after_exec claim selects the hooked lane driver.
class AfterExecOnly final : public SimObserver {
 public:
  unsigned wants() const override { return kWantsAfterExec; }
};

class FuzzArith : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzArith, DeviceMatchesHostBitExactly) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 1);
  const auto steps = make_program(rng);

  // Device program.
  KernelBuilder b("fuzz");
  Reg out = b.load_param(0);
  Reg tid = b.global_tid_x();
  std::vector<Reg> slot(kSlots);
  for (unsigned i = 0; i < kSlots; ++i) {
    slot[i] = b.reg();
    // slot[i] = tid * Ki + Ci (mixed int/float-ish seeds)
    b.imuli(slot[i], tid, static_cast<std::int32_t>(0x9e3779b9u * (i + 1)));
    b.iaddi(slot[i], slot[i], static_cast<std::int32_t>(0x7f4a7c15u ^ (i * 77)));
  }
  Reg scratch = b.reg();
  isa::Pred p = b.pred();
  for (const auto& s : steps) emit_step(b, s, slot, scratch, p);
  Reg addr = b.reg();
  Reg base_idx = b.reg();
  b.imuli(base_idx, tid, static_cast<std::int32_t>(kSlots));
  b.addr_index(addr, out, base_idx, 4);
  for (unsigned i = 0; i < kSlots; ++i)
    b.stg(addr, slot[i], static_cast<std::int32_t>(i * 4));
  Program prog = b.build();

  // Host mirror.
  std::vector<std::uint32_t> want(kThreads * kSlots);
  for (unsigned t = 0; t < kThreads; ++t) {
    std::vector<std::uint32_t> r(kSlots);
    for (unsigned i = 0; i < kSlots; ++i)
      r[i] = t * (0x9e3779b9u * (i + 1)) + (0x7f4a7c15u ^ (i * 77));
    for (const auto& s : steps) r[s.dst] = host_step(s, r);
    std::copy(r.begin(), r.end(), want.begin() + t * kSlots);
  }

  // Once with no observer (the hook-free lane driver) and once under an
  // after_exec claim (the hooked driver): both must match the host.
  AfterExecOnly hooked;
  for (SimObserver* obs : {static_cast<SimObserver*>(nullptr),
                           static_cast<SimObserver*>(&hooked)}) {
    Device dev(arch::GpuConfig::kepler_k40c(1));
    const auto out_addr = dev.alloc(kThreads * kSlots * 4);
    sim::KernelLaunch kl{&prog, {1, 1}, {kThreads, 1}, 0, {out_addr}};
    ASSERT_EQ(dev.launch(kl, obs, 10'000'000).due, DueKind::None);
    const auto got = dev.copy_out<std::uint32_t>(out_addr, kThreads * kSlots);
    for (unsigned t = 0; t < kThreads; ++t)
      for (unsigned i = 0; i < kSlots; ++i)
        ASSERT_EQ(got[t * kSlots + i], want[t * kSlots + i])
            << "seed=" << GetParam() << " hooked=" << (obs != nullptr)
            << " thread=" << t << " slot=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzArith, ::testing::Range(0u, 24u));

}  // namespace
}  // namespace gpurel::sim
