#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "common/fp16.hpp"
#include "isa/kernel_builder.hpp"
#include "sim/device.hpp"

namespace gpurel::sim {
namespace {

using isa::CmpOp;
using isa::CompilerProfile;
using isa::KernelBuilder;
using isa::MemWidth;
using isa::Opcode;
using isa::Pred;
using isa::Program;
using isa::Reg;
using isa::RegPair;

arch::GpuConfig test_gpu() { return arch::GpuConfig::kepler_k40c(2); }

// out[i] = a[i] + b[i], one thread per element.
Program vec_add_kernel(CompilerProfile prof = CompilerProfile::Cuda10) {
  KernelBuilder b("vec_add", prof);
  Reg tid = b.global_tid_x();
  Reg n = b.load_param(0);
  Pred in_range = b.pred();
  b.isetp(in_range, tid, n, CmpOp::LT);
  b.if_then(in_range, [&] {
    Reg pa = b.load_param(1), pb = b.load_param(2), pc = b.load_param(3);
    Reg addr_a = b.reg(), addr_b = b.reg(), addr_c = b.reg();
    b.addr_index(addr_a, pa, tid, 4);
    b.addr_index(addr_b, pb, tid, 4);
    b.addr_index(addr_c, pc, tid, 4);
    Reg va = b.reg(), vb = b.reg();
    b.ldg(va, addr_a);
    b.ldg(vb, addr_b);
    Reg vc = b.reg();
    b.fadd(vc, va, vb);
    b.stg(addr_c, vc);
  });
  return b.build();
}

TEST(Executor, VectorAddSingleBlock) {
  Device dev(test_gpu());
  const unsigned n = 64;
  std::vector<float> a(n), bb(n);
  for (unsigned i = 0; i < n; ++i) {
    a[i] = static_cast<float>(i);
    bb[i] = 0.5f * static_cast<float>(i);
  }
  const auto pa = dev.alloc_copy<float>(a);
  const auto pb = dev.alloc_copy<float>(bb);
  const auto pc = dev.alloc(n * 4);

  Program prog = vec_add_kernel();
  KernelLaunch kl{&prog, {1, 1}, {64, 1}, 0, {n, pa, pb, pc}};
  const LaunchStats st = dev.launch(kl);
  ASSERT_EQ(st.due, DueKind::None);

  const auto out = dev.copy_out<float>(pc, n);
  for (unsigned i = 0; i < n; ++i) EXPECT_FLOAT_EQ(out[i], 1.5f * i);
  EXPECT_GT(st.cycles, 0u);
  EXPECT_GT(st.warp_instructions, 0u);
  EXPECT_GT(st.ipc, 0.0);
}

TEST(Executor, ReusedWarpSlotsReadZeroBelowRegsPerThread) {
  // Warp pool slots are reused across launches, and a placed warp is cleared
  // only below its program's regs_per_thread. An uninitialized read there
  // must still see zero after a launch that wrote every register of the
  // same slots.
  Device dev(test_gpu());
  KernelBuilder pb("poison", CompilerProfile::Cuda10);
  for (unsigned r = 0; r < isa::kRZ; ++r) pb.movi(pb.reg(), -1);
  const Program poison = pb.build();
  ASSERT_EQ(dev.launch({&poison, {4, 1}, {64, 1}, 0, {}}).due, DueKind::None);

  KernelBuilder b("reader", CompilerProfile::Cuda10);
  Reg unset = b.reg();  // never written (taken first, so no helper reuses it)
  Reg tid = b.global_tid_x();
  Reg out = b.load_param(0);
  Reg addr = b.reg();
  b.addr_index(addr, out, tid, 4);
  b.stg(addr, unset);
  const Program reader = b.build();
  ASSERT_LT(reader.regs_per_thread(), poison.regs_per_thread());
  const unsigned n = 4 * 64;
  const std::uint32_t po = dev.alloc(n * 4);
  dev.copy_in<std::uint32_t>(po, std::vector<std::uint32_t>(n, 0xabcdu));
  ASSERT_EQ(dev.launch({&reader, {4, 1}, {64, 1}, 0, {po}}).due, DueKind::None);
  for (const std::uint32_t v : dev.copy_out<std::uint32_t>(po, n))
    EXPECT_EQ(v, 0u);
}

TEST(Executor, VectorAddManyBlocksWithTail) {
  Device dev(test_gpu());
  const unsigned n = 1000;  // not a multiple of the 128-thread block
  std::vector<float> a(n, 2.0f), bb(n, 3.0f);
  const auto pa = dev.alloc_copy<float>(a);
  const auto pb = dev.alloc_copy<float>(bb);
  const auto pc = dev.alloc(n * 4);

  Program prog = vec_add_kernel();
  KernelLaunch kl{&prog, {8, 1}, {128, 1}, 0, {n, pa, pb, pc}};
  ASSERT_EQ(dev.launch(kl).due, DueKind::None);
  const auto out = dev.copy_out<float>(pc, n);
  for (unsigned i = 0; i < n; ++i) ASSERT_FLOAT_EQ(out[i], 5.0f);
}

TEST(Executor, BothCompilerProfilesComputeSameResult) {
  for (auto prof : {CompilerProfile::Cuda7, CompilerProfile::Cuda10}) {
    Device dev(test_gpu());
    const unsigned n = 96;
    std::vector<float> a(n, 1.25f), bb(n, -0.25f);
    const auto pa = dev.alloc_copy<float>(a);
    const auto pb = dev.alloc_copy<float>(bb);
    const auto pc = dev.alloc(n * 4);
    Program prog = vec_add_kernel(prof);
    KernelLaunch kl{&prog, {3, 1}, {32, 1}, 0, {n, pa, pb, pc}};
    ASSERT_EQ(dev.launch(kl).due, DueKind::None);
    const auto out = dev.copy_out<float>(pc, n);
    for (unsigned i = 0; i < n; ++i) ASSERT_FLOAT_EQ(out[i], 1.0f);
  }
}

TEST(Executor, DivergentIfElse) {
  // out[i] = (i % 2 == 0) ? 10 : 20
  KernelBuilder b("diverge");
  Reg tid = b.global_tid_x();
  Reg out = b.load_param(0);
  Reg addr = b.reg();
  b.addr_index(addr, out, tid, 4);
  Reg bit = b.reg();
  b.landi(bit, tid, 1);
  Pred odd = b.pred();
  b.isetpi(odd, bit, 1, CmpOp::EQ);
  Reg v = b.reg();
  b.if_then_else(odd, [&] { b.movi(v, 20); }, [&] { b.movi(v, 10); });
  b.stg(addr, v);
  Program prog = b.build();

  Device dev(test_gpu());
  const unsigned n = 64;
  const auto po = dev.alloc(n * 4);
  KernelLaunch kl{&prog, {1, 1}, {n, 1}, 0, {po}};
  ASSERT_EQ(dev.launch(kl).due, DueKind::None);
  const auto outv = dev.copy_out<std::uint32_t>(po, n);
  for (unsigned i = 0; i < n; ++i) EXPECT_EQ(outv[i], i % 2 ? 20u : 10u);
}

TEST(Executor, NestedDivergence) {
  // out[i] = i<16 ? (i<8 ? 1 : 2) : (i%2 ? 3 : 4)
  KernelBuilder b("nested");
  Reg tid = b.global_tid_x();
  Reg out = b.load_param(0);
  Reg addr = b.reg();
  b.addr_index(addr, out, tid, 4);
  Reg v = b.reg();
  Pred p_outer = b.pred();
  b.isetpi(p_outer, tid, 16, CmpOp::LT);
  b.if_then_else(
      p_outer,
      [&] {
        Pred p_in = b.pred();
        b.isetpi(p_in, tid, 8, CmpOp::LT);
        b.if_then_else(p_in, [&] { b.movi(v, 1); }, [&] { b.movi(v, 2); });
        b.free(p_in);
      },
      [&] {
        Reg bit = b.reg();
        b.landi(bit, tid, 1);
        Pred p_odd = b.pred();
        b.isetpi(p_odd, bit, 1, CmpOp::EQ);
        b.if_then_else(p_odd, [&] { b.movi(v, 3); }, [&] { b.movi(v, 4); });
        b.free(p_odd);
        b.free(bit);
      });
  b.stg(addr, v);
  Program prog = b.build();

  Device dev(test_gpu());
  const unsigned n = 32;
  const auto po = dev.alloc(n * 4);
  KernelLaunch kl{&prog, {1, 1}, {n, 1}, 0, {po}};
  ASSERT_EQ(dev.launch(kl).due, DueKind::None);
  const auto outv = dev.copy_out<std::uint32_t>(po, n);
  for (unsigned i = 0; i < n; ++i) {
    const std::uint32_t want = i < 16 ? (i < 8 ? 1 : 2) : (i % 2 ? 3 : 4);
    EXPECT_EQ(outv[i], want) << i;
  }
}

TEST(Executor, PerThreadLoopTripCounts) {
  // out[i] = sum of 0..i (each thread loops i+1 times: divergent loop exit).
  KernelBuilder b("tri");
  Reg tid = b.global_tid_x();
  Reg out = b.load_param(0);
  Reg addr = b.reg();
  b.addr_index(addr, out, tid, 4);
  Reg acc = b.reg(), i = b.reg();
  b.movi(acc, 0);
  b.movi(i, 0);
  b.while_loop([&](Pred p) { b.isetp(p, i, tid, CmpOp::LE); },
               [&] {
                 b.iadd(acc, acc, i);
                 b.iaddi(i, i, 1);
               });
  b.stg(addr, acc);
  Program prog = b.build();

  Device dev(test_gpu());
  const unsigned n = 64;
  const auto po = dev.alloc(n * 4);
  KernelLaunch kl{&prog, {2, 1}, {32, 1}, 0, {po}};
  ASSERT_EQ(dev.launch(kl).due, DueKind::None);
  const auto outv = dev.copy_out<std::uint32_t>(po, n);
  for (unsigned i2 = 0; i2 < n; ++i2) EXPECT_EQ(outv[i2], i2 * (i2 + 1) / 2) << i2;
}

TEST(Executor, SharedMemoryReverseWithBarrier) {
  // Block-local reverse through shared memory; checks BAR and LDS/STS.
  KernelBuilder b("reverse");
  const auto s_off = b.shared_alloc(64 * 4);
  Reg tid = b.tid_x();
  Reg gtid = b.global_tid_x();
  Reg in = b.load_param(0), out = b.load_param(1);
  Reg g_addr = b.reg();
  b.addr_index(g_addr, in, gtid, 4);
  Reg v = b.reg();
  b.ldg(v, g_addr);
  Reg s_addr = b.reg();
  Reg s_base = b.reg();
  b.movi(s_base, static_cast<std::int32_t>(s_off));
  b.addr_index(s_addr, s_base, tid, 4);
  b.sts(s_addr, v);
  b.bar();
  // read shared[63 - tid]
  Reg rev = b.reg();
  b.movi(rev, 63);
  Reg diff = b.reg();
  Reg neg_tid = b.reg();
  b.movi(neg_tid, 0);
  // diff = 63 - tid  via  rev + (-tid): compute -tid = 0 - tid
  Reg minus_one = b.reg();
  b.movi(minus_one, -1);
  b.imad(neg_tid, tid, minus_one, rev);  // 63 - tid
  b.addr_index(diff, s_base, neg_tid, 4);
  Reg rv = b.reg();
  b.lds(rv, diff);
  Reg o_addr = b.reg();
  b.addr_index(o_addr, out, gtid, 4);
  b.stg(o_addr, rv);
  Program prog = b.build();

  Device dev(test_gpu());
  const unsigned n = 128;  // 2 blocks of 64
  std::vector<std::uint32_t> host(n);
  std::iota(host.begin(), host.end(), 0u);
  const auto pi = dev.alloc_copy<std::uint32_t>(host);
  const auto po = dev.alloc(n * 4);
  KernelLaunch kl{&prog, {2, 1}, {64, 1}, 0, {pi, po}};
  ASSERT_EQ(dev.launch(kl).due, DueKind::None);
  const auto outv = dev.copy_out<std::uint32_t>(po, n);
  for (unsigned blk = 0; blk < 2; ++blk)
    for (unsigned i = 0; i < 64; ++i)
      EXPECT_EQ(outv[blk * 64 + i], blk * 64 + (63 - i));
}

TEST(Executor, AtomicAddCountsEveryThread) {
  KernelBuilder b("atomic");
  Reg ctr = b.load_param(0);
  Reg one = b.reg();
  b.movi(one, 1);
  b.atom(isa::RZ, ctr, one, isa::AtomOp::Add);
  Program prog = b.build();

  Device dev(test_gpu());
  const auto pc = dev.alloc(4);
  KernelLaunch kl{&prog, {5, 1}, {96, 1}, 0, {pc}};
  ASSERT_EQ(dev.launch(kl).due, DueKind::None);
  EXPECT_EQ(dev.memory().read_u32(pc), 5u * 96u);
}

TEST(Executor, AtomicMinMaxCasExch) {
  KernelBuilder b("atomics2");
  Reg base = b.load_param(0);
  Reg tid = b.global_tid_x();
  b.atom(isa::RZ, base, tid, isa::AtomOp::Min, 0);
  b.atom(isa::RZ, base, tid, isa::AtomOp::Max, 4);
  Program prog = b.build();

  Device dev(test_gpu());
  const auto pb = dev.alloc(8);
  dev.memory().write_u32(pb, 0x7fffffff);
  dev.memory().write_u32(pb + 4, 0);
  KernelLaunch kl{&prog, {2, 1}, {32, 1}, 0, {pb}};
  ASSERT_EQ(dev.launch(kl).due, DueKind::None);
  EXPECT_EQ(dev.memory().read_u32(pb), 0u);
  EXPECT_EQ(dev.memory().read_u32(pb + 4), 63u);
}

TEST(Executor, Fp64PairArithmetic) {
  // out[i] = a[i] * 2.5 + 1.0 in double precision.
  KernelBuilder b("dbl");
  Reg tid = b.global_tid_x();
  Reg in = b.load_param(0), out = b.load_param(1);
  Reg ia = b.reg(), oa = b.reg();
  b.addr_index(ia, in, tid, 8);
  b.addr_index(oa, out, tid, 8);
  RegPair v = b.reg_pair(), k = b.reg_pair(), c1 = b.reg_pair();
  b.ldg64(v, ia);
  b.movd(k, 2.5);
  b.movd(c1, 1.0);
  b.dfma(v, v, k, c1);
  b.stg64(oa, v);
  Program prog = b.build();

  Device dev(test_gpu());
  const unsigned n = 32;
  std::vector<double> host(n);
  for (unsigned i = 0; i < n; ++i) host[i] = 0.125 * i;
  const auto pi = dev.alloc_copy<double>(host);
  const auto po = dev.alloc(n * 8);
  KernelLaunch kl{&prog, {1, 1}, {n, 1}, 0, {pi, po}};
  ASSERT_EQ(dev.launch(kl).due, DueKind::None);
  const auto outv = dev.copy_out<double>(po, n);
  for (unsigned i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(outv[i], 0.125 * i * 2.5 + 1.0);
}

TEST(Executor, Fp16ArithmeticThroughB16Memory) {
  // out[i] = h(a[i]) * h(a[i]) + h(1.0), stored as binary16.
  KernelBuilder b("half");
  Reg tid = b.global_tid_x();
  Reg in = b.load_param(0), out = b.load_param(1);
  Reg ia = b.reg(), oa = b.reg();
  b.addr_index(ia, in, tid, 2);
  b.addr_index(oa, out, tid, 2);
  Reg v = b.reg(), one = b.reg();
  b.ldg(v, ia, 0, MemWidth::B16);
  b.movh(one, 1.0f);
  b.hfma(v, v, v, one);
  b.stg(oa, v, 0, MemWidth::B16);
  Program prog = b.build();

  Device dev(test_gpu());
  const unsigned n = 32;
  std::vector<std::uint16_t> host(n);
  for (unsigned i = 0; i < n; ++i)
    host[i] = Half::from_float(0.25f * static_cast<float>(i)).bits();
  const auto pi = dev.alloc_copy<std::uint16_t>(host);
  const auto po = dev.alloc(n * 2);
  KernelLaunch kl{&prog, {1, 1}, {n, 1}, 0, {pi, po}};
  ASSERT_EQ(dev.launch(kl).due, DueKind::None);
  const auto outv = dev.copy_out<std::uint16_t>(po, n);
  for (unsigned i = 0; i < n; ++i) {
    const float x = 0.25f * static_cast<float>(i);
    const Half want = half_fma(Half::from_float(x), Half::from_float(x),
                               Half::from_float(1.0f));
    EXPECT_EQ(outv[i], want.bits()) << i;
  }
}

TEST(Executor, MmaMatchesHostReference) {
  // One warp computes D = A*B + C on 16x16 fp16 fragments with fp32 output.
  KernelBuilder b("mma");
  Reg pa = b.load_param(0), pb = b.load_param(1), pd = b.load_param(2);
  Reg lane = b.reg();
  b.s2r(lane, isa::SpecialReg::LANEID);
  Reg fa = b.reg_block(4), fb = b.reg_block(4), fc = b.reg_block(8);
  // Each lane loads its 8 halves of A and B (packed two per register) and
  // zeroes the accumulator.
  Reg byte_base = b.reg();
  b.addr_index(byte_base, pa, lane, 16);  // 8 halves = 16 bytes per lane
  for (int k = 0; k < 4; ++k) b.ldg(Reg{static_cast<std::uint8_t>(fa.index + k)}, byte_base, k * 4);
  b.addr_index(byte_base, pb, lane, 16);
  for (int k = 0; k < 4; ++k) b.ldg(Reg{static_cast<std::uint8_t>(fb.index + k)}, byte_base, k * 4);
  for (int k = 0; k < 8; ++k) b.movf(Reg{static_cast<std::uint8_t>(fc.index + k)}, 0.0f);
  b.fmma(fc, fa, fb, fc);
  b.addr_index(byte_base, pd, lane, 32);  // 8 floats = 32 bytes per lane
  for (int k = 0; k < 8; ++k) b.stg(byte_base, Reg{static_cast<std::uint8_t>(fc.index + k)}, k * 4);
  Program prog = b.build();

  // Host data: A,B as 256 halves each in fragment order (element e at
  // lane e/8, slot e%8 <-> linear half index e).
  std::vector<std::uint16_t> A(256), B(256);
  std::vector<float> Af(256), Bf(256);
  for (unsigned e = 0; e < 256; ++e) {
    const float va = 0.0625f * static_cast<float>((e * 7 % 23)) - 0.5f;
    const float vb = 0.125f * static_cast<float>((e * 5 % 17)) - 1.0f;
    A[e] = Half::from_float(va).bits();
    B[e] = Half::from_float(vb).bits();
    Af[e] = Half::from_bits(A[e]).to_float();
    Bf[e] = Half::from_bits(B[e]).to_float();
  }
  auto volta = arch::GpuConfig::volta_v100(1);
  Device dev(volta);
  const auto ga = dev.alloc_copy<std::uint16_t>(A);
  const auto gb = dev.alloc_copy<std::uint16_t>(B);
  const auto gd = dev.alloc(256 * 4);
  KernelLaunch kl{&prog, {1, 1}, {32, 1}, 0, {ga, gb, gd}};
  ASSERT_EQ(dev.launch(kl).due, DueKind::None);
  const auto D = dev.copy_out<float>(gd, 256);
  for (unsigned i = 0; i < 16; ++i) {
    for (unsigned j = 0; j < 16; ++j) {
      float want = 0.0f;
      for (unsigned k = 0; k < 16; ++k) want += Af[i * 16 + k] * Bf[k * 16 + j];
      EXPECT_NEAR(D[i * 16 + j], want, 1e-3) << i << "," << j;
    }
  }
}

TEST(Executor, InvalidAddressRaisesDue) {
  KernelBuilder b("oob");
  Reg addr = b.reg();
  b.movi(addr, 0);  // null page
  Reg v = b.reg();
  b.ldg(v, addr);
  Program prog = b.build();
  Device dev(test_gpu());
  KernelLaunch kl{&prog, {1, 1}, {32, 1}, 0, {}};
  EXPECT_EQ(dev.launch(kl).due, DueKind::InvalidAddress);
}

TEST(Executor, MisalignedAccessRaisesDue) {
  KernelBuilder b("misalign");
  Reg base = b.load_param(0);
  Reg addr = b.reg();
  b.iaddi(addr, base, 2);
  Reg v = b.reg();
  b.ldg(v, addr);
  Program prog = b.build();
  Device dev(test_gpu());
  const auto p = dev.alloc(64);
  KernelLaunch kl{&prog, {1, 1}, {32, 1}, 0, {p}};
  EXPECT_EQ(dev.launch(kl).due, DueKind::MisalignedAddress);
}

TEST(Executor, WatchdogCatchesInfiniteLoop) {
  KernelBuilder b("hang");
  Reg i = b.reg();
  b.movi(i, 0);
  b.while_loop([&](Pred p) { b.isetpi(p, i, 1, CmpOp::LT); },
               [&] { b.movi(i, 0); });  // never advances
  Program prog = b.build();
  Device dev(test_gpu());
  KernelLaunch kl{&prog, {1, 1}, {32, 1}, 0, {}};
  EXPECT_EQ(dev.launch(kl, nullptr, /*max_cycles=*/20000).due, DueKind::Watchdog);
}

TEST(Executor, StatsMixCountsAreConsistent) {
  Device dev(test_gpu());
  const unsigned n = 256;
  std::vector<float> a(n, 1.0f), bb(n, 2.0f);
  const auto pa = dev.alloc_copy<float>(a);
  const auto pb = dev.alloc_copy<float>(bb);
  const auto pc = dev.alloc(n * 4);
  Program prog = vec_add_kernel();
  KernelLaunch kl{&prog, {2, 1}, {128, 1}, 0, {n, pa, pb, pc}};
  const LaunchStats st = dev.launch(kl);
  ASSERT_EQ(st.due, DueKind::None);

  std::uint64_t mix_total = 0;
  for (auto c : st.warp_per_mix) mix_total += c;
  EXPECT_EQ(mix_total, st.warp_instructions);
  std::uint64_t unit_total = 0;
  for (auto c : st.warp_per_unit) unit_total += c;
  EXPECT_EQ(unit_total, st.warp_instructions);
  EXPECT_GT(st.warp_per_mix[static_cast<std::size_t>(isa::MixClass::ADD)], 0u);
  EXPECT_GT(st.warp_per_mix[static_cast<std::size_t>(isa::MixClass::LDST)], 0u);
  EXPECT_GT(st.achieved_occupancy, 0.0);
  EXPECT_LE(st.achieved_occupancy, 1.0);
  EXPECT_GE(st.lane_instructions, st.warp_instructions);
}

TEST(Executor, OccupancyReflectsResidentWarps) {
  // A single 32-thread block on a 2-SM device: one warp resident out of 64
  // per SM -> very low achieved occupancy.
  KernelBuilder b("busy");
  Reg i = b.reg(), acc = b.reg();
  b.movi(acc, 0);
  b.for_range_static(i, 0, 256, 1, [&] { b.iaddi(acc, acc, 1); });
  Program prog = b.build();
  Device dev(test_gpu());
  KernelLaunch small{&prog, {1, 1}, {32, 1}, 0, {}};
  const auto st_small = dev.launch(small);
  KernelLaunch big{&prog, {16, 1}, {256, 1}, 0, {}};
  const auto st_big = dev.launch(big);
  ASSERT_EQ(st_small.due, DueKind::None);
  ASSERT_EQ(st_big.due, DueKind::None);
  EXPECT_LT(st_small.achieved_occupancy, 0.05);
  EXPECT_GT(st_big.achieved_occupancy, 0.5);
  EXPECT_GT(st_big.ipc, st_small.ipc);
}

TEST(Executor, DeterministicAcrossRuns) {
  Device dev(test_gpu());
  const unsigned n = 128;
  std::vector<float> a(n, 1.0f), bb(n, 2.0f);
  const auto pa = dev.alloc_copy<float>(a);
  const auto pb = dev.alloc_copy<float>(bb);
  const auto pc = dev.alloc(n * 4);
  Program prog = vec_add_kernel();
  KernelLaunch kl{&prog, {4, 1}, {32, 1}, 0, {n, pa, pb, pc}};
  const auto s1 = dev.launch(kl);
  const auto s2 = dev.launch(kl);
  EXPECT_EQ(s1.cycles, s2.cycles);
  EXPECT_EQ(s1.warp_instructions, s2.warp_instructions);
}

TEST(Executor, SelAndMinMax) {
  KernelBuilder b("selminmax");
  Reg tid = b.global_tid_x();
  Reg out = b.load_param(0);
  Reg addr = b.reg();
  b.addr_index(addr, out, tid, 4);
  Reg ten = b.reg(), v = b.reg();
  b.movi(ten, 10);
  Pred small = b.pred();
  b.isetpi(small, tid, 10, CmpOp::LT);
  b.sel(v, ten, tid, small);           // v = small ? 10 : tid
  b.imnmx(v, v, ten, /*take_max=*/true);  // v = max(v, 10)
  b.stg(addr, v);
  Program prog = b.build();
  Device dev(test_gpu());
  const unsigned n = 32;
  const auto po = dev.alloc(n * 4);
  KernelLaunch kl{&prog, {1, 1}, {n, 1}, 0, {po}};
  ASSERT_EQ(dev.launch(kl).due, DueKind::None);
  const auto outv = dev.copy_out<std::uint32_t>(po, n);
  for (unsigned i = 0; i < n; ++i) EXPECT_EQ(outv[i], i < 10 ? 10u : i);
}

}  // namespace
}  // namespace gpurel::sim
