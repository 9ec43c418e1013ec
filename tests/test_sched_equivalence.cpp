// Engine-equivalence suite: every registered workload plus targeted
// divergence/barrier/dual-issue/FP64/DUE kernels are run once and
// fingerprinted (outcome, DUE kind, every LaunchStats field bit-exactly,
// and the full allocated global-memory image). The fingerprints are compared
// against goldens recorded from the pre-event-engine scheduler, pinning the
// optimized executor to bit-identical behaviour. The same rows are checked
// again under no-op observers, so the hooked lane driver is pinned as well
// as the hook-free one.
//
// Regenerating goldens (only when an *intentional* semantic change lands):
//   GPUREL_REGEN_GOLDENS=tests/sched_equivalence_goldens.inc
//       ./build/tests/test_sched_equivalence   (one command line)
// then rebuild. Goldens depend on the host libm for SFU opcodes (exp2/log2),
// so they are validated on the environment that recorded them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "isa/kernel_builder.hpp"
#include "kernels/registry.hpp"
#include "sim/device.hpp"
#include "sim/instr_info.hpp"

namespace gpurel {
namespace {

using isa::CmpOp;
using isa::KernelBuilder;
using isa::MemWidth;
using isa::Opcode;
using isa::Pred;
using isa::Program;
using isa::Reg;
using isa::RegPair;
using isa::RZ;

struct GoldenRow {
  const char* name;
  std::uint64_t cycles;
  std::uint64_t lane_instructions;
  std::uint64_t fingerprint;
};

constexpr GoldenRow kGoldens[] = {
#include "sched_equivalence_goldens.inc"
    {nullptr, 0, 0, 0},  // sentinel (keeps the array non-empty pre-regen)
};

class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void mix(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
  void mix_byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

void mix_stats(Fnv& f, const sim::LaunchStats& s) {
  f.mix(s.cycles);
  f.mix(s.warp_instructions);
  f.mix(s.lane_instructions);
  for (const auto v : s.lane_per_unit) f.mix(v);
  for (const auto v : s.lane_busy_per_unit) f.mix(v);
  for (const auto v : s.warp_per_unit) f.mix(v);
  for (const auto v : s.warp_per_mix) f.mix(v);
  f.mix(s.warp_cycles);
  f.mix(s.block_cycles);
  f.mix(s.sm_active_cycles);
  f.mix(std::uint64_t{s.shared_bytes_per_block});
  f.mix(s.achieved_occupancy);
  f.mix(s.ipc);
  f.mix_byte(static_cast<std::uint8_t>(s.due));
}

void mix_memory(Fnv& f, const sim::Device& dev) {
  const auto& mem = dev.memory();
  const std::uint32_t lo = sim::GlobalMemory::kNullGuard;
  const std::uint32_t hi = mem.allocated_top();
  if (hi <= lo) return;
  std::vector<std::uint8_t> bytes(hi - lo);
  mem.read_bytes(lo, bytes);
  for (const std::uint8_t b : bytes) f.mix_byte(b);
}

struct Case {
  std::string name;
  std::uint64_t cycles = 0;
  std::uint64_t lane_instructions = 0;
  std::uint64_t fingerprint = 0;
};

// ---- Registry sweep --------------------------------------------------------

void run_catalog(std::vector<Case>& out, const char* tag,
                 const arch::GpuConfig& gpu,
                 const std::vector<kernels::CatalogEntry>& entries,
                 sim::SimObserver* obs) {
  std::map<std::string, bool> seen;
  for (const auto& e : entries) {
    const std::string name = std::string(tag) + "/" + kernels::entry_name(e);
    if (seen[name]) continue;
    seen[name] = true;
    core::WorkloadConfig wc{gpu, isa::CompilerProfile::Cuda10, 0x5eed, 0.05};
    auto w = kernels::make_workload(e.base, e.precision, wc);
    sim::Device dev(gpu);
    w->prepare(dev);
    const auto r = w->run_trial(dev, obs);
    Fnv f;
    f.mix_byte(static_cast<std::uint8_t>(r.outcome));
    f.mix_byte(static_cast<std::uint8_t>(r.due));
    mix_stats(f, r.stats);
    mix_memory(f, dev);
    out.push_back({name, r.stats.cycles, r.stats.lane_instructions, f.value()});
  }
}

// ---- Targeted kernels ------------------------------------------------------

// Runs a built program on a fresh device under `obs` (may be null):
// grid/block as given, param 0 is a freshly allocated output buffer of
// `out_words` u32 slots.
Case run_targeted(const std::string& name, const arch::GpuConfig& gpu,
                  Program& prog, sim::Dim2 grid, sim::Dim2 block,
                  unsigned out_words, sim::SimObserver* obs,
                  std::uint64_t max_cycles = 4'000'000) {
  sim::Device dev(gpu);
  const auto out = dev.alloc(out_words * 4);
  sim::KernelLaunch kl{&prog, grid, block, 0, {out}};
  const auto st = dev.launch(kl, obs, max_cycles);
  Fnv f;
  mix_stats(f, st);
  mix_memory(f, dev);
  return {name, st.cycles, st.lane_instructions, f.value()};
}

void store_at(KernelBuilder& b, Reg tid, Reg v) {
  Reg out = b.load_param(0);
  Reg addr = b.reg();
  b.addr_index(addr, out, tid, 4);
  b.stg(addr, v);
  b.free(out);
  b.free(addr);
}

Program nested_divergence_kernel() {
  KernelBuilder b("eq_nested_div");
  Reg tid = b.global_tid_x();
  Reg v = b.reg();
  b.movi(v, 0);
  Reg bit = b.reg();
  Pred p1 = b.pred(), p2 = b.pred();
  b.landi(bit, tid, 1);
  b.isetpi(p1, bit, 1, CmpOp::EQ);
  b.if_then_else(
      p1,
      [&] {
        // Odd lanes: data-dependent loop length.
        Reg i = b.reg();
        b.movi(i, 0);
        b.while_loop([&](Pred p) { b.isetp(p, i, tid, CmpOp::LT); },
                     [&] {
                       b.iadd(v, v, i);
                       b.iaddi(i, i, 3);
                     });
        b.free(i);
      },
      [&] {
        b.landi(bit, tid, 2);
        b.isetpi(p2, bit, 2, CmpOp::EQ);
        b.if_then(p2, [&] { b.iaddi(v, tid, 1000); });
      });
  store_at(b, tid, v);
  return b.build();
}

Program barrier_exchange_kernel(unsigned block_threads) {
  KernelBuilder b("eq_barrier_xchg");
  const std::uint32_t sh = b.shared_alloc(block_threads * 4);
  Reg tid = b.tid_x();
  Reg gtid = b.global_tid_x();
  Reg a = b.reg();
  b.addr_index(a, RZ, tid, 4);
  b.iaddi(a, a, static_cast<std::int32_t>(sh));
  b.sts(a, gtid);
  b.bar();
  // Read the mirrored slot written by another warp.
  Reg mirror = b.reg();
  b.movi(mirror, static_cast<std::int32_t>(block_threads - 1));
  Reg mi = b.reg();
  b.iadd(mi, mirror, RZ);
  Reg tneg = b.reg();
  b.movi(tneg, 0);
  b.iadd(tneg, tneg, tid);
  // mi = (block_threads-1) - tid
  Reg diff = b.reg();
  b.movi(diff, 0);
  b.iadd(diff, mi, RZ);
  b.lxor(tneg, tneg, RZ);
  b.imuli(tneg, tneg, -1);
  b.iadd(diff, diff, tneg);
  Reg ra = b.reg();
  b.addr_index(ra, RZ, diff, 4);
  b.iaddi(ra, ra, static_cast<std::int32_t>(sh));
  Reg v = b.reg();
  b.lds(v, ra);
  b.bar();
  store_at(b, gtid, v);
  return b.build();
}

Program ilp_dual_issue_kernel() {
  // Four independent arithmetic chains per thread: plenty of dual-issue
  // opportunities and port-limit pressure (FP32 + INT mixed).
  KernelBuilder b("eq_ilp");
  Reg tid = b.global_tid_x();
  Reg f0 = b.reg(), f1 = b.reg(), i0 = b.reg(), i1 = b.reg();
  b.i2f(f0, tid);
  b.faddi(f1, f0, 1.5f);
  b.movi(i0, 3);
  b.iadd(i1, tid, i0);
  Reg it = b.reg();
  b.for_range_static(it, 0, 24, 1, [&] {
    b.fmuli(f0, f0, 1.0001f);
    b.faddi(f1, f1, 0.25f);
    b.imuli(i0, i0, 3);
    b.iaddi(i1, i1, 7);
  });
  b.free(it);
  Reg acc = b.reg();
  b.f2i(acc, f0);
  b.iadd(acc, acc, i0);
  b.iadd(acc, acc, i1);
  Reg f1i = b.reg();
  b.f2i(f1i, f1);
  b.iadd(acc, acc, f1i);
  store_at(b, tid, acc);
  return b.build();
}

Program fp64_b64_kernel() {
  KernelBuilder b("eq_fp64_b64");
  Reg tid = b.global_tid_x();
  RegPair d0 = b.reg_pair(), d1 = b.reg_pair(), d2 = b.reg_pair();
  b.movd(d0, 1.0 / 3.0);
  b.i2d(d1, tid);
  b.dmul(d2, d0, d1);
  b.dfma(d2, d2, d1, d0);
  b.dadd(d2, d2, d1);
  // Store the fp64 result through the 64-bit global path and reload it.
  Reg out = b.load_param(0);
  Reg addr = b.reg();
  b.addr_index(addr, out, tid, 8);
  b.stg64(addr, d2);
  RegPair back = b.reg_pair();
  b.ldg64(back, addr);
  Reg lo = b.reg();
  b.d2i(lo, back);
  // Overwrite the low word with the truncated value (keeps memory sensitive
  // to both the B64 store and the D2I conversion).
  b.stg(addr, lo);
  return b.build();
}

Program sfu_mix_kernel() {
  KernelBuilder b("eq_sfu_mix");
  Reg tid = b.global_tid_x();
  Reg f = b.reg();
  b.i2f(f, tid);
  b.faddi(f, f, 2.0f);
  Reg r0 = b.reg(), r1 = b.reg(), r2 = b.reg(), r3 = b.reg();
  b.rcp(r0, f);
  b.rsq(r1, f);
  b.ex2(r2, r0);
  b.lg2(r3, f);
  b.fadd(r0, r0, r1);
  b.fadd(r2, r2, r3);
  b.fadd(r0, r0, r2);
  Reg h = b.reg();
  b.f2h(h, r0);
  b.h2f(r1, h);
  Reg v = b.reg();
  b.f2i(v, r1);
  Reg bits = b.reg();
  b.mov(bits, r0);
  b.lor(v, v, bits);
  store_at(b, tid, v);
  return b.build();
}

Program atomic_kernel() {
  KernelBuilder b("eq_atomics");
  Reg tid = b.global_tid_x();
  Reg out = b.load_param(0);
  Reg one = b.reg();
  b.movi(one, 1);
  Reg old = b.reg();
  b.atom(old, out, one, isa::AtomOp::Add);
  b.atom(RZ, out, tid, isa::AtomOp::Max, 4);
  Reg cmp = b.reg();
  b.movi(cmp, 0);
  b.atom_cas(RZ, out, cmp, tid, 8);
  Reg slot = b.reg();
  b.addr_index(slot, out, tid, 4);
  b.stg(slot, old, 16);
  return b.build();
}

Program invalid_address_kernel() {
  KernelBuilder b("eq_invalid_addr");
  Reg zero = b.reg();
  b.movi(zero, 0);
  Reg v = b.reg();
  b.movi(v, 0x5a5a);
  b.stg(zero, v);  // null-guard page: InvalidAddress DUE
  return b.build();
}

Program misaligned_kernel() {
  KernelBuilder b("eq_misaligned");
  Reg out = b.load_param(0);
  Reg addr = b.reg();
  b.iaddi(addr, out, 2);  // valid page, 2-byte offset on a B32 access
  Reg v = b.reg();
  b.ldg(v, addr);
  store_at(b, b.global_tid_x(), v);
  return b.build();
}

Program watchdog_kernel() {
  KernelBuilder b("eq_watchdog");
  Reg i = b.reg();
  b.movi(i, 0);
  b.while_loop([&](Pred p) { b.isetpi(p, i, -1, CmpOp::NE); },
               [&] { b.iaddi(i, i, 2); b.iaddi(i, i, -2); });
  store_at(b, b.global_tid_x(), i);
  return b.build();
}

std::vector<Case> run_all_cases(sim::SimObserver* obs = nullptr) {
  std::vector<Case> out;
  const auto kepler = arch::GpuConfig::kepler_k40c(2);
  const auto volta = arch::GpuConfig::volta_v100(2);

  run_catalog(out, "kepler", kepler, kernels::kepler_app_catalog(), obs);
  run_catalog(out, "kepler", kepler, kernels::kepler_micro_catalog(), obs);
  run_catalog(out, "volta", volta, kernels::volta_app_catalog(), obs);
  run_catalog(out, "volta", volta, kernels::volta_micro_catalog(), obs);

  {
    auto p = nested_divergence_kernel();
    out.push_back(run_targeted("micro/nested_divergence", kepler, p,
                               {3, 1}, {48, 1}, 3 * 64, obs));
  }
  {
    auto p = barrier_exchange_kernel(96);
    out.push_back(run_targeted("micro/barrier_exchange", kepler, p,
                               {2, 1}, {96, 1}, 2 * 96, obs));
  }
  {
    auto p = ilp_dual_issue_kernel();
    out.push_back(
        run_targeted("micro/dual_issue_ilp", kepler, p,
                     {4, 1}, {64, 1}, 256, obs));
  }
  {
    auto p = ilp_dual_issue_kernel();
    out.push_back(
        run_targeted("volta/dual_issue_ilp", volta, p,
                     {4, 1}, {64, 1}, 256, obs));
  }
  {
    auto p = fp64_b64_kernel();
    out.push_back(
        run_targeted("micro/fp64_b64", kepler, p,
                     {2, 1}, {32, 1}, 2 * 32 * 2, obs));
  }
  {
    auto p = sfu_mix_kernel();
    out.push_back(
        run_targeted("micro/sfu_mix", kepler, p, {2, 1}, {64, 1}, 128, obs));
  }
  {
    auto p = atomic_kernel();
    out.push_back(
        run_targeted("micro/atomics", kepler, p, {2, 1}, {64, 1}, 160, obs));
  }
  {
    auto p = invalid_address_kernel();
    out.push_back(
        run_targeted("due/invalid_address", kepler, p,
                     {1, 1}, {32, 1}, 32, obs));
  }
  {
    auto p = misaligned_kernel();
    out.push_back(
        run_targeted("due/misaligned", kepler, p, {1, 1}, {32, 1}, 32, obs));
  }
  {
    auto p = watchdog_kernel();
    out.push_back(
        run_targeted("due/watchdog", kepler, p,
                     {2, 1}, {64, 1}, 128, obs, 20000));
  }
  return out;
}

void expect_goldens(const std::vector<Case>& cases) {
  std::map<std::string, const GoldenRow*> golden;
  for (const GoldenRow& g : kGoldens)
    if (g.name != nullptr) golden[g.name] = &g;
  ASSERT_EQ(golden.size(), cases.size())
      << "golden table out of sync; regenerate with GPUREL_REGEN_GOLDENS";

  for (const Case& c : cases) {
    const auto it = golden.find(c.name);
    ASSERT_NE(it, golden.end()) << "no golden recorded for " << c.name;
    const GoldenRow& g = *it->second;
    EXPECT_EQ(c.cycles, g.cycles) << c.name << ": cycle count diverged";
    EXPECT_EQ(c.lane_instructions, g.lane_instructions)
        << c.name << ": lane-instruction count diverged";
    EXPECT_EQ(c.fingerprint, g.fingerprint)
        << c.name
        << ": stats/memory fingerprint diverged from the recorded engine";
  }
}

TEST(SchedEquivalence, BitIdenticalToRecordedGoldens) {
  const std::vector<Case> cases = run_all_cases();
  ASSERT_FALSE(cases.empty());

  if (const char* regen = std::getenv("GPUREL_REGEN_GOLDENS")) {
    std::FILE* f = std::fopen(regen, "w");
    ASSERT_NE(f, nullptr) << "cannot open " << regen;
    std::fprintf(f,
                 "// Generated by test_sched_equivalence with "
                 "GPUREL_REGEN_GOLDENS; do not edit.\n");
    for (const Case& c : cases)
      std::fprintf(f, "{\"%s\", %lluull, %lluull, 0x%016llxull},\n",
                   c.name.c_str(),
                   static_cast<unsigned long long>(c.cycles),
                   static_cast<unsigned long long>(c.lane_instructions),
                   static_cast<unsigned long long>(c.fingerprint));
    std::fclose(f);
    GTEST_SKIP() << "regenerated " << cases.size() << " goldens into " << regen;
  }

  expect_goldens(cases);
}

/// A no-op observer that claims `mask`. The claim alone selects the
/// executor's lane driver; the hooks themselves change nothing.
class ClaimOnly final : public sim::SimObserver {
 public:
  explicit ClaimOnly(unsigned mask) : mask_(mask) {}
  unsigned wants() const override { return mask_; }

 private:
  unsigned mask_;
};

// The recorded rows hold under every lane driver: an after_exec claim runs
// the hooked driver, a before-only claim runs the hook-free driver behind
// per-lane before_exec calls, and kWantsAll claims every hook family.
TEST(SchedEquivalence, HookedDriversMatchRecordedGoldens) {
  for (const unsigned mask :
       {sim::SimObserver::kWantsAfterExec, sim::SimObserver::kWantsBeforeExec,
        sim::SimObserver::kWantsAll}) {
    SCOPED_TRACE("wants() = " + std::to_string(mask));
    ClaimOnly obs(mask);
    expect_goldens(run_all_cases(&obs));
  }
}

// ---- Satellite: operand-width static table ---------------------------------

isa::Instr make_instr(Opcode op, std::uint8_t aux = 0) {
  isa::Instr in;
  in.op = op;
  in.dst = 4;
  in.src[0] = 8;
  in.src[1] = 12;
  in.src[2] = 16;
  in.aux = aux;
  return in;
}

TEST(OperandWidths, Fp64PairOps) {
  for (const Opcode op : {Opcode::DADD, Opcode::DMUL, Opcode::DFMA}) {
    const auto in = make_instr(op);
    EXPECT_EQ(sim::dst_reg_width(in), 2u) << static_cast<int>(op);
    for (unsigned s = 0; s < 3; ++s)
      EXPECT_EQ(sim::src_reg_width(in, s), 2u) << static_cast<int>(op);
  }
  const auto dsetp = make_instr(Opcode::DSETP);
  EXPECT_EQ(sim::dst_reg_width(dsetp), 0u);  // writes a predicate, not a GPR
  EXPECT_EQ(sim::src_reg_width(dsetp, 0), 2u);
  EXPECT_EQ(sim::src_reg_width(dsetp, 1), 2u);
}

TEST(OperandWidths, Fp64Conversions) {
  EXPECT_EQ(sim::dst_reg_width(make_instr(Opcode::F2D)), 2u);
  EXPECT_EQ(sim::dst_reg_width(make_instr(Opcode::I2D)), 2u);
  EXPECT_EQ(sim::dst_reg_width(make_instr(Opcode::D2F)), 1u);
  EXPECT_EQ(sim::dst_reg_width(make_instr(Opcode::D2I)), 1u);
  EXPECT_EQ(sim::src_reg_width(make_instr(Opcode::D2F), 0), 2u);
  EXPECT_EQ(sim::src_reg_width(make_instr(Opcode::D2F), 1), 1u);
  EXPECT_EQ(sim::src_reg_width(make_instr(Opcode::D2I), 0), 2u);
  EXPECT_EQ(sim::src_reg_width(make_instr(Opcode::F2D), 0), 1u);
}

TEST(OperandWidths, B64Memory) {
  const auto b64 = static_cast<std::uint8_t>(MemWidth::B64);
  const auto b32 = static_cast<std::uint8_t>(MemWidth::B32);
  for (const Opcode op : {Opcode::LDG, Opcode::LDS}) {
    EXPECT_EQ(sim::dst_reg_width(make_instr(op, b64)), 2u);
    EXPECT_EQ(sim::dst_reg_width(make_instr(op, b32)), 1u);
    EXPECT_EQ(sim::src_reg_width(make_instr(op, b64), 0), 1u);  // address
  }
  for (const Opcode op : {Opcode::STG, Opcode::STS}) {
    EXPECT_EQ(sim::dst_reg_width(make_instr(op, b64)), 0u);
    EXPECT_EQ(sim::src_reg_width(make_instr(op, b64), 0), 1u);  // address
    EXPECT_EQ(sim::src_reg_width(make_instr(op, b64), 1), 2u);  // value pair
    EXPECT_EQ(sim::src_reg_width(make_instr(op, b32), 1), 1u);
  }
}

TEST(OperandWidths, MmaFragments) {
  const auto hmma = make_instr(Opcode::HMMA);
  EXPECT_EQ(sim::dst_reg_width(hmma), 4u);
  // All three HMMA sources are 4-register packed-half fragments — including
  // the accumulator (slot 2), which was previously written as a dead ternary.
  for (unsigned s = 0; s < 3; ++s) EXPECT_EQ(sim::src_reg_width(hmma, s), 4u);

  const auto fmma = make_instr(Opcode::FMMA);
  EXPECT_EQ(sim::dst_reg_width(fmma), 8u);
  EXPECT_EQ(sim::src_reg_width(fmma, 0), 4u);
  EXPECT_EQ(sim::src_reg_width(fmma, 1), 4u);
  EXPECT_EQ(sim::src_reg_width(fmma, 2), 8u);  // fp32 accumulator
}

}  // namespace
}  // namespace gpurel
