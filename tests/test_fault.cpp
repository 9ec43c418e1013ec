// Fault-injector and campaign tests: eligibility/capability modeling,
// deterministic reproducibility, outcome taxonomy on a known-vulnerable
// microbenchmark (integer chains: AVF ~100%, paper §V-A) and on matrix codes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "common/telemetry.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "isa/kernel_builder.hpp"
#include "kernels/matmul.hpp"
#include "kernels/microbench.hpp"
#include "sim/device.hpp"

namespace gpurel::fault {
namespace {

using core::Precision;
using core::WorkloadConfig;
using isa::CompilerProfile;
using isa::Instr;
using isa::Opcode;
using isa::UnitKind;
using kernels::ArithMicro;
using kernels::Gemm;
using kernels::MicroOp;
using kernels::MxM;

WorkloadConfig cfg_for(const Injector& inj, bool volta = false,
                       double scale = 0.05) {
  return {volta ? arch::GpuConfig::volta_v100(2) : arch::GpuConfig::kepler_k40c(2),
          inj.profile(), 0x5eed, scale};
}

TEST(Injector, SassifiCapabilities) {
  auto s = make_injector("SASSIFI");
  EXPECT_EQ(s->name(), "SASSIFI");
  EXPECT_EQ(s->profile(), CompilerProfile::Cuda7);
  EXPECT_TRUE(s->reaches(SiteClass::Predicate));
  EXPECT_TRUE(s->reaches(SiteClass::InstructionAddress));
  EXPECT_TRUE(s->reaches(SiteClass::RegisterFile));

  EXPECT_TRUE(s->eligible_output(Instr{.op = Opcode::FFMA}));
  EXPECT_TRUE(s->eligible_output(Instr{.op = Opcode::IADD}));
  EXPECT_TRUE(s->eligible_output(Instr{.op = Opcode::LDG}));
  EXPECT_FALSE(s->eligible_output(Instr{.op = Opcode::STG}));
  EXPECT_FALSE(s->eligible_output(Instr{.op = Opcode::MOV}));
  EXPECT_FALSE(s->eligible_output(Instr{.op = Opcode::ISETP}));
}

TEST(Injector, NvbitfiCapabilities) {
  auto n = make_injector("NVBitFI");
  EXPECT_EQ(n->profile(), CompilerProfile::Cuda10);
  EXPECT_TRUE(n->reaches(SiteClass::InstructionOutput));
  EXPECT_FALSE(n->reaches(SiteClass::Predicate));
  EXPECT_FALSE(n->reaches(SiteClass::InstructionAddress));
  EXPECT_FALSE(n->reaches(SiteClass::RegisterFile));

  // GPR-writing instructions are fair game...
  EXPECT_TRUE(n->eligible_output(Instr{.op = Opcode::FFMA}));
  EXPECT_TRUE(n->eligible_output(Instr{.op = Opcode::SEL}));
  EXPECT_TRUE(n->eligible_output(Instr{.op = Opcode::S2R}));
  // ...except register moves / immediate materialization, which have no
  // distinct injectable output site in real optimized SASS...
  EXPECT_FALSE(n->eligible_output(Instr{.op = Opcode::MOV}));
  EXPECT_FALSE(n->eligible_output(Instr{.op = Opcode::MOV32I}));
  // ...but not FP16 ops (paper: no half injection as of submission).
  EXPECT_FALSE(n->eligible_output(Instr{.op = Opcode::HFMA}));
  EXPECT_FALSE(n->eligible_output(Instr{.op = Opcode::HMMA}));
  EXPECT_TRUE(n->eligible_output(Instr{.op = Opcode::FMMA}));
}

TEST(Injector, LibraryAndArchRestrictions) {
  auto s = make_injector("SASSIFI");
  auto n = make_injector("NVBitFI");
  const auto kepler = arch::GpuConfig::kepler_k40c(2);
  const auto volta = arch::GpuConfig::volta_v100(2);

  MxM plain({kepler, CompilerProfile::Cuda7, 1, 0.05}, Precision::Single, 16);
  Gemm lib({kepler, CompilerProfile::Cuda10, 1, 0.05}, Precision::Single, 32);
  Gemm lib_volta({volta, CompilerProfile::Cuda10, 1, 0.05}, Precision::Single, 32);

  EXPECT_TRUE(s->can_instrument(plain, kepler));
  EXPECT_FALSE(s->can_instrument(lib, kepler));    // no library kernels
  EXPECT_FALSE(s->can_instrument(plain, volta));   // Kepler-only tool
  EXPECT_FALSE(n->can_instrument(lib, kepler));    // library on Kepler: no
  EXPECT_TRUE(n->can_instrument(lib_volta, volta));
  EXPECT_TRUE(n->can_instrument(plain, kepler));
}

TEST(Campaign, IntegerMicrobenchHasNearTotalAvf) {
  // Paper §V-A: microbenchmark AVF is ~100% for the integer versions —
  // a flipped accumulator bit always survives to the output.
  auto inj = make_injector("NVBitFI");
  CampaignConfig cc;
  cc.injections_per_kind = 40;
  cc.seed = 7;
  auto factory = [&] {
    return std::make_unique<ArithMicro>(cfg_for(*inj), Precision::Int32,
                                        MicroOp::Fma);
  };
  const auto r = run_campaign(*inj, factory, cc);
  EXPECT_EQ(r.workload, "IMAD");
  // IMAD-output flips land in a live accumulator chain: SDC nearly always.
  EXPECT_GT(r.avf_sdc(UnitKind::IMAD), 0.9);
  EXPECT_GT(r.kind(UnitKind::IMAD).counts.total(), 0u);
}

TEST(Campaign, ResultsAreReproducible) {
  auto inj = make_injector("NVBitFI");
  CampaignConfig cc;
  cc.injections_per_kind = 15;
  cc.seed = 99;
  auto factory = [&] {
    return std::make_unique<MxM>(cfg_for(*inj), Precision::Single, 16);
  };
  const auto a = run_campaign(*inj, factory, cc);
  const auto b = run_campaign(*inj, factory, cc);
  EXPECT_EQ(a.overall_avf_sdc(), b.overall_avf_sdc());
  EXPECT_EQ(a.overall_avf_due(), b.overall_avf_due());
  EXPECT_EQ(a.total_injections(), b.total_injections());
}

TEST(Campaign, WorkerCountDoesNotChangeResults) {
  auto inj = make_injector("NVBitFI");
  CampaignConfig cc;
  cc.injections_per_kind = 12;
  cc.seed = 31;
  auto factory = [&] {
    return std::make_unique<MxM>(cfg_for(*inj), Precision::Single, 16);
  };
  CampaignConfig cc2 = cc;
  cc2.workers = 3;
  const auto a = run_campaign(*inj, factory, cc);
  const auto b = run_campaign(*inj, factory, cc2);
  EXPECT_EQ(a.overall_avf_sdc(), b.overall_avf_sdc());
  EXPECT_EQ(a.total_injections(), b.total_injections());
}

TEST(Campaign, MxMShowsAllThreeOutcomeClasses) {
  auto inj = make_injector("SASSIFI");
  CampaignConfig cc;
  cc.injections_per_kind = 60;
  cc.ia_injections = 40;
  cc.pred_injections = 30;
  cc.rf_injections = 30;
  cc.seed = 5;
  auto factory = [&] {
    return std::make_unique<MxM>(cfg_for(*inj), Precision::Single, 16);
  };
  const auto r = run_campaign(*inj, factory, cc);
  // Address-arithmetic faults in MxM produce DUEs, data faults SDCs, and
  // high-bit-of-dead-value faults masks: all three classes must appear.
  std::uint64_t sdc = 0, due = 0, masked = 0;
  for (const auto& k : r.per_kind) {
    sdc += k.counts.sdc;
    due += k.counts.due;
    masked += k.counts.masked;
  }
  EXPECT_GT(sdc, 0u);
  EXPECT_GT(due + r.ia.due, 0u);
  EXPECT_GT(masked + r.ia.masked + r.pred.masked, 0u);
  // Instruction-address corruption overwhelmingly crashes or misroutes.
  EXPECT_GT(r.ia.total(), 0u);
  EXPECT_GT(r.pred.total(), 0u);
  EXPECT_GT(r.rf.total(), 0u);
}

TEST(Campaign, RejectsMismatchedProfile) {
  auto inj = make_injector("SASSIFI");
  CampaignConfig cc;
  auto bad_factory = [&] {
    // Cuda10 workload given to the Cuda7-era injector.
    return std::make_unique<MxM>(
        WorkloadConfig{arch::GpuConfig::kepler_k40c(2), CompilerProfile::Cuda10,
                       1, 0.05},
        Precision::Single, 16);
  };
  EXPECT_THROW(run_campaign(*inj, bad_factory, cc), std::invalid_argument);
}

TEST(Campaign, RejectsUninstrumentableWorkload) {
  auto inj = make_injector("SASSIFI");
  CampaignConfig cc;
  auto lib_factory = [&] {
    return std::make_unique<Gemm>(cfg_for(*inj), Precision::Single, 32);
  };
  EXPECT_THROW(run_campaign(*inj, lib_factory, cc), std::invalid_argument);
}


TEST(Campaign, StoreModesExerciseStores) {
  auto inj = make_injector("SASSIFI");
  CampaignConfig cc;
  cc.injections_per_kind = 10;
  cc.store_value_injections = 40;
  cc.store_addr_injections = 40;
  cc.seed = 13;
  auto factory = [&] {
    return std::make_unique<MxM>(cfg_for(*inj), Precision::Single, 16);
  };
  const auto r = run_campaign(*inj, factory, cc);
  EXPECT_GT(r.store_sites, 0u);
  EXPECT_EQ(r.store_value.total(), 40u);
  EXPECT_EQ(r.store_addr.total(), 40u);
  // Corrupted store values land in the output: SDC-heavy.
  EXPECT_GT(r.store_value.avf_sdc(), 0.3);
  // Corrupted store addresses mostly leave the footprint or misalign: DUEs
  // (with some silent wrong-location writes).
  EXPECT_GT(r.store_addr.avf_due() + r.store_addr.avf_sdc(), 0.3);
  EXPECT_GT(r.store_addr.avf_due(), r.store_value.avf_due());
}

TEST(Campaign, NvbitfiIgnoresStoreModes) {
  auto inj = make_injector("NVBitFI");
  EXPECT_FALSE(inj->reaches(SiteClass::StoreValue));
  EXPECT_FALSE(inj->reaches(SiteClass::StoreAddress));
  CampaignConfig cc;
  cc.injections_per_kind = 5;
  cc.store_value_injections = 20;  // requested but unsupported: skipped
  auto factory = [&] {
    return std::make_unique<MxM>(cfg_for(*inj), Precision::Single, 16);
  };
  const auto r = run_campaign(*inj, factory, cc);
  EXPECT_EQ(r.store_value.total(), 0u);
}

TEST(Injector, SiteClassNames) {
  // The architectural names are SASSIFI's mode names: JobSpec strings,
  // telemetry model fields and report rows spell them this way.
  const std::string_view want[kSiteClasses] = {
      "IOV", "RF", "PR", "IA", "STV", "STA", "SCHED", "SCORE", "CTA", "WCTL"};
  for (std::size_t i = 0; i < kSiteClasses; ++i)
    EXPECT_EQ(site_class_name(static_cast<SiteClass>(i)), want[i]) << i;
}

TEST(Campaign, OverallMaskedIsZeroWithoutTrials) {
  // Regression: an empty campaign used to report overall_masked() == 1.0
  // (1 - 0 - 0), disagreeing with the zero-denominator guard every other
  // overall_* accessor applies. No trials means no masked fraction.
  const CampaignResult empty;
  EXPECT_DOUBLE_EQ(empty.overall_masked(), 0.0);
  EXPECT_DOUBLE_EQ(empty.overall_avf_sdc(), 0.0);
  EXPECT_DOUBLE_EQ(empty.overall_avf_due(), 0.0);

  // Same through the campaign runner with every injection count at zero.
  auto inj = make_injector("NVBitFI");
  CampaignConfig cc;
  cc.injections_per_kind = 0;
  auto factory = [&] {
    return std::make_unique<MxM>(cfg_for(*inj), Precision::Single, 16);
  };
  const auto r = run_campaign(*inj, factory, cc);
  EXPECT_EQ(r.total_injections(), 0u);
  EXPECT_DOUBLE_EQ(r.overall_masked(), 0.0);
}

TEST(Campaign, NonEmptyMaskedSdcDueSumToOne) {
  auto inj = make_injector("NVBitFI");
  CampaignConfig cc;
  cc.injections_per_kind = 10;
  cc.seed = 5;
  auto factory = [&] {
    return std::make_unique<MxM>(cfg_for(*inj), Precision::Single, 16);
  };
  const auto r = run_campaign(*inj, factory, cc);
  ASSERT_GT(r.total_injections(), 0u);
  EXPECT_NEAR(r.overall_masked() + r.overall_avf_sdc() + r.overall_avf_due(),
              1.0, 1e-12);
}

TEST(Campaign, IaPcBitsCoverProgramRange) {
  // Regression: IA trials used to sample uniform_u64(12) but apply `& 15u`,
  // so bits 12-14 were declared yet never flipped and the sampled range had
  // no relation to the program. The bit width now derives from the largest
  // program: smallest b >= 1 with 2^b >= max instruction count.
  auto inj = make_injector("SASSIFI");
  auto w = std::make_unique<MxM>(cfg_for(*inj), Precision::Single, 16);
  sim::Device dev(w->config().gpu);
  w->prepare(dev);

  std::uint32_t max_size = 0;
  for (const isa::Program* p : w->programs())
    max_size = std::max(max_size, p->size());
  ASSERT_GT(max_size, 0u);

  const unsigned bits = ia_pc_bits(*w);
  ASSERT_GE(bits, 1u);
  ASSERT_LT(bits, 32u);
  // Wide enough to reach every instruction, tight enough to waste at most
  // one doubling.
  EXPECT_GE(std::uint64_t{1} << bits, max_size);
  if (bits > 1) {
    EXPECT_LT((std::uint64_t{1} << (bits - 1)), max_size);
  }
}

/// Straight-line integer arithmetic with no stores and no predicate writes:
/// the store and predicate fault modes have zero dynamic sites here. Nothing
/// reaches memory, so verification is vacuous by construction.
class StorelessWorkload final : public core::Workload {
 public:
  explicit StorelessWorkload(core::WorkloadConfig cfg)
      : Workload(std::move(cfg)) {}
  std::string base_name() const override { return "NOSTORE"; }
  Precision precision() const override { return Precision::Int32; }

 protected:
  void build_programs() override {
    isa::KernelBuilder b("nostore", config_.profile);
    isa::Reg acc = b.reg();
    b.movi(acc, 1);
    for (int i = 0; i < 8; ++i) b.iaddi(acc, acc, 3);
    program_ = b.build();
    register_program(&program_);
  }
  void setup(sim::Device&) override {}
  void execute(sim::Device&, core::TrialRunner& runner) override {
    runner.launch({&program_, {1, 1}, {32, 1}, 0, {}});
  }
  bool verify(sim::Device&) override { return true; }

 private:
  isa::Program program_;
};

/// An EXIT-only kernel: regs_per_thread == 0, so the RegisterFile fault mode
/// has no architectural state to strike.
class NoRegWorkload final : public core::Workload {
 public:
  explicit NoRegWorkload(core::WorkloadConfig cfg) : Workload(std::move(cfg)) {}
  std::string base_name() const override { return "NOREG"; }
  Precision precision() const override { return Precision::Int32; }

 protected:
  void build_programs() override {
    // Built directly: KernelBuilder reports at least one register even for
    // an empty kernel, and the point here is a true zero-register program.
    program_ = isa::Program("noreg", {isa::Instr{.op = isa::Opcode::EXIT}},
                            /*regs_per_thread=*/0, /*shared_bytes=*/0);
    register_program(&program_);
  }
  void setup(sim::Device&) override {}
  void execute(sim::Device&, core::TrialRunner& runner) override {
    runner.launch({&program_, {1, 1}, {32, 1}, 0, {}});
  }
  bool verify(sim::Device&) override { return true; }

 private:
  isa::Program program_;
};

// Regression: requesting a supported fault mode on a workload with zero
// dynamic sites for it used to silently drop the trials — and the sampling
// path it skipped would have called Rng::uniform_u64(0), which is undefined.
// Such trials are now resolved as Masked at plan time (a strike on a unit
// the program never exercises corrupts nothing) and flagged via telemetry.
TEST(Campaign, ZeroSiteModesResolveMaskedWithWarning) {
  auto inj = make_injector("SASSIFI");
  const std::string path =
      testing::TempDir() + "gpurel_zero_site_warn.jsonl";
  CampaignConfig cc;
  cc.injections_per_kind = 2;
  cc.store_value_injections = 5;
  cc.store_addr_injections = 5;
  cc.pred_injections = 3;
  cc.seed = 77;
  auto factory = [&] {
    return std::make_unique<StorelessWorkload>(cfg_for(*inj));
  };
  CampaignResult r;
  {
    telemetry::Sink sink(path);
    cc.telemetry = &sink;
    r = run_campaign(*inj, factory, cc);
  }
  EXPECT_EQ(r.store_sites, 0u);
  EXPECT_EQ(r.pred_sites, 0u);
  // Every zero-site trial is accounted for, and every one is masked.
  EXPECT_EQ(r.store_value.total(), 5u);
  EXPECT_EQ(r.store_value.masked, 5u);
  EXPECT_EQ(r.store_addr.total(), 5u);
  EXPECT_EQ(r.store_addr.masked, 5u);
  EXPECT_EQ(r.pred.total(), 3u);
  EXPECT_EQ(r.pred.masked, 3u);
  // IOV trials on the exercised kinds still run normally.
  EXPECT_GT(r.total_injections(), 13u);

  std::ifstream in(path);
  std::string line, joined;
  std::size_t warnings = 0;
  while (std::getline(in, line)) {
    if (line.find("campaign_zero_site_mode") != std::string::npos) ++warnings;
    joined += line;
  }
  std::remove(path.c_str());
  EXPECT_EQ(warnings, 3u);  // PR, STV, STA
  EXPECT_NE(joined.find("\"model\":\"STV\""), std::string::npos);
  EXPECT_NE(joined.find("\"model\":\"STA\""), std::string::npos);
  EXPECT_NE(joined.find("\"model\":\"PR\""), std::string::npos);
  EXPECT_NE(joined.find("\"resolution\":\"masked\""), std::string::npos);
}

// Regression: RF trials on a workload whose kernels use no registers used to
// clamp the sample range to max(1, max_regs) and flip a register the program
// does not own — always masked, silently diluting the reported RF AVF. This
// is a configuration error and is now rejected at plan time.
TEST(Campaign, RejectsRegisterFileModeWithoutRegisters) {
  auto inj = make_injector("SASSIFI");
  auto factory = [&] {
    return std::make_unique<NoRegWorkload>(cfg_for(*inj));
  };
  {
    auto w = factory();
    sim::Device dev(w->config().gpu);
    w->prepare(dev);
    ASSERT_EQ(w->max_regs_per_thread(), 0u);
  }
  CampaignConfig cc;
  cc.rf_injections = 2;
  EXPECT_THROW(run_campaign(*inj, factory, cc), std::invalid_argument);
  // Without the RF request the same workload is campaignable.
  cc.rf_injections = 0;
  cc.injections_per_kind = 2;
  const auto r = run_campaign(*inj, factory, cc);
  EXPECT_EQ(r.rf.total(), 0u);
}

TEST(OutcomeCounts, Accounting) {
  OutcomeCounts c;
  c.add(core::Outcome::Sdc);
  c.add(core::Outcome::Sdc);
  c.add(core::Outcome::Due);
  c.add(core::Outcome::Masked);
  EXPECT_EQ(c.total(), 4u);
  EXPECT_DOUBLE_EQ(c.avf_sdc(), 0.5);
  EXPECT_DOUBLE_EQ(c.avf_due(), 0.25);
  EXPECT_DOUBLE_EQ(c.masked_fraction(), 0.25);
  OutcomeCounts d;
  d.merge(c);
  d.merge(c);
  EXPECT_EQ(d.total(), 8u);
  const auto ci = c.sdc_ci();
  EXPECT_LT(ci.lower, 0.5);
  EXPECT_GT(ci.upper, 0.5);
}

}  // namespace
}  // namespace gpurel::fault
