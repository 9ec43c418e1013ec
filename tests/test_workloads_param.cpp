// Catalog-wide parameterized sweeps: every workload of both devices' Table-I
// and Fig.-3 sets must run Masked fault-free, reproduce bit-identically,
// expose sane profile metrics, and build under both compiler profiles with
// identical numerical results where the profile does not change arithmetic.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "kernels/registry.hpp"
#include "profile/profiler.hpp"
#include "sim/instr_info.hpp"

namespace gpurel::kernels {
namespace {

struct Case {
  CatalogEntry entry;
  arch::Architecture arch;
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto& e : kepler_app_catalog())
    cases.push_back({e, arch::Architecture::Kepler});
  for (const auto& e : volta_app_catalog())
    cases.push_back({e, arch::Architecture::Volta});
  for (const auto& e : kepler_micro_catalog())
    cases.push_back({e, arch::Architecture::Kepler});
  for (const auto& e : volta_micro_catalog())
    cases.push_back({e, arch::Architecture::Volta});
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string n = std::string(arch::architecture_name(info.param.arch)) + "_" +
                  entry_name(info.param.entry);
  for (char& c : n)
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  return n;
}

core::WorkloadConfig config_for(const Case& c,
                                isa::CompilerProfile profile =
                                    isa::CompilerProfile::Cuda10) {
  return {c.arch == arch::Architecture::Kepler ? arch::GpuConfig::kepler_k40c(2)
                                               : arch::GpuConfig::volta_v100(2),
          profile, 0x5eed, 0.4};
}

class EveryWorkload : public ::testing::TestWithParam<Case> {};

TEST_P(EveryWorkload, FaultFreeTrialIsMasked) {
  const Case& c = GetParam();
  auto w = make_workload(c.entry.base, c.entry.precision, config_for(c));
  sim::Device dev(w->config().gpu);
  w->prepare(dev);
  const auto r = w->run_trial(dev);
  EXPECT_EQ(r.outcome, core::Outcome::Masked);
  EXPECT_EQ(r.stats.due, sim::DueKind::None);
  EXPECT_GT(r.stats.warp_instructions, 0u);
}

TEST_P(EveryWorkload, TrialsAreBitReproducible) {
  const Case& c = GetParam();
  auto w = make_workload(c.entry.base, c.entry.precision, config_for(c));
  sim::Device dev(w->config().gpu);
  w->prepare(dev);
  const auto a = w->run_trial(dev);
  const auto b = w->run_trial(dev);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.lane_instructions, b.stats.lane_instructions);
  EXPECT_EQ(a.stats.warp_instructions, b.stats.warp_instructions);
}

TEST_P(EveryWorkload, ProfileMetricsAreSane) {
  const Case& c = GetParam();
  auto w = make_workload(c.entry.base, c.entry.precision, config_for(c));
  sim::Device dev(w->config().gpu);
  const auto p = profile::profile_workload(*w, dev);
  EXPECT_GT(p.ipc, 0.0);
  EXPECT_GT(p.occupancy, 0.0);
  EXPECT_LE(p.occupancy, 1.0);
  EXPECT_GE(p.regs_per_thread, 1u);
  EXPECT_LE(p.regs_per_thread, 255u);
  double mix_total = 0;
  for (double m : p.mix) {
    EXPECT_GE(m, 0.0);
    mix_total += m;
  }
  EXPECT_NEAR(mix_total, 1.0, 1e-9);
  // f(INST_i) fractions must be a (sub-)distribution too.
  double lane_total = 0;
  for (std::size_t k = 0; k < p.lane_per_unit.size(); ++k)
    lane_total += p.lane_fraction(static_cast<isa::UnitKind>(k));
  EXPECT_NEAR(lane_total, 1.0, 1e-9);
}

TEST_P(EveryWorkload, BothCompilerProfilesRunMasked) {
  const Case& c = GetParam();
  for (auto prof : {isa::CompilerProfile::Cuda7, isa::CompilerProfile::Cuda10}) {
    auto w = make_workload(c.entry.base, c.entry.precision, config_for(c, prof));
    sim::Device dev(w->config().gpu);
    w->prepare(dev);
    EXPECT_EQ(w->run_trial(dev).outcome, core::Outcome::Masked)
        << compiler_profile_name(prof);
  }
}

TEST_P(EveryWorkload, SeedChangesInputsButStaysMasked) {
  const Case& c = GetParam();
  auto cfg = config_for(c);
  cfg.input_seed = 0xfeedface;
  auto w = make_workload(c.entry.base, c.entry.precision, cfg);
  sim::Device dev(w->config().gpu);
  w->prepare(dev);
  EXPECT_EQ(w->run_trial(dev).outcome, core::Outcome::Masked);
}

INSTANTIATE_TEST_SUITE_P(Catalog, EveryWorkload, ::testing::ValuesIn(all_cases()),
                         case_name);

TEST(EveryProgram, OperandsStayBelowRegsPerThread) {
  // No instruction names a register at or above its program's
  // regs_per_thread, operand widths included. The fork layer's reconvergence
  // drop skips those registers and their scoreboard entries when it compares
  // a trial with a snapshot, and RF injection samples registers below the
  // workload's maximum, so both rest on this.
  const std::vector<CatalogEntry> device_stepped{
      {"BFS-DEV", core::Precision::Int32},
      {"CCL-DEV", core::Precision::Int32},
      {"QUICKSORT-DEV", core::Precision::Int32}};
  std::vector<std::pair<CatalogEntry, arch::GpuConfig>> cases;
  for (const auto& catalog : {kepler_app_catalog(), kepler_micro_catalog(),
                              device_stepped})
    for (const CatalogEntry& e : catalog)
      cases.push_back({e, arch::GpuConfig::kepler_k40c(2)});
  for (const auto& catalog : {volta_app_catalog(), volta_micro_catalog(),
                              device_stepped})
    for (const CatalogEntry& e : catalog)
      cases.push_back({e, arch::GpuConfig::volta_v100(2)});

  std::size_t programs = 0;
  for (const auto& [entry, gpu] : cases) {
    for (const auto prof :
         {isa::CompilerProfile::Cuda7, isa::CompilerProfile::Cuda10}) {
      auto w = make_workload(entry.base, entry.precision,
                             {gpu, prof, 0x5eed, 0.05});
      sim::Device dev(gpu);
      w->prepare(dev);
      for (const isa::Program* p : w->programs()) {
        ++programs;
        const unsigned regs = p->regs_per_thread();
        for (std::uint32_t pc = 0; pc < p->size(); ++pc) {
          const isa::Instr& in = p->at(pc);
          const std::string where = w->name() + " on " + gpu.name + " " +
                                    std::string(compiler_profile_name(prof)) +
                                    ", " + p->name() + " pc " +
                                    std::to_string(pc);
          if (isa::writes_gpr(in.op) && in.dst != isa::kRZ) {
            EXPECT_LE(in.dst + sim::dst_reg_width(in), regs) << where;
          }
          for (unsigned slot = 0; slot < 3; ++slot) {
            if (sim::src_slot_used(in, slot)) {
              EXPECT_LE(in.src[slot] + sim::src_reg_width(in, slot), regs)
                  << where << " src " << slot;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(programs, 0u);
}

}  // namespace
}  // namespace gpurel::kernels
