// Fault injector models behind the unified site-model API (fault/site.hpp).
//
// Both tools the paper uses instrument SASS and corrupt architecturally
// visible state; they differ in which site classes they can reach (§III-D):
//
//   SASSIFI  (CUDA 7 era, Kepler/Maxwell only, no vendor-library kernels):
//     instruction output values of FP32/FP64/INT/load instructions,
//     general-purpose register file bits, predicate registers, and
//     instruction addresses.
//
//   NVBitFI  (CUDA 10.1+, Kepler..Turing, vendor libraries OK on Volta):
//     output values of instructions that write general-purpose registers —
//     but, as of the paper's submission, no FP16 instructions, no predicate
//     registers, no instruction addresses.
//
//   MicroArch (simulator-only): the scheduler / scoreboard / CTA-bookkeeping
//     / warp-control state neither tool can reach — the origin of the
//     paper's orders-of-magnitude DUE under-prediction (§V). See
//     fault/microarch.hpp.
//
// Each injector also pins the compiler profile its era of tooling implies,
// which changes the generated SASS and hence the AVF (§VI). Construction
// goes through the make_injector(name) registry; registered names are the
// exact strings JobSpec::injector carries.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "arch/gpu_config.hpp"
#include "core/workload.hpp"
#include "fault/site.hpp"
#include "isa/compiler_profile.hpp"
#include "isa/instruction.hpp"

namespace gpurel::fault {

class Injector {
 public:
  virtual ~Injector() = default;

  virtual std::string name() const = 0;
  /// The toolchain era this injector instruments (affects codegen/AVF).
  virtual isa::CompilerProfile profile() const = 0;

  /// Reach descriptor, part 1: which site classes this injector can strike.
  virtual bool reaches(SiteClass c) const = 0;

  /// Reach descriptor, part 2: the concrete site space on this (workload,
  /// gpu) pair. The default marks every reached architectural class dynamic
  /// (slot counts come from fault::count_sites) and exposes no
  /// micro-architectural components; MicroArchInjector overrides it with
  /// the static per-SM structure catalogue.
  virtual SiteSpace enumerate_sites(const core::Workload& w,
                                    const arch::GpuConfig& gpu) const;

  /// Whether the injector can corrupt the output of this instruction
  /// (refines SiteClass::InstructionOutput to the tool's eligible opcodes).
  virtual bool eligible_output(const isa::Instr& in) const = 0;

  /// Whether the injector can instrument this workload on this device at
  /// all (SASSIFI: Kepler only, no library kernels; NVBitFI: library kernels
  /// only on Volta+).
  virtual bool can_instrument(const core::Workload& w,
                              const arch::GpuConfig& gpu) const = 0;
};

/// Construct a registered injector by name ("SASSIFI", "NVBitFI",
/// "MicroArch"). Throws std::invalid_argument naming every registered
/// injector when `name` is unknown.
std::unique_ptr<Injector> make_injector(const std::string& name);

/// The registry's names, in registration order.
const std::vector<std::string>& registered_injectors();

}  // namespace gpurel::fault
