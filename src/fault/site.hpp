// The unified fault-site model behind every injector.
//
// A fault site is one strikeable bit of machine state, addressed as
// (site class, unit kind, component, instance slot, bit). Site classes come
// in two families:
//
//   Architectural — the state SASS-level tools (SASSIFI/NVBitFI) can reach:
//   instruction outputs, the register file, predicates, instruction
//   addresses, and store operands. Their site populations are *dynamic*:
//   one site per eligible event of a concrete execution, so the slot count
//   is measured by a fault-free counting run (fault::count_sites), not
//   declared here.
//
//   Micro-architectural — the scheduler, scoreboard, CTA-bookkeeping, and
//   warp-control state the paper's injectors cannot reach (§V: the origin
//   of the orders-of-magnitude DUE under-prediction). Their site
//   populations are *static*: fixed per-SM structures whose slot counts
//   follow from the GPU configuration, catalogued as ComponentSpace entries
//   (the normative list lives in docs/ARCHITECTURE.md §13).
//
// An injector's reach descriptor is the pair reaches(SiteClass) /
// enumerate_sites(workload, gpu): which classes it can strike, and the
// concrete site space per class.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "isa/instruction.hpp"

namespace gpurel::fault {

/// Every class of machine state a fault can strike. The first six are the
/// architectural classes (SASSIFI's fault modes); the rest are the
/// micro-architectural classes only simulator-level injection can reach.
enum class SiteClass : std::uint8_t {
  InstructionOutput,   // flip one bit of the destination after execution
  RegisterFile,        // flip one bit of a random allocated register
  Predicate,           // flip the predicate written by a SETP
  InstructionAddress,  // corrupt the warp PC after an instruction issues
  StoreValue,          // flip one bit of the value a store writes out
  StoreAddress,        // flip one bit of a store's address operand
  Scheduler,       // per-SM wake caches, ready rings, round-robin cursors
  Scoreboard,      // per-warp register/predicate ready times
  CtaBookkeeping,  // resident-block tables: retire and barrier counts
  WarpControl,     // warp PC, active mask, divergence stack
  kCount,
};

constexpr std::size_t kSiteClasses = static_cast<std::size_t>(SiteClass::kCount);
/// Architectural classes occupy [0, kArchSiteClasses).
constexpr std::size_t kArchSiteClasses =
    static_cast<std::size_t>(SiteClass::Scheduler);

std::string_view site_class_name(SiteClass c);

constexpr bool is_microarch(SiteClass c) {
  return static_cast<std::size_t>(c) >= kArchSiteClasses &&
         c != SiteClass::kCount;
}

/// One strikeable bit of machine state.
struct FaultSite {
  SiteClass cls = SiteClass::InstructionOutput;
  isa::UnitKind unit = isa::UnitKind::OTHER;  // IOV stratification only
  std::uint32_t component = 0;  // component id within the class (see catalogue)
  std::uint64_t instance = 0;   // slot within the component
  std::uint32_t bit = 0;        // bit within the slot
};

/// The site space an injector exposes on a concrete (workload, gpu) pair.
struct SiteSpace {
  /// One named micro-architectural structure: `slots` instances of a
  /// `bits`-bit field (sites() enumerates every bit of every instance).
  struct ComponentSpace {
    std::uint32_t component = 0;
    std::string_view name;  // catalogue name (docs/ARCHITECTURE.md §13)
    std::uint64_t slots = 0;
    std::uint32_t bits = 0;
    std::uint64_t sites() const { return slots * bits; }
  };

  struct ClassSpace {
    bool reached = false;
    /// Dynamic classes are populated per-execution; their site count comes
    /// from a fault-free counting run and `components` stays empty.
    bool dynamic = false;
    std::vector<ComponentSpace> components;
    std::uint64_t sites() const {
      std::uint64_t total = 0;
      for (const ComponentSpace& c : components) total += c.sites();
      return total;
    }
  };

  std::array<ClassSpace, kSiteClasses> classes{};

  const ClassSpace& of(SiteClass c) const {
    return classes[static_cast<std::size_t>(c)];
  }
  ClassSpace& of(SiteClass c) { return classes[static_cast<std::size_t>(c)]; }

  /// Decode a flat site index of `cls` into a concrete FaultSite
  /// (component, instance, bit). Valid only for static classes; `index`
  /// must be < of(cls).sites().
  FaultSite decode(SiteClass cls, std::uint64_t index) const;
};

}  // namespace gpurel::fault
