#include "fault/site.hpp"

#include <stdexcept>

namespace gpurel::fault {

std::string_view site_class_name(SiteClass c) {
  switch (c) {
    // The architectural classes keep their legacy model names: JobSpec
    // strings, telemetry `model` fields, and report rows all spell them
    // this way, and the hash goldens pin that spelling.
    case SiteClass::InstructionOutput: return "IOV";
    case SiteClass::RegisterFile: return "RF";
    case SiteClass::Predicate: return "PR";
    case SiteClass::InstructionAddress: return "IA";
    case SiteClass::StoreValue: return "STV";
    case SiteClass::StoreAddress: return "STA";
    case SiteClass::Scheduler: return "SCHED";
    case SiteClass::Scoreboard: return "SCORE";
    case SiteClass::CtaBookkeeping: return "CTA";
    case SiteClass::WarpControl: return "WCTL";
    case SiteClass::kCount: break;
  }
  return "?";
}

FaultSite SiteSpace::decode(SiteClass cls, std::uint64_t index) const {
  const ClassSpace& cs = of(cls);
  for (const ComponentSpace& comp : cs.components) {
    const std::uint64_t n = comp.sites();
    if (index < n) {
      FaultSite site;
      site.cls = cls;
      site.component = comp.component;
      site.instance = index / comp.bits;
      site.bit = static_cast<std::uint32_t>(index % comp.bits);
      return site;
    }
    index -= n;
  }
  throw std::out_of_range("SiteSpace::decode: index beyond class site count");
}

}  // namespace gpurel::fault
