#include "job/serialize.hpp"

#include <stdexcept>
#include <string>

#include "job/spec.hpp"

namespace gpurel::job {

using json::Value;

namespace {

constexpr std::size_t kKinds = static_cast<std::size_t>(isa::UnitKind::kCount);
constexpr std::size_t kTargets =
    static_cast<std::size_t>(beam::StrikeTarget::kCount);

[[noreturn]] void unknown(const char* what, std::string_view name) {
  throw std::runtime_error(std::string("job: unknown ") + what + " \"" +
                           std::string(name) + "\"");
}

}  // namespace

void check_schema_version(const Value& doc, const char* what) {
  const Value* v = doc.find("schema_version");
  if (v == nullptr)
    throw std::runtime_error(std::string("job: ") + what +
                             " document has no schema_version");
  if (v->as_int() != kResultSchemaVersion)
    throw std::runtime_error(std::string("job: unsupported ") + what +
                             " schema_version " + std::to_string(v->as_int()));
}

core::Precision precision_from_name(std::string_view name) {
  for (const auto p : {core::Precision::Int32, core::Precision::Half,
                       core::Precision::Single, core::Precision::Double})
    if (core::precision_name(p) == name) return p;
  unknown("precision", name);
}

isa::UnitKind unit_kind_from_name(std::string_view name) {
  for (std::size_t k = 0; k < kKinds; ++k)
    if (isa::unit_kind_name(static_cast<isa::UnitKind>(k)) == name)
      return static_cast<isa::UnitKind>(k);
  unknown("unit kind", name);
}

arch::Architecture architecture_from_name(std::string_view name) {
  for (const auto a : {arch::Architecture::Kepler, arch::Architecture::Volta})
    if (arch::architecture_name(a) == name) return a;
  unknown("architecture", name);
}

isa::CompilerProfile compiler_profile_from_name(std::string_view name) {
  for (const auto p :
       {isa::CompilerProfile::Cuda7, isa::CompilerProfile::Cuda10})
    if (isa::compiler_profile_name(p) == name) return p;
  unknown("compiler profile", name);
}

beam::BeamMode beam_mode_from_name(std::string_view name) {
  if (name == "accelerated") return beam::BeamMode::Accelerated;
  if (name == "natural") return beam::BeamMode::Natural;
  unknown("beam mode", name);
}

Value gpu_to_json(const arch::GpuConfig& gpu) {
  Value v = Value::object();
  v.set("name", gpu.name);
  v.set("arch", arch::architecture_name(gpu.arch));
  v.set("sm_count", gpu.sm_count);
  v.set("warp_size", gpu.warp_size);
  v.set("max_warps_per_sm", gpu.max_warps_per_sm);
  v.set("max_blocks_per_sm", gpu.max_blocks_per_sm);
  v.set("max_threads_per_block", gpu.max_threads_per_block);
  v.set("schedulers_per_sm", gpu.schedulers_per_sm);
  v.set("issue_per_scheduler", gpu.issue_per_scheduler);
  v.set("registers_per_sm", gpu.registers_per_sm);
  v.set("shared_mem_per_sm", gpu.shared_mem_per_sm);
  v.set("fp32_lanes", gpu.fp32_lanes);
  v.set("fp64_lanes", gpu.fp64_lanes);
  v.set("fp16_lanes", gpu.fp16_lanes);
  v.set("int_lanes", gpu.int_lanes);
  v.set("sfu_lanes", gpu.sfu_lanes);
  v.set("ldst_lanes", gpu.ldst_lanes);
  v.set("tensor_lanes", gpu.tensor_lanes);
  v.set("int_shares_fp32", gpu.int_shares_fp32);
  v.set("has_fp16", gpu.has_fp16);
  v.set("has_tensor", gpu.has_tensor);
  v.set("ecc_available", gpu.ecc_available);
  v.set("clock_ghz", gpu.clock_ghz);
  v.set("process_nm", gpu.process_nm);
  return v;
}

arch::GpuConfig gpu_from_json(const Value& doc) {
  arch::GpuConfig gpu;
  gpu.name = json::get_string(doc, "name");
  gpu.arch = architecture_from_name(json::get_string(doc, "arch"));
  auto u32 = [&](const char* key) { return json::get_u32(doc, key); };
  gpu.sm_count = u32("sm_count");
  gpu.warp_size = u32("warp_size");
  gpu.max_warps_per_sm = u32("max_warps_per_sm");
  gpu.max_blocks_per_sm = u32("max_blocks_per_sm");
  gpu.max_threads_per_block = u32("max_threads_per_block");
  gpu.schedulers_per_sm = u32("schedulers_per_sm");
  gpu.issue_per_scheduler = u32("issue_per_scheduler");
  gpu.registers_per_sm = u32("registers_per_sm");
  gpu.shared_mem_per_sm = u32("shared_mem_per_sm");
  gpu.fp32_lanes = u32("fp32_lanes");
  gpu.fp64_lanes = u32("fp64_lanes");
  gpu.fp16_lanes = u32("fp16_lanes");
  gpu.int_lanes = u32("int_lanes");
  gpu.sfu_lanes = u32("sfu_lanes");
  gpu.ldst_lanes = u32("ldst_lanes");
  gpu.tensor_lanes = u32("tensor_lanes");
  gpu.int_shares_fp32 = json::get_bool(doc, "int_shares_fp32");
  gpu.has_fp16 = json::get_bool(doc, "has_fp16");
  gpu.has_tensor = json::get_bool(doc, "has_tensor");
  gpu.ecc_available = json::get_bool(doc, "ecc_available");
  gpu.clock_ghz = json::get_double(doc, "clock_ghz");
  gpu.process_nm = u32("process_nm");
  return gpu;
}

Value counts_to_json(const fault::OutcomeCounts& c) {
  Value v = Value::object();
  v.set("masked", c.masked);
  v.set("sdc", c.sdc);
  v.set("due", c.due);
  return v;
}

fault::OutcomeCounts counts_from_json(const Value& doc) {
  fault::OutcomeCounts c;
  c.masked = json::get_uint(doc, "masked");
  c.sdc = json::get_uint(doc, "sdc");
  c.due = json::get_uint(doc, "due");
  return c;
}

Value campaign_result_to_json(const fault::CampaignResult& r) {
  Value v = Value::object();
  v.set("schema_version", kResultSchemaVersion);
  v.set("type", "campaign_result");
  v.set("injector", r.injector);
  v.set("workload", r.workload);
  Value kinds = Value::array();
  for (std::size_t k = 0; k < kKinds; ++k) {
    Value e = Value::object();
    e.set("kind", isa::unit_kind_name(static_cast<isa::UnitKind>(k)));
    e.set("dynamic_sites", r.per_kind[k].dynamic_sites);
    e.set("counts", counts_to_json(r.per_kind[k].counts));
    kinds.push_back(std::move(e));
  }
  v.set("per_kind", std::move(kinds));
  // Architectural strata sit at top level (their dynamic site counts are
  // shared between strata, so they follow as named fields); the
  // micro-architectural ones are serialized only when the injector reaches
  // them (static site counts are zero for the SASS-level injectors), so
  // architectural campaigns keep their pre-existing layout — and a round
  // trip preserves the site constants CampaignResult::merge checks. The
  // DUE-cause split below is additive for any campaign that saw a DUE;
  // readers treat both sections as optional.
  Value m = Value::object();
  std::uint64_t microarch_sites = 0;
  for (const fault::Stratum& s : fault::kStrata) {
    if (!fault::is_microarch(s.cls)) {
      v.set(std::string(s.key), counts_to_json(r.*s.counts));
    } else {
      m.set(std::string(s.key), counts_to_json(r.*s.counts));
      microarch_sites += r.*s.site_count;
    }
  }
  v.set("pred_sites", r.pred_sites);
  v.set("store_sites", r.store_sites);
  v.set("total_lane_sites", r.total_lane_sites);
  v.set("eligible_output_sites", r.eligible_output_sites);
  if (microarch_sites > 0) {
    for (const fault::Stratum& s : fault::kStrata)
      if (fault::is_microarch(s.cls))
        m.set(std::string(s.key) + "_sites", r.*s.site_count);
    v.set("microarch", std::move(m));
  }
  if (r.due_causes.total() > 0) {
    Value d = Value::object();
    d.set("hang", r.due_causes.hang);
    d.set("launch_failure", r.due_causes.launch_failure);
    d.set("watchdog", r.due_causes.watchdog);
    d.set("barrier_deadlock", r.due_causes.barrier_deadlock);
    d.set("ecc", r.due_causes.ecc);
    v.set("due_causes", std::move(d));
  }
  // Only propagation-enabled campaigns carry a report; plain results keep
  // their pre-existing byte-identical serialization.
  if (r.propagation.has_value()) v.set("propagation", r.propagation->to_json());
  return v;
}

fault::CampaignResult campaign_result_from_json(const Value& doc) {
  check_schema_version(doc, "campaign result");
  fault::CampaignResult r;
  r.injector = json::get_string(doc, "injector");
  r.workload = json::get_string(doc, "workload");
  // One entry per unit kind, in kind order — exactly what the writer emits;
  // a missing, duplicate or reordered kind means a corrupt document.
  const Value& kinds = doc.at("per_kind");
  if (kinds.size() != kKinds)
    throw std::runtime_error("job: campaign result per_kind has wrong arity");
  for (std::size_t k = 0; k < kKinds; ++k) {
    const Value& e = kinds[k];
    if (unit_kind_from_name(json::get_string(e, "kind")) !=
        static_cast<isa::UnitKind>(k))
      throw std::runtime_error("job: campaign result per_kind order mismatch");
    r.per_kind[k].dynamic_sites = json::get_uint(e, "dynamic_sites");
    r.per_kind[k].counts = counts_from_json(e.at("counts"));
  }
  const Value* m = doc.find("microarch");
  for (const fault::Stratum& s : fault::kStrata) {
    if (!fault::is_microarch(s.cls)) {
      r.*s.counts = counts_from_json(doc.at(s.key));
    } else if (m != nullptr) {
      r.*s.counts = counts_from_json(m->at(s.key));
      r.*s.site_count = json::get_uint(*m, std::string(s.key) + "_sites");
    }
  }
  r.pred_sites = json::get_uint(doc, "pred_sites");
  r.store_sites = json::get_uint(doc, "store_sites");
  r.total_lane_sites = json::get_uint(doc, "total_lane_sites");
  r.eligible_output_sites = json::get_uint(doc, "eligible_output_sites");
  if (const Value* d = doc.find("due_causes")) {
    r.due_causes.hang = json::get_uint(*d, "hang");
    r.due_causes.launch_failure = json::get_uint(*d, "launch_failure");
    r.due_causes.watchdog = json::get_uint(*d, "watchdog");
    r.due_causes.barrier_deadlock = json::get_uint(*d, "barrier_deadlock");
    r.due_causes.ecc = json::get_uint(*d, "ecc");
  }
  if (const Value* p = doc.find("propagation"))
    r.propagation = obs::PropagationReport::from_json(*p);
  return r;
}

Value beam_result_to_json(const beam::BeamResult& r) {
  Value v = Value::object();
  v.set("schema_version", kResultSchemaVersion);
  v.set("type", "beam_result");
  v.set("workload", r.workload);
  v.set("device", r.device);
  v.set("ecc", r.ecc);
  v.set("mode",
        r.mode == beam::BeamMode::Accelerated ? "accelerated" : "natural");
  v.set("runs", r.runs);
  v.set("device_sigma_rate", r.device_sigma_rate);
  v.set("fit_scale", r.fit_scale);
  v.set("outcomes", counts_to_json(r.outcomes));
  Value targets = Value::array();
  for (std::size_t t = 0; t < kTargets; ++t) {
    Value e = Value::object();
    e.set("target",
          beam::strike_target_name(static_cast<beam::StrikeTarget>(t)));
    e.set("counts", counts_to_json(r.by_target[t]));
    e.set("weight_share", r.weight_share[t]);
    targets.push_back(std::move(e));
  }
  v.set("by_target", std::move(targets));
  return v;
}

beam::BeamResult beam_result_from_json(const Value& doc) {
  check_schema_version(doc, "beam result");
  beam::BeamResult r;
  r.workload = json::get_string(doc, "workload");
  r.device = json::get_string(doc, "device");
  r.ecc = json::get_bool(doc, "ecc");
  r.mode = beam_mode_from_name(json::get_string(doc, "mode"));
  r.runs = json::get_uint(doc, "runs");
  r.device_sigma_rate = json::get_double(doc, "device_sigma_rate");
  r.fit_scale = json::get_double(doc, "fit_scale");
  r.outcomes = counts_from_json(doc.at("outcomes"));
  const Value& targets = doc.at("by_target");
  if (targets.size() != kTargets)
    throw std::runtime_error("job: beam result by_target has wrong arity");
  for (std::size_t t = 0; t < kTargets; ++t) {
    const Value& e = targets[t];
    if (json::get_string(e, "target") !=
        beam::strike_target_name(static_cast<beam::StrikeTarget>(t)))
      throw std::runtime_error("job: beam result by_target order mismatch");
    r.by_target[t] = counts_from_json(e.at("counts"));
    r.weight_share[t] = json::get_double(e, "weight_share");
  }
  // FIT figures are derived, never stored: replaying refresh_fits() here is
  // what makes a cache round trip bit-identical to the original run.
  r.refresh_fits();
  return r;
}

}  // namespace gpurel::job
