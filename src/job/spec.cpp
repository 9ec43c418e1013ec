#include "job/spec.hpp"

#include <charconv>
#include <stdexcept>

#include "common/bits.hpp"
#include "fault/campaign.hpp"
#include "job/serialize.hpp"

namespace gpurel::job {

using json::Value;

namespace {

/// A stratum's budget key in the spec document, e.g. "rf_injections".
std::string budget_key(const fault::Stratum& s) {
  return std::string(s.label) + "_injections";
}

}  // namespace

std::string_view job_kind_name(JobKind k) {
  return k == JobKind::Campaign ? "campaign" : "beam";
}

Value spec_to_json(const JobSpec& spec) {
  Value v = Value::object();
  v.set("spec_version", kSpecVersion);
  v.set("kind", job_kind_name(spec.kind));
  v.set("device", gpu_to_json(spec.device));
  {
    Value w = Value::object();
    w.set("base", spec.entry.base);
    w.set("precision", core::precision_name(spec.entry.precision));
    w.set("input_seed", spec.input_seed);
    w.set("scale", spec.scale);
    v.set("workload", std::move(w));
  }
  v.set("profile", isa::compiler_profile_name(spec.profile));
  v.set("seed", spec.seed);
  if (spec.kind == JobKind::Campaign) {
    Value c = Value::object();
    c.set("injector", spec.injector);
    Value b = Value::object();
    b.set("injections_per_kind", spec.budget.injections_per_kind);
    // Micro-architectural strata are serialized only when nonzero, so hashes
    // of pre-existing (architectural-only) specs do not move.
    for (const fault::Stratum& s : fault::kStrata) {
      const unsigned n = spec.budget.*s.budget;
      if (!fault::is_microarch(s.cls) || n != 0)
        b.set(budget_key(s), n);
    }
    c.set("budget", std::move(b));
    // Only serialized when enabled: hashes of pre-existing specs must not
    // move just because the field now exists.
    if (spec.propagation) c.set("propagation", spec.propagation);
    v.set("campaign", std::move(c));
  } else {
    Value b = Value::object();
    b.set("ecc", spec.ecc);
    b.set("mode", spec.mode == beam::BeamMode::Accelerated ? "accelerated"
                                                           : "natural");
    b.set("runs", spec.runs);
    b.set("flux_scale", spec.flux_scale);
    v.set("beam", std::move(b));
  }
  {
    Value s = Value::object();
    s.set("index", spec.shard.index);
    s.set("count", spec.shard.count);
    v.set("shard", std::move(s));
  }
  return v;
}

JobSpec spec_from_json(const Value& doc) {
  const std::int64_t version = json::get_int(doc, "spec_version");
  if (version != kSpecVersion)
    throw std::runtime_error("job: unsupported spec_version " +
                             std::to_string(version));
  JobSpec spec;
  const std::string& kind = json::get_string(doc, "kind");
  if (kind == "campaign") {
    spec.kind = JobKind::Campaign;
  } else if (kind == "beam") {
    spec.kind = JobKind::Beam;
  } else {
    throw std::runtime_error("job: unknown job kind \"" + kind + "\"");
  }
  spec.device = gpu_from_json(doc.at("device"));
  {
    const Value& w = doc.at("workload");
    spec.entry.base = json::get_string(w, "base");
    spec.entry.precision = precision_from_name(json::get_string(w, "precision"));
    spec.input_seed = json::get_uint(w, "input_seed");
    spec.scale = json::get_double(w, "scale");
  }
  spec.profile = compiler_profile_from_name(json::get_string(doc, "profile"));
  spec.seed = json::get_uint(doc, "seed");
  if (spec.kind == JobKind::Campaign) {
    const Value& c = doc.at("campaign");
    spec.injector = json::get_string(c, "injector");
    const Value& b = c.at("budget");
    spec.budget.injections_per_kind = json::get_u32(b, "injections_per_kind");
    for (const fault::Stratum& s : fault::kStrata) {
      // Micro-architectural budget keys may be absent (older specs).
      const std::string key = budget_key(s);
      if (!fault::is_microarch(s.cls) || b.find(key) != nullptr)
        spec.budget.*s.budget = json::get_u32(b, key);
    }
    // "fork_epochs" (now job::RunOptions::fork_epochs) and "fork_delta"
    // (delta snapshot restores, now always on) are legacy keys: older spec
    // files may carry them and they are ignored, since neither changes a
    // result.
    if (const Value* pr = c.find("propagation")) spec.propagation = pr->as_bool();
  } else {
    const Value& b = doc.at("beam");
    spec.ecc = json::get_bool(b, "ecc");
    spec.mode = beam_mode_from_name(json::get_string(b, "mode"));
    spec.runs = json::get_u32(b, "runs");
    spec.flux_scale = json::get_double(b, "flux_scale");
  }
  {
    const Value& s = doc.at("shard");
    spec.shard.index = json::get_u32(s, "index");
    spec.shard.count = json::get_u32(s, "count");
  }
  return spec;
}

std::string canonical_json(const JobSpec& spec) {
  return spec_to_json(spec).dump();
}

std::uint64_t content_hash(const JobSpec& spec) {
  return fnv1a64(canonical_json(spec));
}

std::string hash_hex(std::uint64_t h) {
  char buf[17] = {};
  for (int i = 15; i >= 0; --i) {
    buf[i] = "0123456789abcdef"[h & 0xf];
    h >>= 4;
  }
  return std::string(buf, 16);
}

std::string cache_key(const JobSpec& spec) {
  return hash_hex(content_hash(spec)) + "-" + kEngineVersion;
}

JobSpec with_shard(JobSpec spec, unsigned index, unsigned count) {
  spec.shard.index = index;
  spec.shard.count = count;
  return spec;
}

}  // namespace gpurel::job
