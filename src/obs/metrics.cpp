#include "obs/metrics.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/json.hpp"
#include "common/telemetry.hpp"

namespace gpurel::obs {

namespace {

// Sample-value formatting for JSON / Prometheus exposition. Finite values go
// through the canonical shortest-round-trip dumper; non-finite values become
// JSON null ("nan"/"inf" are invalid JSON — same rule as telemetry::Field)
// or the Prometheus spellings NaN/+Inf/-Inf.
void append_double(std::string& out, double v, bool prometheus) {
  if (!std::isfinite(v)) {
    out += prometheus ? (std::isnan(v) ? "NaN" : (v > 0 ? "+Inf" : "-Inf"))
                      : "null";
    return;
  }
  json::append_shortest_double(out, v);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

// Prometheus label values escape backslash, double-quote and newline.
void append_prom_label_value(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

// {label="value",...} — `extra` appends one more pair (histogram le).
void append_prom_labels(std::string& out, const Labels& labels,
                        const char* extra_key = nullptr,
                        const std::string& extra_value = {}) {
  if (labels.empty() && extra_key == nullptr) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    append_prom_label_value(out, v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    append_prom_label_value(out, extra_value);
    out += '"';
  }
  out += '}';
}

void append_json_labels(std::string& out, const Labels& labels) {
  out += "\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    telemetry::append_json_string(out, k);
    out += ':';
    telemetry::append_json_string(out, v);
  }
  out += '}';
}

}  // namespace

void Gauge::add(double d) {
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void Gauge::set_max(double v) {
  double cur = v_.load(std::memory_order_relaxed);
  while (cur < v &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(HistogramBuckets buckets)
    : buckets_(std::move(buckets)),
      counts_(new std::atomic<std::uint64_t>[buckets_.size() + 1]) {
  for (std::size_t i = 0; i <= buckets_.size(); ++i)
    counts_[i].store(0, std::memory_order_relaxed);
}

void Histogram::observe(double v) {
  counts_[buckets_.index_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  // Rank of the requested order statistic, 1-based; ceil so q=0.5 of two
  // observations lands on the first.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i <= buckets_.size(); ++i) {
    cum += bucket_count(i);
    if (cum >= rank && cum > 0) {
      const std::size_t finite = i < buckets_.size() ? i : buckets_.size() - 1;
      return buckets_.bound(finite);
    }
  }
  return buckets_.bound(buckets_.size() - 1);
}

Registry& Registry::global() {
  static Registry* reg = new Registry();  // never destroyed: workers may
  return *reg;                            // still bump metrics at exit
}

namespace {

std::string make_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  key += '{';
  for (const auto& [k, v] : labels) {
    key += k;
    key += '=';
    key += v;
    key += ',';
  }
  key += '}';
  return key;
}

}  // namespace

Registry::Metric& Registry::find_or_create(std::string_view name,
                                           Labels&& labels, Kind kind,
                                           const HistogramBuckets* buckets) {
  const std::string key = make_key(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(key);
  if (it != metrics_.end()) {
    if (it->second.kind != kind)
      throw std::logic_error("obs::Registry: metric '" + key +
                             "' re-registered with a different type");
    return it->second;
  }
  Metric m;
  m.kind = kind;
  m.name = std::string(name);
  m.labels = std::move(labels);
  switch (kind) {
    case Kind::kCounter: m.counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: m.gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram:
      m.histogram = std::make_unique<Histogram>(*buckets);
      break;
  }
  return metrics_.emplace(key, std::move(m)).first->second;
}

Counter& Registry::counter(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), Kind::kCounter, nullptr)
              .counter;
}

Gauge& Registry::gauge(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), Kind::kGauge, nullptr).gauge;
}

Histogram& Registry::histogram(std::string_view name, Labels labels,
                               const HistogramBuckets& buckets) {
  return *find_or_create(name, std::move(labels), Kind::kHistogram, &buckets)
              .histogram;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"schema_version\":";
  out += std::to_string(kMetricsSchemaVersion);
  out += ",\"metrics\":[";
  bool first = true;
  for (const auto& [key, m] : metrics_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    telemetry::append_json_string(out, m.name);
    out += ',';
    append_json_labels(out, m.labels);
    switch (m.kind) {
      case Kind::kCounter:
        out += ",\"type\":\"counter\",\"value\":";
        append_u64(out, m.counter->value());
        break;
      case Kind::kGauge:
        out += ",\"type\":\"gauge\",\"value\":";
        append_double(out, m.gauge->value(), /*prometheus=*/false);
        break;
      case Kind::kHistogram: {
        const Histogram& h = *m.histogram;
        out += ",\"type\":\"histogram\",\"count\":";
        append_u64(out, h.count());
        out += ",\"sum\":";
        append_double(out, h.sum(), false);
        out += ",\"p50\":";
        append_double(out, h.quantile(0.50), false);
        out += ",\"p90\":";
        append_double(out, h.quantile(0.90), false);
        out += ",\"p99\":";
        append_double(out, h.quantile(0.99), false);
        out += ",\"buckets\":[";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i <= h.buckets().size(); ++i) {
          // Skip empty leading/inner buckets? No — cumulative counts need
          // every bound, but only emit buckets up to the last non-empty one
          // to keep files small. Overflow is always emitted as le=null.
          cum += h.bucket_count(i);
          if (i < h.buckets().size()) {
            if (h.bucket_count(i) == 0 && cum != h.count()) continue;
            out += "{\"le\":";
            append_double(out, h.buckets().bound(i), false);
          } else {
            out += "{\"le\":null";
          }
          out += ",\"count\":";
          append_u64(out, cum);
          out += "},";
          if (cum == h.count()) break;
        }
        if (out.back() == ',') out.pop_back();
        out += ']';
        break;
      }
    }
    out += '}';
  }
  out += "]}";
  return out;
}

namespace {

/// Help catalogue for the metrics gpurel itself emits. Unknown names (user
/// metrics registered through the same Registry) simply get no HELP line.
const char* metric_help(const std::string& name) {
  static const std::pair<const char*, const char*> kHelp[] = {
      {"gpurel_campaign_trials_total", "Injection trials executed"},
      {"gpurel_campaign_trial_latency_ms", "Wall-clock latency of one trial"},
      {"gpurel_campaign_snapshots_total",
       "Fork-prefix snapshots captured across workers"},
      {"gpurel_campaign_dropped_trials_total",
       "Campaign trials stopped early at a fork snapshot their state matched "
       "again (classified Masked with the fault-free stats)"},
      {"gpurel_campaign_dropped_cycles_total",
       "Fault-free cycles dropped trials did not simulate: golden cycles "
       "minus the drop point"},
      {"gpurel_campaign_snapshot_pool_bytes",
       "Bytes retained for fork batching: the shared snapshot set (memory "
       "images, warp state and shared memory) plus per-worker "
       "dirty-tracking scratch"},
      {"gpurel_campaign_snapshot_restore_bytes_total",
       "Snapshot image bytes copied back by forked-trial restores (the "
       "dirty subset on delta restores)"},
      {"gpurel_campaign_outcomes_total",
       "Trial outcomes by fault model, unit kind, and outcome"},
      {"gpurel_campaign_dynamic_sites",
       "Dynamic injection sites of the last campaign, per unit kind"},
      {"gpurel_campaign_site_coverage",
       "Injections per dynamic site in the last campaign"},
      {"gpurel_beam_runs_total", "Beam experiment runs executed"},
      {"gpurel_beam_simulated_runs_total",
       "Beam runs that reached the simulator (the rest resolve when their "
       "strike is sampled)"},
      {"gpurel_beam_snapshots_total",
       "Fork-prefix snapshots captured for beam experiments"},
      {"gpurel_beam_forked_runs_total",
       "Simulated beam runs resumed from a fork snapshot instead of cycle 0"},
      {"gpurel_beam_dropped_runs_total",
       "Beam runs stopped early at a fork snapshot their state matched again "
       "(classified Masked)"},
      {"gpurel_beam_snapshot_pool_bytes",
       "Bytes retained for beam fork batching: the snapshot set plus "
       "per-worker dirty-tracking scratch"},
      {"gpurel_beam_run_latency_ms", "Wall-clock latency of one beam run"},
      {"gpurel_beam_outcomes_total", "Beam run outcomes by strike target"},
      {"gpurel_reference_trials_total",
       "Fault-free reference trials run by Workload::prepare"},
      {"gpurel_job_cache_hits_total", "Job results served from the cache"},
      {"gpurel_job_cache_misses_total", "Job cache lookups that missed"},
      {"gpurel_job_cache_stores_total", "Job results written to the cache"},
      {"gpurel_process_peak_rss_bytes",
       "Peak resident set size of the process"},
      {"gpurel_threadpool_jobs_total", "Jobs executed by the thread pool"},
      {"gpurel_threadpool_queue_depth", "Current thread-pool queue depth"},
      {"gpurel_threadpool_queue_depth_peak", "Peak thread-pool queue depth"},
      {"gpurel_threadpool_chunk_pulls_total",
       "Guided-schedule chunk claims by the thread pool"},
  };
  for (const auto& [n, h] : kHelp)
    if (name == n) return h;
  return nullptr;
}

}  // namespace

std::string Registry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::string last_name;
  for (const auto& [key, m] : metrics_) {
    if (m.name != last_name) {
      if (const char* help = metric_help(m.name)) {
        out += "# HELP ";
        out += m.name;
        out += ' ';
        out += help;
        out += '\n';
      }
      out += "# TYPE ";
      out += m.name;
      switch (m.kind) {
        case Kind::kCounter: out += " counter\n"; break;
        case Kind::kGauge: out += " gauge\n"; break;
        case Kind::kHistogram: out += " histogram\n"; break;
      }
      last_name = m.name;
    }
    switch (m.kind) {
      case Kind::kCounter:
        out += m.name;
        append_prom_labels(out, m.labels);
        out += ' ';
        append_u64(out, m.counter->value());
        out += '\n';
        break;
      case Kind::kGauge:
        out += m.name;
        append_prom_labels(out, m.labels);
        out += ' ';
        append_double(out, m.gauge->value(), /*prometheus=*/true);
        out += '\n';
        break;
      case Kind::kHistogram: {
        const Histogram& h = *m.histogram;
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i <= h.buckets().size(); ++i) {
          cum += h.bucket_count(i);
          const bool overflow = i == h.buckets().size();
          if (!overflow && h.bucket_count(i) == 0 && cum != h.count())
            continue;  // keep the exposition small; cumulative stays correct
          std::string le;
          if (overflow) {
            le = "+Inf";
          } else {
            append_double(le, h.buckets().bound(i), true);
          }
          out += m.name;
          out += "_bucket";
          append_prom_labels(out, m.labels, "le", le);
          out += ' ';
          append_u64(out, cum);
          out += '\n';
          if (!overflow && cum == h.count()) {
            // Still need the +Inf terminator Prometheus requires.
            out += m.name;
            out += "_bucket";
            append_prom_labels(out, m.labels, "le", "+Inf");
            out += ' ';
            append_u64(out, cum);
            out += '\n';
            break;
          }
        }
        out += m.name;
        out += "_sum";
        append_prom_labels(out, m.labels);
        out += ' ';
        append_double(out, h.sum(), true);
        out += '\n';
        out += m.name;
        out += "_count";
        append_prom_labels(out, m.labels);
        out += ' ';
        append_u64(out, h.count());
        out += '\n';
        break;
      }
    }
  }
  return out;
}

namespace {

bool write_file(const std::string& path, const std::string& body,
                const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "gpurel: cannot write %s to '%s'\n", what,
                 path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok)
    std::fprintf(stderr, "gpurel: short write of %s to '%s'\n", what,
                 path.c_str());
  return ok;
}

}  // namespace

bool Registry::write_json(const std::string& path) const {
  return write_file(path, to_json(), "metrics JSON");
}

bool Registry::write_prometheus(const std::string& path) const {
  return write_file(path, to_prometheus(), "metrics exposition");
}

}  // namespace gpurel::obs
