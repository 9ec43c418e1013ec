#include "common/telemetry.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "common/json.hpp"

namespace gpurel::telemetry {

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void Field::append_to(std::string& out) const {
  append_json_string(out, key_);
  out.push_back(':');
  char buf[32];
  switch (kind_) {
    case Kind::Str: append_json_string(out, str_); break;
    case Kind::Int:
      std::snprintf(buf, sizeof buf, "%" PRId64, i_);
      out += buf;
      break;
    case Kind::Uint:
      std::snprintf(buf, sizeof buf, "%" PRIu64, u_);
      out += buf;
      break;
    case Kind::Dbl:
      if (std::isfinite(d_)) {
        // Telemetry is a human-skimmed progress stream, not a result
        // document: 6 significant digits keep lines short, and nothing may
        // parse these values back (results go through json::Value).
        // gpurel-lint: allow(float-format) lossy by design, not a result doc
        std::snprintf(buf, sizeof buf, "%.6g", d_);
        out += buf;
      } else {
        out += "null";  // JSON has no NaN/Inf
      }
      break;
    case Kind::Bool: out += b_ ? "true" : "false"; break;
  }
}

Sink::Sink(const std::string& path) : file_(std::fopen(path.c_str(), "a")) {
  if (file_ == nullptr)
    throw std::runtime_error("telemetry: cannot open " + path);
}

Sink::~Sink() {
  if (file_ != nullptr) std::fclose(file_);
}

namespace {

// JSONL event stream, schema owned by the event name + t_ms convention;
// per-line schema_version would double the stream for no consumer.
std::string event_head(std::string_view event, double t_ms) {
  std::string line;
  // gpurel-lint: allow(schema-version) event-name-keyed JSONL, not a result doc
  line += "{\"event\":";
  append_json_string(line, event);
  line.push_back(',');
  Field("t_ms", t_ms).append_to(line);
  return line;
}

}  // namespace

void Sink::write_line(const std::string& line) {
  {
    std::lock_guard lk(mu_);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fflush(file_);
  }
  emitted_.add();
}

void Sink::emit(std::string_view event, std::initializer_list<Field> fields) {
  std::string line = event_head(event, since_open_.elapsed_ms());
  for (const Field& f : fields) {
    line.push_back(',');
    f.append_to(line);
  }
  line += "}\n";
  write_line(line);
}

void Sink::emit(std::string_view event, const json::Value& object) {
  std::string line = event_head(event, since_open_.elapsed_ms());
  const std::string body = object.dump();  // "{...}" in member order
  if (body.size() > 2) line.push_back(',');
  line.append(body, 1, std::string::npos);
  line.push_back('\n');
  write_line(line);
}

Sink* env_sink() {
  // An unusable observability path must not kill a multi-hour campaign:
  // warn once and run with telemetry disabled. (Explicitly constructed
  // sinks still throw — the caller asked for that file.)
  static const std::unique_ptr<Sink> sink = []() -> std::unique_ptr<Sink> {
    const char* path = std::getenv("GPUREL_TELEMETRY");
    if (path == nullptr || *path == '\0') return nullptr;
    try {
      return std::make_unique<Sink>(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: GPUREL_TELEMETRY disabled: %s\n",
                   e.what());
      return nullptr;
    }
  }();
  return sink.get();
}

Progress::Progress(bool enabled, std::string label, std::uint64_t total)
    : enabled_(enabled), label_(std::move(label)), total_(total) {}

Progress::~Progress() { finish(); }

void Progress::print_line(std::uint64_t done, bool newline) {
  std::fprintf(stderr, "\r[%s] %" PRIu64 "/%" PRIu64 "%s", label_.c_str(),
               done, total_, newline ? "\n" : "");
  std::fflush(stderr);
  printed_ = true;
}

void Progress::tick(std::uint64_t n) {
  done_.add(n);
  if (!enabled_) return;
  std::lock_guard lk(mu_);
  if (finished_) return;
  if (printed_ && since_print_.elapsed_ms() < 100.0) return;
  since_print_.reset();
  print_line(done_.value(), /*newline=*/false);
}

void Progress::finish() {
  if (!enabled_) return;
  std::lock_guard lk(mu_);
  if (finished_) return;
  finished_ = true;
  if (printed_) print_line(done_.value(), /*newline=*/true);
}

}  // namespace gpurel::telemetry
