// Telemetry tests: the JSONL sink must emit one well-formed JSON object per
// line (including string escaping), the campaign runtime must emit its
// start/chunk/end events through a configured sink, and the small Timer /
// Counter / Progress helpers must behave.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/telemetry.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "kernels/matmul.hpp"

namespace gpurel::telemetry {
namespace {

std::string temp_path(const char* tag) {
  return testing::TempDir() + "gpurel_telemetry_" + tag + ".jsonl";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Minimal structural JSON check: balanced braces / quotes outside strings,
// object per line. (No JSON library in the image; this catches the bugs a
// hand-rolled serializer actually has — unescaped quotes and truncation.)
bool looks_like_json_object(const std::string& s) {
  if (s.size() < 2 || s.front() != '{' || s.back() != '}') return false;
  bool in_string = false;
  int depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;  // skip escaped char
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth == 0 && i + 1 != s.size()) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(Telemetry, SinkWritesOneJsonObjectPerLine) {
  const std::string path = temp_path("basic");
  {
    Sink sink(path);
    sink.emit("alpha", {{"n", std::uint64_t{42}}, {"ratio", 0.5}});
    sink.emit("beta", {{"name", "MXM"}, {"ok", true}});
    EXPECT_EQ(sink.events_emitted(), 2u);
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines)
    EXPECT_TRUE(looks_like_json_object(line)) << line;
  EXPECT_NE(lines[0].find("\"event\":\"alpha\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"n\":42"), std::string::npos);
  EXPECT_NE(lines[0].find("\"t_ms\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"name\":\"MXM\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Telemetry, SinkEscapesStrings) {
  const std::string path = temp_path("escape");
  {
    Sink sink(path);
    sink.emit("esc", {{"s", "a\"b\\c\nd\te"}});
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);  // the \n must be escaped, not emitted raw
  EXPECT_TRUE(looks_like_json_object(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("a\\\"b\\\\c\\nd\\te"), std::string::npos)
      << lines[0];
  std::remove(path.c_str());
}

TEST(Telemetry, NonFiniteDoublesSerializeAsNull) {
  // NaN / Inf have no JSON literal; the sink must degrade them to null so
  // every emitted line stays parseable by strict JSON readers.
  const std::string path = temp_path("nonfinite");
  {
    Sink sink(path);
    sink.emit("edge", {{"nan", std::numeric_limits<double>::quiet_NaN()},
                       {"inf", std::numeric_limits<double>::infinity()},
                       {"ninf", -std::numeric_limits<double>::infinity()},
                       {"ok", 1.5}});
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(looks_like_json_object(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"nan\":null"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"inf\":null"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"ninf\":null"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"ok\":1.5"), std::string::npos) << lines[0];
  // No bare C-library spellings may leak through as (invalid) JSON tokens.
  EXPECT_EQ(lines[0].find(":nan"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[0].find(":inf"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[0].find(":-inf"), std::string::npos) << lines[0];
  std::remove(path.c_str());
}

TEST(Telemetry, SinkThrowsOnUnwritablePath) {
  EXPECT_THROW(Sink("/nonexistent-dir/x/y.jsonl"), std::runtime_error);
}

TEST(Telemetry, CounterAndTimer) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);

  Timer t;
  EXPECT_GE(t.elapsed_ms(), 0.0);
  t.reset();
  EXPECT_GE(t.elapsed_ms(), 0.0);
}

TEST(Telemetry, CampaignEmitsStartChunkEnd) {
  const std::string path = temp_path("campaign");
  {
    Sink sink(path);
    auto inj = fault::make_injector("SASSIFI");
    const core::WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2),
                                  inj->profile(), 0x5eed, 0.05};
    fault::CampaignConfig cc;
    cc.injections_per_kind = 4;
    cc.ia_injections = 4;
    cc.seed = 11;
    cc.telemetry = &sink;
    const auto r = fault::run_campaign(
        *inj,
        [&] {
          return std::make_unique<kernels::MxM>(wc, core::Precision::Single, 16);
        },
        cc);
    ASSERT_GT(r.total_injections(), 0u);
  }
  const auto lines = read_lines(path);
  ASSERT_GE(lines.size(), 3u);  // start + at least one chunk + end
  for (const auto& line : lines)
    EXPECT_TRUE(looks_like_json_object(line)) << line;
  EXPECT_NE(lines.front().find("\"event\":\"campaign_start\""),
            std::string::npos);
  EXPECT_NE(lines.front().find("\"ia_pc_bits\":"), std::string::npos);
  EXPECT_NE(lines.back().find("\"event\":\"campaign_end\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"trials_per_sec\":"), std::string::npos);
  std::size_t chunks = 0;
  for (const auto& line : lines)
    if (line.find("\"event\":\"campaign_chunk\"") != std::string::npos) ++chunks;
  EXPECT_GT(chunks, 0u);
  std::remove(path.c_str());
}

TEST(Telemetry, JsonObjectEventsCarryTheObjectsMembersVerbatim) {
  const std::string path = temp_path("json_object");
  json::Value doc = json::Value::object();
  doc.set("schema_version", 1);
  doc.set("name", "a \"quoted\" name");
  doc.set("ratio", 0.1);
  doc.set("fired", true);
  {
    Sink sink(path);
    sink.emit("record", doc);
    sink.emit("empty", json::Value::object());
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines)
    EXPECT_TRUE(looks_like_json_object(line)) << line;
  // After the event/t_ms head, the line is the object's own canonical dump.
  const std::string body = doc.dump();
  ASSERT_EQ(lines[0].rfind("{\"event\":\"record\",\"t_ms\":", 0), 0u);
  EXPECT_EQ(lines[0].substr(lines[0].size() - (body.size() - 1)),
            body.substr(1));
  EXPECT_EQ(lines[1].rfind("{\"event\":\"empty\",\"t_ms\":", 0), 0u);
  EXPECT_EQ(lines[1].find(",}"), std::string::npos) << lines[1];
  std::remove(path.c_str());
}

TEST(Telemetry, ResolvePrefersConfiguredSink) {
  const std::string path = temp_path("resolve");
  Sink sink(path);
  EXPECT_EQ(resolve(&sink), &sink);
  // With no configured sink and GPUREL_TELEMETRY unset in the test
  // environment, resolve falls back to the (absent) process-wide sink.
  if (std::getenv("GPUREL_TELEMETRY") == nullptr) {
    EXPECT_EQ(resolve(nullptr), nullptr);
  }
  std::remove(path.c_str());
}

TEST(Telemetry, ProgressTicksWithoutCrashing) {
  Progress off(false, "off", 10);
  off.tick(5);
  off.finish();  // disabled: no output, no state
  Progress on(true, "unit-test", 3);
  on.tick(1);
  on.tick(2);
  on.finish();
  SUCCEED();
}

}  // namespace
}  // namespace gpurel::telemetry
