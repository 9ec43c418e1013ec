#include "job/cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace gpurel::job {

namespace fs = std::filesystem;

namespace {

obs::Counter& cache_counter(const char* which) {
  return obs::Registry::global().counter(
      std::string("gpurel_job_cache_") + which + "_total");
}

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) {
    if (const char* env = std::getenv("GPUREL_CACHE");
        env != nullptr && env[0] != '\0')
      dir_ = env;
  }
}

std::string ResultCache::path_for(const JobSpec& spec) const {
  return dir_ + "/" + cache_key(spec) + ".json";
}

std::optional<JobResult> ResultCache::load(const JobSpec& spec) const {
  if (!enabled()) return std::nullopt;
  try {
    std::ifstream in(path_for(spec), std::ios::binary);
    if (!in) {
      cache_counter("misses").add();
      return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    JobResult r = result_from_json(json::Value::parse(buf.str()));
    // A copied or misnamed file holds another job's numbers.
    if (canonical_json(r.spec) != canonical_json(spec))
      throw std::runtime_error("entry holds the result of another spec");
    cache_counter("hits").add();
    return r;
  } catch (const std::exception& e) {
    // A corrupt or foreign file is a miss, not an error.
    std::fprintf(stderr, "gpurel: ignoring unreadable cache entry %s: %s\n",
                 path_for(spec).c_str(), e.what());
    cache_counter("misses").add();
    return std::nullopt;
  }
}

bool ResultCache::store(const JobResult& result) const {
  if (!enabled()) return false;
  const std::string path = path_for(result.spec);
  const std::string tmp = path + ".tmp";
  try {
    fs::create_directories(dir_);
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) throw std::runtime_error("cannot open " + tmp);
      out << result_dump(result) << '\n';
      if (!out) throw std::runtime_error("write failed for " + tmp);
    }
    fs::rename(tmp, path);  // atomic publish: readers see whole files only
    cache_counter("stores").add();
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpurel: cache store failed for %s: %s\n",
                 path.c_str(), e.what());
    std::error_code ec;
    fs::remove(tmp, ec);
    return false;
  }
}

}  // namespace gpurel::job
