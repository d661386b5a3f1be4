#include "common/obs/manifest.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <thread>

#include "common/obs/build_info.hpp"
#include "common/obs/json.hpp"
#include "common/obs/metrics.hpp"

namespace ld::obs {

namespace {

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::string HexU64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// ru_maxrss is kilobytes on Linux (bytes on macOS; we only build on
/// Linux — see CI — so no branch).
/// Peak RSS of this process (RUSAGE_SELF) or of its largest waited-for
/// child (RUSAGE_CHILDREN), in KiB.
std::int64_t MaxRssKb(int who) {
  struct rusage usage {};
  if (getrusage(who, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss);
}

}  // namespace

std::uint64_t Fnv1a64(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = kFnvOffsetBasis;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

Result<std::uint64_t> Fnv1a64File(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return NotFoundError("manifest: cannot open " + path);
  std::uint64_t hash = kFnvOffsetBasis;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      hash ^= static_cast<unsigned char>(buf[i]);
      hash *= kFnvPrime;
    }
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return InternalError("manifest: read error on " + path);
  return hash;
}

ManifestBuilder::ManifestBuilder(std::string tool)
    : tool_(std::move(tool)),
      epoch_ns_(NowNanos()),
      created_unix_(static_cast<std::int64_t>(std::time(nullptr))) {}

void ManifestBuilder::SetArgv(int argc, const char* const* argv) {
  argv_.assign(argv, argv + argc);
}

void ManifestBuilder::Set(std::string key, std::string value) {
  config_.emplace_back(std::move(key), std::move(value));
}

void ManifestBuilder::SetUint(std::string key, std::uint64_t value) {
  Set(std::move(key), std::to_string(value));
}

void ManifestBuilder::SetInt(std::string key, std::int64_t value) {
  Set(std::move(key), std::to_string(value));
}

void ManifestBuilder::AddInput(const std::string& path) {
  InputRecord record;
  record.path = path;
  auto hash = Fnv1a64File(path);
  if (!hash.ok()) {
    record.error = hash.status().ToString();
  } else {
    record.fnv1a64 = *hash;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f != nullptr) {
      std::fseek(f, 0, SEEK_END);
      const long size = std::ftell(f);
      if (size > 0) record.bytes = static_cast<std::uint64_t>(size);
      std::fclose(f);
    }
  }
  inputs_.push_back(std::move(record));
}

void ManifestBuilder::RecordEnv(const char* name) {
  const char* value = std::getenv(name);
  env_.emplace_back(name, value == nullptr
                              ? std::nullopt
                              : std::optional<std::string>(value));
}

void ManifestBuilder::SetExitCode(int code) {
  exit_code_ = code;
  have_exit_code_ = true;
}

std::string ManifestBuilder::ToJson() const {
  const BuildInfo& build = GetBuildInfo();
  JsonWriter w;
  w.BeginObject();
  w.KV("schema_version", std::uint64_t{kManifestSchemaVersion});
  w.KV("tool", std::string_view(tool_));
  w.KV("created_unix", created_unix_);

  w.Key("argv");
  w.BeginArray();
  for (const std::string& arg : argv_) w.String(arg);
  w.EndArray();

  w.Key("build");
  w.BeginObject();
  w.KV("git_sha", std::string_view(build.git_sha));
  w.KV("build_type", std::string_view(build.build_type));
  w.KV("compiler", std::string_view(build.compiler));
  w.KV("cxx_flags", std::string_view(build.cxx_flags));
  w.KV("sanitizers", std::string_view(build.sanitizers));
  w.EndObject();

  w.Key("host");
  w.BeginObject();
  w.KV("hardware_concurrency",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.EndObject();

  w.Key("config");
  w.BeginObject();
  for (const auto& [key, value] : config_) w.KV(key, std::string_view(value));
  w.EndObject();

  w.Key("env");
  w.BeginObject();
  for (const auto& [name, value] : env_) {
    w.Key(name);
    if (value.has_value()) {
      w.String(*value);
    } else {
      w.Null();
    }
  }
  w.EndObject();

  w.Key("inputs");
  w.BeginArray();
  for (const InputRecord& input : inputs_) {
    w.BeginObject();
    w.KV("path", std::string_view(input.path));
    if (input.error.empty()) {
      w.KV("bytes", input.bytes);
      w.KV("fnv1a64", std::string_view(HexU64(input.fnv1a64)));
    } else {
      w.KV("error", std::string_view(input.error));
    }
    w.EndObject();
  }
  w.EndArray();

  // The self-measurement: everything the pipeline counted about its own
  // behaviour during this run.
  w.Key("metrics");
  w.BeginObject();
  for (const MetricSnapshot& metric : Registry::Get().Snapshot()) {
    w.Key(metric.name);
    w.BeginObject();
    w.KV("type", std::string_view(MetricTypeName(metric.type)));
    switch (metric.type) {
      case MetricType::kCounter:
        w.KV("value", metric.count);
        break;
      case MetricType::kGauge:
        w.KV("value", metric.gauge_value);
        w.KV("max", metric.gauge_max);
        break;
      case MetricType::kHistogram:
        w.KV("count", metric.count);
        w.KV("sum", metric.sum);
        w.Key("buckets");
        w.BeginArray();
        for (const auto& [upper, count] : metric.buckets) {
          w.BeginObject();
          w.KV("lt", upper);
          w.KV("n", count);
          w.EndObject();
        }
        w.EndArray();
        break;
    }
    w.EndObject();
  }
  w.EndObject();

  w.KVDouble("wall_seconds",
             static_cast<double>(NowNanos() - epoch_ns_) / 1e9);
  w.KV("max_rss_kb", MaxRssKb(RUSAGE_SELF));
  // Supervised drivers (--snapshot-dir, --fleet-workers) do the work in
  // forked children; their peak is the one that matters there.
  w.KV("children_max_rss_kb", MaxRssKb(RUSAGE_CHILDREN));
  if (have_exit_code_) {
    w.KV("exit_code", static_cast<std::int64_t>(exit_code_));
  }
  w.EndObject();
  return w.Take();
}

Status ManifestBuilder::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return InternalError("manifest: cannot open " + path);
  out << ToJson() << '\n';
  out.flush();
  if (!out) return InternalError("manifest: short write to " + path);
  return Status::Ok();
}

}  // namespace ld::obs
