// Run manifests: one JSON document per CLI/bench invocation recording
// everything needed to reproduce (and audit) its numbers.
//
// A manifest answers, machine-readably: which binary (git SHA, build
// type, compiler, flags, sanitizers), which inputs (path, size, FNV-1a
// 64 content fingerprint), which knobs (seed, thread count, every
// relevant env var that was set), what it cost (wall seconds, max RSS)
// and what the pipeline observed about itself (the full metric dump).
// Every `fig*`/`table*` bench emits one automatically (bench_common),
// which is what the provenance column in EXPERIMENTS.md points at; the
// CLI emits one with `--manifest-out`.  Schema: docs/OBSERVABILITY.md,
// `kManifestSchemaVersion` guards it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace ld::obs {

inline constexpr std::uint32_t kManifestSchemaVersion = 2;

/// FNV-1a 64-bit over a file's bytes, streamed (files can be GBs).
Result<std::uint64_t> Fnv1a64File(const std::string& path);
/// FNV-1a 64-bit over a buffer (the seed/offset-basis of the file form).
std::uint64_t Fnv1a64(const void* data, std::size_t size);

/// Collects provenance incrementally and renders it once.  Construction
/// captures the wall-clock epoch; ToJson()/Write() capture wall time,
/// max RSS and the metric snapshot at that moment, so build the
/// manifest first and write it last.
class ManifestBuilder {
 public:
  explicit ManifestBuilder(std::string tool);

  void SetArgv(int argc, const char* const* argv);
  /// One run-config key/value ("seed" -> "42").  Keys render in
  /// insertion order; repeated keys are kept (last one wins for readers
  /// that flatten).
  void Set(std::string key, std::string value);
  void SetUint(std::string key, std::uint64_t value);
  void SetInt(std::string key, std::int64_t value);

  /// Fingerprints one input file (size + FNV-1a 64).  A missing or
  /// unreadable file is recorded with an "error" field instead of
  /// failing the run — the manifest must still be written.
  void AddInput(const std::string& path);

  /// Captures `name` into the env section if it is set in the
  /// environment; unset variables are recorded as null so the reader
  /// can tell "unset" from "not recorded".
  void RecordEnv(const char* name);

  void SetExitCode(int code);

  /// Renders the manifest now: build info, inputs, config, env, the
  /// current metric registry snapshot, wall seconds since construction
  /// and ru_maxrss.
  std::string ToJson() const;
  Status Write(const std::string& path) const;

 private:
  struct InputRecord {
    std::string path;
    std::uint64_t bytes = 0;
    std::uint64_t fnv1a64 = 0;
    std::string error;  // empty when fingerprinted OK
  };

  std::string tool_;
  std::vector<std::string> argv_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<InputRecord> inputs_;
  /// name -> value; nullopt records "was unset".
  std::vector<std::pair<std::string, std::optional<std::string>>> env_;
  std::uint64_t epoch_ns_ = 0;
  std::int64_t created_unix_ = 0;
  int exit_code_ = 0;
  bool have_exit_code_ = false;
};

}  // namespace ld::obs
