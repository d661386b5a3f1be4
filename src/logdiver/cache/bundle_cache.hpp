// The parsed-bundle cache: a versioned, CRC-checksummed binary columnar
// intermediate format keyed by the FNV-1a-64 bundle fingerprint, so
// re-analysis of an already-seen bundle skips text parsing entirely.
//
// One entry kind lives in the cache directory (conventionally next to
// the snapshot store):
//
//   bundle-<fp>.ldpbc   ParsedLogs as raw little-endian column arrays
//                       (keyed additionally by a parse-config hash),
//                       plus an optional memoized AnalysisResult
//                       section (keyed additionally by an
//                       analysis-config + machine-geometry hash).
//
// Any other *.ldpbc file (a claims-<fp>.ldpbc from an older build) is
// never read; it counts against the cap and is evicted like any cold
// entry.
//
// Each section of an entry (torque, alps, errors; runs, classified,
// tuples) is one codec in bundle_cache.cpp that lists its columns once
// and runs for both the writer and the reader (snapshot.hpp, "codecs").
// Every row count passes SnapshotReader::Count at the section's
// fixed-width bytes a row, so a CRC-valid entry that claims more rows
// than its payload holds is rejected before a row is allocated.
//
// Safety model (docs/FORMATS.md "Parsed-bundle cache"): every load
// validates magic, format version, payload size, payload CRC-32, the
// input fingerprint and the relevant config keys.  Any mismatch — a
// torn write, a foreign bundle's entry copied in, a stale entry from an
// older build or different config — rejects the entry
// (ld.cache.rejected_total) and the caller falls back to the text
// parse.  A cache hit can only ever make a run faster, never change a
// byte of its report; the equivalence tests in
// tests/logdiver/bundle_cache_test.cpp hold the two paths to
// FingerprintReport identity.
//
// Writes stream through the one durable-file writer (snapshot.hpp):
// pid-qualified tmp file held under flock, header last, fsync, rename.
// A cold analysis writes in two phases: the records section reaches the
// tmp file before the analysis tail runs, the memoized result and the
// commit follow it.  Concurrent writers of the same entry are safe
// (last rename wins, both files valid); readers memory-map and validate
// before decoding a single field.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/snapshot.hpp"

namespace ld::cache {

/// On-disk format version; bump on any layout change (old entries are
/// then rejected as stale and rewritten).  Version 2 compacted the
/// memoized-result section: the AppRun/ErrorTuple columns that dominate
/// entry size (ids, epochs, node lists) are stored as zigzag-varint
/// deltas instead of fixed-width words (docs/FORMATS.md "Parsed-bundle
/// cache v2").  v1 entries are rejected as stale — loudly, with the
/// text-parse fallback — and rewritten in v2 on the next store.
/// Version 3 changed what the (since deleted) claims entry meant, not
/// its layout: syslog claims carried the year reached by rollover.
/// Version 4 writes the memoized result's summary with the shared
/// AnalysisSummary codec; v3 results lack the duplicate_job_records
/// count and are rejected.  Version 5 drops the Torque job-name and ALPS
/// command columns (the parsers no longer keep them) and writes the
/// ALPS kill reason as a symbol column.
inline constexpr std::uint32_t kBundleCacheVersion = 5;

/// FNV-1a-64 (word-folded over line content for speed; bytewise
/// framing) over the four line streams, with the framing
/// resume.cpp's BundlePartitionFingerprint delegates to (per-source
/// tag byte, line bytes + '\n', trailing shard-count mix, 0 remapped
/// to 1) — computed from lines already in memory instead of
/// re-reading the files, so the batch, streaming and fleet paths
/// agree on a bundle's identity.
std::uint64_t LinesFingerprint(const LogSetView& lines,
                               std::uint32_t shard_count);

/// The three keys a bundle entry is validated against.
struct CacheKeys {
  std::uint64_t input_fingerprint = 0;  // LinesFingerprint(lines, 0)
  std::uint64_t parse_key = 0;          // parse-affecting config
  std::uint64_t analysis_key = 0;       // tail-affecting config + machine
};

/// Derives all three keys for this bundle + configuration.
CacheKeys MakeKeys(const LogSetView& lines, const Machine& machine,
                   const LogDiverConfig& config);

/// Hash of the parse-affecting configuration alone (base year,
/// quarantine caps).
std::uint64_t ParseKey(const LogDiverConfig& config);

/// Hash of everything after parsing that shapes the report: machine
/// geometry, coalesce/correlator/metrics configs, shard spec,
/// degradation policy and error budget.
std::uint64_t AnalysisKey(const Machine& machine,
                          const LogDiverConfig& config);

/// A successfully validated bundle entry.
struct LoadedEntry {
  ParsedLogs parsed;
  /// Present iff the entry's memoized result matched `analysis_key`.
  std::optional<AnalysisResult> result;
};

/// An entry whose prefix and records section are already in its tmp
/// file; BundleCache::FinishStore appends the memoized result and
/// publishes it.  Dropped unfinished (a failed analysis), it unlinks
/// the tmp file and publishes nothing.
struct PendingStore {
  DurableFileWriter file;
  std::uint64_t analysis_key = 0;
  /// Time spent writing so far, for ld.cache.store_micros.
  std::uint64_t write_ns = 0;
};

class BundleCache {
 public:
  /// `max_bytes` caps the total size of *.ldpbc entries in `dir`
  /// (0 = unbounded).  The cap is enforced LRU-first — least recently
  /// *used*, not written: every successful Load touches the
  /// entry's mtime — at construction (startup trim of an over-cap
  /// directory) and after every store.  Eviction is a plain unlink of a
  /// complete, valid file: a reader that already mapped the entry keeps
  /// its mapping, a later reader sees a clean miss — never a torn or
  /// stale entry.  Evictions bump ld.cache.evicted_total.  Construction
  /// and every store also unlink the tmp files of writers that died
  /// mid-entry (ld.cache.orphans_removed_total), capped or not.
  explicit BundleCache(std::string dir, std::uint64_t max_bytes = 0);

  const std::string& dir() const { return dir_; }
  std::uint64_t max_bytes() const { return max_bytes_; }
  std::string BundlePath(std::uint64_t input_fingerprint) const;

  /// Loads and validates the bundle entry.  NotFound when absent (an
  /// entry evicted under a concurrent load included);
  /// ParseError (counted in ld.cache.rejected_total) when torn, foreign,
  /// or written under a different parse config / format version.  A
  /// parse-key match with an analysis-key mismatch is still a records
  /// hit: `result` is simply absent.
  Result<LoadedEntry> Load(const CacheKeys& keys) const;

  /// Serializes the records section.  Callers encode before the
  /// analysis tail consumes `parsed`, then pass the bytes to BeginStore
  /// (or Store): no record copies, no second parse.
  static std::vector<std::uint8_t> EncodeParsed(const ParsedLogs& parsed);

  /// Opens the entry's tmp file and streams the prefix and the records
  /// section into it, so the caller can free `parsed_bytes` before the
  /// analysis tail runs.
  Result<PendingStore> BeginStore(const CacheKeys& keys,
                                  std::span<const std::uint8_t> parsed_bytes)
      const;
  /// Streams the memoized result after the records and publishes the
  /// entry atomically.  Failure is reported but non-fatal to the
  /// analysis.
  Status FinishStore(PendingStore pending, const AnalysisResult& result) const;

  /// BeginStore + FinishStore in one call.
  Status Store(const CacheKeys& keys,
               const std::vector<std::uint8_t>& parsed_bytes,
               const AnalysisResult& result) const;

 private:
  /// Unlinks orphaned tmp files, then deletes least-recently-used
  /// entries until the directory is back under max_bytes_ (no eviction
  /// when unbounded).
  void Trim() const;

  std::string dir_;
  std::uint64_t max_bytes_ = 0;
};

}  // namespace ld::cache
