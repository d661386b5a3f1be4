// Partial-snapshot records: the self-describing, verifiable unit a
// fleet worker ships back to its supervisor.
//
// A partial file reuses the snapshot framing (magic, version, CRC,
// header fingerprint — snapshot.hpp), so torn or bit-flipped partials
// are rejected the same way torn checkpoints are.  The payload adds a
// shard header (record version, shard index, shard count, the
// bundle-partition fingerprint again) followed by the worker's
// AnalysisSummary (the bundle-wide counters every worker reproduces
// identically, written with the shared summary codec) and its
// shard-filtered MetricsAccumulator.  The supervisor
// validates CRC + fingerprint + shard identity before a partial is
// allowed anywhere near the merge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/metrics.hpp"
#include "logdiver/snapshot.hpp"

namespace ld::fleet {

/// Payload-level record version; bump when the partial layout changes.
/// Version 2 added the worker's claims-cache counters (hits / misses /
/// rejections / stores), so the supervisor can see cache effectiveness
/// without reaching into a dead child's obs registry.  Version 3 ships
/// the worker's AnalysisSummary (its snapshot.hpp codec) in place of the
/// per-field counters, reconstruct stats included.  Version 4 drops the
/// claims-cache counters with the claims cache itself.
inline constexpr std::uint32_t kPartialRecordVersion = 4;

/// Who computed this partial, over what input.
struct PartialHeader {
  std::uint32_t record_version = kPartialRecordVersion;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// BundlePartitionFingerprint(inputs, shard_count) — also stamped in
  /// the file header, so mismatches are caught before payload parsing.
  std::uint64_t fingerprint = 0;
};

/// One worker's output: the shard-owned metric accumulator plus the
/// worker's summary.  The summary's counters are bundle-wide (identical
/// on every surviving worker; the supervisor takes them from the
/// lowest-index survivor); its `metrics` is the shard-filtered report,
/// which the merge replaces.
struct PartialAggregates {
  PartialHeader header;
  AnalysisSummary summary;
  MetricsAccumulator metrics;

  explicit PartialAggregates(MetricsConfig metrics_config = {})
      : metrics(std::move(metrics_config)) {}
};

/// The partial payload's one codec (header first, accumulator last).
/// Decoding expects `p.metrics` built with the config the worker ran
/// with (scale-bucket geometry is construction-time).
template <class Io>
void Fields(Io& io, PartialAggregates& p);

/// Writes `p` to `path` with the snapshot file framing, stamping
/// `p.header.fingerprint` into the file header.
Status WritePartialFile(const std::string& path, const PartialAggregates& p);

/// Reads and validates a partial file: framing (magic/version/CRC),
/// then file-header fingerprint against the payload header — a
/// mismatch means the file was tampered with or mixed up in transit.
Result<PartialAggregates> ReadPartialFile(const std::string& path,
                                          const MetricsConfig& metrics_config);

}  // namespace ld::fleet
