#include "logdiver/fleet/partial.hpp"

namespace ld::fleet {

void SavePartialAggregates(SnapshotWriter& w, const PartialAggregates& p) {
  w.U32(p.header.record_version);
  w.U32(p.header.shard_index);
  w.U32(p.header.shard_count);
  w.U64(p.header.fingerprint);
  SaveAnalysisSummary(w, p.summary);
  p.metrics.SaveState(w);
}

Result<PartialAggregates> LoadPartialAggregates(
    const std::vector<std::uint8_t>& payload,
    const MetricsConfig& metrics_config) {
  SnapshotReader r(payload);
  PartialAggregates p(metrics_config);
  p.header.record_version = r.U32();
  if (r.ok() && p.header.record_version != kPartialRecordVersion) {
    return FailedPreconditionError(
        "partial record version " + std::to_string(p.header.record_version) +
        ", this build speaks " + std::to_string(kPartialRecordVersion));
  }
  p.header.shard_index = r.U32();
  p.header.shard_count = r.U32();
  p.header.fingerprint = r.U64();
  LoadAnalysisSummary(r, p.summary);
  p.metrics.LoadState(r);
  if (!r.ok()) return r.status();
  if (r.remaining() != 0) {
    return ParseError("partial payload has " +
                      std::to_string(r.remaining()) + " trailing bytes");
  }
  return p;
}

Status WritePartialFile(const std::string& path, const PartialAggregates& p) {
  SnapshotWriter w;
  SavePartialAggregates(w, p);
  return WriteSnapshotFile(path, w.bytes(), p.header.fingerprint);
}

Result<PartialAggregates> ReadPartialFile(
    const std::string& path, const MetricsConfig& metrics_config) {
  std::uint64_t file_fingerprint = 0;
  LD_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> payload,
                      ReadSnapshotFile(path, &file_fingerprint));
  LD_ASSIGN_OR_RETURN(PartialAggregates p,
                      LoadPartialAggregates(payload, metrics_config));
  if (file_fingerprint != p.header.fingerprint) {
    return ParseError("partial " + path +
                      ": file-header fingerprint disagrees with the payload "
                      "header");
  }
  return p;
}

}  // namespace ld::fleet
