#include "logdiver/fleet/partial.hpp"

namespace ld::fleet {

template <class Io>
void Fields(Io& io, PartialAggregates& p) {
  io(p.header.record_version);
  if constexpr (Io::kReading) {
    if (io.ok() && p.header.record_version != kPartialRecordVersion) {
      io.Fail(FailedPreconditionError(
          "partial record version " +
          std::to_string(p.header.record_version) + ", this build speaks " +
          std::to_string(kPartialRecordVersion)));
    }
  }
  io(p.header.shard_index, p.header.shard_count, p.header.fingerprint,
     p.summary, p.metrics);
}

template void Fields(SnapshotWriter&, PartialAggregates&);
template void Fields(SnapshotReader&, PartialAggregates&);

Status WritePartialFile(const std::string& path, const PartialAggregates& p) {
  SnapshotWriter w;
  w(p);
  return WriteSnapshotFile(path, w.bytes(), p.header.fingerprint);
}

Result<PartialAggregates> ReadPartialFile(
    const std::string& path, const MetricsConfig& metrics_config) {
  std::uint64_t file_fingerprint = 0;
  LD_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> payload,
                      ReadSnapshotFile(path, &file_fingerprint));
  PartialAggregates p(metrics_config);
  SnapshotReader r(payload);
  r(p);
  LD_TRY(r.Finish());
  if (file_fingerprint != p.header.fingerprint) {
    return ParseError("partial " + path +
                      ": file-header fingerprint disagrees with the payload "
                      "header");
  }
  return p;
}

}  // namespace ld::fleet
