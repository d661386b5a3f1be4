#include "logdiver/quarantine.hpp"

#include "common/obs/obs.hpp"
#include "logdiver/snapshot.hpp"

namespace ld {

QuarantineSink::QuarantineSink(QuarantineConfig config)
    : config_(config) {}

void QuarantineSink::Add(LogSource source, std::uint64_t line_number,
                         std::string_view line, const Status& why) {
  // Add() is the exactly-once rejection point (MergeFrom moves entries
  // without re-Adding), so this count can never double.
  LD_OBS_COUNTER_ADD(obs::names::kQuarantineAddedTotal, 1);
  ++total_;
  ++by_source_[static_cast<std::size_t>(source)];
  if (entries_.size() >= config_.max_entries) {
    ++overflow_;
    return;
  }
  QuarantineEntry entry;
  entry.source = source;
  entry.line_number = line_number;
  entry.reason = why.ToString();
  entry.line = std::string(line.substr(0, config_.max_line_bytes));
  entries_.push_back(std::move(entry));
}

void QuarantineSink::MergeFrom(QuarantineSink&& other) {
  total_ += other.total_;
  for (std::size_t i = 0; i < by_source_.size(); ++i) {
    by_source_[i] += other.by_source_[i];
  }
  for (QuarantineEntry& entry : other.entries_) {
    if (entries_.size() >= config_.max_entries) break;
    entries_.push_back(std::move(entry));
  }
  // Invariant (same as Add): everything beyond the stored entries is
  // overflow, including entries the chunk-local sink itself dropped.
  overflow_ = total_ - entries_.size();
}

std::uint64_t QuarantineSink::count(LogSource source) const {
  return by_source_[static_cast<std::size_t>(source)];
}

template <class Io>
void QuarantineSink::Fields(Io& io) {
  Seq<std::uint32_t>(io, entries_);
  io(total_, overflow_, by_source_);
}

template void QuarantineSink::Fields(SnapshotWriter&);
template void QuarantineSink::Fields(SnapshotReader&);

}  // namespace ld
