#include "logdiver/cache/bundle_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/obs/names.hpp"
#include "common/obs/obs.hpp"
#include "logdiver/block_reader.hpp"
#include "logdiver/snapshot.hpp"

namespace ld::cache {
namespace {

// --- keys ------------------------------------------------------------

// Same FNV-1a-64 as resume.cpp's BundlePartitionFingerprint; the two
// must stay value-identical (bundle_cache_test pins this) so snapshot
// headers and cache entries agree about a bundle's identity.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void FnvMix(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

// Word-folded FNV variant for bulk line content: folds eight input
// bytes per multiply instead of one.  Not bit-compatible with the
// byte-at-a-time mix above, which is fine — fingerprints are always
// recomputed at runtime on both the store and the load side, never
// compared against an externally pinned value, so changing the mix
// only ever turns old entries into safe rejections.  The bulk path is
// little-endian only; big-endian hosts take the bytewise loop (and a
// cache entry shared across endiannesses rejects, which is correct).
void FnvMixBulk(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 8 <= size; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, bytes + i, 8);
      h ^= w;
      h *= kFnvPrime;
    }
  }
  for (; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void MixU64(std::uint64_t& h, std::uint64_t v) { FnvMix(h, &v, sizeof(v)); }
void MixI64(std::uint64_t& h, std::int64_t v) {
  MixU64(h, static_cast<std::uint64_t>(v));
}

// --- file framing ----------------------------------------------------

// The shared durable-file header (snapshot.hpp) under its own magic,
// deliberately distinct from the snapshot one: a checkpoint copied into
// a cache directory (or vice versa) fails the very first header check.
constexpr FileFormat kCacheFormat = {{'L', 'D', 'P', 'B', 'C', 'H', 'E', '1'},
                                     kBundleCacheVersion};

constexpr std::uint8_t kKindBundle = 1;

/// A mapped entry whose header has passed every check; the payload
/// aliases the mapping, which must stay alive through decoding.
struct MappedEntry {
  MappedFile file;
  const std::uint8_t* payload = nullptr;
  std::size_t size = 0;
};

/// NotFound when no file is there (never written, or evicted since);
/// every other failure is a *rejection*: the file exists but cannot be
/// trusted.  The caller converts a rejection to a loud fallback.
Result<MappedEntry> OpenEntry(const std::string& path,
                              std::uint64_t expected_fingerprint) {
  auto mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  MappedEntry entry;
  entry.file = std::move(*mapped);
  const std::string_view data = entry.file.data();
  LD_ASSIGN_OR_RETURN(
      const ValidatedFile valid,
      ValidateDurableFile(
          {reinterpret_cast<const std::uint8_t*>(data.data()), data.size()},
          kCacheFormat, expected_fingerprint, path));
  entry.payload = valid.payload.data();
  entry.size = valid.payload.size();
  return entry;
}

// --- columns ---------------------------------------------------------
//
// A section is a row count, then its columns: one field of every row
// each.  Every template here runs in both directions (snapshot.hpp,
// "codecs"): given a SnapshotWriter it writes the rows' cells, given a
// SnapshotReader it reads them back into rows the section has sized.

/// A per-row lower bound for SnapshotReader::Count: `kRowBytes` payload
/// bytes a row.
template <std::size_t kRowBytes>
struct RowBytes {
  static constexpr std::size_t kBytes = kRowBytes;
  void operator()(SnapshotWriter& w) const {
    for (std::size_t i = 0; i < kBytes; ++i) w.U8(0);
  }
};

/// The section's CountT row count; a reader refuses one past `RowBound`
/// bytes a row before it sizes `rows`.
template <class CountT, class RowBound, class Io, class Rows>
void RowCount(Io& io, Rows& rows) {
  const std::size_t n = io.template Count<CountT>(rows.size(), RowBound{});
  if constexpr (Io::kReading) {
    rows.clear();
    rows.resize(n);
  }
}

/// How a column codes its cells: fixed-width little-endian (the shared
/// Field codec), a varint (zigzag for a signed value), or the zigzag
/// varint of the difference from the cell above.  Consecutive ids
/// ascend and times cluster, so most deltas take 1-2 bytes, not 8.
enum Coding { kFixed, kVarint, kDelta };

template <class T>
constexpr bool kSignedCell = std::is_signed_v<T> ||
                             std::is_same_v<T, TimePoint> ||
                             std::is_same_v<T, Duration>;

/// A varint or delta cell as a 64-bit word: times and durations as
/// seconds, signed values sign-extended.  Delta arithmetic wraps in
/// uint64, so the round trip is exact for every 64-bit value.
template <class T>
std::uint64_t ToWord(const T& v) {
  if constexpr (std::is_same_v<T, TimePoint>) {
    return static_cast<std::uint64_t>(v.unix_seconds());
  } else if constexpr (std::is_same_v<T, Duration>) {
    return static_cast<std::uint64_t>(v.seconds());
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

template <class T>
T FromWord(std::uint64_t word) {
  if constexpr (std::is_same_v<T, TimePoint> || std::is_same_v<T, Duration>) {
    return T(static_cast<std::int64_t>(word));
  } else {
    return static_cast<T>(word);
  }
}

/// One cell; `prev` carries a delta column's word from the row above.
template <Coding kCoding, class Io, class T>
void Cell(Io& io, T& v, std::uint64_t& prev) {
  if constexpr (kCoding == kFixed) {
    io(v);
  } else {
    std::uint64_t word = ToWord(v);
    if constexpr (kCoding == kDelta) {
      auto delta = static_cast<std::int64_t>(word - prev);
      io.VarintSigned(delta);
      word = prev += static_cast<std::uint64_t>(delta);
    } else if constexpr (kSignedCell<T>) {
      auto value = static_cast<std::int64_t>(word);
      io.VarintSigned(value);
      word = static_cast<std::uint64_t>(value);
    } else {
      io.Varint(word);
    }
    if constexpr (Io::kReading) v = FromWord<T>(word);
  }
}

/// One column of `member`.  An optional member's fixed column has a
/// cell for every row, zero for an absent value; its delta column holds
/// the present values only (a Flags column says which rows).
template <Coding kCoding, class Io, class Row, class T>
void Column(Io& io, std::vector<Row>& rows, T Row::*member) {
  std::uint64_t prev = 0;
  for (Row& row : rows) {
    T& cell = row.*member;
    if constexpr (!codec::kOptional<T>) {
      Cell<kCoding>(io, cell, prev);
    } else if (cell) {
      Cell<kCoding>(io, *cell, prev);
    } else if constexpr (kCoding == kFixed) {
      typename T::value_type zero{};
      Cell<kCoding>(io, zero, prev);
    }
  }
}

/// One column per member, in the order given.
template <Coding kCoding, class Io, class Row, class... T>
void Columns(Io& io, std::vector<Row>& rows, T Row::*... members) {
  (Column<kCoding>(io, rows, members), ...);
}

/// The error section's per-column u64 count, equal to its row count.
template <class Io, class Row>
void ColumnCount(Io& io, std::vector<Row>& rows) {
  [[maybe_unused]] const std::size_t n =
      io.template Count<std::uint64_t>(rows.size(), RowBytes<1>{});
  if constexpr (Io::kReading) {
    if (n != rows.size()) io.Fail("error columns have mismatched lengths");
  }
}

/// Fixed columns each behind its own ColumnCount.
template <class Io, class Row, class... T>
void CountedColumns(Io& io, std::vector<Row>& rows, T Row::*... members) {
  ((ColumnCount(io, rows), Column<kFixed>(io, rows, members)), ...);
}

/// Reads a flag back: a bool's value, or an optional's presence (a
/// placeholder value until the optional's value column).
template <class T>
void SetFlag(T& cell, bool set) {
  if constexpr (std::is_same_v<T, bool>) {
    cell = set;
  } else {
    cell = set ? T(std::in_place) : T();
  }
}

/// One u8 column of bits, the first member in bit 0: a bool's value, an
/// optional's presence.
template <class Io, class Row, class... T>
void Flags(Io& io, std::vector<Row>& rows, T Row::*... members) {
  for (Row& row : rows) {
    std::uint8_t flags = 0;
    int bit = 0;
    ((flags |= static_cast<std::uint8_t>(static_cast<bool>(row.*members)
                                         << bit++)),
     ...);
    io.U8(flags);
    if constexpr (Io::kReading) {
      bit = 0;
      (SetFlag(row.*members, ((flags >> bit++) & 1) != 0), ...);
    }
  }
}

/// `n` little-endian cells: one memcpy on a little-endian host.
template <class Io, class T>
void RawCells(Io& io, T* cells, std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    io.Raw(cells, n * sizeof(T));
  } else {
    for (std::size_t i = 0; i < n; ++i) io(cells[i]);
  }
}

/// A u64 count, then the items as one raw little-endian array.
template <class Io, class T>
void RawArray(Io& io, std::vector<T>& items) {
  RowCount<std::uint64_t, RowBytes<sizeof(T)>>(io, items);
  RawCells(io, items.data(), items.size());
}

/// A symbol column: a first-seen string table (u32 count, then each
/// string), then every row's u32 table index as a raw array.  Symbol ids
/// are process-local (intern.hpp), so the strings are the on-disk
/// identity and a reader re-interns them.
template <class Io, class Row>
void Symbols(Io& io, std::vector<Row>& rows, Symbol Row::*member) {
  std::vector<Symbol> table;
  std::vector<std::uint32_t> index;
  if constexpr (!Io::kReading) {
    // Ids are dense: a flat slot table maps an id to its table index.
    constexpr std::uint32_t kUnseen =
        std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> slots;
    index.reserve(rows.size());
    for (const Row& row : rows) {
      const Symbol s = row.*member;
      if (s.id() >= slots.size()) {
        slots.resize(std::max<std::size_t>(s.id() + 1, 2 * slots.size()),
                     kUnseen);
      }
      if (slots[s.id()] == kUnseen) {
        slots[s.id()] = static_cast<std::uint32_t>(table.size());
        table.push_back(s);
      }
      index.push_back(slots[s.id()]);
    }
  }
  Seq<std::uint32_t>(io, table);
  RawArray(io, index);
  if constexpr (Io::kReading) {
    if (io.ok() && index.size() != rows.size()) {
      io.Fail("symbol column length mismatch");
    }
    for (std::size_t i = 0; i < rows.size() && io.ok(); ++i) {
      if (index[i] >= table.size()) {
        io.Fail("symbol index out of range");
      } else {
        rows[i].*member = table[index[i]];
      }
    }
  }
}

/// Node lists as a varint CSR: every row's length, then every entry.  A
/// reader refuses a row longer than `max_row`, and lengths that add up
/// past the payload (an entry takes a byte), before it sizes a list.
template <class Io, class Row, class Nodes>
void NodeCsr(
    Io& io, std::vector<Row>& rows, Nodes Row::*member, const char* what,
    std::uint64_t max_row = std::numeric_limits<std::uint64_t>::max()) {
  std::vector<std::uint64_t> lengths;
  lengths.reserve(rows.size());
  std::uint64_t total = 0;
  for (Row& row : rows) {
    lengths.push_back(io.template Count<VarintCount>((row.*member).size(),
                                                     RowBytes<1>{}));
    total += lengths.back();
    if constexpr (Io::kReading) {
      if (lengths.back() > max_row) {
        io.Fail(std::string(what) + " node list longer than " +
                std::to_string(max_row));
      }
    }
  }
  if constexpr (Io::kReading) {
    if (io.ok() && total > io.remaining()) {
      io.Fail(std::string(what) + " node CSR is inconsistent");
    }
    if (!io.ok()) return;
  }
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    Nodes& nodes = rows[i].*member;
    if constexpr (Io::kReading) nodes.resize(lengths[i]);
    for (NodeIndex& nid : nodes) Cell<kVarint>(io, nid, prev);
  }
}

/// The ALPS placements: the offsets (row i holds entries [offsets[i],
/// offsets[i + 1])), then the entries, each a raw array.
template <class Io>
void NidCsr(Io& io, std::vector<AlpsRecord>& recs) {
  std::vector<std::uint64_t> offsets(1, 0);
  if constexpr (!Io::kReading) {
    offsets.reserve(recs.size() + 1);
    for (const auto& rec : recs) {
      offsets.push_back(offsets.back() + rec.nids.size());
    }
  }
  RawArray(io, offsets);
  if constexpr (Io::kReading) {
    if (io.ok() && (offsets.size() != recs.size() + 1 || offsets[0] != 0 ||
                    !std::is_sorted(offsets.begin(), offsets.end()))) {
      io.Fail("alps nid CSR is inconsistent");
    }
    if (!io.ok()) return;
  }
  [[maybe_unused]] const std::size_t total = io.template Count<std::uint64_t>(
      offsets.back(), RowBytes<sizeof(NodeIndex)>{});
  if constexpr (Io::kReading) {
    if (io.ok() && total != offsets.back()) {
      io.Fail("alps nid CSR is inconsistent");
    }
    if (!io.ok()) return;
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    std::vector<NodeIndex>& nids = recs[i].nids;
    if constexpr (Io::kReading) nids.resize(offsets[i + 1] - offsets[i]);
    RawCells(io, nids.data(), nids.size());
  }
}

// --- sections --------------------------------------------------------
//
// Each section lists its columns once, in their on-disk order.  Its row
// bound adds up the bytes of its fixed-width cells, a symbol cell as
// its u32 index, in column order.  Varint cells and the one-off symbol
// tables are left out, so every valid entry meets the bound.

// kind time jobid user queue submit start end exit nodect limit used
using TorqueRow = RowBytes<1 + 8 + 8 + 4 + 4 + 8 + 8 + 8 + 4 + 4 + 8 + 8>;
// kind time apid jobid user nodect offset exit signal node_failure
// failed_nid
using AlpsRow = RowBytes<1 + 8 + 8 + 8 + 4 + 4 + 8 + 4 + 4 + 1 + 4>;
// time category severity scope source location recovered(flag, time)
using ErrorRow = RowBytes<8 + 1 + 1 + 1 + 1 + 4 + 1 + 8>;
// user queue node_type flags
using RunRow = RowBytes<4 + 4 + 1 + 1>;
// run_index outcome cause tuple_id
using ClassifiedRow = RowBytes<4 + 1 + 1 + 8>;
// category severity scope location recovered(flag) flags
using TupleRow = RowBytes<1 + 1 + 1 + 4 + 1 + 1>;

template <class Io>
void TorqueSection(Io& io, std::vector<TorqueRecord>& recs) {
  using R = TorqueRecord;
  RowCount<std::uint64_t, TorqueRow>(io, recs);
  Columns<kFixed>(io, recs, &R::kind, &R::time, &R::jobid);
  Symbols(io, recs, &R::user);
  Symbols(io, recs, &R::queue);
  Columns<kFixed>(io, recs, &R::submit, &R::start, &R::end, &R::exit_status,
                  &R::nodect, &R::walltime_limit, &R::walltime_used);
}

template <class Io>
void AlpsSection(Io& io, std::vector<AlpsRecord>& recs) {
  using R = AlpsRecord;
  RowCount<std::uint64_t, AlpsRow>(io, recs);
  Columns<kFixed>(io, recs, &R::kind, &R::time, &R::apid, &R::jobid);
  Symbols(io, recs, &R::user);
  Columns<kFixed>(io, recs, &R::nodect);
  NidCsr(io, recs);
  Columns<kFixed>(io, recs, &R::exit_code, &R::exit_signal, &R::node_failure,
                  &R::failed_nid);
}

/// Every error column has its own u64 count.
template <class Io>
void ErrorSection(Io& io, std::vector<ErrorRecord>& recs) {
  using R = ErrorRecord;
  RowCount<std::uint64_t, ErrorRow>(io, recs);
  CountedColumns(io, recs, &R::time, &R::category, &R::severity, &R::scope,
                 &R::source);
  Symbols(io, recs, &R::location);
  ColumnCount(io, recs);
  Flags(io, recs, &R::recovered);
  CountedColumns(io, recs, &R::recovered);
}

template <class Io>
void RunSection(Io& io, std::vector<AppRun>& runs) {
  using R = AppRun;
  RowCount<VarintCount, RunRow>(io, runs);
  Columns<kDelta>(io, runs, &R::apid, &R::jobid);
  Symbols(io, runs, &R::user);
  Symbols(io, runs, &R::queue);
  Columns<kFixed>(io, runs, &R::node_type);
  NodeCsr(io, runs, &R::nodes, "run");
  Columns<kVarint>(io, runs, &R::nodect);
  Columns<kDelta>(io, runs, &R::start, &R::end);
  Flags(io, runs, &R::has_termination, &R::killed_node_failure);
  Columns<kVarint>(io, runs, &R::exit_code, &R::exit_signal, &R::failed_nid);
  Columns<kDelta>(io, runs, &R::job_submit, &R::job_start);
  Columns<kVarint>(io, runs, &R::walltime_limit, &R::job_exit_status);
}

template <class Io>
void ClassifiedSection(Io& io, std::vector<ClassifiedRun>& cls) {
  using R = ClassifiedRun;
  RowCount<std::uint64_t, ClassifiedRow>(io, cls);
  Columns<kFixed>(io, cls, &R::run_index, &R::outcome, &R::cause,
                  &R::tuple_id);
}

template <class Io>
void TupleSection(Io& io, std::vector<ErrorTuple>& tuples) {
  using R = ErrorTuple;
  RowCount<VarintCount, TupleRow>(io, tuples);
  Columns<kDelta>(io, tuples, &R::id);
  Columns<kFixed>(io, tuples, &R::category, &R::severity, &R::scope);
  Symbols(io, tuples, &R::location);
  NodeCsr(io, tuples, &R::nodes, "tuple", NodeSet::kCapacity);
  Columns<kDelta>(io, tuples, &R::first, &R::last);
  Flags(io, tuples, &R::recovered);
  Columns<kDelta>(io, tuples, &R::recovered);
  Columns<kVarint>(io, tuples, &R::count);
  Flags(io, tuples, &R::from_syslog, &R::from_hwerr);
}

/// The records section: the three record sections, then the parse
/// counters and the quarantine.
template <class Io>
void RecordsSection(Io& io, ParsedLogs& parsed) {
  TorqueSection(io, parsed.torque);
  AlpsSection(io, parsed.alps);
  ErrorSection(io, parsed.errors);
  io(parsed.torque_stats, parsed.alps_stats, parsed.syslog_stats,
     parsed.hwerr_stats, parsed.sink);
}

/// The memoized-result section: the summary and the quarantine, then
/// the three result sections.
template <class Io>
void ResultSection(Io& io, AnalysisResult& result) {
  io(static_cast<AnalysisSummary&>(result));
  Seq<std::uint64_t>(io, result.quarantine);
  RunSection(io, result.runs);
  ClassifiedSection(io, result.classified);
  TupleSection(io, result.tuples);
}

/// Close to the records section's size: every fixed-width cell exactly,
/// 4 bytes per ALPS nid, plus slack for the symbol tables, the counters
/// and the quarantine.  EncodeParsed reserves it once, so the section is
/// never regrown and recopied.
std::size_t RecordsSizeHint(const ParsedLogs& parsed) {
  std::size_t nids = 0;
  for (const auto& rec : parsed.alps) nids += rec.nids.size();
  const std::size_t fixed = TorqueRow::kBytes * parsed.torque.size() +
                            AlpsRow::kBytes * parsed.alps.size() +
                            sizeof(NodeIndex) * nids +
                            ErrorRow::kBytes * parsed.errors.size();
  return fixed + fixed / 8 + 64 * 1024;
}

/// Marks an entry as recently used.  mtime is the LRU recency signal
/// EnforceCap sorts by; best-effort — a failed touch only makes the
/// entry *look* older, which can cost a re-parse but never correctness.
void TouchEntry(const std::string& path) {
  std::error_code ec;
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now(), ec);
}

std::string HexFingerprint(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return std::string(buf, 16);
}

}  // namespace

std::uint64_t LinesFingerprint(const LogSetView& lines,
                               std::uint32_t shard_count) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    const unsigned char tag = static_cast<unsigned char>(0xF0 + s);
    FnvMix(h, &tag, 1);
    const auto source = static_cast<LogSource>(s);
    for (const std::string_view line : lines.lines(source)) {
      FnvMixBulk(h, line.data(), line.size());
      const unsigned char nl = '\n';
      FnvMix(h, &nl, 1);
    }
  }
  const std::uint32_t count = shard_count;
  FnvMix(h, &count, sizeof(count));
  // 0 is reserved for "unspecified" in file headers.
  return h == 0 ? 1 : h;
}

std::uint64_t ParseKey(const LogDiverConfig& config) {
  std::uint64_t h = kFnvOffset;
  MixI64(h, config.syslog_base_year);
  MixU64(h, config.ingest.quarantine.max_entries);
  MixU64(h, config.ingest.quarantine.max_line_bytes);
  return h;
}

std::uint64_t AnalysisKey(const Machine& machine,
                          const LogDiverConfig& config) {
  std::uint64_t h = kFnvOffset;
  MixU64(h, machine.node_count());
  MixU64(h, machine.xe_count());
  MixU64(h, machine.xk_count());
  MixI64(h, config.coalesce.tupling_window.seconds());
  MixI64(h, config.correlator.attribution_before.seconds());
  MixI64(h, config.correlator.attribution_after.seconds());
  MixU64(h, config.correlator.category_before.size());
  for (const auto& [category, window] : config.correlator.category_before) {
    MixU64(h, static_cast<std::uint64_t>(category));
    MixI64(h, window.seconds());
  }
  MixI64(h, config.correlator.incident_slack.seconds());
  MixI64(h, config.correlator.walltime_tolerance.seconds());
  for (const auto* buckets :
       {&config.metrics.xe_scale_buckets, &config.metrics.xk_scale_buckets}) {
    MixU64(h, buckets->size());
    for (const auto& [lo, hi] : *buckets) {
      MixU64(h, lo);
      MixU64(h, hi);
    }
  }
  MixU64(h, config.shard.index);
  MixU64(h, config.shard.count);
  MixU64(h, static_cast<std::uint64_t>(config.ingest.policy));
  MixU64(h, config.ingest.budget.min_malformed);
  FnvMix(h, &config.ingest.budget.max_malformed_fraction, sizeof(double));
  return h;
}

CacheKeys MakeKeys(const LogSetView& lines, const Machine& machine,
                   const LogDiverConfig& config) {
  CacheKeys keys;
  keys.input_fingerprint = LinesFingerprint(lines, 0);
  keys.parse_key = ParseKey(config);
  keys.analysis_key = AnalysisKey(machine, config);
  return keys;
}

BundleCache::BundleCache(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  // Startup trim: a directory left over-cap by a previous run (or a
  // smaller --bundle-cache-max-mb than last time) is brought under the
  // cap before any entry is served, and a run killed mid-entry leaves
  // no tmp file behind for long.
  Trim();
}

void BundleCache::Trim() const {
  if (dir_.empty()) return;
  const std::size_t orphans = ReclaimOrphanedTmpFiles(dir_, ".ldpbc");
  LD_OBS_COUNTER_ADD(obs::names::kCacheOrphansRemovedTotal, orphans);
  if (max_bytes_ == 0) return;
  namespace fs = std::filesystem;
  struct Candidate {
    fs::path path;
    std::uint64_t size = 0;
    fs::file_time_type mtime;
  };
  std::vector<Candidate> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(dir_, ec)) {
    if (ec) return;  // directory missing or unreadable: nothing to trim
    // Only published cache entries count against the cap; in-flight
    // .tmp.<pid> files belong to a live writer (orphans went above).
    if (item.path().extension() != ".ldpbc") continue;
    std::error_code item_ec;
    if (!item.is_regular_file(item_ec) || item_ec) continue;
    Candidate c;
    c.path = item.path();
    c.size = item.file_size(item_ec);
    if (item_ec) continue;
    c.mtime = item.last_write_time(item_ec);
    if (item_ec) continue;
    total += c.size;
    entries.push_back(std::move(c));
  }
  if (total <= max_bytes_) return;
  std::sort(entries.begin(), entries.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;  // deterministic tie-break
            });
  for (const Candidate& victim : entries) {
    if (total <= max_bytes_) break;
    std::error_code rm_ec;
    // unlink is atomic: a reader that already mapped the file keeps a
    // valid mapping; a later reader sees a clean miss.  A concurrent
    // writer can republish the name — that new entry is complete and
    // valid, so the worst case is an extra eviction pass.  remove()
    // returns false without an error when a sibling process unlinked
    // the victim first: it is gone all the same, so its bytes leave the
    // total (otherwise this pass would go on to evict newer entries),
    // but only this process's own unlinks count as evictions.
    const bool removed = fs::remove(victim.path, rm_ec);
    if (rm_ec) continue;
    total -= victim.size;
    if (removed) LD_OBS_COUNTER_ADD(obs::names::kCacheEvictedTotal, 1);
  }
}

std::string BundleCache::BundlePath(std::uint64_t input_fingerprint) const {
  return dir_ + "/bundle-" + HexFingerprint(input_fingerprint) + ".ldpbc";
}

Result<LoadedEntry> BundleCache::Load(const CacheKeys& keys) const {
  const std::string path = BundlePath(keys.input_fingerprint);
  const std::uint64_t load_start_ns = obs::NowNanos();
  const auto reject = [](Status why) {
    LD_OBS_COUNTER_ADD(obs::names::kCacheRejectedTotal, 1);
    return Status(StatusCode::kParseError,
                  "bundle cache: " + why.message() + " — entry rejected, "
                  "falling back to the text parse");
  };
  // No existence pre-check: an entry a capped writer evicts between a
  // check and the map would read as a rejection, not the clean miss it
  // is.  Only the map itself can tell.
  auto entry = OpenEntry(path, keys.input_fingerprint);
  if (!entry.ok() && entry.status().code() == StatusCode::kNotFound) {
    LD_OBS_COUNTER_ADD(obs::names::kCacheMissesTotal, 1);
    return NotFoundError("bundle cache: no entry at " + path);
  }
  if (!entry.ok()) return reject(entry.status());
  SnapshotReader head(entry->payload, entry->size);
  const std::uint8_t kind = head.U8();
  if (head.ok() && kind != kKindBundle) {
    head.Fail("entry kind " + std::to_string(kind) + " is not a bundle");
  }
  const std::uint64_t parse_key = head.U64();
  if (head.ok() && parse_key != keys.parse_key) {
    head.Fail(path + " was written under a different parse configuration");
  }
  const std::uint64_t records_len = head.U64();
  if (head.ok() && records_len > head.remaining()) {
    head.Fail(path + " declares a records section past its payload");
  }
  if (!head.ok()) return reject(head.status());

  // head has consumed kind + parse_key + records_len: the records
  // section starts right here, the result section right after it.
  constexpr std::size_t kPrefix = 1 + 8 + 8;
  SnapshotReader records(entry->payload + kPrefix, records_len);
  SnapshotReader tail(entry->payload + kPrefix + records_len,
                      entry->size - kPrefix - records_len);

  LoadedEntry out;
  const bool has_result = tail.Bool();
  const std::uint64_t analysis_key = has_result ? tail.U64() : 0;
  if (!tail.ok()) return reject(tail.status());
  if (has_result && analysis_key == keys.analysis_key) {
    // Full hit: decode only the memoized result, never the records.
    AnalysisResult result;
    ResultSection(tail, result);
    if (!tail.ok()) return reject(tail.status());
    out.result = std::move(result);
    LD_OBS_COUNTER_ADD(obs::names::kCacheHitsTotal, 1);
  } else {
    RecordsSection(records, out.parsed);
    if (!records.ok()) return reject(records.status());
    LD_OBS_COUNTER_ADD(obs::names::kCacheRecordHitsTotal, 1);
  }
  LD_OBS_HIST_RECORD(obs::names::kCacheLoadMicros,
                     (obs::NowNanos() - load_start_ns) / 1000);
  TouchEntry(path);
  return out;
}

std::vector<std::uint8_t> BundleCache::EncodeParsed(const ParsedLogs& parsed) {
  SnapshotWriter w;
  w.Reserve(RecordsSizeHint(parsed));
  // A writer only reads the rows (snapshot.hpp, "codecs").
  RecordsSection(w, const_cast<ParsedLogs&>(parsed));
  return w.TakeBytes();
}

Result<PendingStore> BundleCache::BeginStore(
    const CacheKeys& keys, std::span<const std::uint8_t> parsed_bytes) const {
  const std::uint64_t start_ns = obs::NowNanos();
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return InternalError("bundle cache: cannot create " + dir_ + ": " +
                         ec.message());
  }
  auto file = DurableFileWriter::Open(BundlePath(keys.input_fingerprint),
                                      kCacheFormat, keys.input_fingerprint);
  if (!file.ok()) {
    return Status(file.status().code(),
                  "bundle cache: " + file.status().message());
  }
  PendingStore pending{std::move(*file), keys.analysis_key, 0};
  {
    SnapshotWriter w(pending.file);
    w.U8(kKindBundle);
    w.U64(keys.parse_key);
    w.U64(parsed_bytes.size());
    w.Raw(parsed_bytes.data(), parsed_bytes.size());
    w.Flush();
  }
  pending.write_ns = obs::NowNanos() - start_ns;
  return pending;
}

Status BundleCache::FinishStore(PendingStore pending,
                                const AnalysisResult& result) const {
  const std::uint64_t start_ns = obs::NowNanos();
  {
    SnapshotWriter w(pending.file);
    w.Bool(true);
    w.U64(pending.analysis_key);
    ResultSection(w, const_cast<AnalysisResult&>(result));
    w.Flush();
  }
  if (Status s = pending.file.Commit(); !s.ok()) {
    return Status(s.code(), "bundle cache: " + s.message());
  }
  LD_OBS_COUNTER_ADD(obs::names::kCacheWritesTotal, 1);
  LD_OBS_COUNTER_ADD(obs::names::kCacheWriteBytesTotal,
                     kFileHeaderSize + pending.file.payload_size());
  LD_OBS_HIST_RECORD(obs::names::kCacheStoreMicros,
                     (pending.write_ns + obs::NowNanos() - start_ns) / 1000);
  Trim();
  return Status::Ok();
}

Status BundleCache::Store(const CacheKeys& keys,
                          const std::vector<std::uint8_t>& parsed_bytes,
                          const AnalysisResult& result) const {
  LD_ASSIGN_OR_RETURN(PendingStore pending, BeginStore(keys, parsed_bytes));
  return FinishStore(std::move(pending), result);
}

}  // namespace ld::cache
