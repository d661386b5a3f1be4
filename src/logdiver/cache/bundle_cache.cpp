#include "logdiver/cache/bundle_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

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

// --- column primitives -----------------------------------------------

template <typename T>
void PutElement(SnapshotWriter& w, T v) {
  static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (sizeof(T) == 1) {
    std::uint8_t b;
    std::memcpy(&b, &v, 1);
    w.U8(b);
  } else if constexpr (sizeof(T) == 4) {
    std::uint32_t b;
    std::memcpy(&b, &v, 4);
    w.U32(b);
  } else {
    std::uint64_t b;
    std::memcpy(&b, &v, 8);
    w.U64(b);
  }
}

template <typename T>
T GetElement(SnapshotReader& r) {
  static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
  T v{};
  if constexpr (sizeof(T) == 1) {
    const std::uint8_t b = r.U8();
    std::memcpy(&v, &b, 1);
  } else if constexpr (sizeof(T) == 4) {
    const std::uint32_t b = r.U32();
    std::memcpy(&v, &b, 4);
  } else {
    const std::uint64_t b = r.U64();
    std::memcpy(&v, &b, 8);
  }
  return v;
}

/// Reads a u64 count + the raw little-endian array.  On LE hosts
/// (every target this repo builds for) the load is a single memcpy —
/// this is what makes a records hit decode at memory bandwidth.
template <typename T>
void GetPodColumn(SnapshotReader& r, std::vector<T>& col) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint64_t n = r.U64();
  if (!r.ok()) return;
  if (n > r.remaining() / sizeof(T)) {
    r.Fail("column longer than the payload");
    return;
  }
  col.resize(n);
  if constexpr (std::endian::native == std::endian::little) {
    r.Raw(col.data(), col.size() * sizeof(T));
  } else {
    for (T& v : col) v = GetElement<T>(r);
  }
}

/// Interned-symbol column: a first-seen string table (u32 count +
/// length-prefixed strings) followed by a u32 index column.  Symbol ids
/// are process-local (intern.hpp), so the *strings* are the on-disk
/// identity and the loader re-interns them.  Ids are dense, so a flat
/// slot table indexed by id maps each symbol to its table index; the
/// index column is written in a second pass, once the table is out.
template <typename GetFn>
void PutSymbolColumn(SnapshotWriter& w, std::size_t n, GetFn get) {
  constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> slots;
  std::vector<Symbol> table;
  for (std::size_t i = 0; i < n; ++i) {
    const Symbol s = get(i);
    if (s.id() >= slots.size()) {
      slots.resize(std::max<std::size_t>(s.id() + 1, 2 * slots.size()),
                   kUnseen);
    }
    if (slots[s.id()] == kUnseen) {
      slots[s.id()] = static_cast<std::uint32_t>(table.size());
      table.push_back(s);
    }
  }
  w.U32(static_cast<std::uint32_t>(table.size()));
  for (const Symbol s : table) w.Str(s.view());
  w.U64(n);
  for (std::size_t i = 0; i < n; ++i) w.U32(slots[get(i).id()]);
}

template <typename SetFn>
void GetSymbolColumn(SnapshotReader& r, std::size_t n, SetFn set) {
  const std::uint32_t table_size = r.U32();
  if (!r.ok()) return;
  if (table_size > r.remaining() / 4) {
    r.Fail("symbol table longer than the payload");
    return;
  }
  std::vector<Symbol> table;
  table.reserve(table_size);
  for (std::uint32_t i = 0; i < table_size && r.ok(); ++i) {
    table.push_back(Intern(r.Str()));
  }
  std::vector<std::uint32_t> idx;
  GetPodColumn(r, idx);
  if (!r.ok()) return;
  if (idx.size() != n) {
    r.Fail("symbol column length mismatch");
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (idx[i] >= table.size()) {
      r.Fail("symbol index out of range");
      return;
    }
    set(i, table[idx[i]]);
  }
}

// --- v2 compacted columns --------------------------------------------
//
// The memoized-result section stores its dominant columns (ids, epochs,
// node lists) as zigzag-varint deltas: consecutive apids ascend, times
// cluster within a run population, so most deltas fit in 1–2 bytes
// instead of 8.  Arithmetic is done in uint64 (wraparound
// well-defined), with C++20 two's-complement casts at the boundaries,
// so the round trip is exact for every 64-bit value.

class DeltaWriter {
 public:
  explicit DeltaWriter(SnapshotWriter& w) : w_(w) {}
  void Add(std::uint64_t v) {
    w_.VarintSigned(static_cast<std::int64_t>(v - prev_));
    prev_ = v;
  }
  void AddSigned(std::int64_t v) { Add(static_cast<std::uint64_t>(v)); }

 private:
  SnapshotWriter& w_;
  std::uint64_t prev_ = 0;
};

class DeltaReader {
 public:
  explicit DeltaReader(SnapshotReader& r) : r_(r) {}
  std::uint64_t Next() {
    prev_ += static_cast<std::uint64_t>(r_.VarintSigned());
    return prev_;
  }
  std::int64_t NextSigned() { return static_cast<std::int64_t>(Next()); }

 private:
  SnapshotReader& r_;
  std::uint64_t prev_ = 0;
};

/// Node-list CSR in v2: per-row varint length (the offset delta) + one
/// varint entry stream.  Returns false (after r.Fail) on inconsistency,
/// including a row longer than `max_row` entries.
template <typename Row>
void PutNodeCsr(SnapshotWriter& w, const std::vector<Row>& rows) {
  for (const auto& row : rows) w.Varint(row.nodes.size());
  for (const auto& row : rows) {
    for (const NodeIndex nid : row.nodes) w.Varint(nid);
  }
}

template <typename Row>
bool GetNodeCsr(
    SnapshotReader& r, std::vector<Row>& rows, const char* what,
    std::uint64_t max_row = std::numeric_limits<std::uint64_t>::max()) {
  std::vector<std::uint64_t> lengths(rows.size());
  std::uint64_t total = 0;
  for (auto& len : lengths) {
    len = r.Varint();
    if (len > max_row) {
      r.Fail(std::string(what) + " node list longer than " +
             std::to_string(max_row));
      return false;
    }
    total += len;
  }
  if (!r.ok()) return false;
  // Each entry costs at least one payload byte: a total past the
  // remaining payload means a malformed length column.
  if (total > r.remaining()) {
    r.Fail(std::string(what) + " node CSR is inconsistent");
    return false;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].nodes.resize(lengths[i]);
    for (auto& nid : rows[i].nodes) {
      nid = static_cast<NodeIndex>(r.Varint());
    }
  }
  return r.ok();
}

// --- parsed-records section ------------------------------------------

void PutTorque(SnapshotWriter& w, const std::vector<TorqueRecord>& recs) {
  const std::size_t n = recs.size();
  w.U64(n);
  for (const auto& rec : recs) w.U8(static_cast<std::uint8_t>(rec.kind));
  for (const auto& rec : recs) w.I64(rec.time.unix_seconds());
  for (const auto& rec : recs) w.U64(rec.jobid);
  PutSymbolColumn(w, n, [&](std::size_t i) { return recs[i].user; });
  PutSymbolColumn(w, n, [&](std::size_t i) { return recs[i].queue; });
  for (const auto& rec : recs) w.I64(rec.submit.unix_seconds());
  for (const auto& rec : recs) w.I64(rec.start.unix_seconds());
  for (const auto& rec : recs) w.I64(rec.end.unix_seconds());
  for (const auto& rec : recs) w.I32(rec.exit_status);
  for (const auto& rec : recs) w.U32(rec.nodect);
  for (const auto& rec : recs) w.I64(rec.walltime_limit.seconds());
  for (const auto& rec : recs) w.I64(rec.walltime_used.seconds());
}

void GetTorque(SnapshotReader& r, std::vector<TorqueRecord>& recs) {
  const std::uint64_t n = r.U64();
  if (!r.ok()) return;
  if (n > r.remaining()) {  // every record spends well over 1 byte
    r.Fail("torque column longer than the payload");
    return;
  }
  recs.resize(n);
  for (auto& rec : recs) rec.kind = static_cast<TorqueRecord::Kind>(r.U8());
  for (auto& rec : recs) rec.time = TimePoint(r.I64());
  for (auto& rec : recs) rec.jobid = r.U64();
  GetSymbolColumn(r, n, [&](std::size_t i, Symbol s) { recs[i].user = s; });
  GetSymbolColumn(r, n, [&](std::size_t i, Symbol s) { recs[i].queue = s; });
  for (auto& rec : recs) rec.submit = TimePoint(r.I64());
  for (auto& rec : recs) rec.start = TimePoint(r.I64());
  for (auto& rec : recs) rec.end = TimePoint(r.I64());
  for (auto& rec : recs) rec.exit_status = r.I32();
  for (auto& rec : recs) rec.nodect = r.U32();
  for (auto& rec : recs) rec.walltime_limit = Duration(r.I64());
  for (auto& rec : recs) rec.walltime_used = Duration(r.I64());
}

void PutAlps(SnapshotWriter& w, const std::vector<AlpsRecord>& recs) {
  const std::size_t n = recs.size();
  w.U64(n);
  for (const auto& rec : recs) w.U8(static_cast<std::uint8_t>(rec.kind));
  for (const auto& rec : recs) w.I64(rec.time.unix_seconds());
  for (const auto& rec : recs) w.U64(rec.apid);
  for (const auto& rec : recs) w.U64(rec.jobid);
  PutSymbolColumn(w, n, [&](std::size_t i) { return recs[i].user; });
  for (const auto& rec : recs) w.U32(rec.nodect);
  // Node placements as CSR, written straight from the records: the
  // u64-counted offsets column, then the u64-counted packed entries.
  w.U64(n + 1);
  std::uint64_t offset = 0;
  w.U64(offset);
  for (const auto& rec : recs) {
    offset += rec.nids.size();
    w.U64(offset);
  }
  w.U64(offset);
  for (const auto& rec : recs) {
    if constexpr (std::endian::native == std::endian::little) {
      w.Raw(rec.nids.data(), rec.nids.size() * sizeof(NodeIndex));
    } else {
      for (const NodeIndex nid : rec.nids) PutElement(w, nid);
    }
  }
  for (const auto& rec : recs) w.I32(rec.exit_code);
  for (const auto& rec : recs) w.I32(rec.exit_signal);
  for (const auto& rec : recs) w.U8(rec.node_failure ? 1 : 0);
  for (const auto& rec : recs) w.U32(rec.failed_nid);
}

void GetAlps(SnapshotReader& r, std::vector<AlpsRecord>& recs) {
  const std::uint64_t n = r.U64();
  if (!r.ok()) return;
  if (n > r.remaining()) {
    r.Fail("alps column longer than the payload");
    return;
  }
  recs.resize(n);
  for (auto& rec : recs) rec.kind = static_cast<AlpsRecord::Kind>(r.U8());
  for (auto& rec : recs) rec.time = TimePoint(r.I64());
  for (auto& rec : recs) rec.apid = r.U64();
  for (auto& rec : recs) rec.jobid = r.U64();
  GetSymbolColumn(r, n, [&](std::size_t i, Symbol s) { recs[i].user = s; });
  for (auto& rec : recs) rec.nodect = r.U32();
  std::vector<std::uint64_t> offsets;
  std::vector<NodeIndex> entries;
  GetPodColumn(r, offsets);
  GetPodColumn(r, entries);
  if (!r.ok()) return;
  if (offsets.size() != n + 1 || offsets[0] != 0 ||
      offsets.back() != entries.size()) {
    r.Fail("alps nid CSR is inconsistent");
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      r.Fail("alps nid CSR is inconsistent");
      return;
    }
    recs[i].nids.assign(entries.begin() + offsets[i],
                        entries.begin() + offsets[i + 1]);
  }
  for (auto& rec : recs) rec.exit_code = r.I32();
  for (auto& rec : recs) rec.exit_signal = r.I32();
  for (auto& rec : recs) rec.node_failure = r.U8() != 0;
  for (auto& rec : recs) rec.failed_nid = r.U32();
}

// Error records keep the v5 column layout: a record count, then per
// field a u64 count and one little-endian element per record (location
// as a symbol column; recovered as a set flag, then unix seconds or 0).

/// One fixed-width field column: u64 count + `get(rec)` per record.
template <typename Rec, typename GetFn>
void PutField(SnapshotWriter& w, const std::vector<Rec>& recs, GetFn get) {
  w.U64(recs.size());
  for (const Rec& rec : recs) PutElement(w, get(rec));
}

/// Reads a PutField column of T into the already-sized `recs`.
template <typename T, typename Rec, typename SetFn>
void GetField(SnapshotReader& r, std::vector<Rec>& recs, SetFn set) {
  const std::uint64_t n = r.U64();
  if (r.ok() && (n != recs.size() || n > r.remaining() / sizeof(T))) {
    r.Fail("error columns have mismatched lengths");
  }
  if (!r.ok()) return;
  for (Rec& rec : recs) set(rec, GetElement<T>(r));
}

void PutErrors(SnapshotWriter& w, const std::vector<ErrorRecord>& recs) {
  using Rec = ErrorRecord;
  w.U64(recs.size());
  PutField(w, recs, [](const Rec& e) { return e.time.unix_seconds(); });
  PutField(w, recs, [](const Rec& e) { return e.category; });
  PutField(w, recs, [](const Rec& e) { return e.severity; });
  PutField(w, recs, [](const Rec& e) { return e.scope; });
  PutField(w, recs, [](const Rec& e) { return e.source; });
  PutSymbolColumn(w, recs.size(),
                  [&](std::size_t i) { return recs[i].location; });
  PutField(w, recs, [](const Rec& e) {
    return static_cast<std::uint8_t>(e.recovered.has_value());
  });
  PutField(w, recs, [](const Rec& e) {
    return e.recovered ? e.recovered->unix_seconds() : std::int64_t{0};
  });
}

void GetErrors(SnapshotReader& r, std::vector<ErrorRecord>& recs) {
  using Rec = ErrorRecord;
  const std::uint64_t n = r.U64();
  // Every record spends well over one byte.
  if (n > r.remaining()) r.Fail("error column longer than the payload");
  if (!r.ok()) return;
  recs.resize(n);
  GetField<std::int64_t>(r, recs,
                         [](Rec& e, auto v) { e.time = TimePoint(v); });
  GetField<ErrorCategory>(r, recs, [](Rec& e, auto v) { e.category = v; });
  GetField<Severity>(r, recs, [](Rec& e, auto v) { e.severity = v; });
  GetField<LocScope>(r, recs, [](Rec& e, auto v) { e.scope = v; });
  GetField<LogSource>(r, recs, [](Rec& e, auto v) { e.source = v; });
  if (!r.ok()) return;
  GetSymbolColumn(r, n, [&](std::size_t i, Symbol s) { recs[i].location = s; });
  GetField<std::uint8_t>(r, recs, [](Rec& e, auto set) {
    if (set != 0) e.recovered = TimePoint(0);
  });
  GetField<std::int64_t>(r, recs, [](Rec& e, auto v) {
    if (e.recovered) e.recovered = TimePoint(v);
  });
}

/// Close to the records section's size: every fixed-width column
/// exactly (a symbol column counted as its u32 index), plus slack for
/// the symbol tables, the stats and the quarantine.  EncodeParsed
/// reserves it once, so the section is never regrown and recopied.
std::size_t RecordsSizeHint(const ParsedLogs& parsed) {
  std::size_t nids = 0;
  for (const auto& rec : parsed.alps) nids += rec.nids.size();
  const std::size_t fixed = 81 * parsed.torque.size() +
                            54 * parsed.alps.size() + 4 * nids +
                            25 * parsed.errors.size();
  return fixed + fixed / 8 + 64 * 1024;
}

void DecodeParsed(SnapshotReader& r, ParsedLogs& parsed) {
  GetTorque(r, parsed.torque);
  GetAlps(r, parsed.alps);
  GetErrors(r, parsed.errors);
  r(parsed.torque_stats, parsed.alps_stats, parsed.syslog_stats,
    parsed.hwerr_stats, parsed.sink);
}

// --- memoized-result section -----------------------------------------

// v2 layout: every id/epoch column is a per-column delta stream, node
// lists are varint CSR, small integers are plain (zigzag) varints.
// Column order is unchanged from v1 — only the element encoding
// shrank.
void PutRuns(SnapshotWriter& w, const std::vector<AppRun>& runs) {
  const std::size_t n = runs.size();
  w.Varint(n);
  {
    DeltaWriter apid(w);
    for (const auto& run : runs) apid.Add(run.apid);
  }
  {
    DeltaWriter jobid(w);
    for (const auto& run : runs) jobid.Add(run.jobid);
  }
  PutSymbolColumn(w, n, [&](std::size_t i) { return runs[i].user; });
  PutSymbolColumn(w, n, [&](std::size_t i) { return runs[i].queue; });
  for (const auto& run : runs) w.U8(static_cast<std::uint8_t>(run.node_type));
  PutNodeCsr(w, runs);
  for (const auto& run : runs) w.Varint(run.nodect);
  {
    DeltaWriter start(w);
    for (const auto& run : runs) start.AddSigned(run.start.unix_seconds());
  }
  {
    DeltaWriter end(w);
    for (const auto& run : runs) end.AddSigned(run.end.unix_seconds());
  }
  for (const auto& run : runs) {
    std::uint8_t flags = 0;
    if (run.has_termination) flags |= 1;
    if (run.killed_node_failure) flags |= 2;
    w.U8(flags);
  }
  for (const auto& run : runs) w.VarintSigned(run.exit_code);
  for (const auto& run : runs) w.VarintSigned(run.exit_signal);
  for (const auto& run : runs) w.Varint(run.failed_nid);
  {
    DeltaWriter submit(w);
    for (const auto& run : runs) submit.AddSigned(run.job_submit.unix_seconds());
  }
  {
    DeltaWriter jstart(w);
    for (const auto& run : runs) jstart.AddSigned(run.job_start.unix_seconds());
  }
  for (const auto& run : runs) w.VarintSigned(run.walltime_limit.seconds());
  for (const auto& run : runs) w.VarintSigned(run.job_exit_status);
}

void GetRuns(SnapshotReader& r, std::vector<AppRun>& runs) {
  const std::uint64_t n = r.Varint();
  if (!r.ok()) return;
  if (n > r.remaining()) {  // every run spends well over 1 byte
    r.Fail("run column longer than the payload");
    return;
  }
  runs.resize(n);
  {
    DeltaReader apid(r);
    for (auto& run : runs) run.apid = apid.Next();
  }
  {
    DeltaReader jobid(r);
    for (auto& run : runs) run.jobid = jobid.Next();
  }
  GetSymbolColumn(r, n, [&](std::size_t i, Symbol s) { runs[i].user = s; });
  GetSymbolColumn(r, n, [&](std::size_t i, Symbol s) { runs[i].queue = s; });
  for (auto& run : runs) run.node_type = static_cast<NodeType>(r.U8());
  if (!GetNodeCsr(r, runs, "run")) return;
  for (auto& run : runs) run.nodect = static_cast<std::uint32_t>(r.Varint());
  {
    DeltaReader start(r);
    for (auto& run : runs) run.start = TimePoint(start.NextSigned());
  }
  {
    DeltaReader end(r);
    for (auto& run : runs) run.end = TimePoint(end.NextSigned());
  }
  for (auto& run : runs) {
    const std::uint8_t flags = r.U8();
    run.has_termination = (flags & 1) != 0;
    run.killed_node_failure = (flags & 2) != 0;
  }
  for (auto& run : runs) run.exit_code = static_cast<int>(r.VarintSigned());
  for (auto& run : runs) run.exit_signal = static_cast<int>(r.VarintSigned());
  for (auto& run : runs) run.failed_nid = static_cast<NodeIndex>(r.Varint());
  {
    DeltaReader submit(r);
    for (auto& run : runs) run.job_submit = TimePoint(submit.NextSigned());
  }
  {
    DeltaReader jstart(r);
    for (auto& run : runs) run.job_start = TimePoint(jstart.NextSigned());
  }
  for (auto& run : runs) run.walltime_limit = Duration(r.VarintSigned());
  for (auto& run : runs) {
    run.job_exit_status = static_cast<int>(r.VarintSigned());
  }
}

void PutTuples(SnapshotWriter& w, const std::vector<ErrorTuple>& tuples) {
  const std::size_t n = tuples.size();
  w.Varint(n);
  {
    DeltaWriter id(w);
    for (const auto& t : tuples) id.Add(t.id);
  }
  for (const auto& t : tuples) w.U8(static_cast<std::uint8_t>(t.category));
  for (const auto& t : tuples) w.U8(static_cast<std::uint8_t>(t.severity));
  for (const auto& t : tuples) w.U8(static_cast<std::uint8_t>(t.scope));
  PutSymbolColumn(w, n, [&](std::size_t i) { return tuples[i].location; });
  PutNodeCsr(w, tuples);
  {
    DeltaWriter first(w);
    for (const auto& t : tuples) first.AddSigned(t.first.unix_seconds());
  }
  {
    DeltaWriter last(w);
    for (const auto& t : tuples) last.AddSigned(t.last.unix_seconds());
  }
  for (const auto& t : tuples) w.U8(t.recovered.has_value() ? 1 : 0);
  {
    // Sparse column: only set recovery times are written, as deltas.
    DeltaWriter recovered(w);
    for (const auto& t : tuples) {
      if (t.recovered) recovered.AddSigned(t.recovered->unix_seconds());
    }
  }
  for (const auto& t : tuples) w.Varint(t.count);
  for (const auto& t : tuples) {
    std::uint8_t flags = 0;
    if (t.from_syslog) flags |= 1;
    if (t.from_hwerr) flags |= 2;
    w.U8(flags);
  }
}

void GetTuples(SnapshotReader& r, std::vector<ErrorTuple>& tuples) {
  const std::uint64_t n = r.Varint();
  if (!r.ok()) return;
  if (n > r.remaining()) {
    r.Fail("tuple column longer than the payload");
    return;
  }
  tuples.resize(n);
  {
    DeltaReader id(r);
    for (auto& t : tuples) t.id = id.Next();
  }
  for (auto& t : tuples) t.category = static_cast<ErrorCategory>(r.U8());
  for (auto& t : tuples) t.severity = static_cast<Severity>(r.U8());
  for (auto& t : tuples) t.scope = static_cast<LocScope>(r.U8());
  GetSymbolColumn(r, n,
                  [&](std::size_t i, Symbol s) { tuples[i].location = s; });
  if (!GetNodeCsr(r, tuples, "tuple", NodeSet::kCapacity)) return;
  {
    DeltaReader first(r);
    for (auto& t : tuples) t.first = TimePoint(first.NextSigned());
  }
  {
    DeltaReader last(r);
    for (auto& t : tuples) t.last = TimePoint(last.NextSigned());
  }
  std::vector<std::uint8_t> recovered_set(n);
  for (auto& set : recovered_set) set = r.U8();
  {
    DeltaReader recovered(r);
    for (std::size_t i = 0; i < n; ++i) {
      if (recovered_set[i] != 0) {
        tuples[i].recovered = TimePoint(recovered.NextSigned());
      }
    }
  }
  for (auto& t : tuples) t.count = static_cast<std::uint32_t>(r.Varint());
  for (auto& t : tuples) {
    const std::uint8_t flags = r.U8();
    t.from_syslog = (flags & 1) != 0;
    t.from_hwerr = (flags & 2) != 0;
  }
}

void PutClassified(SnapshotWriter& w, const std::vector<ClassifiedRun>& cls) {
  w.U64(cls.size());
  for (const auto& c : cls) w.U32(c.run_index);
  for (const auto& c : cls) w.U8(static_cast<std::uint8_t>(c.outcome));
  for (const auto& c : cls) w.U8(static_cast<std::uint8_t>(c.cause));
  for (const auto& c : cls) w.U64(c.tuple_id);
}

void GetClassified(SnapshotReader& r, std::vector<ClassifiedRun>& cls) {
  const std::uint64_t n = r.U64();
  if (!r.ok()) return;
  if (n > r.remaining()) {
    r.Fail("classified column longer than the payload");
    return;
  }
  cls.resize(n);
  for (auto& c : cls) c.run_index = r.U32();
  for (auto& c : cls) c.outcome = static_cast<AppOutcome>(r.U8());
  for (auto& c : cls) c.cause = static_cast<ErrorCategory>(r.U8());
  for (auto& c : cls) c.tuple_id = r.U64();
}

void EncodeResult(SnapshotWriter& w, const AnalysisResult& result) {
  w(static_cast<const AnalysisSummary&>(result));
  Seq<std::uint64_t>(w, result.quarantine);
  PutRuns(w, result.runs);
  PutClassified(w, result.classified);
  PutTuples(w, result.tuples);
}

void DecodeResult(SnapshotReader& r, AnalysisResult& result) {
  r(static_cast<AnalysisSummary&>(result));
  Seq<std::uint64_t>(r, result.quarantine);
  GetRuns(r, result.runs);
  GetClassified(r, result.classified);
  GetTuples(r, result.tuples);
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
  // Outside the macro: an obs-off build must still reclaim.
  [[maybe_unused]] const std::size_t orphans =
      ReclaimOrphanedTmpFiles(dir_, ".ldpbc");
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
  const std::uint64_t load_start_ns = LD_OBS_NOW_NS();
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
    DecodeResult(tail, result);
    if (!tail.ok()) return reject(tail.status());
    out.result = std::move(result);
    LD_OBS_COUNTER_ADD(obs::names::kCacheHitsTotal, 1);
  } else {
    DecodeParsed(records, out.parsed);
    if (!records.ok()) return reject(records.status());
    LD_OBS_COUNTER_ADD(obs::names::kCacheRecordHitsTotal, 1);
  }
  if (load_start_ns != 0) {
    LD_OBS_HIST_RECORD(obs::names::kCacheLoadMicros,
                       (LD_OBS_NOW_NS() - load_start_ns) / 1000);
  }
  TouchEntry(path);
  return out;
}

std::vector<std::uint8_t> BundleCache::EncodeParsed(const ParsedLogs& parsed) {
  SnapshotWriter w;
  w.Reserve(RecordsSizeHint(parsed));
  PutTorque(w, parsed.torque);
  PutAlps(w, parsed.alps);
  PutErrors(w, parsed.errors);
  w(parsed.torque_stats, parsed.alps_stats, parsed.syslog_stats,
    parsed.hwerr_stats, parsed.sink);
  return w.TakeBytes();
}

Result<PendingStore> BundleCache::BeginStore(
    const CacheKeys& keys, std::span<const std::uint8_t> parsed_bytes) const {
  const std::uint64_t start_ns = LD_OBS_NOW_NS();
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
  if (start_ns != 0) pending.write_ns = LD_OBS_NOW_NS() - start_ns;
  return pending;
}

Status BundleCache::FinishStore(PendingStore pending,
                                const AnalysisResult& result) const {
  const std::uint64_t start_ns = LD_OBS_NOW_NS();
  {
    SnapshotWriter w(pending.file);
    w.Bool(true);
    w.U64(pending.analysis_key);
    EncodeResult(w, result);
    w.Flush();
  }
  if (Status s = pending.file.Commit(); !s.ok()) {
    return Status(s.code(), "bundle cache: " + s.message());
  }
  LD_OBS_COUNTER_ADD(obs::names::kCacheWritesTotal, 1);
  LD_OBS_COUNTER_ADD(obs::names::kCacheWriteBytesTotal,
                     kFileHeaderSize + pending.file.payload_size());
  if (start_ns != 0) {
    LD_OBS_HIST_RECORD(
        obs::names::kCacheStoreMicros,
        (pending.write_ns + LD_OBS_NOW_NS() - start_ns) / 1000);
  }
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
