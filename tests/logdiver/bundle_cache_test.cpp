// Equivalence and rejection tests for the parsed-bundle cache
// (src/logdiver/cache): a cache hit may only ever make an analysis
// faster, never change a byte of its report.  Every test here compares
// cached paths to the uncached text parse via FingerprintReport.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/obs/metrics.hpp"
#include "common/obs/names.hpp"
#include "logdiver/cache/bundle_cache.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/resume.hpp"
#include "logdiver/snapshot.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

namespace fs = std::filesystem;

struct CachedBundle {
  Machine machine = Machine::Testbed(4, 2);
  std::string bundle_dir;
  std::string cache_dir;
};

// Writes a small-but-dirty bundle (a few malformed lines appended to two
// sources so quarantine/ingest state is non-trivial) plus an empty cache
// directory, both under TempDir.
CachedBundle MakeCachedBundle(const std::string& tag, std::uint64_t seed) {
  CachedBundle cb;
  cb.bundle_dir = ::testing::TempDir() + "/ld_bc_" + tag + "_bundle";
  cb.cache_dir = ::testing::TempDir() + "/ld_bc_" + tag + "_cache";
  fs::remove_all(cb.bundle_dir);
  fs::remove_all(cb.cache_dir);
  ScenarioConfig config = SmallScenario(seed);
  config.workload.target_app_runs = 400;
  cb.machine = MakeMachine(config);
  auto bundle = WriteBundle(cb.machine, config, cb.bundle_dir);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  // Dirty the bundle: lines no parser accepts, so the cached QuarantineSink
  // state and ingest counters are exercised, not just clean-path columns.
  {
    std::ofstream syslog(cb.bundle_dir + "/syslog.log", std::ios::app);
    syslog << "not a syslog line at all\n<<<garbage>>>\n";
    std::ofstream torque(cb.bundle_dir + "/torque.log", std::ios::app);
    torque << "]]] broken accounting record\n";
  }
  fs::create_directories(cb.cache_dir);
  return cb;
}

LogDiverConfig CachedConfig(const CachedBundle& cb) {
  LogDiverConfig config;
  config.bundle_cache_dir = cb.cache_dir;
  return config;
}

// The single bundle-*.ldpbc entry in a cache directory.
std::string FindBundleEntry(const std::string& cache_dir) {
  for (const auto& entry : fs::directory_iterator(cache_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("bundle-", 0) == 0) return entry.path().string();
  }
  return "";
}

void ExpectSameAnalysis(const AnalysisResult& a, const AnalysisResult& b) {
  EXPECT_EQ(FingerprintReport(a.metrics), FingerprintReport(b.metrics));
  EXPECT_EQ(a.runs.size(), b.runs.size());
  EXPECT_EQ(a.classified.size(), b.classified.size());
  EXPECT_EQ(a.tuples.size(), b.tuples.size());
  EXPECT_EQ(a.quarantine.size(), b.quarantine.size());
  EXPECT_EQ(a.syslog_stats.records, b.syslog_stats.records);
  EXPECT_EQ(a.syslog_stats.malformed, b.syslog_stats.malformed);
  EXPECT_EQ(a.coalesce_stats.tuples, b.coalesce_stats.tuples);
  EXPECT_EQ(a.reconstruct_stats.runs, b.reconstruct_stats.runs);
}

TEST(BundleCache, ColdWarmAndUncachedReportsAreByteIdentical) {
  const CachedBundle cb = MakeCachedBundle("coldwarm", 101);

  const LogDiver uncached(cb.machine, {});
  auto baseline = uncached.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->cache_outcome, CacheOutcome::kDisabled);
  EXPECT_GT(baseline->quarantine.size(), 0u);  // the bundle really is dirty

  const LogDiver diver(cb.machine, CachedConfig(cb));
  auto cold = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->cache_outcome, CacheOutcome::kMiss);
  EXPECT_NE(FindBundleEntry(cb.cache_dir), "");

  auto warm = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->cache_outcome, CacheOutcome::kHit);
  EXPECT_TRUE(warm->cache_note.empty()) << warm->cache_note;

  ExpectSameAnalysis(*baseline, *cold);
  ExpectSameAnalysis(*baseline, *warm);

  fs::remove_all(cb.bundle_dir);
  fs::remove_all(cb.cache_dir);
}

TEST(BundleCache, AnalysisConfigChangeIsARecordsHitWithFreshTail) {
  const CachedBundle cb = MakeCachedBundle("recordshit", 102);

  {
    const LogDiver diver(cb.machine, CachedConfig(cb));
    auto cold = diver.AnalyzeBundle(cb.bundle_dir);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(cold->cache_outcome, CacheOutcome::kMiss);
  }

  // Same parse config, different analysis tail: the entry's records are
  // reusable but the memoized result is not.
  LogDiverConfig changed = CachedConfig(cb);
  changed.coalesce.tupling_window = Duration::Seconds(5);
  const LogDiver rediver(cb.machine, changed);
  auto records_hit = rediver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(records_hit.ok()) << records_hit.status().ToString();
  EXPECT_EQ(records_hit->cache_outcome, CacheOutcome::kRecordsHit);

  LogDiverConfig changed_uncached = changed;
  changed_uncached.bundle_cache_dir.clear();
  const LogDiver fresh(cb.machine, changed_uncached);
  auto baseline = fresh.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ExpectSameAnalysis(*baseline, *records_hit);

  fs::remove_all(cb.bundle_dir);
  fs::remove_all(cb.cache_dir);
}

TEST(BundleCache, TornEntryIsRejectedLoudlyAndRewritten) {
  const CachedBundle cb = MakeCachedBundle("torn", 103);
  const LogDiver diver(cb.machine, CachedConfig(cb));

  auto cold = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::string entry = FindBundleEntry(cb.cache_dir);
  ASSERT_NE(entry, "");

  // Tear the file: keep the header but only half the payload, as if a
  // writer died mid-write without the atomic rename discipline.
  const auto full_size = fs::file_size(entry);
  fs::resize_file(entry, full_size / 2);

  auto rejected = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->cache_outcome, CacheOutcome::kRejected);
  EXPECT_NE(rejected->cache_note.find("falling back"), std::string::npos)
      << rejected->cache_note;
  ExpectSameAnalysis(*cold, *rejected);

  // The rejected entry was rewritten by the fallback run.
  auto warm = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->cache_outcome, CacheOutcome::kHit);
  ExpectSameAnalysis(*cold, *warm);

  fs::remove_all(cb.bundle_dir);
  fs::remove_all(cb.cache_dir);
}

TEST(BundleCache, CorruptPayloadByteFailsTheChecksum) {
  const CachedBundle cb = MakeCachedBundle("crc", 104);
  const LogDiver diver(cb.machine, CachedConfig(cb));

  auto cold = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::string entry = FindBundleEntry(cb.cache_dir);
  ASSERT_NE(entry, "");

  // Flip one byte in the middle of the payload; size still matches, so
  // only the CRC can catch it.
  {
    std::fstream file(entry, std::ios::in | std::ios::out | std::ios::binary);
    const auto mid =
        static_cast<std::streamoff>(fs::file_size(entry) / 2);
    file.seekg(mid);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(mid);
    file.write(&byte, 1);
  }

  auto rejected = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->cache_outcome, CacheOutcome::kRejected);
  ExpectSameAnalysis(*cold, *rejected);

  fs::remove_all(cb.bundle_dir);
  fs::remove_all(cb.cache_dir);
}

TEST(BundleCache, ForeignEntryCopiedOverIsRejectedByFingerprint) {
  const CachedBundle cb = MakeCachedBundle("foreign_a", 105);
  const CachedBundle other = MakeCachedBundle("foreign_b", 999);

  const LogDiver diver(cb.machine, CachedConfig(cb));
  auto cold = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  const LogDiver other_diver(other.machine, CachedConfig(other));
  ASSERT_TRUE(other_diver.AnalyzeBundle(other.bundle_dir).ok());

  // Copy the other bundle's (internally valid) entry over this bundle's
  // path, as a confused operator syncing cache dirs might.  The embedded
  // fingerprint no longer matches the name-derived one.
  const std::string entry = FindBundleEntry(cb.cache_dir);
  const std::string foreign = FindBundleEntry(other.cache_dir);
  ASSERT_NE(entry, "");
  ASSERT_NE(foreign, "");
  fs::copy_file(foreign, entry, fs::copy_options::overwrite_existing);

  auto rejected = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->cache_outcome, CacheOutcome::kRejected);
  EXPECT_NE(rejected->cache_note.find("fingerprint"), std::string::npos)
      << rejected->cache_note;
  ExpectSameAnalysis(*cold, *rejected);

  fs::remove_all(cb.bundle_dir);
  fs::remove_all(cb.cache_dir);
  fs::remove_all(other.bundle_dir);
  fs::remove_all(other.cache_dir);
}

TEST(BundleCache, StaleFormatVersionIsRejected) {
  const CachedBundle cb = MakeCachedBundle("stale", 106);
  const LogDiver diver(cb.machine, CachedConfig(cb));

  auto cold = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::string entry = FindBundleEntry(cb.cache_dir);
  ASSERT_NE(entry, "");

  // The version u32 sits right after the 8-byte magic; bump it as a
  // future format would.
  {
    std::fstream file(entry, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(8);
    const std::uint8_t future = static_cast<std::uint8_t>(
        cache::kBundleCacheVersion + 1);
    file.write(reinterpret_cast<const char*>(&future), 1);
  }

  auto rejected = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->cache_outcome, CacheOutcome::kRejected);
  EXPECT_NE(rejected->cache_note.find("version"), std::string::npos)
      << rejected->cache_note;
  ExpectSameAnalysis(*cold, *rejected);

  fs::remove_all(cb.bundle_dir);
  fs::remove_all(cb.cache_dir);
}

std::vector<std::uint8_t> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

std::uint64_t GetLe(const std::uint8_t* at, int width) {
  std::uint64_t v = 0;
  for (int i = width - 1; i >= 0; --i) v = v << 8 | at[i];
  return v;
}

/// A published entry taken apart, so a test can rewrite its payload and
/// frame it again with WriteDurableFile (and so a valid CRC).
struct EntryFile {
  FileFormat format{};
  std::uint64_t fingerprint = 0;
  std::vector<std::uint8_t> payload;
};

EntryFile ReadEntry(const std::string& path) {
  const std::vector<std::uint8_t> bytes = ReadWholeFile(path);
  EntryFile entry;
  std::copy_n(bytes.begin(), entry.format.magic.size(),
              entry.format.magic.begin());
  entry.format.version = static_cast<std::uint32_t>(GetLe(&bytes[8], 4));
  entry.fingerprint = GetLe(&bytes[24], 8);
  entry.payload.assign(bytes.begin() + kFileHeaderSize, bytes.end());
  return entry;
}

TEST(BundleCache, ImpossibleReportRowCountIsRejectedNotAllocated) {
  // An entry whose CRC is valid but whose summary claims 2^32-1 outcome
  // rows: the count is refused before any row is allocated, and the run
  // falls back to the text parse.
  const CachedBundle cb = MakeCachedBundle("rowcount", 108);
  const LogDiver diver(cb.machine, CachedConfig(cb));
  auto cold = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::string entry = FindBundleEntry(cb.cache_dir);
  ASSERT_NE(entry, "");
  EntryFile file = ReadEntry(entry);
  std::vector<std::uint8_t>& payload = file.payload;
  // Kind u8, parse key u64, records length u64, the records, has-result
  // u8, analysis key u64; then the summary's report: total runs u64 and
  // four f64 ahead of the outcome-row count.
  const std::size_t rows_at = 17 + GetLe(&payload[9], 8) + 9 + 40;
  ASSERT_EQ(GetLe(&payload[rows_at], 4), cold->metrics.outcomes.size());
  std::fill_n(payload.begin() + static_cast<std::ptrdiff_t>(rows_at), 4, 0xFF);
  ASSERT_TRUE(
      WriteDurableFile(entry, file.format, payload, file.fingerprint).ok());

  auto rejected = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->cache_outcome, CacheOutcome::kRejected);
  EXPECT_NE(rejected->cache_note.find("falling back"), std::string::npos)
      << rejected->cache_note;
  ExpectSameAnalysis(*cold, *rejected);

  fs::remove_all(cb.bundle_dir);
  fs::remove_all(cb.cache_dir);
}

std::vector<std::uint8_t> VarintBytes(std::uint64_t v) {
  SnapshotWriter w;
  w.Varint(v);
  return w.TakeBytes();
}

TEST(BundleCache, ImpossibleSectionRowCountsAreRejectedNotAllocated) {
  // Each section's row count, and a symbol table's, rewritten inside a
  // real entry whose CRC stays valid: once to the bytes left after it
  // (a check that allows a row per byte lets that through), once to its
  // width's maximum.  Each must be refused at the count, before a row
  // is sized by it, and the run falls back to the text parse.
  const CachedBundle cb = MakeCachedBundle("sectioncounts", 109);
  const LogDiver diver(cb.machine, CachedConfig(cb));
  auto cold = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::string entry = FindBundleEntry(cb.cache_dir);
  ASSERT_NE(entry, "");
  const EntryFile file = ReadEntry(entry);
  const std::vector<std::uint8_t>& payload = file.payload;

  // Kind u8, parse key u64, records length u64, the records; has-result
  // u8, analysis key u64, the result.
  const std::size_t records_at = 17;
  const std::size_t records_end = records_at + GetLe(&payload[9], 8);
  const std::size_t result_at = records_end + 9;
  const std::uint64_t parse_key = GetLe(&payload[1], 8);
  const std::uint64_t analysis_key = GetLe(&payload[records_end + 1], 8);

  // The entry's own rows, read back through both kinds of hit.
  const cache::BundleCache bundle_cache(cb.cache_dir);
  auto hit = bundle_cache.Load({file.fingerprint, parse_key, analysis_key});
  auto records_hit =
      bundle_cache.Load({file.fingerprint, parse_key, analysis_key + 1});
  ASSERT_TRUE(hit.ok() && hit->result.has_value());
  ASSERT_TRUE(records_hit.ok());
  const ParsedLogs& parsed = records_hit->parsed;
  const AnalysisResult& result = *hit->result;
  ASSERT_FALSE(parsed.torque.empty() || parsed.alps.empty() ||
               parsed.errors.empty() || result.runs.empty() ||
               result.classified.empty() || result.tuples.empty());

  // A section's size is what it adds to an encoding whose sections are
  // all empty, plus what it takes empty: its count, 12 bytes per symbol
  // column (table and index counts), and for ALPS the offsets array
  // {0} and the entry count.
  const auto records_size = [](const ParsedLogs& p) {
    return cache::BundleCache::EncodeParsed(p).size();
  };
  const std::size_t no_records = records_size(ParsedLogs());
  ParsedLogs only_torque;
  only_torque.torque = parsed.torque;
  ParsedLogs only_alps;
  only_alps.alps = parsed.alps;
  const std::size_t torque_at = records_at;
  const std::size_t alps_at =
      torque_at + records_size(only_torque) - no_records + 8 + 2 * 12;
  const std::size_t errors_at =
      alps_at + records_size(only_alps) - no_records + 8 + 12 + 16 + 8;
  // The user table's u32 count follows the kind, time and jobid columns.
  const std::size_t users_at = torque_at + 8 + 17 * parsed.torque.size();
  std::set<std::string_view> users;
  for (const TorqueRecord& rec : parsed.torque) users.insert(rec.user.view());

  const auto result_size = [&](const AnalysisResult& r) {
    const std::string dir = cb.cache_dir + "_sizes";
    fs::remove_all(dir);
    const cache::BundleCache sizes(dir);
    EXPECT_TRUE(sizes.Store({1, 2, 3}, cache::BundleCache::EncodeParsed(
                                           ParsedLogs()), r).ok());
    const std::size_t size = fs::file_size(sizes.BundlePath(1)) -
                             kFileHeaderSize - records_at - no_records - 9;
    fs::remove_all(dir);
    return size;
  };
  AnalysisResult no_rows = result;
  no_rows.runs.clear();
  no_rows.classified.clear();
  no_rows.tuples.clear();
  AnalysisResult only_runs = no_rows;
  only_runs.runs = result.runs;
  // Empty, runs take a varint count and two symbol columns, classified
  // runs a u64 count, tuples a varint count and one symbol column.
  const std::size_t empty_runs = 1 + 2 * 12;
  const std::size_t runs_at =
      result_at + result_size(no_rows) - empty_runs - 8 - (1 + 12);
  const std::size_t classified_at =
      runs_at + result_size(only_runs) - result_size(no_rows) + empty_runs;
  // A classified run is a u32, two u8 and a u64.
  const std::size_t tuples_at =
      classified_at + 8 + 14 * result.classified.size();

  struct Site {
    const char* name;
    std::size_t at;
    int width;  // 4 or 8 bytes; 0 for a varint
    std::size_t rows;
    bool in_records;
  };
  const Site sites[] = {
      {"torque", torque_at, 8, parsed.torque.size(), true},
      {"torque users", users_at, 4, users.size(), true},
      {"alps", alps_at, 8, parsed.alps.size(), true},
      {"errors", errors_at, 8, parsed.errors.size(), true},
      {"runs", runs_at, 0, result.runs.size(), false},
      {"classified", classified_at, 8, result.classified.size(), false},
      {"tuples", tuples_at, 0, result.tuples.size(), false},
  };
  for (const Site& site : sites) {
    SnapshotReader count(&payload[site.at], payload.size() - site.at);
    const std::uint64_t rows =
        site.width == 0 ? count.Varint() : GetLe(&payload[site.at], site.width);
    const std::size_t width =
        site.width != 0 ? static_cast<std::size_t>(site.width)
                        : payload.size() - site.at - count.remaining();
    ASSERT_EQ(rows, site.rows) << site.name;
    const std::size_t end = site.in_records ? records_end : payload.size();
    const std::uint64_t most = site.width == 4 ? 0xFFFFFFFFull : ~0ull;
    for (const std::uint64_t claim : {end - site.at - width, most}) {
      std::vector<std::uint8_t> bad = payload;
      // Without a memoized result a load decodes the records section.
      if (site.in_records) bad[records_end] = 0;
      std::vector<std::uint8_t> bytes = VarintBytes(claim);
      if (site.width != 0) {
        bytes.resize(site.width);
        for (int i = 0; i < site.width; ++i) {
          bytes[i] = static_cast<std::uint8_t>(claim >> (8 * i));
        }
      }
      const auto at = bad.begin() + static_cast<std::ptrdiff_t>(site.at);
      bad.insert(bad.erase(at, at + static_cast<std::ptrdiff_t>(width)),
                 bytes.begin(), bytes.end());
      ASSERT_TRUE(
          WriteDurableFile(entry, file.format, bad, file.fingerprint).ok());

      auto rejected = diver.AnalyzeBundle(cb.bundle_dir);
      ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
      EXPECT_EQ(rejected->cache_outcome, CacheOutcome::kRejected)
          << site.name << " claims " << claim;
      EXPECT_NE(rejected->cache_note.find("exceeds the payload"),
                std::string::npos)
          << site.name << " claims " << claim << ": " << rejected->cache_note;
      ExpectSameAnalysis(*cold, *rejected);
    }
  }

  fs::remove_all(cb.bundle_dir);
  fs::remove_all(cb.cache_dir);
}

TEST(BundleCache, RowBoundsAdmitSectionsOfDefaultRows) {
  // A row bound must never refuse a valid entry: a section of many
  // default rows (empty symbols and node lists, zero times) and nothing
  // after it still loads, in each of the six sections.
  const std::string dir = ::testing::TempDir() + "/ld_bc_row_bounds";
  constexpr std::size_t kRows = 5000;
  for (int section = 0; section < 6; ++section) {
    fs::remove_all(dir);
    const cache::BundleCache cache(dir);
    ParsedLogs parsed;
    AnalysisResult result;
    switch (section) {
      case 0: parsed.torque.resize(kRows); break;
      case 1: parsed.alps.resize(kRows); break;
      case 2: parsed.errors.resize(kRows); break;
      case 3: result.runs.resize(kRows); break;
      case 4: result.classified.resize(kRows); break;
      default: result.tuples.resize(kRows); break;
    }
    const cache::CacheKeys keys{0x1234, 0x5678, 1};
    ASSERT_TRUE(
        cache.Store(keys, cache::BundleCache::EncodeParsed(parsed), result)
            .ok());
    auto hit = cache.Load(keys);
    ASSERT_TRUE(hit.ok()) << section << ": " << hit.status().ToString();
    ASSERT_TRUE(hit->result.has_value());
    EXPECT_EQ(hit->result->runs.size() + hit->result->classified.size() +
                  hit->result->tuples.size(),
              section < 3 ? 0 : kRows);
    auto records_hit = cache.Load({0x1234, 0x5678, 2});
    ASSERT_TRUE(records_hit.ok())
        << section << ": " << records_hit.status().ToString();
    EXPECT_EQ(records_hit->parsed.torque.size() +
                  records_hit->parsed.alps.size() +
                  records_hit->parsed.errors.size(),
              section < 3 ? kRows : 0);
  }
  fs::remove_all(dir);
}

TEST(BundleCache, CrossKindFilesFailTheMagicCheck) {
  // Snapshots and cache entries share one header layout and validator;
  // the magic tells them apart.  A file of one kind under the other's
  // name must fail that very first check, even when every other header
  // field is intact.
  const CachedBundle cb = MakeCachedBundle("crosskind", 107);
  const LogDiver diver(cb.machine, CachedConfig(cb));
  auto cold = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::string entry = FindBundleEntry(cb.cache_dir);
  ASSERT_NE(entry, "");

  std::vector<std::uint8_t> bytes(fs::file_size(entry));
  {
    std::ifstream file(entry, std::ios::binary);
    file.read(reinterpret_cast<char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  std::uint64_t fingerprint = 0;
  for (int i = 7; i >= 0; --i) fingerprint = fingerprint << 8 | bytes[24 + i];
  const std::vector<std::uint8_t> payload(bytes.begin() + kFileHeaderSize,
                                          bytes.end());

  // A cache entry copied into a snapshot directory as the newest
  // generation: rejected, and the store falls back to the older one.
  const std::string snap_dir = cb.cache_dir + "_snapshots";
  fs::remove_all(snap_dir);
  SnapshotStore store(snap_dir);
  ASSERT_TRUE(store.Write({1, 2, 3}, fingerprint).ok());
  fs::copy_file(entry, store.PathFor(2));
  auto read = ReadSnapshotFile(store.PathFor(2));
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("magic"), std::string::npos)
      << read.status().ToString();
  std::vector<std::uint8_t> loaded_payload;
  auto loaded = store.LoadLatest(
      fingerprint, [&loaded_payload](std::span<const std::uint8_t> bytes) {
        loaded_payload.assign(bytes.begin(), bytes.end());
        return Status::Ok();
      });
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(loaded->rejected, 1u);
  EXPECT_EQ(loaded_payload, (std::vector<std::uint8_t>{1, 2, 3}));

  // The same payload and fingerprint framed as a snapshot, over the
  // cache entry's path: rejected, with the text-parse fallback.
  ASSERT_TRUE(WriteSnapshotFile(entry, payload, fingerprint).ok());
  auto rejected = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->cache_outcome, CacheOutcome::kRejected);
  EXPECT_NE(rejected->cache_note.find("magic"), std::string::npos)
      << rejected->cache_note;
  ExpectSameAnalysis(*cold, *rejected);

  fs::remove_all(snap_dir);
  fs::remove_all(cb.bundle_dir);
  fs::remove_all(cb.cache_dir);
}

TEST(BundleCache, LinesFingerprintMatchesBundlePartitionFingerprint) {
  const CachedBundle cb = MakeCachedBundle("fp", 107);

  // Read the bundle the simple way and fingerprint the in-memory lines.
  LogSet logs;
  std::vector<std::string>* dests[kNumLogSources] = {&logs.torque, &logs.alps,
                                                     &logs.syslog, &logs.hwerr};
  const char* names[kNumLogSources] = {"torque.log", "alps.log", "syslog.log",
                                       "hwerr.log"};
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    std::ifstream in(cb.bundle_dir + "/" + names[s]);
    std::string line;
    while (std::getline(in, line)) dests[s]->push_back(line);
  }
  const LogSetView views(logs);

  const StreamInputs inputs = StreamInputs::FromBundleDir(cb.bundle_dir);
  for (const std::uint32_t shards : {0u, 1u, 3u}) {
    auto from_files = BundlePartitionFingerprint(inputs, shards);
    ASSERT_TRUE(from_files.ok()) << from_files.status().ToString();
    EXPECT_EQ(cache::LinesFingerprint(views, shards), *from_files)
        << "shard_count=" << shards;
  }

  fs::remove_all(cb.bundle_dir);
  fs::remove_all(cb.cache_dir);
}

TEST(BundleCache, V1EntryIsRejectedAsStaleAndRewritten) {
  const CachedBundle cb = MakeCachedBundle("v1stale", 110);
  const LogDiver diver(cb.machine, CachedConfig(cb));

  auto cold = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::string entry = FindBundleEntry(cb.cache_dir);
  ASSERT_NE(entry, "");

  // Stamp the entry as format v1 (the pre-compaction layout), then as
  // v3 (a memoized result without duplicate_job_records), then as v4
  // (records with job-name and command columns).  The version u32 sits
  // after the 8-byte magic and outside the payload CRC, so this is
  // exactly what a leftover entry looks like to this build: the version
  // gate must reject it before any column decoding.
  for (const std::uint32_t stale_version : {1u, 3u, 4u}) {
    {
      std::fstream file(entry,
                        std::ios::in | std::ios::out | std::ios::binary);
      file.seekp(8);
      file.write(reinterpret_cast<const char*>(&stale_version),
                 sizeof(stale_version));
    }

    auto rejected = diver.AnalyzeBundle(cb.bundle_dir);
    ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
    EXPECT_EQ(rejected->cache_outcome, CacheOutcome::kRejected);
    EXPECT_NE(rejected->cache_note.find("version"), std::string::npos)
        << rejected->cache_note;
    ExpectSameAnalysis(*cold, *rejected);

    // The fallback text parse rewrote the entry in the current format.
    auto warm = diver.AnalyzeBundle(cb.bundle_dir);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(warm->cache_outcome, CacheOutcome::kHit);
    ExpectSameAnalysis(*cold, *warm);
  }

  fs::remove_all(cb.bundle_dir);
  fs::remove_all(cb.cache_dir);
}

// Identical small bundle entries (an empty record section, a default
// memoized result) under distinct fingerprints, so every entry has the
// same size and cap arithmetic is exact.
cache::CacheKeys SmallKeys(std::uint64_t fp) {
  cache::CacheKeys keys;
  keys.input_fingerprint = fp;
  keys.parse_key = 7;
  keys.analysis_key = 11;
  return keys;
}

Status StoreSmallEntry(const cache::BundleCache& bundle_cache,
                       std::uint64_t fp) {
  static const std::vector<std::uint8_t> parsed =
      cache::BundleCache::EncodeParsed(ParsedLogs());
  return bundle_cache.Store(SmallKeys(fp), parsed, AnalysisResult());
}

TEST(BundleCache, CapEvictsLeastRecentlyUsedNotLeastRecentlyWritten) {
  const std::string dir = ::testing::TempDir() + "/ld_bc_lru";
  fs::remove_all(dir);

  // Three identical-size entries, written unbounded.
  const cache::BundleCache unbounded(dir);
  EXPECT_EQ(unbounded.max_bytes(), 0u);
  for (const std::uint64_t fp : {1ull, 2ull, 3ull}) {
    ASSERT_TRUE(StoreSmallEntry(unbounded, fp).ok());
  }
  const std::uint64_t entry_size = fs::file_size(unbounded.BundlePath(1));
  ASSERT_GT(entry_size, 0u);

  // Stamp distinct write times (1 oldest), then *use* entry 1: a load
  // touches the mtime, so recency must follow use, not write order.
  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(unbounded.BundlePath(1), now - std::chrono::hours(3));
  fs::last_write_time(unbounded.BundlePath(2), now - std::chrono::hours(2));
  fs::last_write_time(unbounded.BundlePath(3), now - std::chrono::hours(1));
  ASSERT_TRUE(unbounded.Load(SmallKeys(1)).ok());

  // Startup trim at two entries' worth: entry 2 is now the LRU victim.
  const cache::BundleCache capped(dir, 2 * entry_size);
  EXPECT_EQ(capped.max_bytes(), 2 * entry_size);
  EXPECT_TRUE(fs::exists(capped.BundlePath(1)));
  EXPECT_FALSE(fs::exists(capped.BundlePath(2)));
  EXPECT_TRUE(fs::exists(capped.BundlePath(3)));

  // Survivors still load as clean hits; the evicted entry is a clean
  // miss — never a wrong or stale answer.
  EXPECT_TRUE(capped.Load(SmallKeys(1)).ok());
  EXPECT_TRUE(capped.Load(SmallKeys(3)).ok());
  EXPECT_EQ(capped.Load(SmallKeys(2)).status().code(),
            StatusCode::kNotFound);

  // A store through the capped cache evicts again, LRU-first: entry 3
  // (stamped an hour old) loses to the just-used 1 and just-written 4.
  fs::last_write_time(capped.BundlePath(3), now - std::chrono::hours(1));
  ASSERT_TRUE(StoreSmallEntry(capped, 4).ok());
  EXPECT_TRUE(fs::exists(capped.BundlePath(1)));
  EXPECT_FALSE(fs::exists(capped.BundlePath(3)));
  EXPECT_TRUE(fs::exists(capped.BundlePath(4)));
  EXPECT_TRUE(capped.Load(SmallKeys(4)).ok());

  fs::remove_all(dir);
}

TEST(BundleCache, StaleClaimsFileIsEvictedLikeAnyColdEntry) {
  // Older builds also wrote claims-<fp>.ldpbc entries.  Nothing reads
  // them any more; they count against the cap and go LRU-first.
  const std::string dir = ::testing::TempDir() + "/ld_bc_stale_claims";
  fs::remove_all(dir);
  const cache::BundleCache unbounded(dir);
  for (const std::uint64_t fp : {1ull, 2ull}) {
    ASSERT_TRUE(StoreSmallEntry(unbounded, fp).ok());
  }
  const std::uint64_t entry_size = fs::file_size(unbounded.BundlePath(1));
  const std::string stale = dir + "/claims-0000000000000001.ldpbc";
  {
    std::ofstream out(stale, std::ios::binary);
    out << std::string(entry_size, 'x');
  }
  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(stale, now - std::chrono::hours(3));

  const cache::BundleCache capped(dir, 2 * entry_size);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(capped.Load(SmallKeys(1)).ok());
  EXPECT_TRUE(capped.Load(SmallKeys(2)).ok());

  fs::remove_all(dir);
}

TEST(BundleCache, ConcurrentCappedWritersEndUnderCapWithValidEntries) {
  const std::string dir = ::testing::TempDir() + "/ld_bc_cap_race";
  fs::remove_all(dir);

  // Size one entry, then cap the directory at two entries' worth.
  std::uint64_t entry_size = 0;
  {
    const cache::BundleCache sizer(dir);
    ASSERT_TRUE(StoreSmallEntry(sizer, 999).ok());
    entry_size = fs::file_size(sizer.BundlePath(999));
    fs::remove(sizer.BundlePath(999));
  }
  const std::uint64_t cap = 2 * entry_size;

  // Two processes each publish four entries into the capped directory;
  // stores and evictions interleave freely.
  pid_t pids[2];
  for (int child = 0; child < 2; ++child) {
    pids[child] = fork();
    ASSERT_GE(pids[child], 0);
    if (pids[child] == 0) {
      const cache::BundleCache mine(dir, cap);
      for (std::uint64_t i = 0; i < 4; ++i) {
        const std::uint64_t fp =
            10 * static_cast<std::uint64_t>(child + 1) + i;
        if (!StoreSmallEntry(mine, fp).ok()) _exit(1);
      }
      _exit(0);
    }
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  // The last store's eviction pass ran after the last publish, so the
  // directory ends at or under the cap, with no writer litter, and
  // every surviving entry loads clean.
  const cache::BundleCache reader(dir, cap);
  std::uint64_t total = 0;
  std::size_t survivors = 0;
  for (const auto& item : fs::directory_iterator(dir)) {
    const std::string name = item.path().filename().string();
    EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
    ASSERT_EQ(item.path().extension(), ".ldpbc") << name;
    total += fs::file_size(item.path());
    ++survivors;
    const std::uint64_t fp =
        std::stoull(name.substr(7, 16), nullptr, 16);
    auto loaded = reader.Load(SmallKeys(fp));
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
  }
  EXPECT_LE(total, cap);
  EXPECT_GE(survivors, 1u);

  fs::remove_all(dir);
}

TEST(BundleCache, TwoConcurrentColdWritersNeverTearTheEntry) {
  const CachedBundle cb = MakeCachedBundle("race", 109);

  // Two processes race the same cold analysis into one cache directory;
  // whichever rename lands last wins, and both produce valid entries.
  pid_t pids[2];
  for (pid_t& pid : pids) {
    pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const LogDiver diver(cb.machine, CachedConfig(cb));
      auto result = diver.AnalyzeBundle(cb.bundle_dir);
      _exit(result.ok() ? 0 : 1);
    }
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  // No tmp files left behind, and the surviving entry is a clean hit.
  for (const auto& entry : fs::directory_iterator(cb.cache_dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
  }
  const LogDiver diver(cb.machine, CachedConfig(cb));
  auto warm = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->cache_outcome, CacheOutcome::kHit);

  const LogDiver uncached(cb.machine, {});
  auto baseline = uncached.AnalyzeBundle(cb.bundle_dir);
  ASSERT_TRUE(baseline.ok());
  ExpectSameAnalysis(*baseline, *warm);

  fs::remove_all(cb.bundle_dir);
  fs::remove_all(cb.cache_dir);
}

// The records section of a v5 entry, pinned byte for byte: any change
// to the error-records layout must come with a kBundleCacheVersion bump
// (and a new pin), never silently reinterpret an existing entry.
ParsedLogs PinnedParsedLogs() {
  ParsedLogs parsed;
  const auto add = [&parsed](std::int64_t t, ErrorCategory category,
                             Severity severity, LocScope scope,
                             std::string_view location, LogSource source,
                             std::optional<std::int64_t> recovered) {
    ErrorRecord rec;
    rec.time = TimePoint(t);
    rec.category = category;
    rec.severity = severity;
    rec.scope = scope;
    rec.location = Intern(location);
    rec.source = source;
    if (recovered) rec.recovered = TimePoint(*recovered);
    parsed.errors.push_back(rec);
  };
  add(1370000000, ErrorCategory::kMachineCheck, Severity::kFatal,
      LocScope::kNode, "c0-0c0s1n2", LogSource::kSyslog, std::nullopt);
  add(1370000060, ErrorCategory::kLustre, Severity::kFatal, LocScope::kSystem,
      "", LogSource::kSyslog, 1370003600);
  add(1369999990, ErrorCategory::kGeminiLink, Severity::kDegraded,
      LocScope::kGemini, "c0-0c0s1g1", LogSource::kHwerr, std::nullopt);
  add(1370000120, ErrorCategory::kBladeFault, Severity::kCorrected,
      LocScope::kBlade, "c0-0c0s1", LogSource::kTorque, std::nullopt);
  add(1370000180, ErrorCategory::kMachineCheck, Severity::kCorrected,
      LocScope::kNode, "c0-0c0s1n2", LogSource::kAlps, std::nullopt);
  parsed.syslog_stats = ParseStats{7, 3, 2, 2};
  parsed.hwerr_stats = ParseStats{1, 1, 0, 0};
  return parsed;
}

std::string Hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

TEST(BundleCache, ErrorRecordsSectionBytesArePinned) {
  // Recorded from the v5 encoder; torque and alps sections are empty.
  const std::string want =
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000010000000000000000000000"
      "00000000000000000000000005000000000000000500000000000000808aa851"
      "00000000bc8aa85100000000768aa85100000000f88aa85100000000348ba851"
      "0000000005000000000000000005040700050000000000000002020100000500"
      "000000000000000302010005000000000000000202030001040000000a000000"
      "63302d30633073316e32000000000a00000063302d3063307331673108000000"
      "63302d3063307331050000000000000000000000010000000200000003000000"
      "0000000005000000000000000001000000050000000000000000000000000000"
      "009098a851000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0007000000000000000300000000000000020000000000000002000000000000"
      "0001000000000000000100000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "000000000000000000000000000000000000000000";
  const std::vector<std::uint8_t> bytes =
      cache::BundleCache::EncodeParsed(PinnedParsedLogs());
  EXPECT_EQ(Hex(bytes), want);

  // The pinned bytes also decode: a records hit re-encodes to the same
  // bytes.
  const std::string dir = ::testing::TempDir() + "/ld_bc_pinned";
  fs::remove_all(dir);
  const cache::BundleCache cache(dir);
  const cache::CacheKeys stored{0x1234, 0x5678, 1};
  ASSERT_TRUE(cache.Store(stored, bytes, AnalysisResult{}).ok());
  const cache::CacheKeys other_tail{0x1234, 0x5678, 2};
  auto loaded = cache.Load(other_tail);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->result.has_value());
  EXPECT_EQ(Hex(cache::BundleCache::EncodeParsed(loaded->parsed)), want);
  fs::remove_all(dir);
}

TEST(BundleCache, TupleWithMoreThanFourNodesIsRejected) {
  // A memoized tuple row whose node list holds 5 entries: the entry is
  // well-formed (CRC and size fixed up), but no location resolves to
  // more than 4 nodes, so the decoder must reject it.
  const std::string dir = ::testing::TempDir() + "/ld_bc_fat_tuple";
  fs::remove_all(dir);
  const cache::BundleCache cache(dir);
  const cache::CacheKeys keys{0x1234, 0x5678, 1};
  AnalysisResult result;
  ErrorTuple tuple;
  tuple.id = 1;
  tuple.scope = LocScope::kBlade;
  tuple.nodes = {91, 92, 93, 94};
  tuple.count = 1;
  result.tuples.push_back(tuple);
  ASSERT_TRUE(
      cache.Store(keys, cache::BundleCache::EncodeParsed(ParsedLogs()), result)
          .ok());
  ASSERT_TRUE(cache.Load(keys).ok());

  const std::string path = cache.BundlePath(keys.input_fingerprint);
  std::vector<std::uint8_t> file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), {});
  }
  // The node CSR: row length 4, then the varint entries 91..94.
  const std::vector<std::uint8_t> csr = {4, 91, 92, 93, 94};
  auto at = std::search(file.begin() + kFileHeaderSize, file.end(),
                        csr.begin(), csr.end());
  ASSERT_NE(at, file.end());
  *at = 5;
  file.insert(at + csr.size(), 95);
  const std::span<const std::uint8_t> payload(file.data() + kFileHeaderSize,
                                              file.size() - kFileHeaderSize);
  const auto put_le = [&file](std::size_t offset, std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) file[offset + i] = (v >> (8 * i)) & 0xFF;
  };
  put_le(12, Crc32(payload.data(), payload.size()), 4);
  put_le(16, payload.size(), 8);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
  }

  auto loaded = cache.Load(keys);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("tuple node list"),
            std::string::npos)
      << loaded.status().ToString();
  fs::remove_all(dir);
}

// A whole v5 entry built by hand: both record sections and a memoized
// result that exercise every column kind (empty and multi-node ALPS
// placements, every error field, node lists, set and unset recovery
// times, a classified run, a quarantine entry).
ParsedLogs PinnedEntryParsed() {
  ParsedLogs parsed = PinnedParsedLogs();
  TorqueRecord start;
  start.kind = TorqueRecord::Kind::kStart;
  start.time = TimePoint(1369990000);
  start.jobid = 7001;
  start.user = Intern("alice");
  start.queue = Intern("normal");
  start.submit = TimePoint(1369980000);
  start.start = TimePoint(1369990000);
  start.nodect = 4;
  start.walltime_limit = Duration(7200);
  TorqueRecord end = start;
  end.kind = TorqueRecord::Kind::kEnd;
  end.time = TimePoint(1369995000);
  end.end = TimePoint(1369995000);
  end.exit_status = 271;
  end.walltime_used = Duration(5000);
  parsed.torque = {start, end};

  AlpsRecord empty_place;
  empty_place.kind = AlpsRecord::Kind::kPlace;
  empty_place.time = TimePoint(1369990010);
  empty_place.apid = 900001;
  empty_place.jobid = 7001;
  empty_place.user = Intern("alice");
  AlpsRecord place = empty_place;
  place.apid = 900002;
  place.nids = {3, 4, 5, 130};
  place.nodect = 4;
  AlpsRecord exit;
  exit.kind = AlpsRecord::Kind::kExit;
  exit.time = TimePoint(1369994000);
  exit.apid = 900001;
  exit.exit_code = 1;
  exit.exit_signal = 11;
  AlpsRecord kill;
  kill.kind = AlpsRecord::Kind::kKill;
  kill.time = TimePoint(1369994500);
  kill.apid = 900002;
  kill.node_failure = true;
  kill.failed_nid = 130;
  parsed.alps = {empty_place, place, exit, kill};
  parsed.torque_stats = ParseStats{3, 2, 0, 1};
  parsed.alps_stats = ParseStats{4, 4, 0, 0};
  parsed.sink.Add(LogSource::kTorque, 3, "]]] broken accounting record",
                  ParseError("no record type"));
  return parsed;
}

AnalysisResult PinnedEntryResult() {
  AnalysisResult result;
  result.torque_stats = ParseStats{3, 2, 0, 1};
  result.alps_stats = ParseStats{4, 4, 0, 0};
  result.coalesce_stats.tuples = 2;
  result.reconstruct_stats.runs = 2;
  result.ingest.quarantined = 1;
  AppRun run;
  run.apid = 900001;
  run.jobid = 7001;
  run.user = Intern("alice");
  run.queue = Intern("normal");
  run.nodes = {3, 4, 5, 130};
  run.nodect = 4;
  run.start = TimePoint(1369990010);
  run.end = TimePoint(1369994000);
  run.has_termination = true;
  run.exit_code = 1;
  run.exit_signal = 11;
  run.job_submit = TimePoint(1369980000);
  run.job_start = TimePoint(1369990000);
  run.walltime_limit = Duration(7200);
  run.job_exit_status = 271;
  AppRun killed = run;
  killed.apid = 900002;
  killed.node_type = NodeType::kXK;
  killed.nodes = {130};
  killed.nodect = 1;
  killed.end = TimePoint(1369994500);
  killed.exit_code = 137;
  killed.exit_signal = 9;
  killed.killed_node_failure = true;
  killed.failed_nid = 130;
  result.runs = {run, killed};
  ErrorTuple node_tuple;
  node_tuple.id = 1;
  node_tuple.category = ErrorCategory::kMachineCheck;
  node_tuple.severity = Severity::kFatal;
  node_tuple.scope = LocScope::kBlade;
  node_tuple.location = Intern("c0-0c0s1");
  node_tuple.nodes = {4, 5, 6, 7};
  node_tuple.first = TimePoint(1369994400);
  node_tuple.last = TimePoint(1369994460);
  node_tuple.count = 3;
  node_tuple.from_syslog = true;
  ErrorTuple system_tuple;
  system_tuple.id = 2;
  system_tuple.category = ErrorCategory::kLustre;
  system_tuple.severity = Severity::kFatal;
  system_tuple.scope = LocScope::kSystem;
  system_tuple.first = TimePoint(1369994470);
  system_tuple.last = TimePoint(1369994480);
  system_tuple.recovered = TimePoint(1369998000);
  system_tuple.count = 2;
  system_tuple.from_syslog = true;
  system_tuple.from_hwerr = true;
  result.tuples = {node_tuple, system_tuple};
  ClassifiedRun classified;
  classified.run_index = 1;
  classified.outcome = AppOutcome::kSystemFailure;
  classified.cause = ErrorCategory::kMachineCheck;
  classified.tuple_id = 1;
  result.classified = {classified};
  result.quarantine = {
      {LogSource::kTorque, 3, "PARSE_ERROR: no record type",
       "]]] broken accounting record"}};
  return result;
}

// The whole entry file, pinned as written by the v5 encoder: streaming
// the entry through the durable-file writer must not move a byte.
TEST(BundleCache, EntryBytesArePinned) {
  const std::string want =
      "4c44504243484531050000007a3853952607000000000000efcdab8967452301"
      "017856000000000000d703000000000000020000000000000000017063a85100"
      "000000f876a85100000000591b000000000000591b0000000000000100000005"
      "000000616c696365020000000000000000000000000000000100000006000000"
      "6e6f726d616c02000000000000000000000000000000603ca85100000000603c"
      "a851000000007063a851000000007063a851000000000000000000000000f876"
      "a85100000000000000000f0100000400000004000000201c000000000000201c"
      "0000000000000000000000000000881300000000000004000000000000000000"
      "01027a63a851000000007a63a851000000001073a851000000000475a8510000"
      "0000a1bb0d0000000000a2bb0d0000000000a1bb0d0000000000a2bb0d000000"
      "0000591b000000000000591b0000000000000000000000000000000000000000"
      "00000200000005000000616c6963650000000004000000000000000000000000"
      "0000000100000001000000000000000400000000000000000000000500000000"
      "0000000000000000000000000000000000000004000000000000000400000000"
      "0000000400000000000000040000000000000003000000040000000500000082"
      "0000000000000000000000010000000000000000000000000000000b00000000"
      "00000000000001ffffffffffffffffffffffff82000000050000000000000005"
      "00000000000000808aa85100000000bc8aa85100000000768aa85100000000f8"
      "8aa85100000000348ba851000000000500000000000000000504070005000000"
      "0000000002020100000500000000000000000302010005000000000000000202"
      "030001040000000a00000063302d30633073316e32000000000a00000063302d"
      "306330733167310800000063302d306330733105000000000000000000000001"
      "0000000200000003000000000000000500000000000000000100000005000000"
      "0000000000000000000000009098a85100000000000000000000000000000000"
      "0000000000000000000000000300000000000000020000000000000000000000"
      "0000000001000000000000000400000000000000040000000000000000000000"
      "0000000000000000000000000700000000000000030000000000000002000000"
      "0000000002000000000000000100000000000000010000000000000000000000"
      "000000000000000000000000010000000003000000000000001b000000504152"
      "53455f4552524f523a206e6f207265636f726420747970651c0000005d5d5d20"
      "62726f6b656e206163636f756e74696e67207265636f72640100000000000000"
      "0000000000000000010000000000000000000000000000000000000000000000"
      "000000000000000001bc9a000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000f03f00000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000003000000000000"
      "0002000000000000000000000000000000010000000000000004000000000000"
      "0004000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0002000000000000000000000000000000000000000000000000000000000000"
      "0002000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0001000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000001000000000000000003"
      "000000000000001b00000050415253455f4552524f523a206e6f207265636f72"
      "6420747970651c0000005d5d5d2062726f6b656e206163636f756e74696e6720"
      "7265636f726402c2ee6d02b26d000100000005000000616c6963650200000000"
      "000000000000000000000001000000060000006e6f726d616c02000000000000"
      "00000000000000000000010401030405820182010401f48dc39a0a00a0ccc39a"
      "0ae80701030292021612ffffffff0f8201c0f1c19a0a00e08dc39a0a00c070c0"
      "709e049e04010000000000000001000000020001000000000000000202020005"
      "02020103020000000800000063302d3063307331000000000200000000000000"
      "0000000001000000040004050607c0d2c39a0a8c01b8d3c39a0a280001e08ac4"
      "9a0a03020103";
  const std::string dir = ::testing::TempDir() + "/ld_bc_entry_pinned";
  fs::remove_all(dir);
  const cache::BundleCache cache(dir);
  const cache::CacheKeys keys{0x0123456789abcdefull, 0x5678, 0x9abc};
  ASSERT_TRUE(cache
                  .Store(keys,
                         cache::BundleCache::EncodeParsed(PinnedEntryParsed()),
                         PinnedEntryResult())
                  .ok());
  EXPECT_EQ(Hex(ReadWholeFile(cache.BundlePath(keys.input_fingerprint))),
            want);
  fs::remove_all(dir);
}

std::uint64_t CounterValue(const char* name) {
  return obs::Registry::Get().GetCounter(name).Value();
}

TEST(BundleCache, EvictionDuringLoadIsAMissNotARejection) {
  const std::string dir = ::testing::TempDir() + "/ld_bc_evict_load";
  fs::remove_all(dir);
  std::uint64_t entry_size = 0;
  {
    const cache::BundleCache sizer(dir);
    ASSERT_TRUE(StoreSmallEntry(sizer, 31).ok());
    entry_size = fs::file_size(sizer.BundlePath(31));
    fs::remove(sizer.BundlePath(31));
  }
  // A cap below one entry: every store evicts the entry it just wrote,
  // so a concurrent reader keeps finding it present, gone, or unlinked
  // between its lookup and its map.
  const cache::BundleCache capped(dir, entry_size - 1);
  const std::uint64_t rejected_before =
      CounterValue(obs::names::kCacheRejectedTotal);
  std::atomic<bool> done{false};
  std::atomic<int> store_failures{0};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) {
      if (!StoreSmallEntry(capped, 31).ok()) ++store_failures;
    }
    done = true;
  });
  std::uint64_t loads = 0;
  std::vector<std::string> unexpected;
  while (!done.load()) {
    auto loaded = capped.Load(SmallKeys(31));
    ++loads;
    if (!loaded.ok() && loaded.status().code() != StatusCode::kNotFound) {
      unexpected.push_back(loaded.status().ToString());
    }
  }
  writer.join();
  EXPECT_EQ(store_failures.load(), 0);
  EXPECT_GT(loads, 0u);
  EXPECT_TRUE(unexpected.empty()) << unexpected.size()
                                  << " loads rejected, first: "
                                  << unexpected.front();
  EXPECT_EQ(CounterValue(obs::names::kCacheRejectedTotal), rejected_before);
  fs::remove_all(dir);
}

TEST(BundleCache, OrphanedTmpFileOfADeadWriterIsReclaimed) {
  const std::string dir = ::testing::TempDir() + "/ld_bc_orphans";
  fs::remove_all(dir);
  const std::vector<std::uint8_t> parsed =
      cache::BundleCache::EncodeParsed(ParsedLogs());
  [[maybe_unused]] const std::uint64_t removed_before =
      CounterValue(obs::names::kCacheOrphansRemovedTotal);

  // A writer killed during the analysis tail: it began the entry, so
  // its tmp file holds the records section, and never finished.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const cache::BundleCache dying(dir);
    auto pending = dying.BeginStore(SmallKeys(41), parsed);
    _exit(pending.ok() ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
  // BundlePath(41) + the dead writer's pid; spelled out, because a
  // BundleCache on `dir` would already sweep.
  const std::string orphan = dir + "/bundle-0000000000000029.ldpbc.tmp." +
                             std::to_string(pid);
  ASSERT_TRUE(fs::exists(orphan));

  // The next cache on the directory reclaims it, uncapped as it is.
  const cache::BundleCache cache(dir);
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_EQ(CounterValue(obs::names::kCacheOrphansRemovedTotal),
            removed_before + 1);

  // A live writer's tmp file survives a sweep, and publishes.
  auto pending = cache.BeginStore(SmallKeys(42), parsed);
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  const std::string live =
      cache.BundlePath(42) + ".tmp." + std::to_string(::getpid());
  ASSERT_TRUE(fs::exists(live));
  const cache::BundleCache sweeper(dir);
  EXPECT_TRUE(fs::exists(live));
  ASSERT_TRUE(cache.FinishStore(std::move(*pending), AnalysisResult()).ok());
  EXPECT_FALSE(fs::exists(live));
  EXPECT_TRUE(cache.Load(SmallKeys(42)).ok());
  fs::remove_all(dir);
}

TEST(BundleCache, FailFastAnalysisPublishesNothing) {
  const CachedBundle cb = MakeCachedBundle("failfast", 111);
  // The dirty bundle's malformed syslog lines trip a zero budget.
  LogDiverConfig config = CachedConfig(cb);
  config.ingest.policy = DegradationPolicy::kFailFast;
  config.ingest.budget.min_malformed = 0;
  config.ingest.budget.max_malformed_fraction = 0.0;
  const LogDiver diver(cb.machine, config);
  auto result = diver.AnalyzeBundle(cb.bundle_dir);
  ASSERT_FALSE(result.ok());
  // The records section had already streamed into a tmp file; the
  // failed analysis unlinked it, so neither an entry nor a tmp remains.
  std::vector<std::string> left;
  for (const auto& item : fs::directory_iterator(cb.cache_dir)) {
    left.push_back(item.path().filename().string());
  }
  EXPECT_TRUE(left.empty()) << left.front();
  fs::remove_all(cb.bundle_dir);
  fs::remove_all(cb.cache_dir);
}

}  // namespace
}  // namespace ld
