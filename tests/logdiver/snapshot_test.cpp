#include "logdiver/snapshot.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "logdiver/streaming.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

TEST(Crc32Test, KnownVector) {
  // The CRC-32/IEEE check value: crc("123456789") == 0xCBF43926.
  const char digits[] = "123456789";
  EXPECT_EQ(Crc32(digits, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32(nullptr, 0), 0u); }

TEST(Crc32Test, ContinuesFromAPreviousCrc) {
  const char digits[] = "123456789";
  for (std::size_t split = 0; split <= 9; ++split) {
    EXPECT_EQ(Crc32(digits + split, 9 - split, Crc32(digits, split)),
              0xCBF43926u)
        << "split at " << split;
  }
}

TEST(SnapshotIoTest, VarintBytesArePinned) {
  // LEB128: low 7-bit group first, high bit set on every byte but the
  // last.
  const std::vector<std::uint8_t> nine_ff(9, 0xFF);
  std::vector<std::uint8_t> max_bytes = nine_ff;
  max_bytes.push_back(0x01);
  std::vector<std::uint8_t> top_bit(9, 0x80);
  top_bit.push_back(0x01);
  const std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>
      unsigned_cases = {{0, {0x00}},
                        {127, {0x7F}},
                        {128, {0x80, 0x01}},
                        {16383, {0xFF, 0x7F}},
                        {16384, {0x80, 0x80, 0x01}},
                        {std::uint64_t{1} << 63, top_bit},
                        {UINT64_MAX, max_bytes}};
  for (const auto& [value, bytes] : unsigned_cases) {
    SnapshotWriter w;
    w.Varint(value);
    EXPECT_EQ(w.bytes(), bytes) << value;
    SnapshotReader r(w.bytes());
    EXPECT_EQ(r.Varint(), value);
    EXPECT_TRUE(r.ok() && r.remaining() == 0) << value;
  }
  // Zigzag first: 0, -1, 1, -2, ... map to 0, 1, 2, 3, ...
  const std::vector<std::uint8_t> int64_max_bytes = {
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  const std::vector<std::pair<std::int64_t, std::vector<std::uint8_t>>>
      signed_cases = {{0, {0x00}},
                      {-1, {0x01}},
                      {1, {0x02}},
                      {-64, {0x7F}},
                      {64, {0x80, 0x01}},
                      {INT64_MIN, max_bytes},
                      {INT64_MAX, int64_max_bytes}};
  for (const auto& [value, bytes] : signed_cases) {
    SnapshotWriter w;
    w.VarintSigned(value);
    EXPECT_EQ(w.bytes(), bytes) << value;
    SnapshotReader r(w.bytes());
    EXPECT_EQ(r.VarintSigned(), value);
    EXPECT_TRUE(r.ok() && r.remaining() == 0) << value;
  }
}

// Every kind of append, enough of them to cross many chunk boundaries,
// and raw runs below, at and above the chunk size.
void WriteMixedPayload(SnapshotWriter& w) {
  for (std::uint64_t i = 0; i < 40000; ++i) {
    w.U8(static_cast<std::uint8_t>(i));
    w.U32(static_cast<std::uint32_t>(i * 2654435761u));
    w.Varint(i * i * i);
    w.VarintSigned(-static_cast<std::int64_t>(i * 977));
    if (i % 1000 == 0) {
      w.F64(static_cast<double>(i) / 3.0);
      w.Str("location-" + std::to_string(i));
    }
  }
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{5}, SnapshotWriter::kChunkBytes - 1,
        SnapshotWriter::kChunkBytes, 3 * SnapshotWriter::kChunkBytes + 11}) {
    std::vector<std::uint8_t> raw(size);
    for (std::size_t i = 0; i < size; ++i) {
      raw[i] = static_cast<std::uint8_t>(i * 31 + size);
    }
    w.Raw(raw.data(), raw.size());
    w.U64(size);
  }
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

constexpr FileFormat kTestFormat = {{'L', 'D', 'T', 'E', 'S', 'T', 0x1A, 0},
                                    3};

TEST(SnapshotIoTest, WriterOverADurableFileStreamsTheOwnedBytes) {
  SnapshotWriter owned;
  WriteMixedPayload(owned);
  const std::vector<std::uint8_t> payload = owned.TakeBytes();
  ASSERT_GT(payload.size(), 4 * SnapshotWriter::kChunkBytes);

  const std::string dir = testing::TempDir() + "durable_sink";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto file = DurableFileWriter::Open(dir + "/streamed", kTestFormat, 77);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  {
    SnapshotWriter streamed(*file);
    WriteMixedPayload(streamed);
    streamed.Flush();
  }
  ASSERT_TRUE(file->Commit().ok());
  ASSERT_TRUE(
      WriteDurableFile(dir + "/whole", kTestFormat, payload, 77).ok());
  EXPECT_EQ(ReadFileBytes(dir + "/streamed"), ReadFileBytes(dir + "/whole"));
  std::filesystem::remove_all(dir);
}

class DurableFileWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "durable_writer_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    payload_.resize(10007);
    for (std::size_t i = 0; i < payload_.size(); ++i) {
      payload_[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 7));
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::string> Listing() const {
    std::vector<std::string> names;
    for (const auto& item : std::filesystem::directory_iterator(dir_)) {
      names.push_back(item.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  std::string dir_;
  std::vector<std::uint8_t> payload_;
};

TEST_F(DurableFileWriterTest, AnyChunkingGivesTheWholePayloadFile) {
  const std::string whole = dir_ + "/whole";
  ASSERT_TRUE(
      WriteDurableFile(whole, kTestFormat, payload_, 0xABCDEF).ok());
  const std::vector<std::uint8_t> want = ReadFileBytes(whole);
  ASSERT_EQ(want.size(), kFileHeaderSize + payload_.size());
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{4096},
        payload_.size() + 1}) {
    const std::string path = dir_ + "/chunked_" + std::to_string(chunk);
    auto file = DurableFileWriter::Open(path, kTestFormat, 0xABCDEF);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    for (std::size_t at = 0; at < payload_.size(); at += chunk) {
      file->Append(std::span<const std::uint8_t>(payload_).subspan(
          at, std::min(chunk, payload_.size() - at)));
    }
    EXPECT_EQ(file->payload_size(), payload_.size());
    ASSERT_TRUE(file->Commit().ok()) << chunk;
    EXPECT_EQ(ReadFileBytes(path), want) << "chunk " << chunk;
    std::filesystem::remove(path);
  }
  EXPECT_EQ(Listing(), std::vector<std::string>{"whole"});
}

TEST_F(DurableFileWriterTest, DroppedWriterLeavesNoFile) {
  {
    auto file = DurableFileWriter::Open(dir_ + "/dropped", kTestFormat, 1);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    file->Append(payload_);
    EXPECT_EQ(Listing(), std::vector<std::string>{
                             "dropped.tmp." + std::to_string(::getpid())});
  }
  EXPECT_TRUE(Listing().empty());
}

TEST_F(DurableFileWriterTest, WriteFailurePublishesNothing) {
  // A file-size limit below the payload: write() fails with EFBIG
  // (SIGXFSZ ignored) part way through, as on a full disk.
  const std::string path = dir_ + "/too_big";
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{4096, 4096};
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) std::_Exit(2);
    auto file = DurableFileWriter::Open(path, kTestFormat, 1);
    if (!file.ok()) std::_Exit(3);
    file->Append(payload_);
    const Status committed = file->Commit();
    std::_Exit(committed.ok() ? 4 : 0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_TRUE(Listing().empty());
}

TEST(SnapshotIoTest, WriterReaderRoundTrip) {
  SnapshotWriter w;
  w.U8(0xAB);
  w.Bool(true);
  w.Bool(false);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(-1234567890123ll);
  w.F64(3.14159265358979);
  w.F64(-0.0);
  w.Time(TimePoint(1364775002));
  w.Dur(Duration::Minutes(5));
  w.Str("hello snapshot");
  w.Str("");

  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.I64(), -1234567890123ll);
  EXPECT_EQ(r.F64(), 3.14159265358979);
  const double neg_zero = r.F64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern, not value, survives
  EXPECT_EQ(r.Time(), TimePoint(1364775002));
  EXPECT_EQ(r.Dur(), Duration::Minutes(5));
  EXPECT_EQ(r.Str(), "hello snapshot");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotIoTest, TruncatedReadLatchesError) {
  SnapshotWriter w;
  w.U64(7);
  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.U64(), 7u);
  EXPECT_EQ(r.U64(), 0u);  // past the end: zero value, latched error
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);  // stays failed
  EXPECT_FALSE(r.ok());
}

TEST(SnapshotIoTest, OversizedStringPrefixFails) {
  SnapshotWriter w;
  w.U32(1000);  // length prefix pointing far past the end
  w.U8('x');
  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

// The fields of an AppRun / ErrorTuple ahead of their node count.
void PutRunHead(SnapshotWriter& w) {
  w.U64(1);       // apid
  w.U64(2);       // jobid
  w.Str("user");  // user
  w.Str("q");     // queue
  w.U8(0);        // node_type
}

void PutTupleHead(SnapshotWriter& w) {
  w.U64(1);  // id
  w.U8(0);   // category
  w.U8(2);   // severity
  w.U8(0);   // scope
  w.Str("c0-0c0s0n0");
}

TEST(SnapshotIoTest, RunNodeCountPastThePayloadFailsWithoutAllocating) {
  SnapshotWriter w;
  PutRunHead(w);
  w.U32(0xFFFFFFFFu);
  for (int i = 0; i < 64; ++i) w.U8(0);
  SnapshotReader r(w.bytes());
  AppRun run;
  r(run);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(run.nodes.empty());
}

TEST(SnapshotIoTest, TupleNodeCountPastThePayloadFails) {
  SnapshotWriter w;
  PutTupleHead(w);
  w.U32(0xFFFFFFFFu);
  for (int i = 0; i < 64; ++i) w.U8(0);
  SnapshotReader r(w.bytes());
  ErrorTuple tuple;
  r(tuple);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(tuple.nodes.empty());
}

TEST(SnapshotIoTest, TupleWithMoreThanFourNodesFails) {
  // A well-formed tuple in every other respect: no location resolves
  // to more than one blade's 4 nodes, so 5 is malformed.
  SnapshotWriter w;
  PutTupleHead(w);
  w.U32(5);
  for (std::uint32_t n = 0; n < 5; ++n) w.U32(n);
  w.Time(TimePoint(1000));  // first
  w.Time(TimePoint(1000));  // last
  w.Bool(false);            // recovered
  w.U32(1);                 // count
  w.Bool(true);             // from_syslog
  w.Bool(false);            // from_hwerr
  SnapshotReader r(w.bytes());
  ErrorTuple tuple;
  r(tuple);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("tuple node count"), std::string::npos)
      << r.status().ToString();
}

TEST(SnapshotIoTest, FourNodeTupleRoundTrips) {
  ErrorTuple tuple;
  tuple.id = 9;
  tuple.category = ErrorCategory::kBladeFault;
  tuple.severity = Severity::kFatal;
  tuple.scope = LocScope::kBlade;
  tuple.location = Intern("c0-0c0s1");
  tuple.nodes = {4, 5, 6, 7};
  tuple.first = TimePoint(100);
  tuple.last = TimePoint(160);
  tuple.recovered = TimePoint(900);
  tuple.count = 3;
  tuple.from_hwerr = true;
  SnapshotWriter w;
  w(tuple);
  SnapshotReader r(w.bytes());
  ErrorTuple back;
  r(back);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(back.nodes, tuple.nodes);
  EXPECT_EQ(back.recovered, tuple.recovered);
  EXPECT_EQ(back.count, 3u);
}

class SnapshotFileTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) const {
    return testing::TempDir() + "snapshot_file_test_" + name;
  }
};

TEST_F(SnapshotFileTest, WriteReadRoundTrip) {
  const std::string path = Path("roundtrip.ldsnap");
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 250, 251, 252};
  ASSERT_TRUE(WriteSnapshotFile(path, payload).ok());
  auto read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
  std::filesystem::remove(path);
}

TEST_F(SnapshotFileTest, TornFileIsRejected) {
  const std::string path = Path("torn.ldsnap");
  const std::vector<std::uint8_t> payload(100, 0x5A);
  ASSERT_TRUE(WriteSnapshotFile(path, payload).ok());
  std::filesystem::resize_file(path, 40);  // cut into the payload
  auto read = ReadSnapshotFile(path);
  EXPECT_FALSE(read.ok());
  std::filesystem::remove(path);
}

TEST_F(SnapshotFileTest, BitFlipIsRejected) {
  const std::string path = Path("bitflip.ldsnap");
  const std::vector<std::uint8_t> payload(100, 0x5A);
  ASSERT_TRUE(WriteSnapshotFile(path, payload).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(50);
    f.put(static_cast<char>(0xA5));
  }
  auto read = ReadSnapshotFile(path);
  EXPECT_FALSE(read.ok());
  std::filesystem::remove(path);
}

TEST_F(SnapshotFileTest, GarbageIsRejectedNotCrashed) {
  const std::string path = Path("garbage.ldsnap");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a snapshot at all";
  }
  EXPECT_FALSE(ReadSnapshotFile(path).ok());
  std::filesystem::remove(path);
}

/// A LoadLatest decoder that keeps a copy of the accepted payload.
auto CopyInto(std::vector<std::uint8_t>& out) {
  return [&out](std::span<const std::uint8_t> bytes) {
    out.assign(bytes.begin(), bytes.end());
    return Status::Ok();
  };
}

TEST(SnapshotStoreTest, FallsBackPastCorruptNewest) {
  const std::string dir = testing::TempDir() + "snapshot_store_fallback";
  std::filesystem::remove_all(dir);
  SnapshotStore store(dir);
  const std::vector<std::uint8_t> old_payload = {1, 1, 1};
  const std::vector<std::uint8_t> new_payload = {2, 2, 2};
  ASSERT_TRUE(store.Write(old_payload).ok());
  auto gen2 = store.Write(new_payload);
  ASSERT_TRUE(gen2.ok());

  std::filesystem::resize_file(store.PathFor(*gen2), 10);  // tear it
  std::vector<std::uint8_t> payload;
  auto loaded = store.LoadLatest(0, CopyInto(payload));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(payload, old_payload);
  EXPECT_EQ(loaded->generation, *gen2 - 1);
  EXPECT_EQ(loaded->rejected, 1u);
  std::filesystem::remove_all(dir);
}

TEST_F(SnapshotFileTest, FingerprintRoundTripsThroughTheHeader) {
  const std::string path = Path("fingerprint.ldsnap");
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  ASSERT_TRUE(WriteSnapshotFile(path, payload, 0xFEEDFACE12345678ull).ok());
  std::uint64_t fingerprint = 0;
  auto read = ReadSnapshotFile(path, &fingerprint);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
  EXPECT_EQ(fingerprint, 0xFEEDFACE12345678ull);
  std::filesystem::remove(path);
}

TEST(SnapshotStoreTest, MismatchedFingerprintIsRejectedLikeATornFile) {
  // An intact snapshot computed from different input must not load when
  // the caller states what it expects; the store falls back to an older
  // matching generation, exactly as it does past a torn newest.
  const std::string dir = testing::TempDir() + "snapshot_store_fp";
  std::filesystem::remove_all(dir);
  SnapshotStore store(dir);
  const std::vector<std::uint8_t> matching = {1, 1, 1};
  const std::vector<std::uint8_t> foreign = {2, 2, 2};
  ASSERT_TRUE(store.Write(matching, /*fingerprint=*/111).ok());
  auto gen2 = store.Write(foreign, /*fingerprint=*/222);
  ASSERT_TRUE(gen2.ok());

  std::vector<std::uint8_t> payload;
  auto loaded =
      store.LoadLatest(/*expected_fingerprint=*/111, CopyInto(payload));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(payload, matching);
  EXPECT_EQ(loaded->generation, *gen2 - 1);
  EXPECT_EQ(loaded->fingerprint, 111u);
  EXPECT_EQ(loaded->rejected, 1u);

  // No expectation (0) loads the newest regardless of its stamp.
  auto any = store.LoadLatest(0, CopyInto(payload));
  ASSERT_TRUE(any.ok());
  EXPECT_EQ(payload, foreign);
  EXPECT_EQ(any->fingerprint, 222u);

  // Nothing matches: NotFound, with both generations rejected.
  auto none = store.LoadLatest(/*expected_fingerprint=*/333, CopyInto(payload));
  EXPECT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotStoreTest, PrunesOldGenerations) {
  const std::string dir = testing::TempDir() + "snapshot_store_prune";
  std::filesystem::remove_all(dir);
  SnapshotStore store(dir, /*keep_generations=*/2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Write({static_cast<std::uint8_t>(i)}).ok());
  }
  EXPECT_EQ(store.Generations(), (std::vector<std::uint64_t>{4, 5}));
  std::filesystem::remove_all(dir);
}

TEST(SnapshotStoreTest, TwoConcurrentWriterProcessesNeverTearTheStore) {
  // Two processes sharing one store directory (a recycled shard racing
  // its abandoned predecessor, or two daemons pointed at the same
  // data_dir by mistake).  Each writes its own fingerprint; whatever
  // interleaving happens, LoadLatest must always see a *valid* newest
  // generation and pruning must never drop below keep_generations.
  const std::string dir = testing::TempDir() + "snapshot_store_racing_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  constexpr int kWritersCount = 2;
  constexpr int kWritesPerWriter = 25;
  pid_t pids[kWritersCount];
  for (int w = 0; w < kWritersCount; ++w) {
    pids[w] = ::fork();
    ASSERT_GE(pids[w], 0);
    if (pids[w] == 0) {
      SnapshotStore store(dir, /*keep_generations=*/2);
      for (int i = 0; i < kWritesPerWriter; ++i) {
        std::vector<std::uint8_t> payload(64, static_cast<std::uint8_t>(w));
        payload[0] = static_cast<std::uint8_t>(i);
        if (!store.Write(payload, /*fingerprint=*/100 + w).ok()) {
          std::_Exit(1);
        }
      }
      std::_Exit(0);
    }
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  SnapshotStore store(dir, /*keep_generations=*/2);
  const auto generations = store.Generations();
  EXPECT_GE(generations.size(), 2u);
  std::vector<std::uint8_t> payload;
  auto latest = store.LoadLatest(0, CopyInto(payload));
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  ASSERT_EQ(payload.size(), 64u);
  // The payload must be wholly one writer's bytes — a generation
  // mixing both writers' data would mean the tmp files collided.
  const std::uint8_t writer = payload[1];
  EXPECT_TRUE(writer == 0 || writer == 1);
  for (std::size_t i = 2; i < payload.size(); ++i) {
    EXPECT_EQ(payload[i], writer) << "torn payload at byte " << i;
  }
  EXPECT_EQ(latest->fingerprint, 100u + writer);

  // Fingerprint rejection still works in the shared dir: asking for one
  // writer's snapshots skips the other's (or reports NotFound if every
  // surviving generation is the other writer's).
  auto mine = store.LoadLatest(/*expected_fingerprint=*/100, CopyInto(payload));
  if (mine.ok()) {
    EXPECT_EQ(mine->fingerprint, 100u);
  } else {
    EXPECT_EQ(mine.status().code(), StatusCode::kNotFound);
  }
  std::filesystem::remove_all(dir);
}

TEST(SnapshotStoreTest, EmptyDirIsNotFound) {
  const std::string dir = testing::TempDir() + "snapshot_store_empty";
  std::filesystem::remove_all(dir);
  SnapshotStore store(dir);
  std::vector<std::uint8_t> payload;
  auto loaded = store.LoadLatest(0, CopyInto(payload));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// --- analyzer state round trips -------------------------------------

class AnalyzerSnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new ScenarioConfig(SmallScenario(404));
    config_->workload.target_app_runs = 600;
    machine_ = new Machine(MakeMachine(*config_));
    auto campaign = RunCampaign(*machine_, *config_);
    ASSERT_TRUE(campaign.ok());
    campaign_ = new Campaign(std::move(*campaign));
  }

  static void TearDownTestSuite() {
    delete campaign_;
    delete machine_;
    delete config_;
    campaign_ = nullptr;
    machine_ = nullptr;
    config_ = nullptr;
  }

  static std::vector<std::uint8_t> TakeSnapshot(
      const StreamingAnalyzer& analyzer) {
    SnapshotWriter w;
    w(analyzer);
    return w.TakeBytes();
  }

  /// Decodes a whole analyzer payload into `analyzer`.
  static Status Decode(SnapshotReader& r, StreamingAnalyzer& analyzer) {
    r(analyzer);
    return r.Finish();
  }

  static ScenarioConfig* config_;
  static Machine* machine_;
  static Campaign* campaign_;
};

ScenarioConfig* AnalyzerSnapshotTest::config_ = nullptr;
Machine* AnalyzerSnapshotTest::machine_ = nullptr;
Campaign* AnalyzerSnapshotTest::campaign_ = nullptr;

TEST_F(AnalyzerSnapshotTest, EmptyAnalyzerSnapshotIsByteStable) {
  StreamingAnalyzer a(*machine_, LogDiverConfig{});
  const std::vector<std::uint8_t> first = TakeSnapshot(a);
  const std::vector<std::uint8_t> second = TakeSnapshot(a);
  EXPECT_EQ(first, second);  // snapshotting must not mutate state

  StreamingAnalyzer b(*machine_, LogDiverConfig{});
  SnapshotReader r(first);
  ASSERT_TRUE(Decode(r, b).ok());
  EXPECT_EQ(TakeSnapshot(b), first);  // restore -> snapshot is identity
}

TEST_F(AnalyzerSnapshotTest, MidStreamRoundTripContinuesIdentically) {
  const EmittedLogs& logs = campaign_->logs;
  StreamingAnalyzer uninterrupted(*machine_, LogDiverConfig{});
  StreamingAnalyzer before_crash(*machine_, LogDiverConfig{});

  // Feed the first half of each stream into both analyzers.
  const auto feed_half = [&](StreamingAnalyzer& a, bool second_half) {
    const auto half_of = [&](const std::vector<std::string>& lines,
                             auto add) {
      const std::size_t mid = lines.size() / 2;
      const std::size_t from = second_half ? mid : 0;
      const std::size_t to = second_half ? lines.size() : mid;
      for (std::size_t i = from; i < to; ++i) add(lines[i]);
    };
    half_of(logs.torque,
            [&](const std::string& l) { a.AddTorqueLine(l); });
    half_of(logs.alps, [&](const std::string& l) { a.AddAlpsLine(l); });
    half_of(logs.syslog, [&](const std::string& l) { a.AddSyslogLine(l); });
    half_of(logs.hwerr, [&](const std::string& l) { a.AddHwerrLine(l); });
  };
  feed_half(uninterrupted, false);
  feed_half(before_crash, false);

  // Snapshot mid-stream and restore into a fresh analyzer ("the
  // restarted process").
  const std::vector<std::uint8_t> snapshot = TakeSnapshot(before_crash);
  StreamingAnalyzer resumed(*machine_, LogDiverConfig{});
  SnapshotReader r(snapshot);
  ASSERT_TRUE(Decode(r, resumed).ok());

  // Both continue with the identical second half and must agree bit
  // for bit.
  feed_half(uninterrupted, true);
  feed_half(resumed, true);
  const auto base = uninterrupted.Finalize();
  const auto cont = resumed.Finalize();
  EXPECT_EQ(FingerprintReport(cont.metrics), FingerprintReport(base.metrics));
  EXPECT_EQ(FingerprintIngest(cont.ingest), FingerprintIngest(base.ingest));
  EXPECT_EQ(cont.reconstruct_stats.runs, base.reconstruct_stats.runs);
  EXPECT_EQ(cont.reconstruct_stats.orphan_terminations,
            base.reconstruct_stats.orphan_terminations);
}

TEST_F(AnalyzerSnapshotTest, HeldIncidentSurvivesSnapshotAndRestore) {
  // A snapshot taken between a Lustre error line and its recovery line
  // carries the held incident (stream state v3 on): the restored analyzer
  // closes the same outage an uninterrupted one does.
  const std::string before[] = {
      "Apr  1 02:00:00 sonexion LustreError: ost12 failing over",
      "Apr  1 02:05:00 sonexion LustreError: ost12 still degraded",
  };
  const std::string after[] = {
      "Apr  1 02:40:00 sonexion Lustre: ost12 recovered after failover",
      "Apr  1 03:00:00 c0-0c0s0n0 kernel: Kernel panic - not syncing: x",
  };
  StreamingAnalyzer uninterrupted(*machine_, LogDiverConfig{});
  StreamingAnalyzer before_crash(*machine_, LogDiverConfig{});
  for (const std::string& line : before) {
    uninterrupted.AddSyslogLine(line);
    before_crash.AddSyslogLine(line);
  }
  std::vector<std::uint8_t> snapshot = TakeSnapshot(before_crash);
  StreamingAnalyzer resumed(*machine_, LogDiverConfig{});
  SnapshotReader r(snapshot);
  ASSERT_TRUE(Decode(r, resumed).ok());
  for (const std::string& line : after) {
    uninterrupted.AddSyslogLine(line);
    resumed.AddSyslogLine(line);
  }
  const auto base = uninterrupted.Finalize();
  const auto cont = resumed.Finalize();
  // One incident tuple plus the panic; a lost held incident would leave
  // only the panic (the recovery line alone closes nothing).
  EXPECT_EQ(base.coalesce_stats.input_events, 2u);
  EXPECT_EQ(cont.coalesce_stats.input_events, 2u);
  EXPECT_EQ(FingerprintReport(cont.metrics), FingerprintReport(base.metrics));

  // The same payload stamped as layout v2 (no held incident), v3 (job
  // index and open runs outside the run builder) or v4 (job records
  // with a job name) is rejected.
  for (const std::uint32_t stale_version : {2u, 3u, 4u}) {
    std::memcpy(snapshot.data(), &stale_version, sizeof(stale_version));
    StreamingAnalyzer stale(*machine_, LogDiverConfig{});
    SnapshotReader stale_reader(snapshot);
    const Status status = Decode(stale_reader, stale);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << status.ToString();
  }
}

TEST_F(AnalyzerSnapshotTest, RestoreRejectsWrongGeometry) {
  StreamingAnalyzer a(*machine_, LogDiverConfig{});
  const std::vector<std::uint8_t> snapshot = TakeSnapshot(a);

  ScenarioConfig other = SmallScenario(7);
  other.testbed_xe = config_->testbed_xe / 2;  // different machine
  const Machine small = MakeMachine(other);
  StreamingAnalyzer b(small, LogDiverConfig{});
  SnapshotReader r(snapshot);
  EXPECT_FALSE(Decode(r, b).ok());
}

TEST_F(AnalyzerSnapshotTest, QuarantineOverflowSurvivesRoundTrip) {
  LogDiverConfig config;
  config.ingest.quarantine.max_entries = 3;  // force overflow fast
  StreamingAnalyzer a(*machine_, config);
  for (int i = 0; i < 10; ++i) {
    a.AddAlpsLine("complete garbage line " + std::to_string(i));
  }
  ASSERT_EQ(a.quarantine().total(), 10u);
  ASSERT_EQ(a.quarantine().overflow(), 7u);
  ASSERT_EQ(a.quarantine().entries().size(), 3u);

  StreamingAnalyzer b(*machine_, config);
  const std::vector<std::uint8_t> snapshot = TakeSnapshot(a);
  SnapshotReader r(snapshot);
  ASSERT_TRUE(Decode(r, b).ok());
  // The overflow counters — not just the stored entries — must survive,
  // or a restored run under-reports how dirty the stream was.
  EXPECT_EQ(b.quarantine().total(), 10u);
  EXPECT_EQ(b.quarantine().overflow(), 7u);
  EXPECT_EQ(b.quarantine().entries().size(), 3u);
  EXPECT_EQ(b.quarantine().count(LogSource::kAlps), 10u);
  EXPECT_EQ(b.ingest_stats().quarantined, 10u);
}

TEST_F(AnalyzerSnapshotTest, RepeatedWatermarkFinalizesNothingNew) {
  const EmittedLogs& logs = campaign_->logs;
  StreamingAnalyzer a(*machine_, LogDiverConfig{});
  for (const std::string& line : logs.torque) a.AddTorqueLine(line);
  for (const std::string& line : logs.alps) a.AddAlpsLine(line);

  // Find a watermark late enough to finalize something.
  TimePoint last;
  {
    AlpsParser alps;
    for (const std::string& line : logs.alps) {
      auto rec = alps.ParseLine(line);
      if (rec.ok() && rec->has_value()) last = (*rec)->time;
    }
  }
  const std::size_t first = a.Advance(last + Duration::Days(1));
  EXPECT_GT(first, 0u);
  const std::uint64_t finalized = a.runs_finalized();
  // Advancing to the identical watermark again is a no-op: every run it
  // could finalize is already finalized.
  EXPECT_EQ(a.Advance(last + Duration::Days(1)), 0u);
  EXPECT_EQ(a.Advance(last + Duration::Days(1)), 0u);
  EXPECT_EQ(a.runs_finalized(), finalized);
  EXPECT_EQ(a.ingest_stats().watermark_regressions, 0u);
}

// --- pinned payload bytes ------------------------------------------
//
// CRC-32 and size of payloads encoded by the layouts docs/FORMATS.md
// documents.  A codec change that moves one byte of a layout whose
// version did not change fails here.

// A fixed stream cut before its end: one run finalized into the
// accumulator, one terminated run pending, one open run, open tuples,
// a held Lustre incident and three quarantined lines.
void FeedFixedStream(StreamingAnalyzer& a) {
  a.AddTorqueLine(
      "04/01/2013 00:05:00;S;5001.bw;user=pin queue=normal jobname=j "
      "ctime=1364774600 start=1364774700 Resource_List.nodect=2");
  a.AddAlpsLine(
      "2013-04-01T00:05:00 apsched[5]: placeApp apid=601 jobid=5001 "
      "user=pin cmd=c nodect=2 nids=0-1");
  a.AddHwerrLine("1364775300|memory_ue|c0-0c0s0n0|fatal|row=4");
  a.AddAlpsLine(
      "2013-04-01T00:16:00 apsys[5]: apid=601 killed, reason=node_failure "
      "nid=0");
  a.AddTorqueLine(
      "04/01/2013 00:20:00;E;5001.bw;user=pin queue=normal jobname=j "
      "ctime=1364774600 start=1364774700 end=1364775600 Exit_status=271 "
      "Resource_List.nodect=2");
  a.Advance(TimePoint(1364781600));  // 02:00
  a.AddTorqueLine(
      "04/01/2013 02:05:00;S;5002.bw;user=pin queue=high jobname=k "
      "ctime=1364781800 start=1364781900 Resource_List.nodect=3");
  a.AddAlpsLine(
      "2013-04-01T02:05:00 apsched[5]: placeApp apid=602 jobid=5002 "
      "user=pin cmd=c nodect=2 nids=2-3");
  a.AddSyslogLine("Apr  1 02:10:00 sonexion LustreError: ost12 failing over");
  a.AddSyslogLine(
      "Apr  1 02:11:00 c0-0c0s1n0 kernel: [Hardware Error]: Machine check: "
      "Processor context corrupt");
  a.AddHwerrLine("1364782320|gpu_dbe|c0-0c0s1n1|fatal|ecc");
  a.AddAlpsLine(
      "2013-04-01T02:20:00 apsys[5]: apid=602 exited, status=1 signal=0");
  a.AddAlpsLine(
      "2013-04-01T02:25:00 apsched[5]: placeApp apid=603 jobid=5002 "
      "user=pin cmd=c nodect=1 nids=4");
  a.AddAlpsLine("complete garbage line");
  a.AddTorqueLine("]]] broken accounting record");
  a.AddHwerrLine("broken");
}

TEST_F(AnalyzerSnapshotTest, MidStreamPayloadBytesArePinned) {
  StreamingAnalyzer a(*machine_, LogDiverConfig{});
  FeedFixedStream(a);
  ASSERT_EQ(a.runs_finalized(), 1u);
  ASSERT_EQ(a.state_size().pending_runs, 1u);
  ASSERT_EQ(a.state_size().open_runs, 1u);
  ASSERT_GE(a.state_size().open_tuples, 2u);
  ASSERT_EQ(a.quarantine().entries().size(), 3u);
  const std::vector<std::uint8_t> payload = TakeSnapshot(a);
  EXPECT_EQ(payload.size(), 2019u);
  EXPECT_EQ(Crc32(payload), 811034801u);
}

TEST(SnapshotIoTest, ReportFingerprintsArePinned) {
  MetricsReport report;
  report.total_runs = 1234;
  report.total_node_hours = 5678.25;
  report.system_failure_fraction = 0.0153;
  report.lost_node_hours_fraction = 0.09;
  report.overall_mtti_hours = 17.5;
  report.outcomes = {{AppOutcome::kSuccess, 1200, 0.97, 5000.0, 0.88},
                     {AppOutcome::kSystemFailure, 34, 0.03, 678.25, 0.12}};
  report.categories = {{ErrorCategory::kMachineCheck, 9, 4, 31, 120.5}};
  report.availability = {2, 3.5, 0.999};
  report.attribution = {{ErrorCategory::kLustre, 3, 1}};
  ScalePoint point;
  point.lo = 1;
  point.hi = 64;
  point.runs = 1000;
  point.system_failures = 12;
  point.failure_probability = {0.012, 0.006, 0.021};
  report.xe_scale = {point};
  point.lo = 65;
  point.hi = 4096;
  report.xk_scale = {point, point};
  report.monthly = {{2013, 4, 600, 20, 2500.0, 310.5, 36.0}};
  report.detection_gap = {{NodeType::kXK, 10, 7, 3, 0.3}};
  report.queue_waits = {{1, 64, 800, 0.25, 1.75}};
  report.job_impact = {900, 30, 30.0 / 900.0};
  report.ingest.quarantined = 5;
  report.ingest.duplicate_placements = 2;
  report.ingest.lines_dropped_after_budget = 11;
  EXPECT_EQ(FingerprintReport(report), 1110852941u);
  EXPECT_EQ(FingerprintIngest(report.ingest), 2062262682u);
}

// --- impossible counts ------------------------------------------------

/// `v` as `width` little-endian bytes.
std::vector<std::uint8_t> Le(std::uint64_t v, int width) {
  std::vector<std::uint8_t> out;
  for (int i = 0; i < width; ++i) out.push_back((v >> (8 * i)) & 0xFF);
  return out;
}

std::vector<std::uint8_t> Cat(
    std::initializer_list<std::vector<std::uint8_t>> parts) {
  std::vector<std::uint8_t> out;
  for (const auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

/// Offset of the first `pattern` in `bytes` at or past `from`, or npos.
std::size_t Find(const std::vector<std::uint8_t>& bytes,
                 const std::vector<std::uint8_t>& pattern,
                 std::size_t from = 0) {
  const auto at = std::search(bytes.begin() + from, bytes.end(),
                              pattern.begin(), pattern.end());
  return at == bytes.end() ? std::string::npos
                           : static_cast<std::size_t>(at - bytes.begin());
}

TEST_F(AnalyzerSnapshotTest, ImpossibleCountFallsBackOneGeneration) {
  // A newest generation whose CRC is valid but whose count field says
  // 2^32-1 (or 2^64-1) elements is rejected before anything is sized by
  // it, and the store falls back to the generation before.
  StreamingAnalyzer a(*machine_, LogDiverConfig{});
  FeedFixedStream(a);
  const std::vector<std::uint8_t> payload = TakeSnapshot(a);
  const QuarantineEntry& first = a.quarantine().entries().front();
  const std::vector<std::uint8_t> reason(first.reason.begin(),
                                         first.reason.end());
  struct Case {
    const char* field;
    std::vector<std::uint8_t> pattern;  // starts at the count
    int width;
  };
  const Case cases[] = {
      {"quarantine entry count",
       Cat({Le(3, 4), Le(static_cast<std::uint8_t>(first.source), 1),
            Le(first.line_number, 8), Le(reason.size(), 4), reason}),
       4},
      // The XE curve's count and first bucket; the XK curve follows.
      {"accumulator scale-point count", Cat({Le(8, 4), Le(1, 4), Le(1, 4)}),
       4},
      // Job 5001's run failed: it is in both job sets.
      {"accumulator job-set count",
       Cat({Le(1, 8), Le(5001, 8), Le(1, 8), Le(5001, 8)}), 8},
  };
  const std::string dir = testing::TempDir() + "snapshot_bad_count";
  for (const Case& c : cases) {
    const std::size_t at = Find(payload, c.pattern);
    ASSERT_NE(at, std::string::npos) << c.field;
    std::vector<std::uint8_t> bad = payload;
    std::fill_n(bad.begin() + static_cast<std::ptrdiff_t>(at), c.width, 0xFF);
    std::filesystem::remove_all(dir);
    SnapshotStore store(dir);
    ASSERT_TRUE(store.Write(payload).ok());
    ASSERT_TRUE(
        WriteDurableFile(store.PathFor(2), kSnapshotFormat, bad, 0).ok());
    auto loaded =
        store.LoadLatest(0, [this](std::span<const std::uint8_t> bytes) {
          StreamingAnalyzer b(*machine_, LogDiverConfig{});
          SnapshotReader r(bytes);
          return Decode(r, b);
        });
    ASSERT_TRUE(loaded.ok()) << c.field << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->generation, 1u) << c.field;
    EXPECT_EQ(loaded->rejected, 1u) << c.field;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(AnalyzerSnapshotTest, LayoutVersionMismatchIsReturnedNotSkipped) {
  // A generation of another layout version is not this build's
  // directory: LoadLatest returns the decode error instead of falling
  // back past it.
  StreamingAnalyzer a(*machine_, LogDiverConfig{});
  std::vector<std::uint8_t> payload = TakeSnapshot(a);
  const std::string dir = testing::TempDir() + "snapshot_stale_version";
  std::filesystem::remove_all(dir);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Write(payload).ok());
  payload[0] = 4;  // stream-state version 4
  ASSERT_TRUE(store.Write(payload).ok());
  auto loaded = store.LoadLatest(0, [this](std::span<const std::uint8_t> b) {
    StreamingAnalyzer analyzer(*machine_, LogDiverConfig{});
    SnapshotReader r(b);
    return Decode(r, analyzer);
  });
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
      << loaded.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST_F(AnalyzerSnapshotTest, FinalizeIsSpentAfterUse) {
  StreamingAnalyzer a(*machine_, LogDiverConfig{});
  a.Finalize();
  EXPECT_THROW(a.Finalize(), std::logic_error);
  EXPECT_THROW(a.AddTorqueLine("x"), std::logic_error);
  EXPECT_THROW(a.AddAlpsLine("x"), std::logic_error);
  EXPECT_THROW(a.AddSyslogLine("x"), std::logic_error);
  EXPECT_THROW(a.AddHwerrLine("x"), std::logic_error);
  EXPECT_THROW(a.Advance(TimePoint(0)), std::logic_error);
  SnapshotWriter w;
  EXPECT_THROW(w(a), std::logic_error);
}

}  // namespace
}  // namespace ld
