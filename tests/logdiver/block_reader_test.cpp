#include "logdiver/block_reader.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "logdiver/logdiver.hpp"

namespace ld {
namespace {

std::vector<std::string_view> Lines(std::string_view data) {
  std::vector<std::string_view> out;
  AppendLines(data, &out);
  return out;
}

TEST(BlockReader, AppendLinesMatchesGetlineSemantics) {
  EXPECT_TRUE(Lines("").empty());
  EXPECT_EQ(Lines("a\nb\n"), (std::vector<std::string_view>{"a", "b"}));
  // Final unterminated line is kept; trailing newline adds no empty line.
  EXPECT_EQ(Lines("a\nb"), (std::vector<std::string_view>{"a", "b"}));
  // CRLF: the '\r' is stripped.
  EXPECT_EQ(Lines("a\r\nb\r\n"), (std::vector<std::string_view>{"a", "b"}));
  EXPECT_EQ(Lines("a\r\nb\r"), (std::vector<std::string_view>{"a", "b"}));
  // Empty lines survive.
  EXPECT_EQ(Lines("\n"), (std::vector<std::string_view>{""}));
  EXPECT_EQ(Lines("a\n\nb\n"), (std::vector<std::string_view>{"a", "", "b"}));
}

TEST(BlockReader, SplitBlocksConcatenationIsIdentity) {
  std::string data;
  for (int i = 0; i < 200; ++i) {
    data += "line number " + std::to_string(i) + " with some payload\n";
  }
  data += "final line without newline";
  for (std::size_t target : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                             std::size_t{1 << 20}}) {
    const auto blocks = SplitBlocks(data, target);
    std::string glued;
    for (const auto b : blocks) glued.append(b);
    EXPECT_EQ(glued, data) << "target=" << target;
    // Every block but the last ends at a line boundary, so no line can
    // span two blocks.
    for (std::size_t i = 0; i + 1 < blocks.size(); ++i) {
      ASSERT_FALSE(blocks[i].empty());
      EXPECT_EQ(blocks[i].back(), '\n') << "target=" << target;
    }
  }
}

TEST(BlockReader, SplitLinesParallelMatchesSequentialAtAnyBlockSize) {
  std::string data;
  for (int i = 0; i < 500; ++i) {
    data += "entry " + std::to_string(i);
    if (i % 7 == 0) data += '\r';
    data += '\n';
  }
  data += "trailing unterminated";
  const auto expected = Lines(data);
  ThreadPool pool(4);
  for (std::size_t target : {std::size_t{1}, std::size_t{13},
                             std::size_t{100}, std::size_t{1 << 20}}) {
    EXPECT_EQ(SplitLinesParallel(data, nullptr, target), expected)
        << "inline target=" << target;
    EXPECT_EQ(SplitLinesParallel(data, &pool, target), expected)
        << "pooled target=" << target;
  }
}

TEST(BlockReader, BlockBoundaryExactlyOnNewlineSplitsCleanly) {
  // "ab\n" repeated: a 3-byte block target puts every block boundary
  // exactly on a '\n'; the splitter must not emit empty blocks or merge
  // lines across the cut.
  std::string data;
  for (int i = 0; i < 50; ++i) data += "ab\n";
  const auto blocks = SplitBlocks(data, 3);
  std::string glued;
  for (const auto b : blocks) {
    ASSERT_FALSE(b.empty());
    EXPECT_EQ(b.back(), '\n');
    glued.append(b);
  }
  EXPECT_EQ(glued, data);
  EXPECT_EQ(Lines(data).size(), 50u);
}

TEST(BlockReader, CrlfStraddlingABlockBoundaryStaysOneLine) {
  // With "abc\r\n" payloads and small block targets, some cut lands
  // between the '\r' and the '\n'.  However the blocks fall, the parallel
  // split must agree with the sequential one byte for byte.
  std::string data;
  for (int i = 0; i < 100; ++i) data += "abc\r\n";
  const auto expected = Lines(data);
  ASSERT_EQ(expected.size(), 100u);
  for (std::size_t target = 1; target <= 12; ++target) {
    EXPECT_EQ(SplitLinesParallel(data, nullptr, target), expected)
        << "target=" << target;
  }
}

TEST(BlockReader, NewlineAtEveryVectorLaneOffsetIsFound) {
  // Lines sized 1..64 place the '\n' at every offset within and beyond
  // the 16- and 32-byte strides a vectorized memchr reads; the split
  // must match getline semantics for all.
  std::string data;
  for (std::size_t len = 1; len <= 64; ++len) {
    data += std::string(len, 'x');
    data += '\n';
  }
  const auto lines = Lines(data);
  ASSERT_EQ(lines.size(), 64u);
  for (std::size_t len = 1; len <= 64; ++len) {
    EXPECT_EQ(lines[len - 1].size(), len) << len;
  }
}

TEST(BlockReader, MappedFileReadsWholeFile) {
  const std::string path =
      ::testing::TempDir() + "/ld_block_reader_mapped.txt";
  const std::string content = "alpha\nbeta\r\ngamma";
  {
    std::ofstream out(path, std::ios::binary);
    out << content;
  }
  auto file = MappedFile::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->data(), content);
  std::vector<std::string_view> lines;
  AppendLines(file->data(), &lines);
  EXPECT_EQ(lines,
            (std::vector<std::string_view>{"alpha", "beta", "gamma"}));
  std::filesystem::remove(path);
}

TEST(BlockReader, MappedFileEmptyAndMissing) {
  const std::string path = ::testing::TempDir() + "/ld_block_reader_empty.txt";
  { std::ofstream out(path); }
  auto empty = MappedFile::Open(path);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->data().empty());
  std::filesystem::remove(path);

  auto missing = MappedFile::Open("/nonexistent/ld_block_reader.txt");
  EXPECT_FALSE(missing.ok());
}

TEST(BlockReader, MappedFileSurvivesMove) {
  const std::string path = ::testing::TempDir() + "/ld_block_reader_move.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "payload\n";
  }
  auto file = MappedFile::Open(path);
  ASSERT_TRUE(file.ok());
  const std::string_view before = file->data();
  MappedFile moved = std::move(*file);
  // The mapping address does not change across a move, so views taken
  // before the move stay valid.
  EXPECT_EQ(moved.data(), before);
  EXPECT_EQ(moved.data().data(), before.data());
  std::filesystem::remove(path);
}

TEST(BlockReader, ReadLinesMatchesLegacySemantics) {
  const std::string path = ::testing::TempDir() + "/ld_block_reader_legacy.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "one\r\ntwo\n\nfour";
  }
  auto lines = ReadLines(path);
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(*lines, (std::vector<std::string>{"one", "two", "", "four"}));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ld
