#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <random>
#include <string>
#include <vector>

namespace ld {
namespace {

TEST(Split, KeepsEmptyFields) {
  const auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, TrailingSeparator) {
  const auto parts = Split("x;", ';');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(Split, EmptyInput) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(SplitWhitespace, DropsRuns) {
  const auto parts = SplitWhitespace("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(Trim, BothEnds) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(Whitespace, EveryByteValueIsTheCLocaleIsspaceSet) {
  // All 256 byte values, including >= 0x80 where a signed-char
  // classifier goes wrong: the one predicate is the C locale's isspace
  // set whatever the process locale is.
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool is_space = b == ' ' || b == '\t' || b == '\n' || b == '\v' ||
                          b == '\f' || b == '\r';
    EXPECT_EQ(is_space, std::isspace(b) != 0) << b;  // gtest runs in "C"
    EXPECT_EQ(IsSpace(c), is_space) << b;
  }
}

TEST(Whitespace, ScannersAndTrimAgreeOnEveryByteValue) {
  // Each byte value as a one-byte buffer and as padding around a word:
  // the scanners and Trim must classify it exactly as IsSpace does.
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool is_space = IsSpace(c);
    const std::string_view one(&c, 1);
    EXPECT_EQ(FindWhitespace(one), is_space ? 0u : 1u) << b;
    EXPECT_EQ(SkipWhitespace(one), is_space ? 1u : 0u) << b;
    const std::string padded = std::string(1, c) + "x" + std::string(1, c);
    EXPECT_EQ(Trim(padded), is_space ? std::string_view("x") : padded) << b;
  }
  // A start position at or past the end finds nothing.
  EXPECT_EQ(FindWhitespace("ab", 2), 2u);
  EXPECT_EQ(SkipWhitespace("  ", 5), 2u);
}

TEST(StartsWithContains, Basics) {
  EXPECT_TRUE(StartsWith("apsched[5]", "apsched"));
  EXPECT_FALSE(StartsWith("ap", "apsched"));
  EXPECT_TRUE(Contains("Machine check events", "check"));
  EXPECT_FALSE(Contains("abc", "abd"));
}

TEST(ParseInt, StrictWholeString) {
  EXPECT_EQ(ParseInt("-42").value(), -42);
  EXPECT_EQ(ParseInt("0").value(), 0);
  EXPECT_FALSE(ParseInt("42x").ok());
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt(" 42").ok());
}

TEST(ParseUint, RejectsNegative) {
  EXPECT_EQ(ParseUint("18446744073709551615").value(), 18446744073709551615ull);
  EXPECT_FALSE(ParseUint("-1").ok());
}

TEST(ParseDouble, StrictWholeString) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("3.5kg").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(FindKeyValue, ExtractsFields) {
  const std::string rec =
      "user=u1 group=users queue=normal Exit_status=271 start=123";
  EXPECT_EQ(FindKeyValue(rec, "user").value(), "u1");
  EXPECT_EQ(FindKeyValue(rec, "Exit_status").value(), "271");
  EXPECT_EQ(FindKeyValue(rec, "start").value(), "123");
  EXPECT_FALSE(FindKeyValue(rec, "end").ok());
}

TEST(FindKeyValue, KeyMustBeFieldBoundary) {
  // "status=" must not match inside "Exit_status=".
  const std::string rec = "Exit_status=7";
  EXPECT_FALSE(FindKeyValue(rec, "status").ok());
  const std::string rec2 = "status=1 Exit_status=7";
  EXPECT_EQ(FindKeyValue(rec2, "status").value(), "1");
}

TEST(KeyValueView, AgreesWithFindKeyValueOpt) {
  // The one-pass splitter must answer every lookup exactly as the
  // per-key scanner does, on realistic accounting payloads and
  // adversarial ones (values containing '=', dotted keys, bare tokens,
  // duplicate keys, leading/trailing whitespace).
  const std::string_view records[] = {
      "",
      "   ",
      "placeApp",
      "user=u1 group=users queue=normal Exit_status=271 start=123",
      "Resource_List.nodect=32 Resource_List.neednodes=1:ppn=16 end=9",
      "  apid=204   jobid=7 nids=12-15,18  ",
      "status=1 Exit_status=7 status=2",
      "empty= next=ok",
      "trailing_bare_token user=x oddball",
      "a=1\tb=2\nc=3",
  };
  const std::string_view keys[] = {
      "user",        "queue",  "Exit_status",         "status",
      "start",       "end",    "Resource_List.nodect", "apid",
      "jobid",       "nids",   "empty",               "next",
      "oddball",     "a",      "b",                   "c",
      "Resource_List.neednodes", "missing",
  };
  for (const std::string_view rec : records) {
    const KeyValueView kv(rec);
    EXPECT_FALSE(kv.overflowed()) << rec;
    for (const std::string_view key : keys) {
      EXPECT_EQ(kv.Get(key), FindKeyValueOpt(rec, key))
          << "rec=\"" << rec << "\" key=" << key;
    }
  }
}

TEST(KeyValueView, ValueMayContainEquals) {
  const KeyValueView kv("Resource_List.neednodes=1:ppn=16 end=9");
  EXPECT_EQ(kv.Get("Resource_List.neednodes").value(), "1:ppn=16");
  EXPECT_EQ(kv.Get("end").value(), "9");
  // The embedded "ppn=" must not become its own entry.
  EXPECT_FALSE(kv.Get("ppn").has_value());
  EXPECT_FALSE(kv.Get("16").has_value());
}

TEST(KeyValueView, OverflowFallsBackToFullScan) {
  // More than kMaxEntries pairs: the view abandons its fixed table and
  // every Get must still answer correctly via the per-key scan.
  std::string rec;
  for (std::size_t i = 0; i < KeyValueView::kMaxEntries + 8; ++i) {
    rec.append("k").append(std::to_string(i)).append("=");
    rec.append(std::to_string(i * 10)).append(" ");
  }
  const KeyValueView kv(rec);
  EXPECT_TRUE(kv.overflowed());
  EXPECT_EQ(kv.entry_count(), 0u);
  for (std::size_t i = 0; i < KeyValueView::kMaxEntries + 8; ++i) {
    const std::string key = std::string("k").append(std::to_string(i));
    ASSERT_TRUE(kv.Get(key).has_value()) << key;
    EXPECT_EQ(kv.Get(key).value(), std::to_string(i * 10)) << key;
  }
  EXPECT_FALSE(kv.Get("k999").has_value());
}

// Every key FindKeyValueOpt could be asked about in `rec`: each token's
// text before its first '=', each piece after an '=' (so an embedded
// "ppn=" is probed too), each bare token, and a miss.
std::vector<std::string> ProbeKeys(std::string_view rec) {
  std::vector<std::string> keys = {"missing"};
  for (const std::string_view token : SplitWhitespace(rec)) {
    for (const std::string_view piece : Split(token, '=')) {
      if (!piece.empty()) keys.emplace_back(piece);
    }
  }
  return keys;
}

// A record past 4 KiB: a giant exec_host list between ordinary fields.
std::string LargeExecHostRecord() {
  std::string rec = "user=u7 exec_host=";
  for (int i = 0; i < 400; ++i) {
    rec += "nid" + std::to_string(10000 + i) + "/0+";
  }
  rec += " Exit_status=0 end=1357088460";
  return rec;
}

TEST(KeyValueView, LargeRecordTakesTokenScanFallback) {
  // Records past 4 KiB once took a separate per-token fallback builder;
  // the one token scan must now answer them exactly like the per-key
  // scanner, without overflowing the fixed table.
  const std::string rec = LargeExecHostRecord();
  ASSERT_GT(rec.size(), 4096u);
  const KeyValueView kv(rec);
  EXPECT_FALSE(kv.overflowed());
  EXPECT_EQ(kv.entry_count(), 4u);
  for (const std::string_view key :
       {"user", "exec_host", "Exit_status", "end", "missing", "nid10000"}) {
    EXPECT_EQ(kv.Get(key), FindKeyValueOpt(rec, key)) << key;
  }
  EXPECT_EQ(kv.Get("Exit_status").value(), "0");
  EXPECT_EQ(kv.Get("user").value(), "u7");
}

TEST(KeyValueView, MatchesFindKeyValueOptOnEveryRecordShape) {
  // A record past 4 KiB, one entry more than the fixed table holds, a
  // second '=' inside a value, bare tokens, and an '=' just past a
  // 64-byte boundary.
  std::string wide;
  for (std::size_t i = 0; i <= KeyValueView::kMaxEntries; ++i) {
    wide.append("k").append(std::to_string(i)).append("=");
    wide.append(std::to_string(i * 10)).append(" ");
  }
  const std::string records[] = {
      LargeExecHostRecord(),
      wide,
      std::string(60, 'x') + " key=value tail=1",
      "Resource_List.nodect=32 Resource_List.neednodes=1:ppn=16 end=9",
      "placeApp bare apid=204 token jobid=7 nids=12-15,18 trailing",
  };
  for (const std::string& rec : records) {
    const KeyValueView kv(rec);
    EXPECT_EQ(kv.overflowed(), &rec == &records[1]) << rec;
    for (const std::string& key : ProbeKeys(rec)) {
      EXPECT_EQ(kv.Get(key), FindKeyValueOpt(rec, key))
          << "rec=\"" << rec << "\" key=" << key;
    }
  }
}

TEST(KeyValueView, RandomRecordsMatchFindKeyValueOpt) {
  // Dense '=', whitespace and high-bit bytes, at lengths from empty to
  // past 4 KiB, so tokens of every shape meet every lookup.
  std::mt19937_64 rng(20260810);
  const char alphabet[] = " \t\n==abk0:\x80\xff";
  for (const std::size_t len : {0u, 1u, 15u, 63u, 64u, 65u, 400u, 5000u}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::string rec(len, '\0');
      for (char& c : rec) c = alphabet[rng() % (sizeof(alphabet) - 1)];
      const KeyValueView kv(rec);
      for (const std::string& key : ProbeKeys(rec)) {
        ASSERT_EQ(kv.Get(key), FindKeyValueOpt(rec, key))
            << "len=" << len << " trial=" << trial << " key=" << key;
      }
    }
  }
}

TEST(Join, Basics) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(WithThousands, GroupsDigits) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(1234567), "1,234,567");
  EXPECT_EQ(WithThousands(5000000), "5,000,000");
}

}  // namespace
}  // namespace ld
