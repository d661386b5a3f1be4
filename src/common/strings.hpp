// Small string utilities shared by log parsers and emitters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace ld {

/// True for the C locale's isspace set (' ', '\t', '\n', '\v', '\f',
/// '\r') regardless of the process locale.  The one whitespace
/// predicate behind every splitter, trimmer and key=value scanner here.
constexpr bool IsSpace(char c) {
  const auto u = static_cast<unsigned char>(c);
  return u == ' ' || (u >= '\t' && u <= '\r');
}

/// Index of the first IsSpace byte at or after `pos`, or data.size()
/// when none.
inline std::size_t FindWhitespace(std::string_view data, std::size_t pos = 0) {
  while (pos < data.size() && !IsSpace(data[pos])) ++pos;
  return pos < data.size() ? pos : data.size();
}

/// Index of the first byte at or after `pos` that is not IsSpace, or
/// data.size() when the rest of the buffer is whitespace.
inline std::size_t SkipWhitespace(std::string_view data, std::size_t pos = 0) {
  while (pos < data.size() && IsSpace(data[pos])) ++pos;
  return pos < data.size() ? pos : data.size();
}

/// Splits on a single character; keeps empty fields ("a,,b" -> 3 fields).
std::vector<std::string_view> Split(std::string_view text, char sep);

/// Splits on any run of whitespace; drops empty fields.
std::vector<std::string_view> SplitWhitespace(std::string_view text);

/// Removes leading and trailing whitespace.
std::string_view Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool Contains(std::string_view haystack, std::string_view needle);

/// Strict integer/double parsing: whole string must be consumed.
Result<std::int64_t> ParseInt(std::string_view text);
Result<std::uint64_t> ParseUint(std::string_view text);
Result<double> ParseDouble(std::string_view text);

/// "key=value key2=value2" field extraction (Torque accounting style).
/// Returns the value for `key` or NotFound.  Values run to the next
/// whitespace; no quoting (matches the real format).
Result<std::string> FindKeyValue(std::string_view record, std::string_view key);

/// Allocation-free FindKeyValue for the parser hot paths: the returned
/// view aliases `record`; nullopt when the key is absent (no Status is
/// built, so a miss costs nothing).
std::optional<std::string_view> FindKeyValueOpt(std::string_view record,
                                                std::string_view key);

/// Tokenize-once view over a "key=value key2=value2" record for parsers
/// that look up many keys in the same record: one table-driven pass
/// (a 256-entry byte-class table for whitespace and '=') splits the
/// record into at most kMaxEntries key=value entries up front, so each
/// Get is a walk over those few entries instead of over the record.
/// Records with more entries than the fixed table fall back to
/// FindKeyValueOpt per lookup.  Behavior is identical to repeated
/// FindKeyValueOpt calls for every record: first matching occurrence
/// wins, values run to the next whitespace, bare tokens without '=' are
/// skipped.  Keys must not contain '=' or whitespace (all parser keys
/// satisfy this).  The views alias the record; the record must outlive
/// the KeyValueView.
class KeyValueView {
 public:
  explicit KeyValueView(std::string_view record);

  /// Value for `key`, or nullopt when absent.  Same contract as
  /// FindKeyValueOpt(record, key).
  std::optional<std::string_view> Get(std::string_view key) const;

  /// Number of key=value entries found (0 when the overflow fallback is
  /// active).  Exposed for tests.
  std::size_t entry_count() const { return overflow_ ? 0 : count_; }
  bool overflowed() const { return overflow_; }

  static constexpr std::size_t kMaxEntries = 32;

 private:
  // Raw fields, so the table costs nothing to set up per record; only
  // the first count_ entries are ever read, in record order, so Get
  // finds the first occurrence of a repeated key.
  struct Entry {
    const char* key;
    const char* value;
    std::size_t key_size;
    std::size_t value_size;
  };

  std::string_view record_;
  Entry entries_[kMaxEntries];
  std::size_t count_ = 0;
  bool overflow_ = false;
};

/// Joins items with a separator.
std::string Join(const std::vector<std::string>& items, std::string_view sep);

/// Renders a double with fixed precision, trimming trailing zeros is NOT
/// performed (tables want aligned columns).
std::string FormatDouble(double v, int precision);

/// Thousands-separated integer rendering for report tables: 1234567 ->
/// "1,234,567".
std::string WithThousands(std::uint64_t v);

}  // namespace ld
