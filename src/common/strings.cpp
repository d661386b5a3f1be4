#include "common/strings.hpp"

#include <array>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace ld {

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t hit = text.find(sep, start);
    if (hit == std::string_view::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, hit - start));
    start = hit + 1;
  }
  return out;
}

std::vector<std::string_view> SplitWhitespace(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < text.size()) {
    const std::size_t start = SkipWhitespace(text, i);
    if (start == text.size()) break;
    i = FindWhitespace(text, start);
    out.push_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  const std::size_t b = SkipWhitespace(text, 0);
  std::size_t e = text.size();
  while (e > b && IsSpace(text[e - 1])) --e;
  return text.substr(b, e - b);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

Result<std::int64_t> ParseInt(std::string_view text) {
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return ParseError("bad integer: '" + std::string(text) + "'");
  }
  return v;
}

Result<std::uint64_t> ParseUint(std::string_view text) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return ParseError("bad unsigned integer: '" + std::string(text) + "'");
  }
  return v;
}

Result<double> ParseDouble(std::string_view text) {
  // std::from_chars for double is not universally available; strtod via a
  // bounded copy keeps this portable.
  if (text.empty() || text.size() > 64) {
    return ParseError("bad double: '" + std::string(text) + "'");
  }
  char buf[65];
  text.copy(buf, text.size());
  buf[text.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf, &end);
  if (errno != 0 || end != buf + text.size()) {
    return ParseError("bad double: '" + std::string(text) + "'");
  }
  return v;
}

std::optional<std::string_view> FindKeyValueOpt(std::string_view record,
                                                std::string_view key) {
  std::size_t pos = 0;
  while (pos < record.size()) {
    const std::size_t hit = record.find(key, pos);
    if (hit == std::string_view::npos) break;
    // Must be at start or preceded by whitespace to be a field boundary,
    // and followed by '=' to be this key and not a prefix of another.
    const std::size_t eq = hit + key.size();
    if ((hit == 0 || IsSpace(record[hit - 1])) && eq < record.size() &&
        record[eq] == '=') {
      const std::size_t vstart = eq + 1;
      const std::size_t vend = FindWhitespace(record, vstart);
      return record.substr(vstart, vend - vstart);
    }
    pos = hit + 1;
  }
  return std::nullopt;
}

namespace {

// Byte classes for the key=value tokenizer.
constexpr std::uint8_t kKvOther = 0;
constexpr std::uint8_t kKvSpace = 1;
constexpr std::uint8_t kKvEquals = 2;

constexpr std::array<std::uint8_t, 256> kKvClass = [] {
  std::array<std::uint8_t, 256> table{};
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    table[static_cast<std::size_t>(b)] =
        IsSpace(c) ? kKvSpace : c == '=' ? kKvEquals : kKvOther;
  }
  return table;
}();

std::uint8_t KvClass(char c) {
  return kKvClass[static_cast<unsigned char>(c)];
}

}  // namespace

KeyValueView::KeyValueView(std::string_view record) : record_(record) {
  const char* p = record.data();
  const char* const end = p + record.size();
  while (p < end) {
    while (p < end && KvClass(*p) == kKvSpace) ++p;
    const char* const key = p;
    while (p < end && KvClass(*p) == kKvOther) ++p;
    // A bare token (no '=' before its end) is skipped, like
    // FindKeyValueOpt skips it; a bare trailing token ends the record.
    if (p == end || KvClass(*p) == kKvSpace) continue;
    // p is the token's first '='; a later one ("neednodes=1:ppn=16")
    // belongs to the value, which runs to the next whitespace.
    const char* const eq = p++;
    while (p < end && KvClass(*p) != kKvSpace) ++p;
    if (count_ == kMaxEntries) {
      overflow_ = true;  // Get falls back to per-key record scans
      return;
    }
    Entry& e = entries_[count_++];
    e.key = key;
    e.key_size = static_cast<std::size_t>(eq - key);
    e.value = eq + 1;
    e.value_size = static_cast<std::size_t>(p - eq - 1);
  }
}

std::optional<std::string_view> KeyValueView::Get(std::string_view key) const {
  if (overflow_) return FindKeyValueOpt(record_, key);
  for (std::size_t i = 0; i < count_; ++i) {
    const Entry& e = entries_[i];
    if (std::string_view(e.key, e.key_size) == key) {
      return std::string_view(e.value, e.value_size);
    }
  }
  return std::nullopt;
}

Result<std::string> FindKeyValue(std::string_view record, std::string_view key) {
  if (const auto value = FindKeyValueOpt(record, key)) {
    return std::string(*value);
  }
  return NotFoundError("key '" + std::string(key) + "' not present");
}

std::string Join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out.append(sep);
    out.append(items[i]);
  }
  return out;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string WithThousands(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace ld
