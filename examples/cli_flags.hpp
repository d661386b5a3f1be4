// Numeric flag values of the command-line binaries (logdiver_cli,
// logdiverd), one rule for both: plain decimal digits, no sign or
// trailing bytes, within a per-flag range.
#pragma once

#include <cstdint>
#include <iostream>
#include <string_view>

#include "common/strings.hpp"

namespace ld {

/// Stores `value`, a flag's argument (null when it is missing), in `out`
/// when it is an integer in [lo, hi].  Otherwise returns false, and for
/// a value that is there prints "<program>: <flag> expects an integer in
/// [lo, hi], got '<value>'"; the caller then exits through its usage
/// text.
template <class T>
bool ParseUintFlag(std::string_view program, std::string_view flag,
                   const char* value, std::uint64_t lo, std::uint64_t hi,
                   T& out) {
  if (value == nullptr) return false;
  const auto parsed = ParseUint(value);
  if (!parsed.ok() || *parsed < lo || *parsed > hi) {
    std::cerr << program << ": " << flag << " expects an integer in [" << lo
              << ", " << hi << "], got '" << value << "'\n";
    return false;
  }
  out = static_cast<T>(*parsed);
  return true;
}

}  // namespace ld
