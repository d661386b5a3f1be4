#include "faults/taxonomy.hpp"

#include <array>

namespace ld {
namespace {

constexpr std::array<const char*, kErrorCategoryCount> kCategoryNames = {
    "machine_check", "memory_ue",      "gpu_dbe",     "gpu_xid",
    "gemini_link",   "lustre",         "node_heartbeat", "blade_fault",
    "kernel_software", "unknown",
};

constexpr std::array<const char*, 3> kSeverityNames = {"corrected", "degraded",
                                                       "fatal"};

}  // namespace

const char* ErrorCategoryName(ErrorCategory c) {
  const auto idx = static_cast<std::size_t>(c);
  return idx < kCategoryNames.size() ? kCategoryNames[idx] : "invalid";
}

Result<ErrorCategory> ParseErrorCategory(std::string_view name) {
  for (std::size_t i = 0; i < kCategoryNames.size(); ++i) {
    if (name == kCategoryNames[i]) return static_cast<ErrorCategory>(i);
  }
  return ParseError("unknown error category '" + std::string(name) + "'");
}

const char* SeverityName(Severity s) {
  const auto idx = static_cast<std::size_t>(s);
  return idx < kSeverityNames.size() ? kSeverityNames[idx] : "invalid";
}

Result<Severity> ParseSeverity(std::string_view name) {
  for (std::size_t i = 0; i < kSeverityNames.size(); ++i) {
    if (name == kSeverityNames[i]) return static_cast<Severity>(i);
  }
  return ParseError("unknown severity '" + std::string(name) + "'");
}

const char* ScopeName(Scope s) {
  switch (s) {
    case Scope::kNode: return "node";
    case Scope::kBlade: return "blade";
    case Scope::kSystem: return "system";
  }
  return "invalid";
}

}  // namespace ld
