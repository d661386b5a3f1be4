// Error/failure taxonomy of the field study.
//
// Categories follow the Blue Waters error sources the paper correlates
// against application runs: machine checks and uncorrectable memory on
// compute blades, GPU double-bit ECC and Xid errors on XK nodes, Gemini
// high-speed-network failures, Lustre filesystem incidents, node
// heartbeat faults, and blade-level hardware faults.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "common/time.hpp"
#include "topology/machine.hpp"

namespace ld {

enum class ErrorCategory : std::uint8_t {
  kMachineCheck,   // CPU/cache machine-check exception
  kMemoryUE,       // uncorrectable DIMM error
  kGpuDbe,         // GPU double-bit ECC error (XK only)
  kGpuXid,         // GPU Xid software/hardware error (XK only)
  kGeminiLink,     // HSN link/LCB failure
  kLustre,         // filesystem incident (system-wide scope)
  kNodeHeartbeat,  // node stopped responding / crashed
  kBladeFault,     // blade controller or voltage fault (4-node blast)
  kKernelSoftware, // kernel panic / OS software failure
  kUnknown,        // attribution failed (LogDiver output only)
};

inline constexpr int kErrorCategoryCount = 10;

const char* ErrorCategoryName(ErrorCategory c);
Result<ErrorCategory> ParseErrorCategory(std::string_view name);

/// How severe a logged event is.  Only fatal-capable events are eligible
/// to be blamed for an application failure; "corrected" events are the
/// high-volume noise floor that the filtering stage must not attribute.
enum class Severity : std::uint8_t {
  kCorrected,  // recovered automatically; informational
  kDegraded,   // component impaired; service continued (e.g. failover)
  kFatal,      // component lost; anything running there is gone
};

const char* SeverityName(Severity s);
Result<Severity> ParseSeverity(std::string_view name);

/// Spatial blast radius of an event.
enum class Scope : std::uint8_t {
  kNode,    // one compute node
  kBlade,   // one blade: 4 nodes + 2 Gemini ASICs
  kSystem,  // machine-wide service (Lustre, site infrastructure)
};

const char* ScopeName(Scope s);

/// A ground-truth error event produced by the fault injector.  The
/// simulator knows everything; what reaches the logs is the subset with
/// `detected == true`, rendered by the emitters.
struct ErrorEvent {
  std::uint64_t event_id = 0;
  TimePoint time;
  ErrorCategory category = ErrorCategory::kUnknown;
  Severity severity = Severity::kCorrected;
  Scope scope = Scope::kNode;
  NodeIndex node = kInvalidNode;  // valid for node/blade scope
  /// Outage length for system-scope events (Lustre incident window).
  Duration outage{0};
  /// Whether the event produced any log line.  The XK detection gap
  /// (anchor A6) is modeled as a lower detection probability for
  /// GPU-side errors.
  bool detected = true;
};

}  // namespace ld
