// The injector-side ground-truth ledger.
//
// Summarizes what a fault-injection pass actually did — per-category
// event and kill counts, detection coverage, and the per-partition
// split — so scenario expectations can be checked against *injected*
// truth rather than against the analyzer's own output.  The detection-
// gap scenarios lean on the exact identity the deterministic override
// guarantees (see faults/storms.hpp): the ledger is where that identity
// is read back.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "faults/taxonomy.hpp"
#include "workload/types.hpp"

namespace ld {

struct CategoryTally {
  std::uint64_t injected = 0;    // all events of the category
  std::uint64_t undetected = 0;  // events with no log evidence
  std::uint64_t kills = 0;       // application kills attributed to it
};

struct FaultLedger {
  std::array<CategoryTally, kErrorCategoryCount> by_category{};

  std::uint64_t events_total = 0;
  std::uint64_t events_undetected = 0;

  /// GPU-side (kGpuDbe/kGpuXid) fatal node-scope events — the A6 pool.
  std::uint64_t gpu_fatal_injected = 0;
  std::uint64_t gpu_fatal_undetected = 0;

  std::uint64_t kills_total = 0;
  std::uint64_t kills_undetected_cause = 0;

  /// Per-partition kill split (XE vs XK), for the A6 contrast.
  std::uint64_t xe_kills = 0;
  std::uint64_t xe_kills_undetected_cause = 0;
  std::uint64_t xk_kills = 0;
  std::uint64_t xk_kills_undetected_cause = 0;

  /// Order-insensitive FNV-style fingerprint over every counter; equal
  /// ledgers <=> equal fingerprints (used by the determinism tests).
  std::uint64_t Fingerprint() const;

  /// Human-readable rows for campaign reports.
  std::vector<std::string> Render() const;
};

/// Builds the ledger from a finished injection pass.  `workload` must be
/// the same (mutated) workload `Inject` ran over.
FaultLedger BuildFaultLedger(const Workload& workload,
                             const InjectionResult& injection);

}  // namespace ld
