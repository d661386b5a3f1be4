// The metric name catalog — the single place a metric name may be
// spelled in code.
//
// Names are a stable interface: dashboards, the run-manifest schema and
// docs/OBSERVABILITY.md all key off them.  Every name registered here
// MUST have a row in the docs/OBSERVABILITY.md catalog and vice versa;
// tools/check_metric_docs.py (wired into ctest and the CI docs job)
// fails the build when the two drift.  Scheme: `ld.<area>.<what>`,
// counters end in `_total`, histograms in their unit (`_micros`,
// `_bytes`), gauges say what they gauge.
#pragma once

namespace ld::obs::names {

// --- batch ingestion (logdiver.cpp, block_reader.cpp) ----------------
inline constexpr const char* kIngestLinesTotal = "ld.ingest.lines_total";
inline constexpr const char* kIngestRecordsTotal = "ld.ingest.records_total";
inline constexpr const char* kIngestMalformedTotal =
    "ld.ingest.malformed_total";
inline constexpr const char* kIngestBytesMappedTotal =
    "ld.ingest.bytes_mapped_total";
inline constexpr const char* kIngestMmapFallbackTotal =
    "ld.ingest.mmap_fallback_total";
inline constexpr const char* kIngestBlocksTotal = "ld.ingest.blocks_total";
inline constexpr const char* kIngestBudgetExhaustedTotal =
    "ld.ingest.budget_exhausted_total";

// --- parsed-bundle cache (cache/bundle_cache.cpp) --------------------
inline constexpr const char* kCacheHitsTotal = "ld.cache.hits_total";
inline constexpr const char* kCacheRecordHitsTotal =
    "ld.cache.record_hits_total";
inline constexpr const char* kCacheMissesTotal = "ld.cache.misses_total";
inline constexpr const char* kCacheRejectedTotal = "ld.cache.rejected_total";
inline constexpr const char* kCacheWritesTotal = "ld.cache.writes_total";
inline constexpr const char* kCacheWriteBytesTotal =
    "ld.cache.write_bytes_total";
inline constexpr const char* kCacheEvictedTotal = "ld.cache.evicted_total";
inline constexpr const char* kCacheOrphansRemovedTotal =
    "ld.cache.orphans_removed_total";
inline constexpr const char* kCacheLoadMicros = "ld.cache.load_micros";
inline constexpr const char* kCacheStoreMicros = "ld.cache.store_micros";

// --- quarantine (quarantine.cpp) -------------------------------------
inline constexpr const char* kQuarantineAddedTotal =
    "ld.quarantine.added_total";
inline constexpr const char* kQuarantineOverflowTotal =
    "ld.quarantine.overflow_total";

// --- thread pool (parallel.cpp) --------------------------------------
inline constexpr const char* kPoolTasksTotal = "ld.pool.tasks_total";
inline constexpr const char* kPoolWaitMicros = "ld.pool.wait_micros";
inline constexpr const char* kPoolRunMicros = "ld.pool.run_micros";
inline constexpr const char* kPoolQueueDepth = "ld.pool.queue_depth";

// --- batch analysis stages (logdiver.cpp) ----------------------------
inline constexpr const char* kAnalyzeTotalMicros = "ld.analyze.total_micros";
inline constexpr const char* kAnalyzeRunsTotal = "ld.analyze.runs_total";
inline constexpr const char* kAnalyzeTuplesTotal = "ld.analyze.tuples_total";

// --- correlation (correlate.cpp) -------------------------------------
inline constexpr const char* kCorrelateRunsTotal = "ld.correlate.runs_total";
inline constexpr const char* kCorrelateChunksTotal =
    "ld.correlate.chunks_total";
inline constexpr const char* kCorrelateIndexMicros =
    "ld.correlate.index_micros";
inline constexpr const char* kCorrelateTotalMicros =
    "ld.correlate.total_micros";

// --- bootstrap resampling (bootstrap.cpp) ----------------------------
inline constexpr const char* kBootstrapReplicasTotal =
    "ld.bootstrap.replicas_total";
inline constexpr const char* kBootstrapTotalMicros =
    "ld.bootstrap.total_micros";

// --- snapshots (snapshot.cpp) ----------------------------------------
inline constexpr const char* kSnapshotWritesTotal = "ld.snapshot.writes_total";
inline constexpr const char* kSnapshotWriteBytesTotal =
    "ld.snapshot.write_bytes_total";
inline constexpr const char* kSnapshotWriteMicros =
    "ld.snapshot.write_micros";
inline constexpr const char* kSnapshotRestoresTotal =
    "ld.snapshot.restores_total";
inline constexpr const char* kSnapshotRejectedTotal =
    "ld.snapshot.rejected_total";

// --- resume / streaming (resume.cpp, streaming.cpp) ------------------
inline constexpr const char* kResumeLinesStreamedTotal =
    "ld.resume.lines_streamed_total";
inline constexpr const char* kResumeLinesSkippedTotal =
    "ld.resume.lines_skipped_total";
inline constexpr const char* kStreamAdvancesTotal =
    "ld.stream.advances_total";
inline constexpr const char* kStreamRunsFinalizedTotal =
    "ld.stream.runs_finalized_total";
inline constexpr const char* kStreamEvictedRunsTotal =
    "ld.stream.evicted_runs_total";
inline constexpr const char* kStreamEvictedTuplesTotal =
    "ld.stream.evicted_tuples_total";

// --- fleet scale-out (fleet/supervisor.cpp) --------------------------
inline constexpr const char* kFleetWorkersSpawnedTotal =
    "ld.fleet.workers_spawned_total";
inline constexpr const char* kFleetWorkerCrashesTotal =
    "ld.fleet.worker_crashes_total";
inline constexpr const char* kFleetWorkerHangsKilledTotal =
    "ld.fleet.worker_hangs_killed_total";
inline constexpr const char* kFleetPartialsRejectedTotal =
    "ld.fleet.partials_rejected_total";
inline constexpr const char* kFleetRetriesTotal = "ld.fleet.retries_total";
inline constexpr const char* kFleetShardsDroppedTotal =
    "ld.fleet.shards_dropped_total";
inline constexpr const char* kFleetMergeMicros = "ld.fleet.merge_micros";

// --- fault injection (faults/injector.cpp, faults/storms.cpp) --------
inline constexpr const char* kFaultsEventsInjectedTotal =
    "ld.faults.events_injected_total";
inline constexpr const char* kFaultsEventsUndetectedTotal =
    "ld.faults.events_undetected_total";
inline constexpr const char* kFaultsKillsTotal = "ld.faults.kills_total";
inline constexpr const char* kFaultsStormEventsTotal =
    "ld.faults.storm_events_total";
inline constexpr const char* kFaultsMaintenanceKillsTotal =
    "ld.faults.maintenance_kills_total";
inline constexpr const char* kFaultsGapFlippedTotal =
    "ld.faults.gap_flipped_total";

// --- scenario catalog (simlog/catalog.cpp) ---------------------------
inline constexpr const char* kScenarioRunsTotal = "ld.scenario.runs_total";
inline constexpr const char* kScenarioAppsTotal = "ld.scenario.apps_total";
inline constexpr const char* kScenarioValidationFailuresTotal =
    "ld.scenario.validation_failures_total";
inline constexpr const char* kScenarioRunMicros = "ld.scenario.run_micros";

// --- multi-tenant service (service/tenant.cpp, service/daemon.cpp) ---
inline constexpr const char* kSvcIngestAcceptedTotal =
    "ld.svc.ingest_accepted_total";
inline constexpr const char* kSvcIngestShedTotal = "ld.svc.ingest_shed_total";
inline constexpr const char* kSvcIngestBackpressuredTotal =
    "ld.svc.ingest_backpressured_total";
inline constexpr const char* kSvcQueriesTotal = "ld.svc.queries_total";
inline constexpr const char* kSvcQueryMicros = "ld.svc.query_micros";
inline constexpr const char* kSvcQueueDepth = "ld.svc.queue_depth";
inline constexpr const char* kSvcSnapshotsTotal = "ld.svc.snapshots_total";
inline constexpr const char* kSvcTenantsAdmittedTotal =
    "ld.svc.tenants_admitted_total";
inline constexpr const char* kSvcTenantsRecoveredTotal =
    "ld.svc.tenants_recovered_total";
inline constexpr const char* kSvcWatchdogKillsTotal =
    "ld.svc.watchdog_kills_total";

}  // namespace ld::obs::names
