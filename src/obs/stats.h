// One stats schema for every backend.
//
// `dseq_cli --stats` used to assemble its report from ad-hoc printf
// helpers that silently skipped fields (proc-only counters printed
// nothing under the local backend, spill counters vanished for
// non-spilling runs), so two runs could not be diffed line by line.
// These renderers emit a *fixed, ordered field set*: every field appears
// in every run, fields that cannot apply to the active backend are
// printed as an explicit `n/a (...)` marker, and the same data serializes
// to JSON for `--metrics-json` and the bench harness.
#ifndef DSEQ_OBS_STATS_H_
#define DSEQ_OBS_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/dataflow/engine.h"

namespace dseq {
namespace obs {

/// Renders a run's `--stats` report from its per-round metrics (a
/// DistributedResult's round_metrics). Each block is the fixed three-line
/// schema, `<prefix>` naming its scope:
///
///   <prefix>: map Xs, reduce Xs, shuffle N bytes (N records),
///             compressed N bytes, reducer max/mean X.XX
///   <prefix> spill: N runs, N bytes written, N merge passes
///   <prefix> proc: N task attempts (N retries), N stall kills, N workers
///             respawned, N segment chunks, N parked segments
///
/// The report is one block per round ("round 1", ...) only when there is
/// more than one round, then the field-wise sum ("run" for one round,
/// "total" otherwise).
///
/// Under the local backend the proc line renders as
/// `<prefix> proc: n/a (local backend)`; a reducer-balance ratio without
/// data renders as `n/a`. Identical field set either way.
std::string RenderStats(const std::vector<DataflowMetrics>& rounds,
                        bool proc_backend);

/// All DataflowMetrics fields as a JSON object (reducer_bytes included as
/// an array; `backend` records which backend produced them).
std::string DataflowMetricsJson(const DataflowMetrics& m, bool proc_backend);

/// The `--metrics-json` document: {"dataflow": <DataflowMetricsJson or
/// null when the algorithm has no dataflow metrics>, "registry":
/// <obs::RegistryJson()>}.
std::string MetricsReportJson(const DataflowMetrics* aggregate,
                              bool proc_backend);

}  // namespace obs
}  // namespace dseq

#endif  // DSEQ_OBS_STATS_H_
