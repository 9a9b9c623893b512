// Multi-process round execution: a coordinator and forked worker processes
// exchanging shuffle segments over loopback TCP (DataflowBackend::kProc).
//
// One RunProcRound call executes one map-shuffle-reduce round. It is the
// kProc half of RunMapReduce (src/dataflow/engine.h), which is the one way
// to run a round; nothing else calls it.
//
//   1. The coordinator forks max(M, R) workers. fork() copies the address
//      space, so the round's map/reduce closures (and whatever parent state
//      they capture — the sequence database, NFAs, option structs) are
//      valid in every worker without any serialization of the functions
//      themselves. Data still crosses processes only in serialized form.
//   2. Map tasks are scheduled onto idle workers. A worker runs the *same*
//      RunMapShard body as the local backend (src/dataflow/map_shard.h),
//      then ships each reducer's output as segments: spilled sorted runs
//      verbatim (the SpillFile bytes double as the wire format), then the
//      resident bucket tail, sorted at seal, in stored form (compressed iff
//      compress_shuffle, like spill runs). kMapDone carries the task's raw
//      shuffle metrics and commits its segments; the coordinator enforces
//      the global shuffle budget on the committed sum. It holds each
//      segment in memory while its own memory_budget_bytes has room and
//      parks it in a SpillFile otherwise (DataflowMetrics::
//      proc_parked_segments).
//   3. Reduce tasks replay each reducer's committed segments in map-task
//      order — exactly the source order of the local reduce phase, so the
//      one stable merge of RunReduceColumn yields byte-identical groups and
//      within-key value order. The records the reduce function emits come
//      back in kReduceDone; they are the only output that leaves a worker.
//
// Failure policy (see README "Failure model & fault injection"):
//
//   - Detection. A worker that dies surfaces as connection EOF; one whose
//     in-flight task makes no observable progress for
//     proc_worker_timeout_ms is SIGKILLed. "Progress" counts any frame,
//     including the kPong heartbeats the worker's task thread sends as its
//     task advances (per map input, received segment and reduced key
//     group, at most one per heartbeat interval) — so a slow task outlives
//     any timeout while a hung one goes silent and dies. Liveness flows
//     one way: the coordinator never probes its workers.
//   - Retries. The dead worker's in-flight task has its uncommitted
//     segments discarded and is reassigned, at most
//     proc_max_task_attempts times total; exhausting the budget throws
//     ProcTaskFailedError naming the phase, task, attempt count, and last
//     failure. Worker exceptions (kError frames) are deterministic and
//     rethrown immediately, never retried. Committed map output persists on
//     the coordinator, so lost reduce tasks replay without re-running maps.
//   - Respawn. Each death schedules a replacement worker fork after an
//     exponential backoff (10ms doubling, capped at 1s, at most 5 respawns
//     per ordinal), so a transiently crashing pool heals instead of
//     shrinking to zero; the round fails with ProcBackendError only when no
//     live or respawnable worker remains.
//   - Deadline. proc_round_deadline_ms caps the round's wall clock;
//     exceeding it throws ProcDeadlineError.
//
// Results are identical across retries because task output is deterministic
// and only committed once. Orphaned spill files of killed workers are
// removed by the coordinator (spill file names embed the owning pid).
// Attempt/retry/kill/respawn counts surface in DataflowMetrics::proc_* and
// `dseq_cli --stats`.
//
// Failures are *injected* deterministically in chaos builds via
// src/fault/fault_injection.h: sites in the socket layer, spill I/O, and
// the worker lifecycle (worker.message kills/stalls by message count,
// worker.before_commit just before kMapDone) replace the former
// DSEQ_PROC_TEST_KILL_WORKER env hook.
//
// Determinism contract with the local backend: identical result records
// (values in the same within-key order), identical raw shuffle metrics
// (shuffle_bytes, shuffle_records, map_output_records, reducer_bytes, and
// shuffle_compressed_bytes). spill_* metrics are real but not comparable —
// each worker process budgets its own memory, so spill timing differs.
#ifndef DSEQ_RPC_PROC_BACKEND_H_
#define DSEQ_RPC_PROC_BACKEND_H_

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/dataflow/engine.h"

namespace dseq {

/// Base of every proc-backend infrastructure failure (as opposed to typed
/// exceptions a worker's task itself threw, which are rethrown as-is).
class ProcBackendError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A task exhausted its retry budget: every one of `attempts` executions
/// (== DataflowOptions::proc_max_task_attempts) ended in a worker death or
/// stall. The message and accessors name the phase ("map"/"reduce"), the
/// task index, the attempt count, and the last observed failure.
class ProcTaskFailedError : public ProcBackendError {
 public:
  ProcTaskFailedError(std::string phase, int task, int attempts,
                      std::string last_failure)
      : ProcBackendError("proc backend: " + phase + " task " +
                         std::to_string(task) + " failed after " +
                         std::to_string(attempts) + " attempts (last failure: " +
                         last_failure + ")"),
        phase_(std::move(phase)),
        task_(task),
        attempts_(attempts),
        last_failure_(std::move(last_failure)) {}

  const std::string& phase() const { return phase_; }
  int task() const { return task_; }
  int attempts() const { return attempts_; }
  const std::string& last_failure() const { return last_failure_; }

 private:
  std::string phase_;
  int task_;
  int attempts_;
  std::string last_failure_;
};

/// The round exceeded DataflowOptions::proc_round_deadline_ms.
class ProcDeadlineError : public ProcBackendError {
 public:
  using ProcBackendError::ProcBackendError;
};

/// Runs one round on forked worker processes; RunMapReduce calls it for
/// DataflowBackend::kProc. `options` is honored like the local backend
/// honors it (workers, budgets, compression, partitioner, round_index),
/// plus the proc_* failure-policy knobs; Execution::kSimulated is ignored —
/// processes are always real. The result's records are in reduce-task
/// order, as on the local backend. Throws the worker's typed exception
/// (ShuffleOverflowError etc.) on a task exception, ProcTaskFailedError /
/// ProcDeadlineError / ProcBackendError on policy failures (see the header
/// comment).
RoundResult RunProcRound(size_t num_inputs, const MapFn& map_fn, bool combine,
                         const ReduceFn& reduce_fn,
                         const DataflowOptions& options);

}  // namespace dseq

#endif  // DSEQ_RPC_PROC_BACKEND_H_
