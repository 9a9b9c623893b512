// Shared infrastructure for the paper-reproduction benchmarks.
//
// Provides lazily generated, cached benchmark datasets (scaled-down
// substitutes for NYT, AMZN, AMZN-F, and CW50 — see DESIGN.md §3), the
// constraint registry of paper Tab. III, and uniform runners for every
// algorithm that catch budget/OOM failures and report the paper's metrics
// (total/map/mine wall time, shuffle size, result checksum).
//
// Environment knobs:
//   DSEQ_BENCH_SCALE    scales dataset sizes (default 1.0)
//   DSEQ_BENCH_WORKERS  map/reduce workers per run   (default min(8, cores))
//   DSEQ_BENCH_REPEATS  repetitions per measurement  (default 1)
#ifndef DSEQ_BENCH_COMMON_BENCH_UTIL_H_
#define DSEQ_BENCH_COMMON_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/baselines/gap_miner.h"
#include "src/baselines/prefix_span.h"
#include "src/dict/sequence.h"
#include "src/dist/dcand_miner.h"
#include "src/dist/dseq_miner.h"
#include "src/dist/naive.h"
#include "src/fst/compiler.h"

namespace dseq {
namespace bench {

/// Benchmark configuration from the environment.
struct Config {
  double scale = 1.0;
  int workers = 8;
  int repeats = 1;
};
const Config& GetConfig();

/// Execution mode used by all bench runners: real threads when the machine
/// has enough cores, otherwise the engine's cluster simulation (per-worker
/// critical-path timing). Override with DSEQ_BENCH_EXECUTION=threads|simulated.
Execution BenchExecution();

/// Cached benchmark datasets (generated once per process).
const SequenceDatabase& Nyt();
const SequenceDatabase& Amzn();
const SequenceDatabase& AmznF();
const SequenceDatabase& Cw50();

/// A named subsequence constraint instance.
struct Constraint {
  std::string name;     // e.g. "N1(5)"
  std::string pattern;  // pattern expression
  uint64_t sigma = 1;
};

/// Paper Tab. III constraints with σ scaled to the benchmark datasets.
/// `index` is 1-based (N1..N5, A1..A4).
Constraint NytConstraint(int index);
Constraint AmznConstraint(int index);

/// Traditional constraint pattern expressions (with the enclosing .* that
/// DESQ's whole-sequence match semantics requires; Tab. III omits them).
std::string T1Pattern(uint32_t lambda);
std::string T2Pattern(uint32_t gamma, uint32_t lambda);
std::string T3Pattern(uint32_t gamma, uint32_t lambda);

/// One measured algorithm execution.
struct RunRow {
  std::string algo;
  double total_s = 0.0;
  double map_s = 0.0;
  double mine_s = 0.0;
  uint64_t shuffle_bytes = 0;
  size_t num_patterns = 0;
  uint64_t checksum = 0;  // order-independent hash of (pattern, frequency)
  bool oom = false;
};

/// Order-independent checksum for cross-validating algorithm agreement.
uint64_t ResultChecksum(const MiningResult& result);

/// Uniform runners. All catch ShuffleOverflowError / MiningBudgetError and
/// return a row with oom = true. Each runs GetConfig().repeats times and
/// reports the mean time of successful runs.
RunRow RunNaive(const SequenceDatabase& db, const Fst& fst, uint64_t sigma,
                bool semi_naive, uint64_t shuffle_budget = 0);
RunRow RunDSeq(const SequenceDatabase& db, const Fst& fst,
               const DSeqOptions& base_options);
RunRow RunDCand(const SequenceDatabase& db, const Fst& fst,
                const DCandOptions& base_options);
RunRow RunDesqDfsSequential(const SequenceDatabase& db, const Fst& fst,
                            uint64_t sigma, uint64_t max_grid_edges = 0);
RunRow RunGapMiner(const SequenceDatabase& db, const GapMinerOptions& options);
RunRow RunPrefixSpan(const SequenceDatabase& db,
                     const PrefixSpanOptions& options);

/// Simple fixed-width table printing.
void PrintHeader(const std::string& title,
                 const std::vector<std::string>& columns);
void PrintRow(const std::vector<std::string>& cells);
std::string FormatSeconds(double seconds);
std::string FormatBytes(uint64_t bytes);
std::string FormatRun(const RunRow& row);  // "12.3s" or "n/a (OOM)"

/// Warns on stderr if checksums of non-OOM rows disagree, and remembers it
/// for AgreementExitStatus.
void CheckAgreement(const std::vector<RunRow>& rows, const std::string& where);

/// A harness's exit status: 1 if any CheckAgreement in this process found a
/// disagreement, else 0. Every harness that cross-checks returns it from
/// main, so a disagreeing run fails its caller (CI included).
int AgreementExitStatus();

}  // namespace bench
}  // namespace dseq

#endif  // DSEQ_BENCH_COMMON_BENCH_UTIL_H_
