// Partition-balance benchmark over skewed Zipf hierarchies (ROADMAP
// "partition balance actions"; paper Sec. III-B discussion).
//
// For each configuration the harness generates a skewed Zipf database where
// a single heavy pivot dominates (see src/datagen/skewed_zipf.h), runs
// D-SEQ once with hash partitioning and once under a PartitionPlan
// (MineDSeqBalanced: LPT packing, light-pivot bundling, heavy-pivot range
// splits + reconcile round), and reports the measured per-reducer
// `max_to_mean_bytes` before/after, the improvement factor, and whether the
// two runs' patterns are byte-identical (they must be — the plan may only
// move bytes, never change results).
//
// Usage: bench_partition_balance [--json] [--tiny] [--workers N]
//   --json     machine-readable output (CI archives it as
//              BENCH_partition_balance.json next to BENCH_micro.json)
//   --tiny     CI-sized databases (fast smoke run)
//   --workers  reducer count per run (default 8)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common/bench_util.h"
#include "src/datagen/skewed_zipf.h"
#include "src/dist/dseq_miner.h"
#include "src/dist/partition_plan.h"
#include "src/dist/partition_stats.h"
#include "src/obs/trace.h"
#include "src/fst/compiler.h"

namespace dseq {
namespace {

struct Config {
  bool json = false;
  bool tiny = false;
  int workers = 8;
};
Config g_config;

struct BalanceRow {
  std::string name;
  int reducers = 0;
  size_t num_pivots = 0;     // pivots that received data
  size_t num_splits = 0;     // pivots the plan range-split
  uint64_t shuffle_bytes = 0;
  double hash_max_to_mean = 0.0;     // measured, hash partitioning
  double planned_max_to_mean = 0.0;  // projected by the plan
  double balanced_max_to_mean = 0.0;  // measured, plan-driven mining round
  double improvement = 0.0;           // hash / balanced
  bool identical = false;             // balanced patterns == hash patterns
  double hash_seconds = 0.0;
  double balanced_seconds = 0.0;
};

std::vector<BalanceRow> g_rows;

double Now() {
  return std::chrono::duration<double>(obs::Now().time_since_epoch()).count();
}

void RunCase(const std::string& name, const SkewedZipfOptions& gen,
             const std::string& pattern, uint64_t sigma, int workers = 0) {
  SequenceDatabase db = GenerateSkewedZipf(gen);
  Fst fst = CompileFst(pattern, db.dict);
  if (workers == 0) workers = g_config.workers;

  BalanceRow row;
  row.name = name;
  row.reducers = workers;

  DSeqOptions hash_options;
  hash_options.sigma = sigma;
  hash_options.num_map_workers = workers;
  hash_options.num_reduce_workers = workers;
  double start = Now();
  DistributedResult hash_run =
      MineDSeq(db.sequences, fst, db.dict, hash_options);
  row.hash_seconds = Now() - start;
  row.shuffle_bytes = hash_run.metrics.shuffle_bytes;
  row.hash_max_to_mean =
      SummarizeReducerBytes(hash_run.metrics.reducer_bytes)
          .max_to_mean_reducer_bytes;

  DSeqBalanceOptions balance_options;
  static_cast<DSeqOptions&>(balance_options) = hash_options;
  PartitionPlan plan;
  start = Now();
  DistributedResult balanced =
      MineDSeqBalanced(db.sequences, fst, db.dict, balance_options, &plan);
  row.balanced_seconds = Now() - start;
  row.num_pivots = plan.assignments.size() + plan.splits.size();
  row.num_splits = plan.splits.size();
  row.planned_max_to_mean =
      SummarizePlannedBalance(plan).max_to_mean_reducer_bytes;
  // The mining round (round 1) carries the partition-balance story; the
  // reconcile round ships only (pattern, count) records.
  row.balanced_max_to_mean =
      SummarizeReducerBytes(balanced.round_metrics.front().reducer_bytes)
          .max_to_mean_reducer_bytes;
  row.improvement = row.balanced_max_to_mean > 0
                        ? row.hash_max_to_mean / row.balanced_max_to_mean
                        : 0.0;
  row.identical = bench::ResultChecksum(balanced.patterns) ==
                      bench::ResultChecksum(hash_run.patterns) &&
                  balanced.patterns == hash_run.patterns;
  g_rows.push_back(row);

  if (!g_config.json) {
    std::printf(
        "%-22s R=%-3d pivots=%-5zu splits=%-2zu shuffle=%-9llu "
        "max/mean: hash %6.2f -> plan %5.2f -> measured %5.2f  (%4.1fx)  %s\n",
        row.name.c_str(), row.reducers, row.num_pivots, row.num_splits,
        static_cast<unsigned long long>(row.shuffle_bytes),
        row.hash_max_to_mean, row.planned_max_to_mean,
        row.balanced_max_to_mean, row.improvement,
        row.identical ? "identical" : "MISMATCH");
  }
}

void PrintJson() {
  std::printf("{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const BalanceRow& r = g_rows[i];
    std::printf(
        "    {\"name\": \"%s\", \"reducers\": %d, \"num_pivots\": %zu, "
        "\"num_splits\": %zu, \"shuffle_bytes\": %llu, "
        "\"hash_max_to_mean\": %.3f, \"planned_max_to_mean\": %.3f, "
        "\"balanced_max_to_mean\": %.3f, \"improvement\": %.3f, "
        "\"identical\": %s, \"hash_seconds\": %.4f, "
        "\"balanced_seconds\": %.4f}%s\n",
        r.name.c_str(), r.reducers, r.num_pivots, r.num_splits,
        static_cast<unsigned long long>(r.shuffle_bytes), r.hash_max_to_mean,
        r.planned_max_to_mean, r.balanced_max_to_mean, r.improvement,
        r.identical ? "true" : "false", r.hash_seconds, r.balanced_seconds,
        i + 1 < g_rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace
}  // namespace dseq

int main(int argc, char** argv) {
  using namespace dseq;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      g_config.json = true;
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      g_config.tiny = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      g_config.workers = std::atoi(argv[++i]);
      if (g_config.workers <= 0) g_config.workers = 1;
    } else {
      std::fprintf(stderr,
                   "usage: bench_partition_balance [--json] [--tiny] "
                   "[--workers N]\n");
      return 2;
    }
  }

  bool tiny = g_config.tiny;
  const char* kSingleGen = ".*(.^).*";       // single generalized items: the
                                             // head pivot takes everything
  const char* kBigram = ".*(.^)[.{0,1}(.^)]{1,2}.*";  // mixed n-grams

  SkewedZipfOptions zipf;
  zipf.seed = 101;
  zipf.num_items = tiny ? 60 : 150;
  zipf.num_groups = 8;
  zipf.num_sequences = tiny ? 200 : 1'000;
  zipf.min_length = 4;
  zipf.max_length = tiny ? 10 : 14;

  zipf.zipf_exponent = 1.0;
  RunCase("zipf1.0_single_gen", zipf, kSingleGen, 2);
  zipf.zipf_exponent = 1.3;
  RunCase("zipf1.3_single_gen", zipf, kSingleGen, 2);
  zipf.zipf_exponent = 1.3;
  RunCase("zipf1.3_bigram", zipf, kBigram, tiny ? 4 : 8);

  // Coarse hierarchies: one or two category parents cover the whole
  // vocabulary, so a category pivot's partition receives an untrimmed copy
  // of nearly every sequence (no position can be rewritten away when every
  // item generalizes to the pivot) — the single-heavy-pivot worst case of
  // Sec. III-B.
  // Longer sequences widen the gap: category records are untrimmed (they
  // grow with sequence length) while leaf records stay short.
  SkewedZipfOptions coarse = zipf;
  coarse.num_groups = 2;
  coarse.zipf_exponent = 1.5;
  coarse.max_length = tiny ? 20 : 28;
  RunCase("zipf1.5_groups2", coarse, kSingleGen, 2);
  coarse.num_groups = 1;
  RunCase("zipf1.5_groups1", coarse, kSingleGen, 2);
  // The headline case: at 16 reducers the ~25% category pivot pins one
  // hash-chosen reducer at ~4x the mean; the plan splits it and packs the
  // tail, landing at ~1.
  RunCase("zipf1.5_groups1_r16", coarse, kSingleGen, 2, 16);

  if (g_config.json) PrintJson();

  bool all_identical = true;
  for (const auto& row : g_rows) all_identical &= row.identical;
  return all_identical ? 0 : 1;
}
