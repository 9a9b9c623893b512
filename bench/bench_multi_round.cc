// Multi-round chained dataflow harness: per-round map/reduce seconds and
// shuffle volumes — the in-process analogue of Spark's per-stage
// `shuffleWriteBytes` view that the paper reads off its cluster runs.
//
// Two iterative workloads run against their single-round counterparts:
//
//   1. k-round chained PrefixSpan (the MLlib-style iterative setting): each
//      round shuffles the projected databases of the surviving prefixes; the
//      collapsed baseline ships every projection once and recurses locally.
//   2. Two-round frequency recount + mine for SEMI-NAIVE and D-SEQ: round 1
//      is the f-list job real deployments run first, round 2 the miner.
//
// All chained results are checksum-verified against the single-round
// algorithms. Knobs: DSEQ_BENCH_SCALE / _WORKERS / _EXECUTION (see
// bench_util.h).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common/bench_util.h"

namespace {

using namespace dseq;
using namespace dseq::bench;

std::string Count(uint64_t n) { return std::to_string(n); }

std::string Compressed(const DataflowMetrics& m) {
  return m.shuffle_compressed_bytes > 0 ? FormatBytes(m.shuffle_compressed_bytes)
                                        : "-";
}

// Prints one row per round plus the aggregate, labeled `name`.
void PrintRounds(const std::string& name, const DistributedResult& result) {
  for (size_t r = 0; r < result.round_metrics.size(); ++r) {
    const DataflowMetrics& m = result.round_metrics[r];
    PrintRow({name + " round " + std::to_string(r + 1),
              FormatSeconds(m.map_seconds), FormatSeconds(m.reduce_seconds),
              FormatBytes(m.shuffle_bytes), Compressed(m),
              Count(m.shuffle_records)});
  }
  const DataflowMetrics& total = result.metrics;
  PrintRow({name + " total", FormatSeconds(total.map_seconds),
            FormatSeconds(total.reduce_seconds),
            FormatBytes(total.shuffle_bytes), Compressed(total),
            Count(total.shuffle_records)});
}

RunRow ChainedRow(const std::string& algo, const DistributedResult& result) {
  RunRow row;
  row.algo = algo;
  row.total_s = result.metrics.total_seconds();
  row.map_s = result.metrics.map_seconds;
  row.mine_s = result.metrics.reduce_seconds;
  row.shuffle_bytes = result.metrics.shuffle_bytes;
  row.num_patterns = result.patterns.size();
  row.checksum = ResultChecksum(result.patterns);
  return row;
}

void BenchChainedPrefixSpan() {
  const SequenceDatabase& db = Amzn();
  PrefixSpanOptions options;
  options.sigma = std::max<uint64_t>(2, 10 * GetConfig().scale);
  options.lambda = 4;
  options.execution = BenchExecution();
  options.num_map_workers = GetConfig().workers;
  options.num_reduce_workers = GetConfig().workers;

  PrintHeader("Chained PrefixSpan, AMZN', T1(" +
                  std::to_string(options.sigma) + "," +
                  std::to_string(options.lambda) + ")",
              {"stage", "map", "reduce", "shuffle", "compressed", "records"});

  DistributedResult chained =
      MineChainedPrefixSpan(db.sequences, db.dict, options);
  PrintRounds("k-round", chained);

  // Same chain with the block codec on: identical patterns and raw volume,
  // plus what would actually cross the wire.
  PrefixSpanOptions compressed_options = options;
  compressed_options.compress_shuffle = true;
  DistributedResult compressed =
      MineChainedPrefixSpan(db.sequences, db.dict, compressed_options);
  PrintRounds("k-round+codec", compressed);

  RunRow collapsed = RunPrefixSpan(db, options);
  PrintRow({"collapsed (1 round)", FormatSeconds(collapsed.map_s),
            FormatSeconds(collapsed.mine_s),
            FormatBytes(collapsed.shuffle_bytes), "-", "-"});

  CheckAgreement({ChainedRow("k-round-PS", chained),
                  ChainedRow("k-round-PS+codec", compressed), collapsed},
                 "chained PrefixSpan");
  std::printf("patterns: %zu (%zu rounds)\n", chained.patterns.size(),
              chained.num_rounds());
  if (compressed.metrics.shuffle_compressed_bytes > 0) {
    std::printf("codec: %llu -> %llu shuffle bytes (%.1f%%)\n",
                (unsigned long long)compressed.metrics.shuffle_bytes,
                (unsigned long long)compressed.metrics.shuffle_compressed_bytes,
                100.0 * compressed.metrics.shuffle_compressed_bytes /
                    compressed.metrics.shuffle_bytes);
  }
}

void BenchRecountMiners() {
  const SequenceDatabase& db = Nyt();
  Constraint c = NytConstraint(1);
  Fst fst = CompileFst(c.pattern, db.dict);

  PrintHeader("Frequency recount + mine, NYT', " + c.name,
              {"stage", "map", "reduce", "shuffle", "compressed", "records"});

  NaiveRecountOptions naive;
  naive.sigma = c.sigma;
  naive.semi_naive = true;
  naive.execution = BenchExecution();
  naive.num_map_workers = GetConfig().workers;
  naive.num_reduce_workers = GetConfig().workers;
  naive.candidates_per_sequence_budget = 2'000'000;
  DistributedResult semi = MineNaiveRecount(db.sequences, fst, db.dict, naive);
  PrintRounds("SemiNaive+recount", semi);

  DSeqRecountOptions dseq;
  dseq.sigma = c.sigma;
  dseq.execution = BenchExecution();
  dseq.num_map_workers = GetConfig().workers;
  dseq.num_reduce_workers = GetConfig().workers;
  DistributedResult dseq_result =
      MineDSeqRecount(db.sequences, fst, db.dict, dseq);
  PrintRounds("D-SEQ+recount", dseq_result);

  RunRow single = RunDSeq(db, fst, dseq);
  PrintRow({"D-SEQ (1 round)", FormatSeconds(single.map_s),
            FormatSeconds(single.mine_s), FormatBytes(single.shuffle_bytes),
            "-", "-"});

  CheckAgreement({ChainedRow("SemiNaive+recount", semi),
                  ChainedRow("D-SEQ+recount", dseq_result), single},
                 "recount miners");
  std::printf(
      "(recount round 1 recomputes the f-list the single-round miners read "
      "from the dictionary)\n");
}

}  // namespace

int main() {
  BenchChainedPrefixSpan();
  BenchRecountMiners();
  return AgreementExitStatus();
}
