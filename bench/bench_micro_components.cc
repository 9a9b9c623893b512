// Micro-benchmarks for the core components: grid construction, pivot
// search, the forward/backward pivot DPs, rewriting, D-SEQ's partition
// reduce (DfsInput build + pivot-restricted DESQ-DFS, and the whole
// MineDSeqPartition), D-CAND's one-pass minimal-DFA construction and bytes
// and its reduce's NFA decode into the DfsInput store, varint coding, the
// map-side combiner over weighted values and counts (the zero-copy shuffle
// hot path, in memory and budgeted with spills),
// SEMI-NAIVE's map (grid, candidate keys, budgeted combiner), the shuffle
// block codec, the external spill-run merger (the out-of-core reduce path),
// and the tracing-off cost of the instrumentation.
//
// Self-contained harness — no google-benchmark dependency — so the binary
// always builds and CI can track regressions. Each benchmark runs until a
// minimum wall time and reports ns/op (plus items/s where an op processes a
// batch).
//
// Usage: bench_micro_components [--json] [--tiny] [--min-time-ms N]
//   --json         machine-readable output (CI archives it as
//                  BENCH_micro.json, the perf trajectory of the repo)
//   --tiny         CI-sized corpus and batches (fast smoke run)
//   --min-time-ms  per-benchmark measuring time (default 200)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/candidates.h"
#include "src/core/desq_dfs.h"
#include "src/core/grid.h"
#include "src/core/pivot.h"
#include "src/dataflow/combiner.h"
#include "src/dataflow/engine.h"
#include "src/dataflow/shuffle_buffer.h"
#include "src/datagen/text_corpus.h"
#include "src/dist/dcand_miner.h"
#include "src/dist/dseq_miner.h"
#include "src/dist/naive.h"
#include "src/fst/compiler.h"
#include "src/nfa/output_nfa.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/nfa/serializer.h"
#include "src/spill/external_merger.h"
#include "src/spill/memory_budget.h"
#include "src/spill/spill_file.h"
#include "src/util/block_codec.h"
#include "src/util/varint.h"

namespace dseq {
namespace {

struct Config {
  bool json = false;
  bool tiny = false;
  double min_time_s = 0.2;
};
Config g_config;

struct BenchRow {
  std::string name;
  uint64_t iterations = 0;
  double ns_per_op = 0.0;
  double items_per_sec = 0.0;  // 0 when an op has no natural item count
};

std::vector<BenchRow> g_rows;

double Now() {
  return std::chrono::duration<double>(obs::Now().time_since_epoch()).count();
}

void Report(const std::string& name, uint64_t iterations, double elapsed,
            uint64_t items_per_op) {
  BenchRow row;
  row.name = name;
  row.iterations = iterations;
  row.ns_per_op = elapsed / iterations * 1e9;
  if (items_per_op > 0) {
    row.items_per_sec = items_per_op / (elapsed / iterations);
  }
  g_rows.push_back(row);
  if (!g_config.json) {
    std::printf("%-36s %12.0f ns/op %10llu iters", row.name.c_str(),
                row.ns_per_op, (unsigned long long)row.iterations);
    if (row.items_per_sec > 0) {
      std::printf("  %12.0f items/s", row.items_per_sec);
    }
    std::printf("\n");
  }
}

// `items_per_op` > 0 reports throughput (an op processes that many items).
template <typename Fn>
void RunBench(const std::string& name, uint64_t items_per_op, const Fn& fn) {
  fn();  // warm-up (and first-call lazy initialization)
  uint64_t iterations = 0;
  double elapsed = 0.0;
  uint64_t batch = 1;
  // At least one measured batch even with --min-time-ms 0, so ns_per_op is
  // never 0/0 and the JSON stays valid.
  do {
    double start = Now();
    for (uint64_t i = 0; i < batch; ++i) fn();
    double d = Now() - start;
    elapsed += d;
    iterations += batch;
    // Grow batches until one batch is ~1/10 of the budget, so timer
    // overhead stays negligible without overshooting the budget.
    if (d < g_config.min_time_s / 10) batch *= 2;
  } while (elapsed < g_config.min_time_s);
  Report(name, iterations, elapsed, items_per_op);
}

// An A/B pair measured in alternating short batches (A B, then B A, ...),
// so drift in the machine's speed falls on both rows alike; each row gets
// about `min_time` in total. The tracing-off overhead rows use it.
template <typename FnA, typename FnB>
void RunBenchPair(const std::string& name_a, const FnA& fn_a,
                  const std::string& name_b, const FnB& fn_b) {
  fn_a();  // warm-up
  fn_b();
  uint64_t batch = 1;
  for (;;) {
    double start = Now();
    for (uint64_t i = 0; i < batch; ++i) fn_a();
    if (Now() - start >= g_config.min_time_s / 1000) break;
    batch *= 2;
  }
  uint64_t iterations = 0;
  double elapsed_a = 0.0;
  double elapsed_b = 0.0;
  auto time_batch = [&](auto& fn, double* elapsed) {
    double start = Now();
    for (uint64_t i = 0; i < batch; ++i) fn();
    *elapsed += Now() - start;
  };
  for (bool a_first = true;
       iterations == 0 || std::min(elapsed_a, elapsed_b) < g_config.min_time_s;
       a_first = !a_first) {
    if (a_first) {
      time_batch(fn_a, &elapsed_a);
      time_batch(fn_b, &elapsed_b);
    } else {
      time_batch(fn_b, &elapsed_b);
      time_batch(fn_a, &elapsed_a);
    }
    iterations += batch;
  }
  Report(name_a, iterations, elapsed_a, 0);
  Report(name_b, iterations, elapsed_b, 0);
}

// --- shared fixtures --------------------------------------------------------

const SequenceDatabase& Corpus() {
  static SequenceDatabase db = [] {
    TextCorpusOptions options;
    options.num_sentences = g_config.tiny ? 300 : 2'000;
    options.lemmas_per_pos = g_config.tiny ? 80 : 300;
    options.num_entities = g_config.tiny ? 40 : 200;
    return GenerateTextCorpus(options);
  }();
  return db;
}

const Fst& N4Fst() {
  static Fst fst = CompileFst(".* (.^){3} NOUN .*", Corpus().dict);
  return fst;
}

const Fst& N5Fst() {
  static Fst fst =
      CompileFst(".* ([.^. .]|[. .^.]|[. . .^]) .*", Corpus().dict);
  return fst;
}

// N4's step table at the grid rows' σ = 10, built once as a miner's driver
// builds it once per job.
const StepTable& N4Table() {
  static StepTable table(N4Fst(), Corpus().dict, 10);
  return table;
}

// Deterministic weighted-value records for the map+combine microbench: 64
// distinct pivot keys, payloads from a pool of 512 short serialized
// sequences, varint weight prefix. The workload of the D-SEQ aggregation
// extension and D-CAND's NFA merging.
std::vector<std::pair<std::string, std::string>> MakeWeightedRecords(
    size_t count) {
  std::mt19937_64 rng(42);
  std::vector<std::string> payloads;
  for (int p = 0; p < 512; ++p) {
    Sequence seq;
    size_t len = 4 + rng() % 12;
    for (size_t j = 0; j < len; ++j) {
      seq.push_back(static_cast<ItemId>(1 + rng() % 50'000));
    }
    std::string s;
    PutSequence(&s, seq);
    payloads.push_back(std::move(s));
  }
  std::vector<std::pair<std::string, std::string>> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string key;
    PutVarint(&key, 1 + rng() % 64);
    std::string value;
    PutVarint(&value, 1 + rng() % 4);
    value += payloads[rng() % payloads.size()];
    records.emplace_back(std::move(key), std::move(value));
  }
  return records;
}

// One map+combine round over `records` through the real engine (sink
// reduce), with `per_input` records per map call, under `options` (one map
// worker, in memory, by default).
DataflowMetrics RunCombineRound(
    const std::vector<std::pair<std::string, std::string>>& records,
    size_t per_input, const DataflowOptions& options = {}) {
  size_t num_inputs = records.size() / per_input;
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    size_t begin = i * per_input;
    for (size_t r = begin; r < begin + per_input; ++r) {
      emit(records[r].first, records[r].second);
    }
  };
  ReduceFn sink = [](int, std::string_view, std::vector<std::string_view>&,
                     const EmitFn&) {};
  return RunMapReduce(num_inputs, map_fn, /*combine=*/true, sink, options)
      .metrics;
}

// --- benchmarks -------------------------------------------------------------

void BenchGridBuild() {
  const SequenceDatabase& db = Corpus();
  size_t i = 0;
  RunBench("grid_build", 0, [&] {
    StateGrid grid = StateGrid::Build(db.sequences[i % db.size()], N4Table());
    volatile size_t sink = grid.num_edges();
    (void)sink;
    ++i;
  });
}

std::vector<StateGrid> BuildGrids(size_t count) {
  const SequenceDatabase& db = Corpus();
  std::vector<StateGrid> grids;
  for (size_t i = 0; i < count && i < db.size(); ++i) {
    grids.push_back(StateGrid::Build(db.sequences[i], N4Table()));
  }
  return grids;
}

void BenchPivotSearch() {
  std::vector<StateGrid> grids = BuildGrids(64);
  size_t i = 0;
  RunBench("pivot_search", 0, [&] {
    Sequence pivots = FindPivotItems(grids[i % grids.size()]);
    volatile size_t sink = pivots.size();
    (void)sink;
    ++i;
  });
}

void BenchPivotDp() {
  // The backward+forward bitset DP tables the PivotRewriter constructor
  // starts from (PivotDp: rank the grid's output items, mask every edge,
  // fold ⊕ over W words per coordinate), the D-SEQ map's pivot hot path.
  // pivot_dp_fwd_bwd runs them on N4 grids; pivot_dp_fwd_bwd_n5 on the N5
  // grids (σ = 10) whose pivot sets span more than one word (W > 1), the
  // first 64 of the corpus.
  auto run = [](const std::string& name, const std::vector<StateGrid>& grids) {
    if (grids.empty()) return;
    PivotDp dp;
    size_t i = 0;
    RunBench(name, 0, [&] {
      dp.Load(grids[i % grids.size()]);
      dp.ComputeForward();
      volatile size_t sink = dp.width();
      (void)sink;
      ++i;
    });
  };
  run("pivot_dp_fwd_bwd", BuildGrids(64));
  const SequenceDatabase& db = Corpus();
  const StepTable n5(N5Fst(), db.dict, 10);
  std::vector<StateGrid> wide;
  PivotDp dp;
  for (size_t i = 0; i < db.size() && wide.size() < 64; ++i) {
    StateGrid grid = StateGrid::Build(db.sequences[i], n5);
    dp.Load(grid);
    if (dp.width() > 1) wide.push_back(std::move(grid));
  }
  run("pivot_dp_fwd_bwd_n5", wide);
}

void BenchRewriteAllPivots() {
  // The D-SEQ map's per-sequence rewrite work: one PivotRewriter per grid
  // (pivot DPs, then each pivot's bounds off its departure and arrival
  // edges), then ρk(T) for every pivot k.
  const SequenceDatabase& db = Corpus();
  std::vector<StateGrid> grids = BuildGrids(64);
  size_t i = 0;
  RunBench("rewrite_all_pivots", 0, [&] {
    size_t g = i % grids.size();
    PivotRewriter rewriter(db.sequences[g], grids[g]);
    size_t items = 0;
    for (ItemId k : rewriter.pivots()) items += rewriter.Rewrite(k).size();
    volatile size_t sink = items;
    (void)sink;
    ++i;
  });
}

void BenchDCandNfaBuild() {
  // The D-CAND map's per-sequence NFA work: one PivotNfaBuilder per grid,
  // then for every pivot k ∈ K(T) the one-pass minimal DFA and its bytes.
  std::vector<StateGrid> grids = BuildGrids(64);
  std::vector<Sequence> pivots;
  for (const StateGrid& grid : grids) pivots.push_back(FindPivotItems(grid));
  size_t i = 0;
  std::string bytes;
  RunBench("dcand_nfa_build", 0, [&] {
    size_t g = i % grids.size();
    PivotNfaBuilder builder(grids[g]);
    bytes.clear();
    for (ItemId k : pivots[g]) {
      builder.Build(k);
      builder.SerializeTo(&bytes);
    }
    volatile size_t sink = bytes.size();
    (void)sink;
    ++i;
  });
}

void BenchNfaDecodeStore() {
  // D-CAND's reduce decode: a minimized 30-run trie's bytes appended to one
  // store, as a key group's records are, which starts afresh every 1024 NFAs
  // so the bench's memory stays flat. No pivot, so no edge is cut.
  OutputNfa trie;
  std::mt19937_64 rng(3);
  for (int r = 0; r < 30; ++r) {
    std::vector<Sequence> labels;
    for (int i = 0; i < 4; ++i) {
      labels.push_back({static_cast<ItemId>(rng() % 50 + 1)});
    }
    trie.AddLabelString(labels);
  }
  trie.Minimize();
  std::string bytes = SerializeNfa(trie);
  DfsInput store(kNoItem);
  size_t decoded = 0;
  RunBench("nfa_decode_store", 0, [&] {
    if (++decoded % 1024 == 0) store = DfsInput(kNoItem);
    size_t pos = 0;
    store.AddNfa(bytes, &pos, /*weight=*/1);
  });
}

void BenchVarintSequenceRoundTrip() {
  Sequence seq;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 64; ++i) {
    seq.push_back(static_cast<ItemId>(rng() % 100'000 + 1));
  }
  RunBench("varint_sequence_roundtrip", 0, [&] {
    std::string buf;
    PutSequence(&buf, seq);
    Sequence decoded;
    size_t pos = 0;
    GetSequence(buf, &pos, &decoded);
    volatile size_t sink = decoded.size();
    (void)sink;
  });
}

void BenchCombiners() {
  // The acceptance microbench of the zero-copy shuffle path: 100k
  // weighted-value records through map + combine (the arena-backed
  // open-addressing table), reported as records/s.
  const size_t count = g_config.tiny ? 20'000 : 100'000;
  auto weighted = MakeWeightedRecords(count);
  RunBench("map_combine_weighted_" + std::to_string(count / 1000) + "k", count,
           [&] { RunCombineRound(weighted, 100); });

  // Word-count-style records: counts are weights with an empty payload.
  std::mt19937_64 rng(7);
  std::vector<std::pair<std::string, std::string>> counts;
  counts.reserve(count);
  std::string one;
  PutVarint(&one, 1);
  for (size_t i = 0; i < count; ++i) {
    counts.emplace_back("w" + std::to_string(rng() % 2'000), one);
  }
  RunBench("map_combine_sum_" + std::to_string(count / 1000) + "k", count,
           [&] { RunCombineRound(counts, 100); });

  // The same counts over 20x the distinct keys through a budgeted combiner
  // with a spill dir (the seminaive-nyt-proc path): every spill and the
  // final flush sort the table, and the flush merges the spilled runs.
  char templ[] = "/tmp/dseq_micro_spill_XXXXXX";
  char* dir = mkdtemp(templ);
  if (dir == nullptr) return;
  std::vector<std::pair<std::string, std::string>> spread;
  spread.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    spread.emplace_back("w" + std::to_string(rng() % 40'000), one);
  }
  DataflowOptions spilled;
  spilled.memory_budget_bytes = 256 << 10;
  spilled.spill_dir = dir;
  uint64_t spill_files = 0;
  RunBench("map_combine_sum_spilled_" + std::to_string(count / 1000) + "k",
           count, [&] {
             spill_files = RunCombineRound(spread, 100, spilled).spill_files;
           });
  if (!g_config.json) {
    std::printf("map_combine_sum_spilled: %llu spilled runs per round\n",
                (unsigned long long)spill_files);
  }
  rmdir(dir);
}

void BenchSemiNaiveMap() {
  // SEMI-NAIVE's map on one worker: per N5 input the σ-pruned grid, its
  // distinct candidate keys (MapNaiveInput), and the budgeted combiner
  // with a spill dir they go into, flushed once per op, as the
  // seminaive-nyt-proc workload runs it (8 MiB budget per worker).
  char templ[] = "/tmp/dseq_micro_spill_XXXXXX";
  char* dir = mkdtemp(templ);
  if (dir == nullptr) return;
  const SequenceDatabase& db = Corpus();
  NaiveOptions naive;
  naive.sigma = g_config.tiny ? 2 : 5;
  naive.semi_naive = true;
  const StepTable table(N5Fst(), db.dict, naive.sigma);
  DataflowOptions options;
  options.memory_budget_bytes = uint64_t{8} << 20;
  options.spill_dir = dir;
  uint64_t records = 0;
  RunBench("seminaive_map", db.size(), [&] {
    MemoryBudget budget(options.memory_budget_bytes);
    SpillStats stats;
    Combiner combiner(options, &budget, &stats, /*map_worker=*/0);
    EmitFn add = [&](std::string_view key, std::string_view value) {
      combiner.Add(key, value);
    };
    for (const Sequence& T : db.sequences) {
      MapNaiveInput(T, table, naive, add);
    }
    records = 0;
    combiner.Flush([&](std::string_view, std::string_view) { ++records; });
  });
  if (!g_config.json) {
    std::printf("seminaive_map: %llu distinct candidates per op\n",
                (unsigned long long)records);
  }
  rmdir(dir);
}

void BenchBlockCodec() {
  // The exact byte layout the engine compresses: records framed through
  // ShuffleBuffer itself, so the measured bytes track the real shuffle
  // format if it ever changes.
  auto records = MakeWeightedRecords(g_config.tiny ? 2'000 : 10'000);
  ShuffleBuffer buffer;
  for (const auto& [key, value] : records) buffer.Append(key, value);
  std::string raw = buffer.ReleaseRaw();
  std::string block = CompressBlock(raw);
  RunBench("codec_compress", raw.size(), [&] {
    std::string compressed = CompressBlock(raw);
    volatile size_t sink = compressed.size();
    (void)sink;
  });
  RunBench("codec_decompress", raw.size(), [&] {
    std::string out;
    DecompressBlock(block, &out);
    volatile size_t sink = out.size();
    (void)sink;
  });
  if (!g_config.json) {
    std::printf("codec ratio on shuffle records: %zu -> %zu bytes (%.1f%%)\n",
                raw.size(), block.size(), 100.0 * block.size() / raw.size());
  }
}

void BenchExternalMerge() {
  // The out-of-core reduce path: k-way merge of 8 sorted spill runs back
  // into key groups (src/spill/external_merger.h), reported as records/s.
  // Runs are written once (the merge, not the spill, is the hot loop);
  // sources are recreated per op, so each op pays the real open/read cost.
  char templ[] = "/tmp/dseq_micro_spill_XXXXXX";
  char* dir = mkdtemp(templ);
  if (dir == nullptr) return;
  const size_t count = g_config.tiny ? 8'000 : 40'000;
  auto records = MakeWeightedRecords(count);
  std::sort(records.begin(), records.end());
  constexpr size_t kRuns = 8;
  std::vector<SpillFile> runs;
  for (size_t r = 0; r < kRuns; ++r) {
    SpillFile file = SpillFile::Create(dir);
    SpillWriter writer(&file, /*compress=*/false, nullptr);
    // Every 8th record into each run: all runs stay sorted and overlap.
    for (size_t i = r; i < records.size(); i += kRuns) {
      writer.Append(records[i].first, records[i].second);
    }
    writer.Finish();
    runs.push_back(std::move(file));
  }
  RunBench("external_merge_8runs", count, [&] {
    ExternalMergePlan plan("", /*compress=*/false, /*max_fan_in=*/16, nullptr);
    for (const SpillFile& run : runs) {
      plan.AddSource(
          std::make_unique<SpillRunSource>(run, /*compressed=*/false));
    }
    uint64_t groups = 0;
    plan.MergeGroups(
        [&](std::string_view, std::vector<std::string_view>&) { ++groups; });
    volatile uint64_t sink = groups;
    (void)sink;
  });
  runs.clear();  // unlink before removing the directory
  rmdir(dir);
}

void BenchDesqDfsSmall() {
  const SequenceDatabase& db = Corpus();
  RunBench("desq_dfs_small", 0, [&] {
    DesqDfsOptions options;
    options.sigma = 50;
    MiningResult result = MineDesqDfs(db.sequences, N4Fst(), db.dict, options);
    volatile size_t sink = result.size();
    (void)sink;
  });
}

void BenchDSeqReducePartition() {
  // The D-SEQ reduce of one partition: the largest N4 pivot partition of
  // the corpus (the rewrites the map would ship). dseq_reduce_partition
  // times the DfsInput build + pivot-restricted DESQ-DFS with early
  // stopping; dseq_reduce the whole reduce, MineDSeqPartition, with the
  // records' decode. Then the tracing-off A/B of that reduce: the same work
  // with no span or counting against MineDSeqPartition as the miner runs it
  // with tracing off (its span and the Enabled()-gated mining.reduce_*
  // flush). The CI trace job asserts this pair within 2%.
  obs::SetEnabled(false);
  const SequenceDatabase& db = Corpus();
  constexpr uint64_t kSigma = 10;
  const StepTable& table = N4Table();
  std::map<ItemId, std::vector<Sequence>> partitions;
  for (const Sequence& T : db.sequences) {
    StateGrid grid = StateGrid::Build(T, table);
    if (!grid.HasAcceptingRun()) continue;
    PivotRewriter rewriter(T, grid);
    for (ItemId k : rewriter.pivots()) {
      partitions[k].push_back(rewriter.Rewrite(k));
    }
  }
  ItemId pivot = kNoItem;
  size_t largest = 0;
  for (const auto& [k, rewrites] : partitions) {
    if (rewrites.size() > largest) {
      pivot = k;
      largest = rewrites.size();
    }
  }
  if (largest == 0) return;
  const std::vector<Sequence>& partition = partitions[pivot];
  RunBench("dseq_reduce_partition", partition.size(), [&] {
    DfsInput input(table, pivot);
    for (const Sequence& rewrite : partition) input.Add(rewrite);
    DesqDfsOptions local;
    local.sigma = kSigma;
    local.pivot = pivot;
    MiningResult result = MineDesqDfs(input, local);
    volatile size_t sink = result.size();
    (void)sink;
  });

  std::vector<std::string> records;
  for (const Sequence& rewrite : partition) {
    records.emplace_back();
    PutSequence(&records.back(), rewrite);
  }
  const std::vector<std::string_view> values(records.begin(), records.end());
  const std::string key = EncodePivotKey(pivot);
  DSeqOptions options;
  options.sigma = kSigma;
  size_t mined = 0;
  auto reduce = [&] {
    mined += MineDSeqPartition(key, values, table, options).size();
  };
  RunBench("dseq_reduce", partition.size(), reduce);
  auto bare_reduce = [&] {
    DfsInput input(table, pivot);
    Sequence seq;
    for (std::string_view v : values) {
      size_t pos = 0;
      GetSequence(v, &pos, &seq);
      input.Add(seq);
    }
    DesqDfsOptions local;
    local.sigma = kSigma;
    local.pivot = pivot;
    mined += MineDesqDfs(input, local).size();
  };
  RunBenchPair("trace_overhead_dseq_reduce_baseline", bare_reduce,
               "trace_overhead_dseq_reduce_traced_off", reduce);
  volatile size_t sink = mined;
  (void)sink;
}

void BenchTraceOverhead() {
  // The disabled-run cost of the instrumentation pattern (trace.h's
  // overhead doctrine): the same ~1µs workload measured bare and wrapped
  // in a DSEQ_TRACE_SPAN plus an Enabled()-gated histogram observation,
  // with tracing *off*. The CI trace job asserts the instrumented row
  // stays within 2% of the baseline.
  obs::SetEnabled(false);
  Sequence seq;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 96; ++i) {
    seq.push_back(static_cast<ItemId>(rng() % 100'000 + 1));
  }
  auto workload = [&] {
    std::string buf;
    PutSequence(&buf, seq);
    Sequence decoded;
    size_t pos = 0;
    GetSequence(buf, &pos, &decoded);
    volatile size_t sink = decoded.size();
    (void)sink;
    return buf.size();
  };
  RunBenchPair(
      "trace_overhead_baseline", [&] { workload(); },
      "trace_overhead_traced_off", [&] {
        DSEQ_TRACE_SPAN("bench", "overhead_probe");
        size_t bytes = workload();
        static obs::Histogram& h = obs::GetHistogram("bench.overhead_bytes");
        if (obs::Enabled()) h.Observe(bytes);
      });
}

void BenchDCandMapTraceOverhead() {
  // The same A/B over one D-CAND map input: MapDCandInput, as the miner
  // runs it with tracing off (its MapCounts and the Enabled()-gated
  // flush), against the same work with no counting. The CI trace job
  // asserts this pair within 2% too.
  obs::SetEnabled(false);
  const SequenceDatabase& db = Corpus();
  DCandOptions options;
  options.sigma = 10;
  const StepTable& table = N4Table();
  // The input with the most pivots among the first 64, so the row times
  // NFA work rather than call overhead.
  const Sequence* input = nullptr;
  size_t most = 0;
  for (size_t i = 0; i < 64 && i < db.size(); ++i) {
    StateGrid grid = StateGrid::Build(db.sequences[i], table);
    size_t pivots = grid.HasAcceptingRun() ? FindPivotItems(grid).size() : 0;
    if (pivots > most) {
      most = pivots;
      input = &db.sequences[i];
    }
  }
  if (input == nullptr) return;
  size_t emitted = 0;
  EmitFn emit = [&](std::string_view key, std::string_view value) {
    emitted += key.size() + value.size();
  };
  auto bare_map = [&] {
    StateGrid grid = StateGrid::Build(*input, table);
    if (!grid.HasAcceptingRun()) return;
    Sequence pivots = FindPivotItems(grid);
    PivotNfaBuilder builder(grid);
    std::string value;
    for (ItemId k : pivots) {
      builder.Build(k);
      if (builder.empty()) continue;
      value.clear();
      PutVarint(&value, 1);
      builder.SerializeTo(&value);
      emit(EncodePivotKey(k), value);
    }
  };
  RunBenchPair("trace_overhead_dcand_map_baseline", bare_map,
               "trace_overhead_dcand_map_traced_off", [&] {
                 MapDCandInput(*input, table, options, emit);
               });
  volatile size_t sink = emitted;
  (void)sink;
}

void BenchDSeqMapTraceOverhead() {
  // The same A/B over the D-SEQ map: MapDSeqInput over the first 64
  // inputs, as the miner runs it with tracing off (its MapCounts and the
  // Enabled()-gated flush), against the same work with no counting. The CI
  // trace job asserts this pair within 2% too.
  obs::SetEnabled(false);
  const SequenceDatabase& db = Corpus();
  DSeqOptions options;
  options.sigma = 10;
  const StepTable& table = N4Table();
  const size_t inputs = std::min<size_t>(64, db.size());
  size_t emitted = 0;
  EmitFn emit = [&](std::string_view key, std::string_view value) {
    emitted += key.size() + value.size();
  };
  auto bare_map = [&] {
    std::string value;
    for (size_t i = 0; i < inputs; ++i) {
      const Sequence& T = db.sequences[i];
      StateGrid grid = StateGrid::Build(T, table);
      if (!grid.HasAcceptingRun()) continue;
      PivotRewriter rewriter(T, grid);
      for (ItemId k : rewriter.pivots()) {
        value.clear();
        PutSequence(&value, rewriter.Rewrite(k));
        emit(EncodePivotKey(k), value);
      }
    }
  };
  RunBenchPair("trace_overhead_dseq_map_baseline", bare_map,
               "trace_overhead_dseq_map_traced_off", [&] {
                 for (size_t i = 0; i < inputs; ++i) {
                   MapDSeqInput(db.sequences[i], table, options, emit);
                 }
               });
  volatile size_t sink = emitted;
  (void)sink;
}

void BenchSemiNaiveMapTraceOverhead() {
  // The same A/B over the SEMI-NAIVE map: MapNaiveInput over the first 64
  // N5 inputs, as the miner runs it with tracing off (its MapCounts and the
  // Enabled()-gated flush), against the same work with no counting. The CI
  // trace job asserts this pair within 2% too.
  obs::SetEnabled(false);
  const SequenceDatabase& db = Corpus();
  NaiveOptions options;
  options.sigma = 10;
  options.semi_naive = true;
  const StepTable table(N5Fst(), db.dict, options.sigma);
  const size_t inputs = std::min<size_t>(64, db.size());
  size_t emitted = 0;
  EmitFn emit = [&](std::string_view key, std::string_view value) {
    emitted += key.size() + value.size();
  };
  auto bare_map = [&] {
    for (size_t i = 0; i < inputs; ++i) {
      StateGrid grid = StateGrid::Build(db.sequences[i], table);
      if (!grid.HasAcceptingRun()) continue;
      std::string value;
      PutVarint(&value, 1);
      ForEachCandidateKey(grid, options.candidates_per_sequence_budget,
                          [&](std::string_view key) { emit(key, value); });
    }
  };
  RunBenchPair("trace_overhead_seminaive_map_baseline", bare_map,
               "trace_overhead_seminaive_map_traced_off", [&] {
                 for (size_t i = 0; i < inputs; ++i) {
                   MapNaiveInput(db.sequences[i], table, options, emit);
                 }
               });
  volatile size_t sink = emitted;
  (void)sink;
}

void PrintJson() {
  std::printf("{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const BenchRow& r = g_rows[i];
    std::printf("    {\"name\": \"%s\", \"iterations\": %llu, "
                "\"ns_per_op\": %.1f, \"items_per_sec\": %.1f}%s\n",
                r.name.c_str(), (unsigned long long)r.iterations, r.ns_per_op,
                r.items_per_sec, i + 1 < g_rows.size() ? "," : "");
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
    } else if (std::strcmp(argv[i], "--min-time-ms") == 0 && i + 1 < argc) {
      g_config.min_time_s = std::atof(argv[++i]) / 1000.0;
    } else {
      std::fprintf(stderr,
                   "usage: bench_micro_components [--json] [--tiny] "
                   "[--min-time-ms N]\n");
      return 2;
    }
  }
  BenchGridBuild();
  BenchPivotSearch();
  BenchPivotDp();
  BenchRewriteAllPivots();
  BenchDCandNfaBuild();
  BenchNfaDecodeStore();
  BenchVarintSequenceRoundTrip();
  BenchCombiners();
  BenchSemiNaiveMap();
  BenchBlockCodec();
  BenchExternalMerge();
  BenchDesqDfsSmall();
  BenchDSeqReducePartition();
  BenchTraceOverhead();
  BenchDCandMapTraceOverhead();
  BenchDSeqMapTraceOverhead();
  BenchSemiNaiveMapTraceOverhead();
  if (g_config.json) PrintJson();
  return 0;
}
