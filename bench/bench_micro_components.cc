// Micro-benchmarks for the core components: grid construction, pivot
// search, the forward/backward pivot DPs, rewriting, NFA
// minimization/serialization, varint coding, the map-side combiners (the
// zero-copy shuffle hot path), the shuffle block codec, and the external
// spill-run merger (the out-of-core reduce path).
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
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/core/candidates.h"
#include "src/core/desq_dfs.h"
#include "src/core/grid.h"
#include "src/core/pivot.h"
#include "src/dataflow/engine.h"
#include "src/dataflow/shuffle_buffer.h"
#include "src/datagen/text_corpus.h"
#include "src/dist/dseq_miner.h"
#include "src/fst/compiler.h"
#include "src/nfa/output_nfa.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/nfa/serializer.h"
#include "src/spill/external_merger.h"
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
  BenchRow row;
  row.name = name;
  row.iterations = iterations;
  row.ns_per_op = elapsed / iterations * 1e9;
  if (items_per_op > 0) {
    row.items_per_sec = items_per_op / (elapsed / iterations);
  }
  g_rows.push_back(row);
  if (!g_config.json) {
    std::printf("%-28s %12.0f ns/op %10llu iters", row.name.c_str(),
                row.ns_per_op, (unsigned long long)row.iterations);
    if (row.items_per_sec > 0) {
      std::printf("  %12.0f items/s", row.items_per_sec);
    }
    std::printf("\n");
  }
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
// reduce), with `per_input` records per map call.
void RunCombineRound(
    const std::vector<std::pair<std::string, std::string>>& records,
    const CombinerFactory& factory, size_t per_input) {
  size_t num_inputs = records.size() / per_input;
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    size_t begin = i * per_input;
    for (size_t r = begin; r < begin + per_input; ++r) {
      emit(records[r].first, records[r].second);
    }
  };
  ReduceFn sink = [](int, std::string_view, std::vector<std::string_view>&) {};
  DataflowOptions options;
  RunMapReduce(num_inputs, map_fn, factory, sink, options);
}

// --- benchmarks -------------------------------------------------------------

void BenchGridBuild() {
  const SequenceDatabase& db = Corpus();
  GridOptions options;
  options.prune_sigma = 10;
  size_t i = 0;
  RunBench("grid_build", 0, [&] {
    StateGrid grid = StateGrid::Build(db.sequences[i % db.size()], N4Fst(),
                                      db.dict, options);
    volatile size_t sink = grid.num_edges();
    (void)sink;
    ++i;
  });
}

std::vector<StateGrid> BuildGrids(size_t count) {
  const SequenceDatabase& db = Corpus();
  GridOptions options;
  options.prune_sigma = 10;
  std::vector<StateGrid> grids;
  for (size_t i = 0; i < count && i < db.size(); ++i) {
    grids.push_back(
        StateGrid::Build(db.sequences[i], N4Fst(), db.dict, options));
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
  // The forward+backward DP tables the PivotRewriter constructor starts
  // from — the PivotSet-merge hot path of the D-SEQ map phase.
  std::vector<StateGrid> grids = BuildGrids(64);
  size_t i = 0;
  RunBench("pivot_dp_fwd_bwd", 0, [&] {
    const StateGrid& grid = grids[i % grids.size()];
    std::vector<PivotSet> fwd = ComputeForwardPivots(grid);
    std::vector<PivotSet> bwd = ComputeBackwardPivots(grid);
    volatile size_t sink = fwd.size() + bwd.size();
    (void)sink;
    ++i;
  });
}

void BenchRewriteAllPivots() {
  // The D-SEQ map's per-sequence rewrite work: one PivotRewriter per grid
  // (pivot DPs and per-layer blocks), then ρk(T) for every pivot k.
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

void BenchNfaMinimizeAndSerialize() {
  const SequenceDatabase& db = Corpus();
  GridOptions options;
  options.prune_sigma = 10;
  OutputNfa prototype;
  for (const Sequence& T : db.sequences) {
    StateGrid grid = StateGrid::Build(T, N4Fst(), db.dict, options);
    if (!grid.HasAcceptingRun()) continue;
    Sequence pivots = FindPivotItems(grid);
    if (pivots.empty()) continue;
    ItemId pivot = pivots.back();
    ForEachAcceptingRun(grid, 10'000,
                        [&](const std::vector<const StateGrid::Edge*>& run) {
                          prototype.AddRun(run, pivot);
                        });
    if (prototype.num_states() > 16) break;
  }
  RunBench("nfa_minimize_serialize", 0, [&] {
    OutputNfa nfa = prototype;
    nfa.Minimize();
    std::string bytes = SerializeNfa(nfa);
    volatile size_t sink = bytes.size();
    (void)sink;
  });
}

void BenchNfaDeserialize() {
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
  RunBench("nfa_deserialize", 0, [&] {
    OutputNfa nfa = DeserializeNfa(bytes);
    volatile size_t sink = nfa.num_states();
    (void)sink;
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
  // weighted-value records through map + combine (arena-backed
  // open-addressing tables), reported as records/s.
  const size_t count = g_config.tiny ? 20'000 : 100'000;
  auto weighted = MakeWeightedRecords(count);
  RunBench("map_combine_weighted_" + std::to_string(count / 1000) + "k", count,
           [&] { RunCombineRound(weighted, MakeWeightedValueCombiner, 100); });

  // Word-count-style records for the sum combiner.
  std::mt19937_64 rng(7);
  std::vector<std::pair<std::string, std::string>> counts;
  counts.reserve(count);
  std::string one;
  PutVarint(&one, 1);
  for (size_t i = 0; i < count; ++i) {
    counts.emplace_back("w" + std::to_string(rng() % 2'000), one);
  }
  RunBench("map_combine_sum_" + std::to_string(count / 1000) + "k", count,
           [&] { RunCombineRound(counts, MakeSumCombiner, 100); });
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
  RunBench("trace_overhead_baseline", 0, [&] { workload(); });
  RunBench("trace_overhead_traced_off", 0, [&] {
    DSEQ_TRACE_SPAN("bench", "overhead_probe");
    size_t bytes = workload();
    static obs::Histogram& h = obs::GetHistogram("bench.overhead_bytes");
    if (obs::Enabled()) h.Observe(bytes);
  });
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
  BenchNfaMinimizeAndSerialize();
  BenchNfaDeserialize();
  BenchVarintSequenceRoundTrip();
  BenchCombiners();
  BenchBlockCodec();
  BenchExternalMerge();
  BenchDesqDfsSmall();
  BenchTraceOverhead();
  if (g_config.json) PrintJson();
  return 0;
}
