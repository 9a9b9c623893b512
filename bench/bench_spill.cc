// Out-of-core execution benchmark: in-memory vs. spilled D-SEQ runs.
//
// For each configuration the harness mines once unbudgeted (everything
// resident) and once with memory_budget_bytes set to a fraction of the
// measured shuffle volume plus a spill directory — the run that used to be
// an OOM hard-fail now degrades into disk-backed sorted runs and external
// merges. Reported: both wall times, the spilled volume (runs, stored
// bytes, merge passes), the throughput ratio, and whether the two runs'
// patterns are byte-identical (they must be — spilling may only move
// bytes, never change results; the binary exits non-zero otherwise).
//
// Usage: bench_spill [--json] [--tiny] [--workers N]
//   --json     machine-readable output (CI archives it as BENCH_spill.json)
//   --tiny     CI-sized databases (fast smoke run)
//   --workers  map/reduce workers per run (default 4)
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common/bench_util.h"
#include "src/datagen/skewed_zipf.h"
#include "src/datagen/text_corpus.h"
#include "src/dist/dseq_miner.h"
#include "src/obs/trace.h"
#include "src/fst/compiler.h"

namespace dseq {
namespace {

struct Config {
  bool json = false;
  bool tiny = false;
  int workers = 4;
};
Config g_config;

struct SpillRow {
  std::string name;
  int workers = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t budget_bytes = 0;
  double in_memory_seconds = 0.0;
  double spilled_seconds = 0.0;
  double slowdown = 0.0;  // spilled / in-memory wall time
  uint64_t spill_files = 0;
  uint64_t spill_bytes = 0;
  uint64_t merge_passes = 0;
  bool identical = false;
};

std::vector<SpillRow> g_rows;
std::string g_spill_dir;

double Now() {
  return std::chrono::duration<double>(obs::Now().time_since_epoch()).count();
}

// Budget denominators: how far below the shuffle volume the budgeted runs
// squeeze (4 = mild spilling, 16 = heavy multi-pass spilling).
void RunCase(const std::string& name, const SequenceDatabase& db,
             const std::string& pattern, uint64_t sigma,
             uint64_t budget_divisor, bool aggregate_sequences = false) {
  Fst fst = CompileFst(pattern, db.dict);

  DSeqOptions options;
  options.sigma = sigma;
  options.num_map_workers = g_config.workers;
  options.num_reduce_workers = g_config.workers;
  options.aggregate_sequences = aggregate_sequences;

  double start = Now();
  DistributedResult in_memory = MineDSeq(db.sequences, fst, db.dict, options);
  double in_memory_seconds = Now() - start;

  SpillRow row;
  row.name = name;
  row.workers = g_config.workers;
  row.shuffle_bytes = in_memory.metrics.shuffle_bytes;
  row.in_memory_seconds = in_memory_seconds;
  row.budget_bytes = in_memory.metrics.shuffle_bytes / budget_divisor;
  if (row.budget_bytes == 0) row.budget_bytes = 64;

  DSeqOptions spill_options = options;
  spill_options.memory_budget_bytes = row.budget_bytes;
  spill_options.spill_dir = g_spill_dir;
  start = Now();
  DistributedResult spilled =
      MineDSeq(db.sequences, fst, db.dict, spill_options);
  row.spilled_seconds = Now() - start;
  row.slowdown = in_memory_seconds > 0 ? row.spilled_seconds / in_memory_seconds
                                       : 0.0;
  row.spill_files = spilled.metrics.spill_files;
  row.spill_bytes = spilled.metrics.spill_bytes_written;
  row.merge_passes = spilled.metrics.spill_merge_passes;
  row.identical = bench::ResultChecksum(spilled.patterns) ==
                      bench::ResultChecksum(in_memory.patterns) &&
                  spilled.patterns == in_memory.patterns;
  g_rows.push_back(row);

  if (!g_config.json) {
    std::printf(
        "%-26s R=%-2d shuffle=%-9llu budget=%-8llu  mem %6.3fs -> spill "
        "%6.3fs (%4.2fx)  %llu runs / %llu B / %llu passes  %s\n",
        row.name.c_str(), row.workers,
        static_cast<unsigned long long>(row.shuffle_bytes),
        static_cast<unsigned long long>(row.budget_bytes),
        row.in_memory_seconds, row.spilled_seconds, row.slowdown,
        static_cast<unsigned long long>(row.spill_files),
        static_cast<unsigned long long>(row.spill_bytes),
        static_cast<unsigned long long>(row.merge_passes),
        row.identical ? "identical" : "MISMATCH");
  }
}

void PrintJson() {
  std::printf("{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const SpillRow& r = g_rows[i];
    std::printf(
        "    {\"name\": \"%s\", \"workers\": %d, \"shuffle_bytes\": %llu, "
        "\"budget_bytes\": %llu, \"in_memory_seconds\": %.4f, "
        "\"spilled_seconds\": %.4f, \"slowdown\": %.3f, "
        "\"spill_files\": %llu, \"spill_bytes_written\": %llu, "
        "\"spill_merge_passes\": %llu, \"identical\": %s}%s\n",
        r.name.c_str(), r.workers,
        static_cast<unsigned long long>(r.shuffle_bytes),
        static_cast<unsigned long long>(r.budget_bytes), r.in_memory_seconds,
        r.spilled_seconds, r.slowdown,
        static_cast<unsigned long long>(r.spill_files),
        static_cast<unsigned long long>(r.spill_bytes),
        static_cast<unsigned long long>(r.merge_passes),
        r.identical ? "true" : "false", i + 1 < g_rows.size() ? "," : "");
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
                   "usage: bench_spill [--json] [--tiny] [--workers N]\n");
      return 2;
    }
  }

  char templ[] = "/tmp/dseq_bench_spill_XXXXXX";
  char* dir = mkdtemp(templ);
  if (dir == nullptr) {
    std::fprintf(stderr, "bench_spill: cannot create spill directory\n");
    return 2;
  }
  g_spill_dir = dir;

  bool tiny = g_config.tiny;

  // Text corpus (NYT'-shaped): generalized n-grams ship rewritten copies of
  // most sentences, the classic D-SEQ shuffle-heavy workload.
  TextCorpusOptions text;
  text.num_sentences = tiny ? 300 : 2'000;
  text.lemmas_per_pos = tiny ? 80 : 300;
  text.num_entities = tiny ? 40 : 200;
  SequenceDatabase corpus = GenerateTextCorpus(text);
  RunCase("text_bigram_div4", corpus, ".* (.^){2} .*", tiny ? 5 : 10, 4);
  RunCase("text_bigram_div16", corpus, ".* (.^){2} .*", tiny ? 5 : 10, 16);

  // Skewed Zipf hierarchy: one heavy pivot dominates, so one reducer column
  // carries most of the spilled runs — the adversarial merge shape.
  SkewedZipfOptions zipf;
  zipf.seed = 77;
  zipf.num_items = tiny ? 60 : 150;
  zipf.num_groups = 2;
  zipf.num_sequences = tiny ? 200 : 1'000;
  zipf.min_length = 4;
  zipf.max_length = tiny ? 12 : 20;
  zipf.zipf_exponent = 1.3;
  SequenceDatabase skewed = GenerateSkewedZipf(zipf);
  RunCase("zipf_single_gen_div8", skewed, ".*(.^).*", 2, 8);
  // The aggregation extension sends weighted values through the combiner's
  // external-aggregation (spill-sort) path.
  RunCase("zipf_aggregate_div8", skewed, ".*(.^).*", 2, 8,
          /*aggregate_sequences=*/true);

  if (g_config.json) PrintJson();

  rmdir(g_spill_dir.c_str());  // must be empty: RAII cleaned every run

  bool all_identical = true;
  for (const auto& row : g_rows) all_identical &= row.identical;
  if (!all_identical) {
    std::fprintf(stderr, "bench_spill: spilled patterns diverged!\n");
  }
  return all_identical ? 0 : 1;
}
