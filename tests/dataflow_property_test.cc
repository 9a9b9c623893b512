// Randomized property tests of the dataflow engine itself: generated
// map/combine/reduce pipelines must be deterministic across execution modes
// (kThreads vs kSimulated), across 1/2/4/8 workers, across backends (local
// threads vs forked proc workers), and across repeated runs — including the
// shuffle metrics, which are the paper's headline numbers and must not
// wobble with scheduling.
//
// Iteration count: DSEQ_PROPERTY_ITERATIONS (the nightly CI job raises it).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/dataflow/chained.h"
#include "src/dataflow/engine.h"
#include "src/util/varint.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

// The pipeline's value shape: no combining, or the one combiner over counts
// (empty payloads) or over weighted payloads.
enum class CombinerKind { kNone, kSum, kWeighted };

// A generated pipeline: precomputed per-input emissions, so the map phase is
// trivially deterministic and the properties isolate the engine.
struct Pipeline {
  std::vector<std::vector<std::pair<std::string, std::string>>> emissions;
  CombinerKind combiner = CombinerKind::kNone;
};

Pipeline RandomPipeline(uint64_t seed, CombinerKind combiner) {
  std::mt19937_64 rng(seed);
  Pipeline p;
  p.combiner = combiner;
  size_t num_keys = 1 + rng() % 12;
  size_t num_inputs = 1 + rng() % 60;
  // Note the embedded NUL and high bytes: payloads are arbitrary binary.
  std::vector<std::string> payloads = {"", "x", "payload",
                                       std::string("\x00\x01\xff", 3)};
  p.emissions.resize(num_inputs);
  for (auto& input : p.emissions) {
    size_t n = rng() % 7;
    for (size_t e = 0; e < n; ++e) {
      std::string key = "k" + std::to_string(rng() % num_keys);
      std::string value;
      switch (combiner) {
        case CombinerKind::kSum:
          PutVarint(&value, rng() % 100);
          break;
        case CombinerKind::kWeighted:
          PutVarint(&value, 1 + rng() % 5);
          value += payloads[rng() % payloads.size()];
          break;
        case CombinerKind::kNone:
          value = payloads[rng() % payloads.size()] +
                  std::to_string(rng() % 1000);
          break;
      }
      input.emplace_back(std::move(key), std::move(value));
    }
  }
  return p;
}

// Canonical, order-insensitive view of the reduce input: key -> sorted
// values, sorted by key. Combiners may merge values, so pipelines with a
// combiner compare the *decoded totals* per key instead (see SumTotals).
using Groups = std::vector<std::pair<std::string, std::vector<std::string>>>;

struct RunOutcome {
  Groups groups;
  DataflowMetrics metrics;
};

// The tiny out-of-core budget of the spilled property runs: far below both
// the pipelines' shuffle volume and the combiner tables' resident size, so
// spilled runs really exercise multiple spill files and merge passes. The
// CI spill group squeezes it further via DSEQ_SPILL_TEST_BUDGET.
uint64_t TinySpillBudget() {
  static const uint64_t budget = testing::SpillTestBudget(128);
  return budget;
}

RunOutcome RunPipeline(const Pipeline& p, int workers, Execution execution,
                       bool compress = false,
                       const std::string& spill_dir = std::string(),
                       DataflowBackend backend = DataflowBackend::kLocal) {
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    for (const auto& [key, value] : p.emissions[i]) emit(key, value);
  };
  // Each key's values leave the reduce as emitted records, sorted, so the
  // groups come back in the round's records on both backends (a proc reduce
  // runs in a forked process, where writes to captured state are lost).
  ReduceFn reduce_fn = [](int, std::string_view key,
                          std::vector<std::string_view>& values,
                          const EmitFn& emit) {
    std::sort(values.begin(), values.end());
    for (std::string_view v : values) emit(key, v);
  };
  DataflowOptions options;
  options.num_map_workers = workers;
  options.num_reduce_workers = workers;
  options.execution = execution;
  options.compress_shuffle = compress;
  options.backend = backend;
  if (!spill_dir.empty()) {
    options.memory_budget_bytes = TinySpillBudget();
    options.spill_dir = spill_dir;
  }
  RoundResult result =
      RunMapReduce(p.emissions.size(), map_fn,
                   p.combiner != CombinerKind::kNone, reduce_fn, options);
  // Every key is reduced exactly once, so its records are contiguous.
  RunOutcome outcome;
  outcome.metrics = std::move(result.metrics);
  for (Record& record : result.records) {
    if (outcome.groups.empty() || outcome.groups.back().first != record.key) {
      outcome.groups.emplace_back(std::move(record.key),
                                  std::vector<std::string>());
    }
    outcome.groups.back().second.push_back(std::move(record.value));
  }
  std::sort(outcome.groups.begin(), outcome.groups.end());
  return outcome;
}

// Decoded (key, total) view for combiner pipelines, invariant under how the
// combiner merged records: sum of varint counts (kSum) / weights (kWeighted).
std::vector<std::pair<std::string, uint64_t>> Totals(const Groups& groups) {
  std::vector<std::pair<std::string, uint64_t>> totals;
  for (const auto& [key, values] : groups) {
    uint64_t total = 0;
    for (const std::string& v : values) {
      size_t pos = 0;
      uint64_t c = 0;
      EXPECT_TRUE(GetVarint(v, &pos, &c));
      total += c;
    }
    totals.emplace_back(key, total);
  }
  std::sort(totals.begin(), totals.end());
  return totals;
}

class DataflowPropertyTest : public ::testing::TestWithParam<CombinerKind> {};

TEST_P(DataflowPropertyTest, DeterministicAcrossWorkersAndExecutionModes) {
  CombinerKind kind = GetParam();
  int iterations = testing::PropertyIterations(6);
  for (int iter = 0; iter < iterations; ++iter) {
    SCOPED_TRACE("iteration=" + std::to_string(iter));
    Pipeline p = RandomPipeline(9000 + iter, kind);
    RunOutcome reference = RunPipeline(p, 1, Execution::kThreads);

    testing::ForEachWorkerCount([&](int workers) {
      RunOutcome threads = RunPipeline(p, workers, Execution::kThreads);
      RunOutcome simulated = RunPipeline(p, workers, Execution::kSimulated);

      // Results are identical across execution modes and worker counts —
      // up to combiner merging, which the decoded totals see through.
      if (kind == CombinerKind::kNone) {
        EXPECT_EQ(threads.groups, reference.groups);
      } else {
        EXPECT_EQ(Totals(threads.groups), Totals(reference.groups));
      }
      EXPECT_EQ(threads.groups, simulated.groups);

      // Shuffle metrics are identical for identical inputs: across
      // execution modes, and across repeated runs of the same config.
      EXPECT_EQ(threads.metrics.shuffle_bytes, simulated.metrics.shuffle_bytes);
      EXPECT_EQ(threads.metrics.shuffle_records,
                simulated.metrics.shuffle_records);
      EXPECT_EQ(threads.metrics.map_output_records,
                simulated.metrics.map_output_records);
      RunOutcome repeat = RunPipeline(p, workers, Execution::kThreads);
      EXPECT_EQ(repeat.groups, threads.groups);
      EXPECT_EQ(repeat.metrics.shuffle_bytes, threads.metrics.shuffle_bytes);
      EXPECT_EQ(repeat.metrics.shuffle_records,
                threads.metrics.shuffle_records);

      // The pre-combine record count never depends on the configuration.
      EXPECT_EQ(threads.metrics.map_output_records,
                reference.metrics.map_output_records);

      // Without a combiner the shuffle volume is sharding-invariant too;
      // with one, sharding only ever merges records, never adds them.
      if (kind == CombinerKind::kNone) {
        EXPECT_EQ(threads.metrics.shuffle_bytes,
                  reference.metrics.shuffle_bytes);
        EXPECT_EQ(threads.metrics.shuffle_records,
                  reference.metrics.shuffle_records);
      } else {
        EXPECT_LE(threads.metrics.shuffle_records,
                  threads.metrics.map_output_records);
      }

      // Shuffle compression is invisible to results and raw metrics: the
      // same run with the block codec on reduces to identical groups and
      // charges identical raw volume, reporting the compressed volume on
      // the side.
      RunOutcome compressed = RunPipeline(p, workers, Execution::kThreads,
                                          /*compress=*/true);
      EXPECT_EQ(compressed.groups, threads.groups);
      EXPECT_EQ(compressed.metrics.shuffle_bytes,
                threads.metrics.shuffle_bytes);
      EXPECT_EQ(compressed.metrics.shuffle_records,
                threads.metrics.shuffle_records);
      EXPECT_EQ(threads.metrics.shuffle_compressed_bytes, 0u);
      if (compressed.metrics.shuffle_records > 0) {
        EXPECT_GT(compressed.metrics.shuffle_compressed_bytes, 0u);
      }

      // Out-of-core execution is invisible too: the same run under a tiny
      // memory budget (spilling multiple sorted runs, merging them back in
      // multiple passes) reduces to identical groups with identical raw
      // shuffle metrics, and reports the spill volume on the side. The
      // ScopedTempDir destructor re-asserts that no spill file survived.
      testing::ScopedTempDir spill_dir;
      RunOutcome spilled = RunPipeline(p, workers, Execution::kThreads,
                                       /*compress=*/false, spill_dir.path());
      EXPECT_EQ(spilled.groups, threads.groups);
      EXPECT_EQ(spilled.metrics.shuffle_bytes, threads.metrics.shuffle_bytes);
      EXPECT_EQ(spilled.metrics.shuffle_records,
                threads.metrics.shuffle_records);
      EXPECT_EQ(spilled.metrics.map_output_records,
                threads.metrics.map_output_records);
      EXPECT_EQ(spilled.metrics.reducer_bytes, threads.metrics.reducer_bytes);
      EXPECT_EQ(threads.metrics.spill_files, 0u);
      // Spills are guaranteed where a single worker's state clearly
      // outgrows the budget (per-worker overdraft floors make sharded
      // workers with near-empty state legitimately spill-free): without a
      // combiner once the volume dwarfs the budget, with one once the add
      // count crosses the combiner's overdraft spill batch (64 records).
      bool must_spill =
          workers == 1 &&
          (kind == CombinerKind::kNone
               ? threads.metrics.shuffle_bytes > 4 * TinySpillBudget()
               : threads.metrics.map_output_records >= 72);
      if (must_spill) {
        EXPECT_GT(spilled.metrics.spill_files, 0u);
        EXPECT_GT(spilled.metrics.spill_bytes_written, 0u);
        EXPECT_GE(spilled.metrics.spill_merge_passes, 1u);
      }

      // The proc backend is invisible as well: forked workers reduce to the
      // same groups with the same raw shuffle metrics, in memory, compressed
      // and spilled. (Each worker process budgets its own memory, so the
      // spill_* counters are not compared.)
      const std::pair<const char*, const RunOutcome*> local_rows[] = {
          {"in memory", &threads},
          {"compressed", &compressed},
          {"spilled", &spilled},
      };
      for (const auto& [row, local] : local_rows) {
        SCOPED_TRACE(std::string("proc, ") + row);
        testing::ScopedTempDir proc_spill_dir;
        const bool spill = local == &spilled;
        RunOutcome proc = RunPipeline(
            p, workers, Execution::kThreads, local == &compressed,
            spill ? proc_spill_dir.path() : std::string(),
            DataflowBackend::kProc);
        EXPECT_EQ(proc.groups, local->groups);
        EXPECT_EQ(proc.metrics.shuffle_bytes, local->metrics.shuffle_bytes);
        EXPECT_EQ(proc.metrics.shuffle_compressed_bytes,
                  local->metrics.shuffle_compressed_bytes);
        EXPECT_EQ(proc.metrics.shuffle_records,
                  local->metrics.shuffle_records);
        EXPECT_EQ(proc.metrics.map_output_records,
                  local->metrics.map_output_records);
        EXPECT_EQ(proc.metrics.reducer_bytes, local->metrics.reducer_bytes);
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(GeneratedPipelines, DataflowPropertyTest,
                         ::testing::Values(CombinerKind::kNone,
                                           CombinerKind::kSum,
                                           CombinerKind::kWeighted));

// --- Chained-round properties ----------------------------------------------

// Canonical outcome of a generated two-round job: round 1 sums counts per
// key, round 2 re-keys every record (so the second shuffle moves data) and
// groups again.
std::vector<std::pair<std::string, uint64_t>> RunChainedPipeline(
    const Pipeline& p, int workers, Execution execution,
    std::vector<DataflowMetrics>* rounds_out) {
  DataflowOptions options;
  options.num_map_workers = workers;
  options.num_reduce_workers = workers;
  options.execution = execution;
  DataflowJob job(options);

  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    for (const auto& [key, value] : p.emissions[i]) emit(key, value);
  };
  ReduceFn sum_reduce = [](int, std::string_view key,
                           std::vector<std::string_view>& values,
                           const EmitFn& emit) {
    uint64_t total = 0;
    for (std::string_view v : values) {
      size_t pos = 0;
      uint64_t c = 0;
      ASSERT_TRUE(GetVarint(v, &pos, &c));
      total += c;
    }
    std::string value;
    PutVarint(&value, total);
    emit(key, value);
  };
  job.RunRound(p.emissions.size(), map_fn, true, sum_reduce);

  std::vector<Record> sums = job.TakeRecords();
  MapFn rekey = [&](size_t i, const EmitFn& emit) {
    emit("g" + std::to_string(sums[i].key.size() % 3), sums[i].value);
  };
  std::vector<std::vector<std::pair<std::string, uint64_t>>> per_worker(
      workers);
  ReduceFn collect = [&](int worker, std::string_view key,
                         std::vector<std::string_view>& values,
                         const EmitFn&) {
    uint64_t total = 0;
    for (std::string_view v : values) {
      size_t pos = 0;
      uint64_t c = 0;
      ASSERT_TRUE(GetVarint(v, &pos, &c));
      total += c;
    }
    per_worker[worker].emplace_back(std::string(key), total);
  };
  job.RunRound(sums.size(), rekey, true, collect);

  if (rounds_out != nullptr) *rounds_out = job.round_metrics();
  DataflowMetrics aggregate = job.aggregate_metrics();
  EXPECT_EQ(job.num_rounds(), 2u);
  EXPECT_EQ(aggregate.shuffle_bytes, job.round_metrics()[0].shuffle_bytes +
                                         job.round_metrics()[1].shuffle_bytes);

  std::vector<std::pair<std::string, uint64_t>> outcome;
  for (auto& part : per_worker) {
    outcome.insert(outcome.end(), part.begin(), part.end());
  }
  std::sort(outcome.begin(), outcome.end());
  return outcome;
}

TEST(ChainedDataflowPropertyTest, DeterministicAcrossWorkersAndModes) {
  int iterations = testing::PropertyIterations(6);
  for (int iter = 0; iter < iterations; ++iter) {
    SCOPED_TRACE("iteration=" + std::to_string(iter));
    Pipeline p = RandomPipeline(7700 + iter, CombinerKind::kSum);
    auto reference = RunChainedPipeline(p, 1, Execution::kThreads, nullptr);

    testing::ForEachWorkerCount([&](int workers) {
      std::vector<DataflowMetrics> threads_rounds;
      std::vector<DataflowMetrics> simulated_rounds;
      auto threads =
          RunChainedPipeline(p, workers, Execution::kThreads, &threads_rounds);
      auto simulated = RunChainedPipeline(p, workers, Execution::kSimulated,
                                          &simulated_rounds);
      EXPECT_EQ(threads, reference);
      EXPECT_EQ(simulated, reference);

      // Per-round shuffle metrics are identical across execution modes.
      ASSERT_EQ(threads_rounds.size(), simulated_rounds.size());
      for (size_t r = 0; r < threads_rounds.size(); ++r) {
        EXPECT_EQ(threads_rounds[r].shuffle_bytes,
                  simulated_rounds[r].shuffle_bytes)
            << "round " << r;
        EXPECT_EQ(threads_rounds[r].shuffle_records,
                  simulated_rounds[r].shuffle_records)
            << "round " << r;
        EXPECT_EQ(threads_rounds[r].map_output_records,
                  simulated_rounds[r].map_output_records)
            << "round " << r;
      }
    });
  }
}

}  // namespace
}  // namespace dseq
