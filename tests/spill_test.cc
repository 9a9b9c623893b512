// Out-of-core execution tests: the spill primitives (MemoryBudget,
// SpillFile/SpillWriter/SpillRunReader, ExternalMergePlan), the engine's
// budgeted spill path, the external-merge combiner, RAII temp-file
// hygiene on failure paths, actionable overflow errors, and the acceptance
// cross-check — a D-SEQ run budgeted below its shuffle volume must spill
// and still mine byte-identical patterns.
//
// CI reruns this suite (`ctest -L spill`) with DSEQ_SPILL_TEST_BUDGET
// lowered to squeeze the budget even harder than the defaults here.
#include <dirent.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/dataflow/chained.h"
#include "src/dataflow/engine.h"
#include "src/dataflow/shuffle_buffer.h"
#include "src/dist/dseq_miner.h"
#include "src/spill/external_merger.h"
#include "src/spill/memory_budget.h"
#include "src/spill/spill_file.h"
#include "src/util/varint.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

using testing::CountDirEntries;
// A fresh spill directory, removed (and asserted empty — the RAII hygiene
// contract) on destruction.
using ScopedSpillDir = testing::ScopedTempDir;

// The artificially small budget of the engine-level tests; CI's `-L spill`
// job lowers it via DSEQ_SPILL_TEST_BUDGET to force even more spill runs.
using testing::SpillTestBudget;

// --- MemoryBudget -----------------------------------------------------------

TEST(MemoryBudgetTest, TryChargeIsAllOrNothing) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.enabled());
  EXPECT_TRUE(budget.TryCharge(60));
  EXPECT_EQ(budget.used_bytes(), 60u);
  EXPECT_FALSE(budget.TryCharge(41));  // would exceed: charges nothing
  EXPECT_EQ(budget.used_bytes(), 60u);
  EXPECT_TRUE(budget.TryCharge(40));
  EXPECT_EQ(budget.used_bytes(), 100u);
  budget.Release(50);
  EXPECT_EQ(budget.used_bytes(), 50u);
  budget.ForceCharge(200);  // bounded overshoot is allowed
  EXPECT_EQ(budget.used_bytes(), 250u);
}

TEST(MemoryBudgetTest, ZeroBudgetIsUnlimited) {
  MemoryBudget budget(0);
  EXPECT_FALSE(budget.enabled());
  EXPECT_TRUE(budget.TryCharge(1'000'000'000));
  EXPECT_EQ(budget.used_bytes(), 0u);  // unlimited budgets track nothing
}

// --- SpillFile / SpillWriter / SpillRunReader -------------------------------

TEST(SpillFileTest, RemovesBackingFileOnDestruction) {
  ScopedSpillDir dir;
  std::string path;
  {
    SpillFile file = SpillFile::Create(dir.path());
    path = file.path();
    file.Append("abc", 3);
    file.FinishWrite();
    EXPECT_EQ(CountDirEntries(dir.path()), 1u);
  }
  EXPECT_EQ(CountDirEntries(dir.path()), 0u);
  EXPECT_NE(access(path.c_str(), F_OK), 0);
}

TEST(SpillFileTest, RemovesBackingFileOnExceptionUnwind) {
  ScopedSpillDir dir;
  try {
    SpillFile file = SpillFile::Create(dir.path());
    SpillWriter writer(&file, /*compress=*/false, nullptr);
    writer.Append("key", "value");
    throw std::runtime_error("mid-spill failure");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(CountDirEntries(dir.path()), 0u);
}

TEST(SpillFileTest, CreateInMissingDirectoryThrows) {
  EXPECT_THROW(SpillFile::Create("/nonexistent/dseq/spill/dir"),
               std::runtime_error);
}

class SpillRoundTripTest : public ::testing::TestWithParam<bool> {};

TEST_P(SpillRoundTripTest, WriterReaderRoundTrip) {
  const bool compress = GetParam();
  ScopedSpillDir dir;
  // Binary keys/values (NULs, high bytes), empty values, a record larger
  // than the 64 KiB block target (forcing an oversized block), and enough
  // volume to span several blocks.
  std::vector<std::pair<std::string, std::string>> records;
  records.emplace_back("", "empty key");
  records.emplace_back(std::string("\x00\x01\xff", 3), "");
  records.emplace_back("big", std::string(100'000, 'x'));
  std::mt19937_64 rng(7);
  for (int i = 0; i < 5'000; ++i) {
    records.emplace_back("key" + std::to_string(i),
                         std::string(rng() % 64, static_cast<char>(rng())));
  }

  SpillStats stats;
  SpillFile file = SpillFile::Create(dir.path());
  {
    SpillWriter writer(&file, compress, &stats);
    for (const auto& [key, value] : records) writer.Append(key, value);
    EXPECT_GT(writer.Finish(), 0u);
  }
  EXPECT_EQ(stats.files.load(), 1u);
  EXPECT_EQ(stats.bytes_written.load(), file.stored_bytes());

  // Two sequential read passes must both see every record (readers open
  // the file independently).
  for (int pass = 0; pass < 2; ++pass) {
    SpillRunReader reader(file, compress);
    std::string_view key;
    std::string_view value;
    for (const auto& [want_key, want_value] : records) {
      ASSERT_TRUE(reader.Next(&key, &value));
      EXPECT_EQ(key, want_key);
      EXPECT_EQ(value, want_value);
    }
    EXPECT_FALSE(reader.Next(&key, &value));
  }
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, SpillRoundTripTest,
                         ::testing::Bool());

TEST(SpillRunReaderTest, TruncatedRunThrows) {
  ScopedSpillDir dir;
  SpillFile file = SpillFile::Create(dir.path());
  {
    SpillWriter writer(&file, /*compress=*/false, nullptr);
    writer.Append("key", std::string(1000, 'v'));
    writer.Finish();
  }
  // Chop the tail off the finished run in place: the reader must fail
  // loudly, not return a short record.
  ASSERT_GT(file.stored_bytes(), 100u);
  ASSERT_EQ(truncate(file.path().c_str(),
                     static_cast<off_t>(file.stored_bytes() - 100)),
            0);
  SpillRunReader reader(file, /*compressed=*/false);
  std::string_view key;
  std::string_view value;
  EXPECT_THROW(reader.Next(&key, &value), std::runtime_error);
}

// --- ExternalMergePlan ------------------------------------------------------

// Writes `entries` (sorted by the caller) as one run in `dir`.
SpillFile WriteRun(
    const std::string& dir, bool compress, SpillStats* stats,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  SpillFile file = SpillFile::Create(dir);
  SpillWriter writer(&file, compress, stats);
  for (const auto& [key, value] : entries) writer.Append(key, value);
  writer.Finish();
  return file;
}

TEST(ExternalMergerTest, StableMergeMatchesReference) {
  ScopedSpillDir dir;
  SpillStats stats;
  // Three runs plus an in-memory tail, with overlapping keys. Values are
  // tagged by source so stability (source order within a key) is checkable.
  ExternalMergePlan plan(dir.path(), /*compress=*/false, /*max_fan_in=*/16,
                         &stats);
  plan.AddRun(WriteRun(dir.path(), false, &stats,
                       {{"a", "r0-1"}, {"a", "r0-2"}, {"c", "r0-3"}}));
  plan.AddRun(WriteRun(dir.path(), false, &stats, {{"a", "r1-1"}, {"b", "r1-2"}}));
  plan.AddRun(WriteRun(dir.path(), false, &stats, {}));  // empty run
  std::vector<std::pair<std::string_view, std::string_view>> tail = {
      {"a", "m-1"}, {"d", "m-2"}};
  plan.AddSource(std::make_unique<InMemorySource>(std::move(tail)));

  std::vector<std::pair<std::string, std::vector<std::string>>> groups;
  uint64_t records =
      plan.MergeGroups([&](std::string_view key,
                           std::vector<std::string_view>& values) {
        groups.emplace_back(std::string(key),
                            std::vector<std::string>(values.begin(),
                                                     values.end()));
      });
  EXPECT_EQ(records, 7u);
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0].first, "a");
  EXPECT_EQ(groups[0].second,
            (std::vector<std::string>{"r0-1", "r0-2", "r1-1", "m-1"}));
  EXPECT_EQ(groups[1].first, "b");
  EXPECT_EQ(groups[2].first, "c");
  EXPECT_EQ(groups[3].first, "d");
  EXPECT_EQ(groups[3].second, (std::vector<std::string>{"m-2"}));
  EXPECT_EQ(stats.merge_passes.load(), 1u);  // single final pass
}

TEST(ExternalMergerTest, FanInCollapseAddsPassesAndPreservesOrder) {
  ScopedSpillDir dir;
  SpillStats stats;
  // 9 single-key runs with fan-in 2: the collapse must merge prefixes until
  // 2 sources remain, then run the final pass — at least 8 passes total —
  // and the values must still arrive in run order.
  ExternalMergePlan plan(dir.path(), /*compress=*/true, /*max_fan_in=*/2,
                         &stats);
  for (int i = 0; i < 9; ++i) {
    plan.AddRun(WriteRun(dir.path(), true, &stats,
                         {{"k", "run" + std::to_string(i)}}));
  }
  std::vector<std::string> values_seen;
  plan.MergeGroups(
      [&](std::string_view key, std::vector<std::string_view>& values) {
        EXPECT_EQ(key, "k");
        for (std::string_view v : values) values_seen.emplace_back(v);
      });
  ASSERT_EQ(values_seen.size(), 9u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(values_seen[i], "run" + std::to_string(i));
  }
  EXPECT_GE(stats.merge_passes.load(), 8u);
}

TEST(ExternalMergerTest, MergeBudgetClampsFanInAndChargesReadBuffers) {
  // Each file-backed source holds up to two resident block buffers
  // (~2 * kSpillBlockBytes) while open. A budget smaller than the merge's
  // natural fan-in footprint must clamp the effective fan-in (here to the
  // floor of 2) instead of silently exceeding the budget — trading extra
  // collapse passes for bounded memory — with identical merged output.
  auto merge_all = [](int max_fan_in, MemoryBudget* budget, SpillStats* stats,
                      std::vector<std::pair<std::string, std::string>>* out) {
    ScopedSpillDir dir;
    ExternalMergePlan plan(dir.path(), /*compress=*/false, max_fan_in, stats,
                           budget);
    for (int i = 0; i < 12; ++i) {
      plan.AddRun(WriteRun(dir.path(), false, stats,
                           {{"k" + std::to_string(i % 3),
                             "run" + std::to_string(i)}}));
    }
    plan.MergeGroups(
        [&](std::string_view key, std::vector<std::string_view>& values) {
          for (std::string_view v : values) out->emplace_back(key, v);
        });
  };

  SpillStats unbudgeted_stats;
  std::vector<std::pair<std::string, std::string>> expected;
  merge_all(16, nullptr, &unbudgeted_stats, &expected);
  EXPECT_EQ(unbudgeted_stats.merge_passes.load(), 1u);  // 12 <= fan-in 16

  // 12 sources at ~128KiB each need ~1.5MiB; grant a quarter of one
  // source's footprint, forcing the minimum fan-in of 2.
  MemoryBudget budget(kSpillBlockBytes / 2);
  SpillStats budgeted_stats;
  std::vector<std::pair<std::string, std::string>> merged;
  merge_all(16, &budget, &budgeted_stats, &merged);
  EXPECT_EQ(merged, expected);
  // Fan-in 2 over 12 runs: at least 10 collapse merges before the final
  // pass — strictly more I/O, strictly less memory.
  EXPECT_GE(budgeted_stats.merge_passes.load(), 11u);
  // Every read-buffer charge must have been released with its source.
  EXPECT_EQ(budget.used_bytes(), 0u);
}

TEST(ExternalMergerTest, RunsOpenOnlyWhenAMergePassReadsThem) {
  // A plan holds one source per run, but only the runs a merge pass reads
  // may be open: a column with more runs than the process's file limit must
  // still merge. 240 runs at fan-in 16 keep at most 16 readers (plus one
  // intermediate writer) open, before and during the merge.
  ScopedSpillDir dir;
  SpillStats stats;
  constexpr int kFanIn = 16;
  constexpr int kRuns = 240;
  // Slack for the /proc/self/fd listing's own handle and the writer.
  constexpr size_t kSlack = 4;
  const size_t baseline = CountDirEntries("/proc/self/fd");
  ExternalMergePlan plan(dir.path(), /*compress=*/false, kFanIn, &stats);
  for (int i = 0; i < kRuns; ++i) {
    plan.AddRun(WriteRun(dir.path(), false, &stats,
                         {{"k" + std::to_string(i % 7), std::to_string(i)},
                          {"z", std::to_string(i)}}));
  }
  EXPECT_LE(CountDirEntries("/proc/self/fd"), baseline + kSlack);
  size_t peak = 0;
  uint64_t values = 0;
  plan.MergeGroups([&](std::string_view, std::vector<std::string_view>& vs) {
    peak = std::max(peak, CountDirEntries("/proc/self/fd"));
    values += vs.size();
  });
  EXPECT_EQ(values, 2u * kRuns);
  EXPECT_LE(peak, baseline + kFanIn + kSlack);
}

// --- Engine out-of-core runs ------------------------------------------------

using Emissions =
    std::vector<std::vector<std::pair<std::string, std::string>>>;

Emissions RandomEmissions(uint64_t seed, size_t num_inputs, size_t num_keys) {
  std::mt19937_64 rng(seed);
  Emissions emissions(num_inputs);
  for (auto& input : emissions) {
    size_t n = rng() % 8;
    for (size_t e = 0; e < n; ++e) {
      input.emplace_back(
          "key" + std::to_string(rng() % num_keys),
          "value" + std::to_string(rng() % 1000) +
              std::string(rng() % 40, static_cast<char>('a' + rng() % 26)));
    }
  }
  return emissions;
}

struct EngineRun {
  std::vector<std::pair<std::string, std::vector<std::string>>> groups;
  DataflowMetrics metrics;
};

EngineRun RunEngine(const Emissions& emissions, bool combine, int workers,
                    const DataflowOptions& base) {
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    for (const auto& [key, value] : emissions[i]) emit(key, value);
  };
  std::vector<std::vector<std::pair<std::string, std::vector<std::string>>>>
      per_worker(workers);
  ReduceFn reduce_fn = [&](int worker, std::string_view key,
                           std::vector<std::string_view>& values,
                           const EmitFn&) {
    std::vector<std::string> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    per_worker[worker].emplace_back(std::string(key), std::move(sorted));
  };
  DataflowOptions options = base;
  options.num_map_workers = workers;
  options.num_reduce_workers = workers;
  EngineRun run;
  run.metrics =
      RunMapReduce(emissions.size(), map_fn, combine, reduce_fn, options)
          .metrics;
  for (auto& part : per_worker) {
    run.groups.insert(run.groups.end(),
                      std::make_move_iterator(part.begin()),
                      std::make_move_iterator(part.end()));
  }
  std::sort(run.groups.begin(), run.groups.end());
  return run;
}

class EngineSpillTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineSpillTest, SpilledRunEqualsInMemoryRun) {
  int workers = GetParam();
  Emissions emissions = RandomEmissions(1234, 80, 10);

  EngineRun reference = RunEngine(emissions, false, workers, {});
  ASSERT_GT(reference.metrics.shuffle_bytes, 0u);
  EXPECT_EQ(reference.metrics.spill_files, 0u);
  EXPECT_EQ(reference.metrics.spill_merge_passes, 0u);

  ScopedSpillDir dir;
  DataflowOptions spilled_options;
  spilled_options.memory_budget_bytes = SpillTestBudget(256);
  spilled_options.spill_dir = dir.path();
  EngineRun spilled = RunEngine(emissions, false, workers, spilled_options);

  EXPECT_EQ(spilled.groups, reference.groups);
  EXPECT_EQ(spilled.metrics.shuffle_bytes, reference.metrics.shuffle_bytes);
  EXPECT_EQ(spilled.metrics.shuffle_records,
            reference.metrics.shuffle_records);
  EXPECT_EQ(spilled.metrics.map_output_records,
            reference.metrics.map_output_records);
  EXPECT_EQ(spilled.metrics.reducer_bytes, reference.metrics.reducer_bytes);
  EXPECT_GT(spilled.metrics.spill_files, 1u);
  EXPECT_GT(spilled.metrics.spill_bytes_written, 0u);
  EXPECT_GE(spilled.metrics.spill_merge_passes, 1u);
  EXPECT_EQ(ShuffleBufferLiveBytes(), 0u);
  // RAII hygiene: a completed run leaves nothing behind (ScopedSpillDir
  // re-checks on destruction).
  EXPECT_EQ(CountDirEntries(dir.path()), 0u);
}

TEST_P(EngineSpillTest, SpilledCombinersEqualInMemoryCombiners) {
  int workers = GetParam();

  // The combiner's two value shapes. Counts (varint weights with empty
  // payloads), sized so every worker's shard crosses the combiner's
  // overdraft spill batch (64 records) even at 8 workers — smaller shards
  // legitimately ride out the bounded overdraft without touching disk.
  std::mt19937_64 rng(99);
  Emissions sum_emissions(400);
  for (auto& input : sum_emissions) {
    size_t n = rng() % 6;
    for (size_t e = 0; e < n; ++e) {
      std::string value;
      PutVarint(&value, rng() % 50);
      input.emplace_back("key" + std::to_string(rng() % 12),
                         std::move(value));
    }
  }
  // ...and weighted values (varint weight + payload).
  Emissions weighted_emissions(400);
  std::vector<std::string> payloads = {"", "x", "payload",
                                       std::string("\x00\x01\xff", 3)};
  for (auto& input : weighted_emissions) {
    size_t n = rng() % 6;
    for (size_t e = 0; e < n; ++e) {
      std::string value;
      PutVarint(&value, 1 + rng() % 5);
      value += payloads[rng() % payloads.size()];
      input.emplace_back("key" + std::to_string(rng() % 12),
                         std::move(value));
    }
  }

  struct Case {
    const Emissions* emissions;
    const char* name;
  };
  for (const Case& c :
       {Case{&sum_emissions, "sum"}, Case{&weighted_emissions, "weighted"}}) {
    SCOPED_TRACE(c.name);
    EngineRun reference = RunEngine(*c.emissions, true, workers, {});

    ScopedSpillDir dir;
    DataflowOptions spilled_options;
    // Far below the combiner tables' resident size: every worker is forced
    // into external aggregation.
    spilled_options.memory_budget_bytes = SpillTestBudget(512);
    spilled_options.spill_dir = dir.path();
    EngineRun spilled = RunEngine(*c.emissions, true, workers, spilled_options);

    // External aggregation must emit the *fully combined* records: same
    // groups and identical raw shuffle metrics, not just same totals.
    EXPECT_EQ(spilled.groups, reference.groups);
    EXPECT_EQ(spilled.metrics.shuffle_bytes, reference.metrics.shuffle_bytes);
    EXPECT_EQ(spilled.metrics.shuffle_records,
              reference.metrics.shuffle_records);
    EXPECT_EQ(spilled.metrics.map_output_records,
              reference.metrics.map_output_records);
    EXPECT_GT(spilled.metrics.spill_files, 0u);
    EXPECT_GE(spilled.metrics.spill_merge_passes, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, EngineSpillTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(EngineSpillTest, BudgetWithoutSpillDirThrowsActionableError) {
  Emissions emissions = RandomEmissions(555, 40, 6);
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    for (const auto& [key, value] : emissions[i]) emit(key, value);
  };
  ReduceFn reduce_fn = [](int, std::string_view, std::vector<std::string_view>&,
                          const EmitFn&) {};
  DataflowOptions options;
  options.num_map_workers = 2;
  options.num_reduce_workers = 2;
  options.memory_budget_bytes = 64;
  options.round_index = 3;
  try {
    RunMapReduce(emissions.size(), map_fn, false, reduce_fn, options);
    FAIL() << "expected ShuffleOverflowError";
  } catch (const ShuffleOverflowError& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("round 3"), std::string::npos) << message;
    EXPECT_NE(message.find("reducer"), std::string::npos) << message;
    EXPECT_NE(message.find("budget 64 bytes"), std::string::npos) << message;
    EXPECT_NE(message.find("attempted"), std::string::npos) << message;
    EXPECT_NE(message.find("spill_dir"), std::string::npos) << message;
  }
  EXPECT_EQ(ShuffleBufferLiveBytes(), 0u);

  // The combiner path reports its own actionable context.
  options.round_index = 0;
  MapFn count_map = [](size_t input, const EmitFn& emit) {
    // Map workers run this concurrently, so the RNG must be per-call (a
    // shared engine captured by reference is a data race), seeded by the
    // input index to stay deterministic.
    std::mt19937_64 rng(1 + input);
    std::string one;
    PutVarint(&one, 1);
    for (int i = 0; i < 50; ++i) {
      emit("key" + std::to_string(rng() % 40), one);
    }
  };
  try {
    RunMapReduce(emissions.size(), count_map, true, reduce_fn,
                 options);
    FAIL() << "expected ShuffleOverflowError";
  } catch (const ShuffleOverflowError& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("combiner"), std::string::npos) << message;
    EXPECT_NE(message.find("round 0"), std::string::npos) << message;
    EXPECT_NE(message.find("map worker"), std::string::npos) << message;
    EXPECT_NE(message.find("spill_dir"), std::string::npos) << message;
  }
  EXPECT_EQ(ShuffleBufferLiveBytes(), 0u);
}

TEST(EngineSpillTest, ShuffleVolumeErrorNamesRoundAndReducer) {
  Emissions emissions = RandomEmissions(777, 40, 6);
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    for (const auto& [key, value] : emissions[i]) emit(key, value);
  };
  ReduceFn reduce_fn = [](int, std::string_view, std::vector<std::string_view>&,
                          const EmitFn&) {};
  DataflowOptions options;
  options.shuffle_budget_bytes = 32;
  options.round_index = 1;
  try {
    RunMapReduce(emissions.size(), map_fn, false, reduce_fn, options);
    FAIL() << "expected ShuffleOverflowError";
  } catch (const ShuffleOverflowError& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("round 1"), std::string::npos) << message;
    EXPECT_NE(message.find("reducer"), std::string::npos) << message;
    EXPECT_NE(message.find("budget 32 bytes"), std::string::npos) << message;
    EXPECT_NE(message.find("attempted"), std::string::npos) << message;
  }
}

TEST(EngineSpillTest, MidRoundFailureLeavesSpillDirEmpty) {
  Emissions emissions = RandomEmissions(321, 80, 8);
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    for (const auto& [key, value] : emissions[i]) emit(key, value);
  };
  // The reduce phase dies *after* the map phase spilled: every spill file
  // must be unlinked on the unwind and no shuffle bytes may stay resident.
  ReduceFn exploding_reduce = [](int, std::string_view,
                                 std::vector<std::string_view>&,
                                 const EmitFn&) {
    throw std::runtime_error("reduce failure after spilling");
  };
  ScopedSpillDir dir;
  DataflowOptions options;
  options.num_map_workers = 2;
  options.num_reduce_workers = 2;
  options.memory_budget_bytes = 256;
  options.spill_dir = dir.path();
  EXPECT_THROW(RunMapReduce(emissions.size(), map_fn, false,
                            exploding_reduce, options),
               std::runtime_error);
  EXPECT_EQ(CountDirEntries(dir.path()), 0u);
  EXPECT_EQ(ShuffleBufferLiveBytes(), 0u);

  // Same hygiene when a *chained* job trips its shuffle budget mid-round
  // while spilling is enabled.
  DataflowOptions chained_options = options;
  chained_options.shuffle_budget_bytes = 1;  // trips immediately
  DataflowJob job(chained_options);
  ReduceFn chain_reduce = [](int, std::string_view,
                             std::vector<std::string_view>&,
                             const EmitFn&) {};
  EXPECT_THROW(job.RunRound(emissions.size(), map_fn, false, chain_reduce),
               ShuffleOverflowError);
  EXPECT_EQ(CountDirEntries(dir.path()), 0u);
  EXPECT_EQ(ShuffleBufferLiveBytes(), 0u);
}

TEST(ChainedSpillTest, PerRoundSpillMetricsAggregate) {
  ScopedSpillDir dir;
  DataflowOptions options;
  options.num_map_workers = 2;
  options.num_reduce_workers = 2;
  options.memory_budget_bytes = SpillTestBudget(256);
  options.spill_dir = dir.path();
  DataflowJob job(options);

  Emissions emissions = RandomEmissions(42, 60, 8);
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    for (const auto& [key, value] : emissions[i]) emit(key, value);
  };
  ReduceFn echo = [](int, std::string_view key,
                     std::vector<std::string_view>& values,
                     const EmitFn& emit) {
    for (std::string_view v : values) emit(key, v);
  };
  job.RunRound(emissions.size(), map_fn, false, echo);
  std::vector<Record> echoed = job.TakeRecords();
  MapFn rekey = [&](size_t i, const EmitFn& emit) {
    emit(echoed[i].key + "!", echoed[i].value);
  };
  job.RunRound(echoed.size(), rekey, false, echo);

  ASSERT_EQ(job.num_rounds(), 2u);
  uint64_t files = 0;
  for (const DataflowMetrics& m : job.round_metrics()) {
    EXPECT_GT(m.spill_files, 0u);
    EXPECT_GE(m.spill_merge_passes, 1u);
    files += m.spill_files;
  }
  DataflowMetrics aggregate = job.aggregate_metrics();
  EXPECT_EQ(aggregate.spill_files, files);
  EXPECT_GE(aggregate.spill_merge_passes, 2u);
  EXPECT_GT(aggregate.spill_bytes_written, 0u);
  EXPECT_EQ(CountDirEntries(dir.path()), 0u);
}

// --- Acceptance cross-check: budgeted D-SEQ mining --------------------------

TEST(SpillMiningTest, BudgetedDSeqIsByteIdenticalToInMemoryAndBruteForce) {
  SequenceDatabase db = testing::RandomDatabase(8100, 6, 80, 8);
  Fst fst = CompileFst(".*(.^).*", db.dict);
  MiningResult brute = testing::BruteForceMine(db.sequences, fst, db.dict, 2);

  testing::ForEachWorkerCount([&](int workers) {
    DSeqOptions options;
    options.sigma = 2;
    options.num_map_workers = workers;
    options.num_reduce_workers = workers;
    DistributedResult in_memory = MineDSeq(db.sequences, fst, db.dict, options);
    ASSERT_GT(in_memory.metrics.shuffle_bytes, 0u);
    EXPECT_EQ(in_memory.metrics.spill_files, 0u);

    // Budget well below the round's total shuffle volume: the run must
    // complete by spilling — and mine the exact same patterns.
    ScopedSpillDir dir;
    DSeqOptions spill_options = options;
    spill_options.memory_budget_bytes =
        std::max<uint64_t>(in_memory.metrics.shuffle_bytes / 4, 64);
    spill_options.spill_dir = dir.path();
    DistributedResult spilled =
        MineDSeq(db.sequences, fst, db.dict, spill_options);

    EXPECT_EQ(spilled.patterns, in_memory.patterns);
    EXPECT_EQ(spilled.patterns, brute);
    EXPECT_EQ(spilled.metrics.shuffle_bytes, in_memory.metrics.shuffle_bytes);
    EXPECT_GE(spilled.metrics.spill_files, 1u);
    EXPECT_GE(spilled.metrics.spill_merge_passes, 1u);
    EXPECT_EQ(CountDirEntries(dir.path()), 0u);
    EXPECT_EQ(ShuffleBufferLiveBytes(), 0u);

    // The D-SEQ aggregation extension runs weighted values through the
    // combiner's external-aggregation path under the same budget. At high
    // worker counts each shard's add count can stay within the combiner's
    // bounded overdraft (legitimately spill-free), so the spill-count
    // assertion applies to the fat-shard configurations.
    DSeqOptions aggregate_options = spill_options;
    aggregate_options.aggregate_sequences = true;
    DistributedResult aggregated =
        MineDSeq(db.sequences, fst, db.dict, aggregate_options);
    EXPECT_EQ(aggregated.patterns, brute);
    if (workers <= 2) EXPECT_GE(aggregated.metrics.spill_files, 1u);
  });
}

TEST(SpillMiningTest, BudgetedBalancedChainSpillsPerRound) {
  // MineDSeqBalanced with forced splits is a two-round job: the mining
  // round and the reconcile round that sums the split partials. A budget
  // spills without moving either round's shuffle volume.
  SequenceDatabase db = testing::RandomDatabase(8200, 6, 60, 8);
  Fst fst = CompileFst(".*(.^).*", db.dict);

  DSeqBalanceOptions options;
  options.sigma = 2;
  options.num_map_workers = 2;
  options.num_reduce_workers = 2;
  options.split_factor = 0.5;  // force splits
  DistributedResult in_memory =
      MineDSeqBalanced(db.sequences, fst, db.dict, options);
  ASSERT_EQ(in_memory.num_rounds(), 2u);

  ScopedSpillDir dir;
  DSeqBalanceOptions spill_options = options;
  spill_options.memory_budget_bytes =
      std::max<uint64_t>(in_memory.metrics.shuffle_bytes / 8, 64);
  spill_options.spill_dir = dir.path();
  DistributedResult spilled =
      MineDSeqBalanced(db.sequences, fst, db.dict, spill_options);

  EXPECT_EQ(spilled.patterns, in_memory.patterns);
  ASSERT_EQ(spilled.round_metrics.size(), in_memory.round_metrics.size());
  for (size_t r = 0; r < spilled.round_metrics.size(); ++r) {
    EXPECT_EQ(spilled.round_metrics[r].shuffle_bytes,
              in_memory.round_metrics[r].shuffle_bytes)
        << "round " << r;
  }
  EXPECT_GE(spilled.metrics.spill_files, 1u);
  EXPECT_GE(spilled.metrics.spill_merge_passes, 1u);
  EXPECT_EQ(CountDirEntries(dir.path()), 0u);
}

}  // namespace
}  // namespace dseq
