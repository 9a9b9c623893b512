#include "src/dataflow/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "src/dataflow/shuffle_buffer.h"
#include "src/spill/external_merger.h"
#include "src/util/sync.h"
#include "src/util/varint.h"

namespace dseq {
namespace {

// Distributed word count over synthetic records, with and without combiner.
std::map<std::string, uint64_t> WordCount(const std::vector<std::string>& docs,
                                          bool use_combiner, int map_workers,
                                          int reduce_workers,
                                          DataflowMetrics* metrics_out,
                                          bool compress = false,
                                          uint64_t budget = 0) {
  std::map<std::string, uint64_t> counts;
  dseq::Mutex mu;
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    std::string word;
    std::string one;
    PutVarint(&one, 1);
    for (char c : docs[i] + " ") {
      if (c == ' ') {
        if (!word.empty()) emit(word, one);
        word.clear();
      } else {
        word += c;
      }
    }
  };
  ReduceFn reduce_fn = [&](int, std::string_view key,
                           std::vector<std::string_view>& values,
                           const EmitFn&) {
    uint64_t total = 0;
    for (std::string_view v : values) {
      size_t pos = 0;
      uint64_t c = 0;
      GetVarint(v, &pos, &c);
      total += c;
    }
    dseq::MutexLock lock(mu);
    counts[std::string(key)] += total;
  };
  DataflowOptions options;
  options.num_map_workers = map_workers;
  options.num_reduce_workers = reduce_workers;
  options.compress_shuffle = compress;
  options.shuffle_budget_bytes = budget;
  DataflowMetrics metrics =
      RunMapReduce(docs.size(), map_fn, use_combiner, reduce_fn, options)
          .metrics;
  if (metrics_out != nullptr) *metrics_out = metrics;
  return counts;
}

TEST(DataflowTest, WordCountSingleWorker) {
  std::vector<std::string> docs = {"a b a", "b c", "a"};
  auto counts = WordCount(docs, false, 1, 1, nullptr);
  EXPECT_EQ(counts["a"], 3u);
  EXPECT_EQ(counts["b"], 2u);
  EXPECT_EQ(counts["c"], 1u);
}

TEST(DataflowTest, ResultsIndependentOfWorkerCount) {
  std::vector<std::string> docs;
  for (int i = 0; i < 200; ++i) {
    docs.push_back("w" + std::to_string(i % 7) + " w" + std::to_string(i % 3));
  }
  auto reference = WordCount(docs, false, 1, 1, nullptr);
  // 20 map workers exceed the default merge fan-in (16).
  for (int mw : {2, 4, 20}) {
    for (int rw : {1, 3}) {
      EXPECT_EQ(WordCount(docs, false, mw, rw, nullptr), reference)
          << mw << "x" << rw;
      EXPECT_EQ(WordCount(docs, true, mw, rw, nullptr), reference)
          << mw << "x" << rw << " combined";
    }
  }
}

TEST(DataflowTest, CombinerReducesShuffleVolume) {
  std::vector<std::string> docs(50, "x x x x x x x x");
  DataflowMetrics without;
  DataflowMetrics with;
  WordCount(docs, false, 1, 1, &without);
  WordCount(docs, true, 1, 1, &with);
  EXPECT_LT(with.shuffle_records, without.shuffle_records);
  EXPECT_LT(with.shuffle_bytes, without.shuffle_bytes);
  // Pre-combine record counts are identical.
  EXPECT_EQ(with.map_output_records, without.map_output_records);
}

TEST(DataflowTest, MetricsCountRecords) {
  std::vector<std::string> docs = {"a b", "c"};
  DataflowMetrics metrics;
  WordCount(docs, false, 1, 1, &metrics);
  EXPECT_EQ(metrics.map_output_records, 3u);
  EXPECT_EQ(metrics.shuffle_records, 3u);
  EXPECT_GT(metrics.shuffle_bytes, 0u);
  // Compression off: no compressed volume is reported.
  EXPECT_EQ(metrics.shuffle_compressed_bytes, 0u);
  EXPECT_GE(metrics.map_seconds, 0.0);
  EXPECT_GE(metrics.reduce_seconds, 0.0);
}

TEST(DataflowTest, ReducerBytesSumToShuffleBytes) {
  std::vector<std::string> docs;
  for (int i = 0; i < 100; ++i) docs.push_back("k" + std::to_string(i % 13));
  DataflowMetrics metrics;
  WordCount(docs, false, 3, 4, &metrics);
  ASSERT_EQ(metrics.reducer_bytes.size(), 4u);
  uint64_t sum = 0;
  for (uint64_t b : metrics.reducer_bytes) sum += b;
  EXPECT_EQ(sum, metrics.shuffle_bytes);
}

TEST(DataflowTest, CustomPartitionerRoutesKeysAndMatchesMetrics) {
  std::vector<std::string> docs = {"a b c", "d e", "f"};
  std::map<std::string, uint64_t> counts;
  dseq::Mutex mu;
  std::atomic<int> nonzero_worker_calls{0};
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    std::string one;
    PutVarint(&one, 1);
    for (char c : docs[i]) {
      if (c != ' ') emit(std::string(1, c), one);
    }
  };
  ReduceFn reduce_fn = [&](int worker, std::string_view key,
                           std::vector<std::string_view>& values,
                           const EmitFn&) {
    if (worker != 0) nonzero_worker_calls.fetch_add(1);
    dseq::MutexLock lock(mu);
    counts[std::string(key)] += values.size();
  };
  DataflowOptions options;
  options.num_map_workers = 2;
  options.num_reduce_workers = 4;
  options.partitioner = [](std::string_view, int) { return 0; };
  DataflowMetrics metrics =
      RunMapReduce(docs.size(), map_fn, false, reduce_fn, options).metrics;
  // Everything was routed to reducer 0: all bytes on reducer 0, every key
  // reduced by worker 0.
  EXPECT_EQ(nonzero_worker_calls.load(), 0);
  ASSERT_EQ(metrics.reducer_bytes.size(), 4u);
  EXPECT_EQ(metrics.reducer_bytes[0], metrics.shuffle_bytes);
  EXPECT_EQ(metrics.reducer_bytes[1], 0u);
  EXPECT_EQ(counts.size(), 6u);
}

TEST(DataflowTest, OutOfRangePartitionerThrows) {
  MapFn map_fn = [](size_t, const EmitFn& emit) { emit("k", "v"); };
  ReduceFn reduce_fn = [](int, std::string_view, std::vector<std::string_view>&,
                          const EmitFn&) {};
  DataflowOptions options;
  options.num_reduce_workers = 2;
  options.partitioner = [](std::string_view, int workers) { return workers; };
  EXPECT_THROW(RunMapReduce(1, map_fn, false, reduce_fn, options),
               std::out_of_range);
  options.partitioner = [](std::string_view, int) { return -1; };
  EXPECT_THROW(RunMapReduce(1, map_fn, false, reduce_fn, options),
               std::out_of_range);
  // The failed runs released their buffers.
  EXPECT_EQ(ShuffleBufferLiveBytes(), 0u);
}

TEST(DataflowTest, DefaultPartitionerMatchesShuffleReducerForKey) {
  // The exposed helper must reproduce the engine's routing, or planners
  // and balance summaries would project a different layout than runs use.
  std::vector<std::string> docs = {"alpha beta gamma delta epsilon"};
  std::map<std::string, uint64_t> seen_worker;
  dseq::Mutex mu;
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    std::string word;
    for (char c : docs[i] + " ") {
      if (c == ' ') {
        if (!word.empty()) emit(word, "x");
        word.clear();
      } else {
        word += c;
      }
    }
  };
  ReduceFn reduce_fn = [&](int worker, std::string_view key,
                           std::vector<std::string_view>&, const EmitFn&) {
    dseq::MutexLock lock(mu);
    seen_worker[std::string(key)] = worker;
  };
  DataflowOptions options;
  options.num_reduce_workers = 5;
  RunMapReduce(docs.size(), map_fn, false, reduce_fn, options);
  ASSERT_EQ(seen_worker.size(), 5u);
  for (const auto& [key, worker] : seen_worker) {
    EXPECT_EQ(worker, static_cast<uint64_t>(ShuffleReducerForKey(key, 5)))
        << key;
  }
}

TEST(DataflowTest, ShuffleBudgetEnforced) {
  std::vector<std::string> docs(100, "aaaaaaaaaa bbbbbbbbbb cccccccccc");
  DataflowOptions options;
  options.shuffle_budget_bytes = 50;
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    emit(docs[i], "1");
  };
  ReduceFn reduce_fn = [](int, std::string_view, std::vector<std::string_view>&,
                          const EmitFn&) {};
  EXPECT_THROW(RunMapReduce(docs.size(), map_fn, false, reduce_fn, options),
               ShuffleOverflowError);
}

TEST(DataflowTest, BudgetAppliesPostCombine) {
  // 1000 identical keys combine into one record that fits the budget.
  DataflowOptions options;
  options.shuffle_budget_bytes = 100;
  MapFn map_fn = [&](size_t, const EmitFn& emit) {
    std::string one;
    PutVarint(&one, 1);
    for (int i = 0; i < 1000; ++i) emit("key", one);
  };
  std::atomic<uint64_t> total{0};
  ReduceFn reduce_fn = [&](int, std::string_view,
                           std::vector<std::string_view>& values,
                           const EmitFn&) {
    for (std::string_view v : values) {
      size_t pos = 0;
      uint64_t c = 0;
      GetVarint(v, &pos, &c);
      total += c;
    }
  };
  DataflowMetrics metrics =
      RunMapReduce(1, map_fn, true, reduce_fn, options).metrics;
  EXPECT_EQ(total.load(), 1000u);
  EXPECT_EQ(metrics.shuffle_records, 1u);
}

TEST(DataflowTest, EachKeyReducedExactlyOnce) {
  std::atomic<int> reduce_calls{0};
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    emit("k" + std::to_string(i % 10), "v");
  };
  ReduceFn reduce_fn = [&](int, std::string_view,
                           std::vector<std::string_view>& values,
                           const EmitFn&) {
    ++reduce_calls;
    EXPECT_EQ(values.size(), 10u);
  };
  DataflowOptions options;
  options.num_map_workers = 4;
  options.num_reduce_workers = 4;
  RunMapReduce(100, map_fn, false, reduce_fn, options);
  EXPECT_EQ(reduce_calls.load(), 10);
}

TEST(DataflowTest, KeysArriveSortedAndValuesKeepEmitOrder) {
  // The sort-based grouper delivers keys in ascending byte order per reduce
  // worker, and values within a key in map-worker-then-emit order.
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    emit("dup", "v" + std::to_string(i));
    emit("k" + std::to_string(9 - i % 10), "x");
  };
  std::vector<std::string> keys;
  std::vector<std::string> dup_values;
  ReduceFn reduce_fn = [&](int, std::string_view key,
                           std::vector<std::string_view>& values,
                           const EmitFn&) {
    keys.emplace_back(key);
    if (key == "dup") {
      for (std::string_view v : values) dup_values.emplace_back(v);
    }
  };
  DataflowOptions options;  // single reduce worker: one global key order
  RunMapReduce(10, map_fn, false, reduce_fn, options);
  ASSERT_EQ(keys.size(), 11u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  ASSERT_EQ(dup_values.size(), 10u);
  for (size_t i = 0; i < dup_values.size(); ++i) {
    EXPECT_EQ(dup_values[i], "v" + std::to_string(i));
  }
}

TEST(DataflowTest, InMemoryMergeBeyondFanInWritesNoSpill) {
  // More map workers than the merge fan-in and no spill directory: each
  // column merges its sorted buckets in one in-memory pass, so it writes no
  // file and counts no merge pass. Shards are contiguous, so (map worker,
  // emit) order is input order and the groups match a 4-worker run value
  // for value.
  MapFn map_fn = [](size_t i, const EmitFn& emit) {
    emit("dup", "v" + std::to_string(i));
    emit("k" + std::to_string(i % 7), "x" + std::to_string(i));
  };
  using Groups = std::map<std::string, std::vector<std::string>>;
  auto run = [&](int map_workers, DataflowMetrics* metrics) {
    constexpr int kReduceWorkers = 3;
    std::vector<Groups> per_worker(kReduceWorkers);
    ReduceFn reduce_fn = [&](int worker, std::string_view key,
                             std::vector<std::string_view>& values,
                             const EmitFn&) {
      per_worker[worker][std::string(key)].assign(values.begin(),
                                                  values.end());
    };
    DataflowOptions options;
    options.num_map_workers = map_workers;
    options.num_reduce_workers = kReduceWorkers;
    *metrics = RunMapReduce(100, map_fn, false, reduce_fn, options).metrics;
    Groups groups;
    for (Groups& part : per_worker) groups.merge(part);
    return groups;
  };
  ASSERT_LT(kSpillMergeFanIn, 20);
  DataflowMetrics four;
  DataflowMetrics twenty;
  Groups reference = run(4, &four);
  EXPECT_EQ(run(20, &twenty), reference);
  ASSERT_EQ(reference.size(), 8u);
  ASSERT_EQ(reference["dup"].size(), 100u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(reference["dup"][i], "v" + std::to_string(i));
  }
  for (const DataflowMetrics* m : {&four, &twenty}) {
    EXPECT_EQ(m->spill_files, 0u);
    EXPECT_EQ(m->spill_merge_passes, 0u);
  }
}

TEST(DataflowTest, EmptyInput) {
  MapFn map_fn = [](size_t, const EmitFn&) { FAIL(); };
  ReduceFn reduce_fn = [](int, std::string_view, std::vector<std::string_view>&,
                          const EmitFn&) { FAIL(); };
  DataflowMetrics metrics =
      RunMapReduce(0, map_fn, false, reduce_fn, {}).metrics;
  EXPECT_EQ(metrics.shuffle_records, 0u);
}

TEST(DataflowTest, SimulatedExecutionProducesSameResults) {
  std::vector<std::string> docs;
  for (int i = 0; i < 100; ++i) {
    docs.push_back("w" + std::to_string(i % 5) + " w" + std::to_string(i % 3));
  }
  auto threads = WordCount(docs, true, 4, 4, nullptr);

  // Same run under cluster simulation.
  std::map<std::string, uint64_t> counts;
  dseq::Mutex mu;
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    std::string word;
    std::string one;
    PutVarint(&one, 1);
    for (char c : docs[i] + " ") {
      if (c == ' ') {
        if (!word.empty()) emit(word, one);
        word.clear();
      } else {
        word += c;
      }
    }
  };
  ReduceFn reduce_fn = [&](int, std::string_view key,
                           std::vector<std::string_view>& values,
                           const EmitFn&) {
    uint64_t total = 0;
    for (std::string_view v : values) {
      size_t pos = 0;
      uint64_t c = 0;
      GetVarint(v, &pos, &c);
      total += c;
    }
    dseq::MutexLock lock(mu);
    counts[std::string(key)] += total;
  };
  DataflowOptions options;
  options.num_map_workers = 4;
  options.num_reduce_workers = 4;
  options.execution = Execution::kSimulated;
  DataflowMetrics metrics =
      RunMapReduce(docs.size(), map_fn, true, reduce_fn, options).metrics;
  EXPECT_EQ(counts, threads);
  EXPECT_GE(metrics.map_seconds, 0.0);
  EXPECT_GE(metrics.reduce_seconds, 0.0);
}

TEST(DataflowTest, MapExceptionPropagates) {
  MapFn map_fn = [](size_t i, const EmitFn&) {
    if (i == 5) throw std::runtime_error("boom");
  };
  ReduceFn reduce_fn = [](int, std::string_view, std::vector<std::string_view>&,
                          const EmitFn&) {};
  DataflowOptions options;
  options.num_map_workers = 3;
  EXPECT_THROW(RunMapReduce(10, map_fn, false, reduce_fn, options),
               std::runtime_error);
}

// --- Shuffle compression ----------------------------------------------------

TEST(DataflowTest, CompressionPreservesResultsAndRawMetrics) {
  std::vector<std::string> docs;
  for (int i = 0; i < 120; ++i) {
    docs.push_back("alpha beta w" + std::to_string(i % 6) + " alpha");
  }
  for (int workers : {1, 3}) {
    DataflowMetrics raw_metrics;
    DataflowMetrics compressed_metrics;
    auto raw = WordCount(docs, false, workers, workers, &raw_metrics, false);
    auto compressed =
        WordCount(docs, false, workers, workers, &compressed_metrics, true);
    EXPECT_EQ(raw, compressed) << workers << " workers";
    // The raw shuffle accounting (budget basis) is unchanged by the codec.
    EXPECT_EQ(raw_metrics.shuffle_bytes, compressed_metrics.shuffle_bytes);
    EXPECT_EQ(raw_metrics.shuffle_records, compressed_metrics.shuffle_records);
    EXPECT_EQ(raw_metrics.shuffle_compressed_bytes, 0u);
    EXPECT_GT(compressed_metrics.shuffle_compressed_bytes, 0u);
    // Word-count records are highly repetitive; the codec must win.
    EXPECT_LT(compressed_metrics.shuffle_compressed_bytes,
              compressed_metrics.shuffle_bytes);
  }
}

TEST(DataflowTest, CompressionComposesWithCombinerAndBudget) {
  std::vector<std::string> docs(60, "x y x y z z z");
  DataflowMetrics plain;
  WordCount(docs, true, 2, 2, &plain, false);
  DataflowMetrics compressed;
  auto counts = WordCount(docs, true, 2, 2, &compressed, true);
  EXPECT_EQ(counts["z"], 180u);
  EXPECT_EQ(plain.shuffle_bytes, compressed.shuffle_bytes);
  EXPECT_GT(compressed.shuffle_compressed_bytes, 0u);

  // The budget stays charged on the raw serialized volume with the codec
  // on: a budget exactly at the raw volume passes, one byte below throws —
  // even though the compressed volume is far smaller than either.
  ASSERT_LT(compressed.shuffle_compressed_bytes, compressed.shuffle_bytes);
  DataflowMetrics budgeted;
  WordCount(docs, true, 2, 2, &budgeted, true, compressed.shuffle_bytes);
  EXPECT_EQ(budgeted.shuffle_bytes, compressed.shuffle_bytes);
  EXPECT_THROW(WordCount(docs, true, 2, 2, nullptr, true,
                         compressed.shuffle_bytes - 1),
               ShuffleOverflowError);
}

// --- Reduce-phase memory ----------------------------------------------------

TEST(DataflowTest, ReduceWorkersDrainBucketsAsTheyFinish) {
  // Under cluster simulation the reduce workers run sequentially; each must
  // release its bucket column before the next starts, so the live shuffle
  // gauge strictly decreases across workers instead of staying at the full
  // volume until the end of the phase.
  ASSERT_EQ(ShuffleBufferLiveBytes(), 0u);
  constexpr int kReduceWorkers = 4;
  // One key per reduce bucket (the engine partitions by
  // std::hash<std::string_view> % reduce workers), so every worker is
  // guaranteed a reduce call.
  std::vector<std::string> bucket_key(kReduceWorkers);
  int found = 0;
  for (int i = 0; found < kReduceWorkers; ++i) {
    std::string key = "key" + std::to_string(i);
    size_t b = std::hash<std::string_view>{}(key) % kReduceWorkers;
    if (bucket_key[b].empty()) {
      bucket_key[b] = key;
      ++found;
    }
  }
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    // ~64 bytes per record, every bucket hit by every input.
    for (const std::string& key : bucket_key) {
      emit(key, std::string(60, 'v') + std::to_string(i));
    }
  };
  std::vector<uint64_t> live_at_worker;
  ReduceFn reduce_fn = [&](int r, std::string_view,
                           std::vector<std::string_view>&, const EmitFn&) {
    if (live_at_worker.size() <= static_cast<size_t>(r)) {
      live_at_worker.push_back(ShuffleBufferLiveBytes());
    }
  };
  DataflowOptions options;
  options.num_map_workers = 2;
  options.num_reduce_workers = kReduceWorkers;
  options.execution = Execution::kSimulated;
  RunMapReduce(512, map_fn, false, reduce_fn, options);

  ASSERT_EQ(live_at_worker.size(), static_cast<size_t>(kReduceWorkers));
  for (size_t r = 1; r < live_at_worker.size(); ++r) {
    EXPECT_LT(live_at_worker[r], live_at_worker[r - 1]) << "worker " << r;
  }
  // The last worker's own column is already drained when it runs.
  EXPECT_EQ(live_at_worker.back(), 0u);
  // Nothing survives the round.
  EXPECT_EQ(ShuffleBufferLiveBytes(), 0u);
}

TEST(DataflowTest, BucketsFreedAfterOverflow) {
  // A budget trip mid-map must not leak tracked shuffle bytes.
  ASSERT_EQ(ShuffleBufferLiveBytes(), 0u);
  DataflowOptions options;
  options.shuffle_budget_bytes = 64;
  MapFn map_fn = [](size_t i, const EmitFn& emit) {
    emit("key" + std::to_string(i), std::string(10, 'v'));
  };
  ReduceFn sink = [](int, std::string_view, std::vector<std::string_view>&,
                     const EmitFn&) {};
  EXPECT_THROW(RunMapReduce(100, map_fn, false, sink, options),
               ShuffleOverflowError);
  EXPECT_EQ(ShuffleBufferLiveBytes(), 0u);
}

TEST(DataflowTest, SortByKeyIsStableAndKeepsTheBytes) {
  ShuffleBuffer bucket;
  const std::vector<std::pair<std::string, std::string>> appended = {
      {"b", "1"}, {"a", "2"}, {"", "3"}, {"b", "4"},
      {"a", ""},  {"ab", "5"}, {"", "6"}};
  for (const auto& [key, value] : appended) bucket.Append(key, value);
  const size_t bytes = bucket.data_bytes();
  bucket.SortByKey();
  EXPECT_EQ(bucket.num_records(), appended.size());
  EXPECT_EQ(bucket.data_bytes(), bytes);
  std::vector<std::pair<std::string, std::string>> sorted;
  ShuffleBuffer::ForEachRecord(
      bucket.ReleaseRaw(), [&](std::string_view key, std::string_view value) {
        sorted.emplace_back(key, value);
      });
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"", "3"},  {"", "6"},  {"a", "2"}, {"a", ""},
      {"ab", "5"}, {"b", "1"}, {"b", "4"}};
  EXPECT_EQ(sorted, expected);
  EXPECT_EQ(ShuffleBufferLiveBytes(), 0u);
}

}  // namespace
}  // namespace dseq
