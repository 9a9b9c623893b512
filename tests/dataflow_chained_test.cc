// Unit tests of the chained-round dataflow API (DataflowJob) and regression
// tests pinning the shuffle-budget semantics: exact thresholds, where in the
// round the budget trips, and that it bounds every round on its own.
#include "src/dataflow/chained.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "src/util/varint.h"

namespace dseq {
namespace {

std::string Varint(uint64_t v) {
  std::string s;
  PutVarint(&s, v);
  return s;
}

uint64_t DecodeVarint(std::string_view s) {
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_TRUE(GetVarint(s, &pos, &v));
  return v;
}

// Sums varint values per key and re-emits (key, varint(total)).
ReduceFn SumReduce() {
  return [](int, std::string_view key, std::vector<std::string_view>& values,
            const EmitFn& emit) {
    uint64_t total = 0;
    for (std::string_view v : values) total += DecodeVarint(v);
    emit(key, Varint(total));
  };
}

TEST(DataflowJobTest, RecordsFlowBetweenRounds) {
  // Round 1: word count. Round 2: re-key by first letter, sum again.
  std::vector<std::string> docs = {"apple ant bee", "bee apple", "ant"};
  DataflowOptions options;
  options.num_map_workers = 2;
  options.num_reduce_workers = 2;
  DataflowJob job(options);

  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    std::string word;
    for (char c : docs[i] + " ") {
      if (c == ' ') {
        if (!word.empty()) emit(word, Varint(1));
        word.clear();
      } else {
        word += c;
      }
    }
  };
  job.RunRound(docs.size(), map_fn, true, SumReduce());

  // Boundary records hold the per-word counts, serialized.
  std::vector<Record> inputs = job.TakeRecords();
  std::map<std::string, uint64_t> words;
  for (const Record& r : inputs) words[r.key] = DecodeVarint(r.value);
  EXPECT_EQ(words, (std::map<std::string, uint64_t>{
                       {"apple", 2}, {"ant", 2}, {"bee", 2}}));

  MapFn rekey = [&](size_t i, const EmitFn& emit) {
    emit(inputs[i].key.substr(0, 1), inputs[i].value);
  };
  job.RunRound(inputs.size(), rekey, true, SumReduce());

  std::map<std::string, uint64_t> letters;
  for (const Record& r : job.TakeRecords()) {
    letters[r.key] = DecodeVarint(r.value);
  }
  EXPECT_EQ(letters, (std::map<std::string, uint64_t>{{"a", 4}, {"b", 2}}));

  ASSERT_EQ(job.num_rounds(), 2u);
  const auto& rounds = job.round_metrics();
  EXPECT_GT(rounds[0].shuffle_records, 0u);
  EXPECT_GT(rounds[1].shuffle_records, 0u);
  DataflowMetrics aggregate = job.aggregate_metrics();
  EXPECT_EQ(aggregate.shuffle_bytes,
            rounds[0].shuffle_bytes + rounds[1].shuffle_bytes);
  EXPECT_EQ(aggregate.shuffle_records,
            rounds[0].shuffle_records + rounds[1].shuffle_records);
  EXPECT_EQ(aggregate.map_output_records,
            rounds[0].map_output_records + rounds[1].map_output_records);
}

TEST(DataflowJobTest, TakeRecordsConsumes) {
  DataflowJob job(DataflowOptions{});
  MapFn map_fn = [](size_t, const EmitFn& emit) { emit("k", "v"); };
  ReduceFn pass = [](int, std::string_view key,
                     std::vector<std::string_view>& values,
                     const EmitFn& emit) {
    for (std::string_view v : values) emit(key, v);
  };
  job.RunRound(1, map_fn, false, pass);
  EXPECT_EQ(job.TakeRecords().size(), 1u);
  EXPECT_TRUE(job.TakeRecords().empty());
}

TEST(DataflowJobTest, EmptyChainedRoundRunsCleanly) {
  DataflowJob job(DataflowOptions{});
  MapFn map_fn = [](size_t, const EmitFn& emit) { emit("k", Varint(1)); };
  // Reduce emits nothing: the chain's data ends here.
  ReduceFn sink = [](int, std::string_view, std::vector<std::string_view>&,
                     const EmitFn&) {};
  job.RunRound(1, map_fn, false, sink);
  std::vector<Record> inputs = job.TakeRecords();
  EXPECT_TRUE(inputs.empty());
  MapFn identity = [&](size_t i, const EmitFn& emit) {
    emit(inputs[i].key, inputs[i].value);
  };
  job.RunRound(inputs.size(), identity, false, sink);
  EXPECT_EQ(job.num_rounds(), 2u);
  EXPECT_EQ(job.round_metrics()[1].shuffle_records, 0u);
}

TEST(DataflowJobTest, CustomPartitionerReachesEveryRound) {
  // DataflowOptions::partitioner applies to every round of a job: under a
  // rotated hash both rounds' records stay the same (order aside) and each
  // round's per-reducer volume moves one reducer up.
  std::vector<std::string> docs = {"apple ant bee", "bee apple", "ant cat",
                                   "cat dog", "dog apple emu"};
  MapFn count_words = [&](size_t i, const EmitFn& emit) {
    std::string word;
    for (char c : docs[i] + " ") {
      if (c == ' ') {
        if (!word.empty()) emit(word, Varint(1));
        word.clear();
      } else {
        word += c;
      }
    }
  };
  struct Chain {
    std::vector<std::vector<Record>> records;
    std::vector<DataflowMetrics> metrics;
  };
  auto run = [&](const PartitionerFn& partitioner) {
    DataflowOptions options;
    options.num_map_workers = 2;
    options.num_reduce_workers = 3;
    options.partitioner = partitioner;
    DataflowJob job(options);
    Chain chain;
    job.RunRound(docs.size(), count_words, true, SumReduce());
    std::vector<Record> words = job.TakeRecords();
    MapFn rekey = [&](size_t i, const EmitFn& emit) {
      emit(words[i].key.substr(0, 1), words[i].value);
    };
    job.RunRound(words.size(), rekey, true, SumReduce());
    chain.records = {std::move(words), job.TakeRecords()};
    for (std::vector<Record>& round : chain.records) {
      std::sort(round.begin(), round.end());
    }
    chain.metrics = job.round_metrics();
    return chain;
  };

  Chain hashed = run(nullptr);
  Chain rotated = run([](std::string_view key, int workers) {
    return (ShuffleReducerForKey(key, workers) + 1) % workers;
  });
  ASSERT_EQ(hashed.metrics.size(), 2u);
  ASSERT_EQ(rotated.metrics.size(), 2u);
  for (size_t round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    EXPECT_FALSE(hashed.records[round].empty());
    EXPECT_EQ(rotated.records[round], hashed.records[round]);
    const std::vector<uint64_t>& plain = hashed.metrics[round].reducer_bytes;
    const std::vector<uint64_t>& moved = rotated.metrics[round].reducer_bytes;
    ASSERT_EQ(plain.size(), 3u);
    ASSERT_EQ(moved.size(), 3u);
    for (size_t r = 0; r < 3; ++r) EXPECT_EQ(moved[(r + 1) % 3], plain[r]);
    EXPECT_NE(moved, plain);  // the rotation is visible
    EXPECT_EQ(rotated.metrics[round].shuffle_bytes,
              hashed.metrics[round].shuffle_bytes);
  }
}

// --- Shuffle-budget regressions --------------------------------------------

// One round shuffling a fixed set of records, no combiner. Returns its exact
// shuffle volume when unbudgeted.
uint64_t MeasureVolume() {
  DataflowJob job(DataflowOptions{});
  MapFn map_fn = [](size_t i, const EmitFn& emit) {
    emit("key" + std::to_string(i), std::string(10, 'v'));
  };
  ReduceFn sink = [](int, std::string_view, std::vector<std::string_view>&,
                     const EmitFn&) {};
  job.RunRound(8, map_fn, false, sink);
  return job.round_metrics()[0].shuffle_bytes;
}

DataflowMetrics RunBudgeted(uint64_t per_round_budget) {
  DataflowOptions options;
  options.shuffle_budget_bytes = per_round_budget;
  MapFn map_fn = [](size_t i, const EmitFn& emit) {
    emit("key" + std::to_string(i), std::string(10, 'v'));
  };
  ReduceFn sink = [](int, std::string_view, std::vector<std::string_view>&,
                     const EmitFn&) {};
  return RunMapReduce(8, map_fn, false, sink, options).metrics;
}

TEST(ShuffleBudgetTest, BudgetExactlyEqualToVolumeSucceeds) {
  uint64_t volume = MeasureVolume();
  ASSERT_GT(volume, 0u);
  DataflowMetrics metrics = RunBudgeted(volume);
  EXPECT_EQ(metrics.shuffle_bytes, volume);
}

TEST(ShuffleBudgetTest, OneByteBelowVolumeThrows) {
  uint64_t volume = MeasureVolume();
  EXPECT_THROW(RunBudgeted(volume - 1), ShuffleOverflowError);
}

TEST(ShuffleBudgetTest, BudgetTripsMidMap) {
  // A single map worker emits record by record; the overflow must fire on
  // the offending record, before the map phase finishes.
  std::atomic<size_t> map_calls{0};
  DataflowOptions options;
  options.shuffle_budget_bytes = 40;  // fits ~2 records of 17+4 bytes
  options.num_map_workers = 1;
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    ++map_calls;
    emit("key" + std::to_string(i), std::string(10, 'v'));
  };
  ReduceFn sink = [](int, std::string_view, std::vector<std::string_view>&,
                     const EmitFn&) {};
  EXPECT_THROW(RunMapReduce(100, map_fn, false, sink, options),
               ShuffleOverflowError);
  EXPECT_LT(map_calls.load(), 100u);
}

TEST(ShuffleBudgetTest, PreCombineVolumeAboveBudgetDoesNotTrip) {
  // 500 identical records would blow the budget raw, but the combiner folds
  // them into one; the budget is charged post-combine only.
  DataflowOptions options;
  options.num_map_workers = 1;
  MapFn map_fn = [](size_t, const EmitFn& emit) {
    std::string one;
    PutVarint(&one, 1);
    for (int i = 0; i < 500; ++i) emit("key", one);
  };
  ReduceFn sink = [](int, std::string_view, std::vector<std::string_view>&,
                     const EmitFn&) {};

  DataflowMetrics unbudgeted =
      RunMapReduce(1, map_fn, true, sink, options).metrics;
  ASSERT_EQ(unbudgeted.shuffle_records, 1u);
  ASSERT_GT(unbudgeted.map_output_records, unbudgeted.shuffle_records);

  options.shuffle_budget_bytes = unbudgeted.shuffle_bytes;
  DataflowMetrics budgeted =
      RunMapReduce(1, map_fn, true, sink, options).metrics;
  EXPECT_EQ(budgeted.shuffle_bytes, unbudgeted.shuffle_bytes);

  options.shuffle_budget_bytes = unbudgeted.shuffle_bytes - 1;
  EXPECT_THROW(RunMapReduce(1, map_fn, true, sink, options),
               ShuffleOverflowError);
}

// Chained job where each round shuffles the same fixed volume.
class BudgetedChain {
 public:
  explicit BudgetedChain(const DataflowOptions& options) : job_(options) {}

  // Round 1 ships `kRecords` records; every chained round re-ships them.
  void RunSeedRound() {
    MapFn map_fn = [](size_t i, const EmitFn& emit) {
      emit("key" + std::to_string(i), std::string(10, 'v'));
    };
    job_.RunRound(kRecords, map_fn, false, PassThrough());
  }
  void RunEchoRound() {
    std::vector<Record> inputs = job_.TakeRecords();
    MapFn map_fn = [&](size_t i, const EmitFn& emit) {
      emit(inputs[i].key, inputs[i].value);
    };
    job_.RunRound(inputs.size(), map_fn, false, PassThrough());
  }
  DataflowJob& job() { return job_; }

  static constexpr size_t kRecords = 8;

 private:
  static ReduceFn PassThrough() {
    return [](int, std::string_view key, std::vector<std::string_view>& values,
              const EmitFn& emit) {
      for (std::string_view v : values) emit(key, v);
    };
  }
  DataflowJob job_;
};

TEST(ShuffleBudgetTest, PerRoundBudgetResetsEachRound) {
  uint64_t volume = MeasureVolume();
  DataflowOptions options;
  options.shuffle_budget_bytes = volume;  // exactly one round's volume
  BudgetedChain chain(options);
  chain.RunSeedRound();
  chain.RunEchoRound();
  chain.RunEchoRound();
  EXPECT_EQ(chain.job().aggregate_metrics().shuffle_bytes, 3 * volume);
}

}  // namespace
}  // namespace dseq
