// Unit tests of the map-side combiner over both value shapes — counts
// (weights with an empty payload) and weighted payloads: key collisions,
// weight-sum overflow near uint64 max, loud failure on malformed varint
// weights (silent miscounts are the one unforgivable bug in a
// support-counting system), the (key, payload) order of every budgeted
// flush, spilled or not, and the composite key of its spill runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/dataflow/combiner.h"
#include "src/dataflow/engine.h"
#include "src/spill/memory_budget.h"
#include "src/spill/spill_file.h"
#include "src/util/varint.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

using testing::SpillTestBudget;

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

std::string Varint(uint64_t v) {
  std::string s;
  PutVarint(&s, v);
  return s;
}

DataflowOptions BudgetOptions(uint64_t budget_bytes,
                              const std::string& spill_dir) {
  DataflowOptions options;
  options.memory_budget_bytes = budget_bytes;
  options.spill_dir = spill_dir;
  return options;
}

// One combiner with the round state it is built from: unbudgeted by
// default, budgeted (and spilling to `spill_dir`, if set) otherwise.
struct CombinerRig {
  explicit CombinerRig(uint64_t budget_bytes = 0,
                       const std::string& spill_dir = std::string())
      : options(BudgetOptions(budget_bytes, spill_dir)),
        budget(budget_bytes) {}

  DataflowOptions options;
  MemoryBudget budget;
  SpillStats stats;
  Combiner combiner{options, &budget, &stats, /*map_worker=*/0};
};

using Records = std::vector<std::pair<std::string, std::string>>;

// Flushes a combiner into a (key, value) list in emission order.
Records FlushInOrder(Combiner& combiner) {
  Records out;
  combiner.Flush([&](std::string_view key, std::string_view value) {
    out.emplace_back(std::string(key), std::string(value));
  });
  return out;
}

// Flushes a combiner into a sorted (key, value) list.
Records Flush(Combiner& combiner) {
  Records out = FlushInOrder(combiner);
  std::sort(out.begin(), out.end());
  return out;
}

// --- Counts: weights with an empty payload ---------------------------------

TEST(CombinerTest, SumsCollidingCountKeys) {
  CombinerRig rig;
  rig.combiner.Add("a", Varint(2));
  rig.combiner.Add("b", Varint(1));
  rig.combiner.Add("a", Varint(3));
  auto records = Flush(rig.combiner);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], std::make_pair(std::string("a"), Varint(5)));
  EXPECT_EQ(records[1], std::make_pair(std::string("b"), Varint(1)));
}

TEST(CombinerTest, MalformedCountFailsLoudly) {
  CombinerRig rig;
  // Truncated varint (lone continuation byte).
  EXPECT_THROW(rig.combiner.Add("k", std::string(1, '\x80')),
               std::invalid_argument);
  // Empty value.
  EXPECT_THROW(rig.combiner.Add("k", ""), std::invalid_argument);
}

TEST(CombinerTest, CountOverflowNearUint64MaxFailsLoudly) {
  CombinerRig rig;
  rig.combiner.Add("k", Varint(kMax - 1));
  rig.combiner.Add("k", Varint(1));  // exactly reaches the max: fine
  EXPECT_THROW(rig.combiner.Add("k", Varint(1)), std::overflow_error);

  CombinerRig unrelated;  // an unrelated instance is clean
  EXPECT_TRUE(Flush(unrelated.combiner).empty());
}

// --- Weighted payloads -------------------------------------------------------

TEST(CombinerTest, MergesIdenticalPayloadsPerKey) {
  CombinerRig rig;
  rig.combiner.Add("k", Varint(2) + "nfa1");
  rig.combiner.Add("k", Varint(3) + "nfa1");
  rig.combiner.Add("k", Varint(1) + "nfa2");
  rig.combiner.Add("other", Varint(1) + "nfa1");
  auto records = Flush(rig.combiner);
  ASSERT_EQ(records.size(), 3u);
  // Sorted by (key, value); the varint weight byte is the value's first.
  EXPECT_EQ(records[0], std::make_pair(std::string("k"), Varint(1) + "nfa2"));
  EXPECT_EQ(records[1], std::make_pair(std::string("k"), Varint(5) + "nfa1"));
  EXPECT_EQ(records[2],
            std::make_pair(std::string("other"), Varint(1) + "nfa1"));
}

TEST(CombinerTest, EmptyPayloadAggregatesApartFromPayloads) {
  CombinerRig rig;
  rig.combiner.Add("k", Varint(2));  // weight only, empty payload
  rig.combiner.Add("k", Varint(5));
  rig.combiner.Add("k", Varint(1) + "p");
  auto records = Flush(rig.combiner);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], std::make_pair(std::string("k"), Varint(1) + "p"));
  EXPECT_EQ(records[1], std::make_pair(std::string("k"), Varint(7)));
}

TEST(CombinerTest, WeightOverflowNearUint64MaxFailsLoudly) {
  CombinerRig rig;
  rig.combiner.Add("k", Varint(kMax - 2) + "payload");
  rig.combiner.Add("k", Varint(2) + "payload");  // exactly reaches the max
  EXPECT_THROW(rig.combiner.Add("k", Varint(1) + "payload"),
               std::overflow_error);
  // A different payload under the same key has its own sum and is fine.
  rig.combiner.Add("k", Varint(kMax) + "other");
  auto records = Flush(rig.combiner);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0],
            std::make_pair(std::string("k"), Varint(kMax) + "other"));
  EXPECT_EQ(records[1],
            std::make_pair(std::string("k"), Varint(kMax) + "payload"));
}

TEST(CombinerTest, ReusableAfterFlush) {
  // The engine flushes once per worker, but a second fill must start clean
  // (the arena and table are reset).
  CombinerRig rig;
  rig.combiner.Add("k", Varint(2) + "a");
  auto first = Flush(rig.combiner);
  ASSERT_EQ(first.size(), 1u);
  rig.combiner.Add("k", Varint(3) + "a");
  rig.combiner.Add("q", Varint(1) + "b");
  auto second = Flush(rig.combiner);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0], std::make_pair(std::string("k"), Varint(3) + "a"));
  EXPECT_EQ(second[1], std::make_pair(std::string("q"), Varint(1) + "b"));
}

TEST(CombinerEngineTest, MalformedValuePropagatesOutOfRunMapReduce) {
  // A mapper feeding garbage to the combiner must fail the whole round, not
  // miscount: the engine rethrows the map worker's exception.
  MapFn map_fn = [](size_t, const EmitFn& emit) { emit("k", "\x80"); };
  ReduceFn sink = [](int, std::string_view, std::vector<std::string_view>&,
                     const EmitFn&) {};
  DataflowOptions options;
  options.num_map_workers = 2;
  EXPECT_THROW(RunMapReduce(4, map_fn, /*combine=*/true, sink, options),
               std::invalid_argument);
}

// --- Equivalence against a reference model ---------------------------------
//
// The arena-backed table must produce, as a multiset of records, exactly
// what a straightforward std::map implementation produces — byte for byte,
// for arbitrary binary keys and payloads, empty payloads included.

std::string RandomBytes(std::mt19937_64& rng, size_t max_len) {
  size_t len = rng() % (max_len + 1);
  std::string s(len, '\0');
  for (char& c : s) c = static_cast<char>(rng() & 0xff);
  return s;
}

TEST(CombinerTest, CountsMatchReferenceModelOnRandomInputs) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    std::mt19937_64 rng(1234 + seed);
    CombinerRig rig;
    std::map<std::string, uint64_t> reference;
    size_t n = 200 + rng() % 2000;
    std::vector<std::string> keys;
    for (int k = 0; k < 20; ++k) keys.push_back(RandomBytes(rng, 12));
    for (size_t i = 0; i < n; ++i) {
      const std::string& key = keys[rng() % keys.size()];
      uint64_t count = rng() % 1000;
      rig.combiner.Add(key, Varint(count));
      reference[key] += count;
    }
    Records expected;
    for (const auto& [key, count] : reference) {
      expected.emplace_back(key, Varint(count));
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(Flush(rig.combiner), expected) << "seed " << seed;
  }
}

TEST(CombinerTest, WeightsMatchReferenceModelOnRandomInputs) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    std::mt19937_64 rng(9876 + seed);
    CombinerRig rig;
    std::map<std::string, std::map<std::string, uint64_t>> reference;
    size_t n = 200 + rng() % 2000;
    std::vector<std::string> keys;
    std::vector<std::string> payloads;
    for (int k = 0; k < 12; ++k) keys.push_back(RandomBytes(rng, 10));
    for (int p = 0; p < 25; ++p) payloads.push_back(RandomBytes(rng, 30));
    for (size_t i = 0; i < n; ++i) {
      const std::string& key = keys[rng() % keys.size()];
      const std::string& payload = payloads[rng() % payloads.size()];
      uint64_t weight = 1 + rng() % 50;
      rig.combiner.Add(key, Varint(weight) + payload);
      reference[key][payload] += weight;
    }
    Records expected;
    for (const auto& [key, by_payload] : reference) {
      for (const auto& [payload, weight] : by_payload) {
        expected.emplace_back(key, Varint(weight) + payload);
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(Flush(rig.combiner), expected) << "seed " << seed;
  }
}

// --- Budgeted flush order ----------------------------------------------------
//
// Every budgeted flush emits strictly increasing (key, payload) pairs, so a
// bucket's records within a key arrive in payload order however the
// combiner spilled. Binary keys with 0x00 bytes and prefix-related keys
// ("a" < "a\0" < "ab" < "b") are where a length-prefixed order would
// disagree.

using Triple = std::tuple<std::string, std::string, uint64_t>;

// (key, payload, weight sum) of each flushed record, in emission order.
std::vector<Triple> Decode(const Records& records) {
  std::vector<Triple> out;
  for (const auto& [key, value] : records) {
    size_t pos = 0;
    uint64_t sum = 0;
    EXPECT_TRUE(GetVarint(value, &pos, &sum));
    out.emplace_back(key, value.substr(pos), sum);
  }
  return out;
}

void CheckBudgetedFlushOrder(bool with_payloads, bool spill) {
  SCOPED_TRACE(std::string(with_payloads ? "payloads" : "counts") +
               (spill ? ", spilled" : ", resident"));
  // The budgeted sort compares 8-byte key prefixes first, so the keys
  // include ties it must break on the full bytes: keys sharing their first
  // 8 bytes (0x00 and 0xff among them) that differ at byte 8 or later, an
  // exactly-8-byte key beside itself plus 0x00, and short keys beside
  // themselves plus 0x00 bytes.
  const std::string shared("a\0b\xff\x01\0\xffz", 8);
  const std::vector<std::string> keys = {
      "",    std::string(1, '\0'), std::string("\0\0", 2),
      std::string("\0\x01", 2),    "\x01",
      "a",   std::string("a\0", 2), std::string("a\0b", 3),
      "ab",  "b",                   "\xff",
      std::string("\xff\0", 2),
      shared,
      shared + std::string(1, '\0'),
      shared + std::string("\0a", 2),
      shared + "a",
      shared + "aa",
      shared + "ab",
      shared + "a\xff",
      shared + "b",
      shared + "\xff",
      std::string("xyz\0\0\0\0\0", 8),
      std::string("xyz\0\0\0\0\0\0", 9),
      "xyz"};
  const std::vector<std::string> payloads =
      with_payloads ? std::vector<std::string>{"", std::string(1, '\0'),
                                               "\x01", "x", "xy", "\xff"}
                    : std::vector<std::string>{""};
  testing::ScopedTempDir dir;
  // Spilled: far below the table's resident size, so the records leave in
  // several partial runs. Resident: ample, and no spill directory at all.
  CombinerRig rig(spill ? SpillTestBudget(256) : uint64_t{1} << 20,
                  spill ? dir.path() : std::string());
  std::mt19937_64 rng(42);
  std::map<std::pair<std::string, std::string>, uint64_t> reference;
  for (int i = 0; i < 2000; ++i) {
    const std::string& key = keys[rng() % keys.size()];
    const std::string& payload = payloads[rng() % payloads.size()];
    uint64_t weight = 1 + rng() % 7;
    rig.combiner.Add(key, Varint(weight) + payload);
    reference[{key, payload}] += weight;
  }
  std::vector<Triple> flushed = Decode(FlushInOrder(rig.combiner));
  for (size_t i = 1; i < flushed.size(); ++i) {
    const auto& [prev_key, prev_payload, prev_sum] = flushed[i - 1];
    const auto& [key, payload, sum] = flushed[i];
    EXPECT_LT(std::tie(prev_key, prev_payload), std::tie(key, payload))
        << "record " << i;
  }
  std::vector<Triple> expected;
  for (const auto& [pair, sum] : reference) {
    expected.emplace_back(pair.first, pair.second, sum);
  }
  EXPECT_EQ(flushed, expected);
  if (spill) {
    EXPECT_GT(rig.stats.files.load(), 0u);
  } else {
    EXPECT_EQ(rig.stats.files.load(), 0u);
  }
  EXPECT_EQ(rig.budget.used_bytes(), 0u);  // the charge went back at Flush
}

TEST(CombinerTest, BudgetedFlushEmitsCountsInKeyOrder) {
  CheckBudgetedFlushOrder(/*with_payloads=*/false, /*spill=*/false);
  CheckBudgetedFlushOrder(/*with_payloads=*/false, /*spill=*/true);
}

TEST(CombinerTest, BudgetedFlushEmitsPayloadsInKeyPayloadOrder) {
  CheckBudgetedFlushOrder(/*with_payloads=*/true, /*spill=*/false);
  CheckBudgetedFlushOrder(/*with_payloads=*/true, /*spill=*/true);
}

// --- The composite key of spill runs -----------------------------------------

TEST(CompositeKeyTest, RoundTripsAndPreservesPairOrder) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"", ""},
      {"", std::string(1, '\0')},
      {"", "a"},
      {std::string(1, '\0'), ""},
      {std::string("\0\0", 2), std::string("\0\0", 2)},
      {std::string("\0\x01", 2), ""},
      {"\x01", std::string("\0\x01", 2)},
      {"a", ""},
      {"a", "b"},
      {std::string("a\0", 2), ""},
      {std::string("a\0b", 3), "\xff"},
      {"ab", std::string("\0", 1)},
      {"b", ""},
      {"\xff", "\xff\xff"},
  };
  std::vector<std::string> composites;
  for (const auto& [key, payload] : pairs) {
    std::string composite;
    AppendCompositeKey(&composite, key, payload);
    std::string scratch = "stale";
    auto [decoded_key, decoded_payload] =
        SplitCompositeKey(composite, &scratch);
    EXPECT_EQ(decoded_key, key);
    EXPECT_EQ(decoded_payload, payload);
    if (payload.empty() && key.find('\0') == std::string::npos) {
      EXPECT_EQ(composite, key);  // a plain count costs no extra bytes
    }
    composites.push_back(std::move(composite));
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    for (size_t j = 0; j < pairs.size(); ++j) {
      EXPECT_EQ(pairs[i] < pairs[j], composites[i] < composites[j])
          << i << " vs " << j;
    }
  }
}

TEST(CompositeKeyTest, RejectsMalformedBytes) {
  // A lone or badly escaped 0x00, and a terminator with nothing after it
  // (an empty payload has no terminator, so that spelling is not canonical).
  std::string scratch;
  for (const std::string& bad :
       {std::string(1, '\0'), std::string("a\0", 2),
        std::string("a\0\x02", 3), std::string("\0\x01\0", 3),
        std::string("\0\0", 2), std::string("a\0\0", 3),
        std::string("\0\x01\0\0", 4)}) {
    EXPECT_THROW(SplitCompositeKey(bad, &scratch), std::runtime_error)
        << ::testing::PrintToString(bad);
  }
}

}  // namespace
}  // namespace dseq
