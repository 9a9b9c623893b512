// Concurrency stress tests, written for TSan (the CI `thread` sanitizer job
// runs the engine/property/spill groups; this suite is its dedicated
// hammer). Each test drives a shared-state hot spot from many threads at
// once: the ParallelWorkers/ParallelShards thread pool, concurrent
// ShuffleBuffer arena writes against the process-wide live-bytes gauge,
// MemoryBudget charge/release contention, and budget-contended spill where
// many map workers fight over one tiny budget and spill concurrently.
//
// The assertions are deliberately coarse (counters add up, gauge returns to
// baseline, spilled results byte-identical) — the real assertions are the
// ones TSan plants under every load and store.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/dataflow/engine.h"
#include "src/dataflow/shuffle_buffer.h"
#include "src/spill/memory_budget.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"
#include "src/util/varint.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

using GroupMap = std::map<std::string, std::vector<std::string>>;

// Iteration scale: kept small for PR runs, raised in dedicated stress runs
// via the same env knob the property tests use.
int StressIterations(int fallback) {
  return testing::PropertyIterations(fallback);
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolStressTest, RepeatedParallelWorkersRoundsCountExactly) {
  const int rounds = StressIterations(50);
  for (int round = 0; round < rounds; ++round) {
    std::atomic<int> calls{0};
    std::atomic<uint64_t> id_bits{0};
    ParallelWorkers(8, [&](int w) {
      calls.fetch_add(1, std::memory_order_relaxed);
      id_bits.fetch_or(uint64_t{1} << w, std::memory_order_relaxed);
    });
    ASSERT_EQ(calls.load(), 8);
    ASSERT_EQ(id_bits.load(), 0xffu);  // every worker id ran exactly once
  }
}

TEST(ThreadPoolStressTest, ParallelShardsCoversEveryItemOnce) {
  const int rounds = StressIterations(20);
  const size_t num_items = 1000;
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::atomic<int>> hits(num_items);
    ParallelShards(num_items, 8, [&](int /*worker*/, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (size_t i = 0; i < num_items; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "item " << i;
    }
  }
}

TEST(ThreadPoolStressTest, ConcurrentThrowersDoNotRaceTheErrorSlot) {
  // Several workers throw at once: exactly one exception must surface and
  // the rest be swallowed without touching freed state (the error slot is
  // mutex-guarded — TSan checks that claim).
  const int rounds = StressIterations(50);
  for (int round = 0; round < rounds; ++round) {
    std::atomic<int> ran{0};
    try {
      ParallelWorkers(8, [&](int w) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (w % 2 == 0) {
          throw std::runtime_error("worker " + std::to_string(w));
        }
      });
      FAIL() << "expected ParallelWorkers to rethrow";
    } catch (const std::runtime_error&) {
    }
    // Every worker still ran: a throwing shard must not cancel the others.
    ASSERT_EQ(ran.load(), 8);
  }
}

TEST(ThreadPoolStressTest, RethrownErrorIsIntactUnderContention) {
  // Regression test for the thread-safety-annotation finding: the pool used
  // to read its first-error slot without the mutex when rethrowing, relying
  // on the joins alone for ordering. The slot is now an annotated
  // mutex-guarded type whose read path locks too. Here every worker throws
  // nearly simultaneously (rendezvous barrier) so captures contend as hard
  // as possible, and the surfaced exception must be one of the thrown ones,
  // with its message untorn — under TSan this also proves the locked read.
  const int rounds = StressIterations(50);
  const int workers = 8;
  for (int round = 0; round < rounds; ++round) {
    std::atomic<int> arrivals{0};
    std::string surfaced;
    try {
      ParallelWorkers(workers, [&](int w) {
        arrivals.fetch_add(1, std::memory_order_relaxed);
        while (arrivals.load(std::memory_order_relaxed) < workers) {
        }
        throw std::runtime_error("thrower-" + std::to_string(w) + "-round-" +
                                 std::to_string(round));
      });
      FAIL() << "expected ParallelWorkers to rethrow";
    } catch (const std::runtime_error& e) {
      surfaced = e.what();
    }
    // Exactly one of this round's exceptions, byte-for-byte.
    bool matches_a_thrower = false;
    for (int w = 0; w < workers; ++w) {
      if (surfaced == "thrower-" + std::to_string(w) + "-round-" +
                          std::to_string(round)) {
        matches_a_thrower = true;
      }
    }
    ASSERT_TRUE(matches_a_thrower) << "got: " << surfaced;
  }
}

// --- ShuffleBuffer arenas ---------------------------------------------------

TEST(ShuffleBufferStressTest, ConcurrentArenaWritesKeepTheGaugeBalanced) {
  // Buffers are single-writer by design — one per (map worker, reducer) —
  // but the live-bytes gauge they update is process-global. Hammer it from
  // 8 writers appending, sealing, compressing, and draining concurrently.
  const uint64_t baseline = ShuffleBufferLiveBytes();
  const int rounds = StressIterations(10);
  for (int round = 0; round < rounds; ++round) {
    std::atomic<uint64_t> total_records{0};
    ParallelWorkers(8, [&](int w) {
      std::mt19937_64 rng(round * 8 + w);
      std::vector<ShuffleBuffer> buffers(4);
      std::string value;
      for (int i = 0; i < 500; ++i) {
        ShuffleBuffer& buf = buffers[rng() % buffers.size()];
        value.assign(rng() % 64, static_cast<char>('a' + w));
        buf.Append("k" + std::to_string(rng() % 16), value);
        total_records.fetch_add(1, std::memory_order_relaxed);
      }
      uint64_t drained = 0;
      for (size_t b = 0; b < buffers.size(); ++b) {
        if (w % 2 == 0 && b % 2 == 0) {
          buffers[b].Compress();  // gauge-syncing path
        } else {
          buffers[b].Seal();
        }
        std::string raw = buffers[b].ReleaseRaw();
        ShuffleBuffer::ForEachRecord(
            raw, [&](std::string_view, std::string_view) { ++drained; });
      }
      EXPECT_EQ(drained, 500u);
    });
    ASSERT_EQ(total_records.load(), 8u * 500u);
    // Every buffer was drained, so the global gauge is back to baseline.
    ASSERT_EQ(ShuffleBufferLiveBytes(), baseline);
  }
}

// --- MemoryBudget -----------------------------------------------------------

TEST(MemoryBudgetStressTest, ContendedChargeReleaseStaysSymmetric) {
  MemoryBudget budget(1 << 20);
  const int rounds = StressIterations(10);
  for (int round = 0; round < rounds; ++round) {
    ParallelWorkers(8, [&](int w) {
      std::mt19937_64 rng(round * 8 + w);
      uint64_t held = 0;
      for (int i = 0; i < 2000; ++i) {
        uint64_t bytes = 1 + rng() % 512;
        if (budget.TryCharge(bytes)) {
          held += bytes;
        } else if (held > 0) {
          budget.Release(held);  // spill analogue: free everything we own
          held = 0;
        } else {
          budget.ForceCharge(bytes);  // bounded overshoot path
          held += bytes;
        }
      }
      budget.Release(held);
    });
    // Charges and releases mirrored exactly across all workers.
    ASSERT_EQ(budget.used_bytes(), 0u);
  }
}

// --- Budget-contended spill -------------------------------------------------

// Runs one word-count-shaped round and returns its groups.
GroupMap RunCountingRound(int workers, const DataflowOptions& options) {
  const size_t num_inputs = 256;
  GroupMap groups;
  dseq::Mutex mu;
  RunMapReduce(
      num_inputs,
      [](size_t i, const EmitFn& emit) {
        std::string value;
        for (int k = 0; k < 8; ++k) {
          value.clear();
          PutVarint(&value, 1);
          emit("key" + std::to_string((i * 7 + static_cast<size_t>(k)) % 31),
               value);
        }
      },
      true,
      [&](int /*worker*/, std::string_view key,
          std::vector<std::string_view>& values, const EmitFn&) {
        dseq::MutexLock lock(mu);
        auto& column = groups[std::string(key)];
        for (std::string_view v : values) column.emplace_back(v);
      },
      options);
  (void)workers;
  return groups;
}

TEST(SpillContentionStressTest, ManyWorkersSpillingUnderOneTinyBudget) {
  testing::ScopedTempDir spill_dir;
  DataflowOptions in_memory;
  in_memory.num_map_workers = 8;
  in_memory.num_reduce_workers = 8;
  GroupMap want = RunCountingRound(8, in_memory);

  const int rounds = StressIterations(5);
  for (int round = 0; round < rounds; ++round) {
    DataflowOptions budgeted = in_memory;
    // A budget far below the round's shuffle volume: every map worker is
    // forced through TryCharge failure, worth-spilling accounting,
    // concurrent SpillFile creation, and ForceCharge overdraft at once.
    budgeted.memory_budget_bytes = testing::SpillTestBudget(256);
    budgeted.spill_dir = spill_dir.path();
    GroupMap got = RunCountingRound(8, budgeted);
    ASSERT_EQ(got, want);
  }
  // ScopedTempDir asserts RAII hygiene (no leftover spill files) on exit.
}

}  // namespace
}  // namespace dseq
