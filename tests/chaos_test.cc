// Chaos capstone: the full D-SEQ miner under seeded fault injection.
//
// For every seed in DSEQ_CHAOS_SEEDS (comma-separated; 8 fixed defaults) a
// schedule of socket, spill, and worker-lifecycle faults is derived from
// the seed and installed process-globally before a proc-backend mining run.
// The contract under chaos is binary: the run either completes with output
// (and raw shuffle metrics) byte-identical to the fault-free local
// reference, or fails with a typed std::exception carrying a non-empty
// message — never silent corruption, and never a non-typed escape.
// Whichever way it ends, nothing may leak: shuffle arenas drained, spill
// directories empty, no orphaned worker processes.
//
// Requires -DDSEQ_FAULT_INJECTION=ON; skips otherwise. CI runs this via
// `ctest -L chaos` — on push with the default seeds, nightly with a
// randomized seed list echoed into the log for replay.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "src/dataflow/engine.h"
#include "src/dataflow/shuffle_buffer.h"
#include "src/dist/dseq_miner.h"
#include "src/fault/fault_injection.h"
#include "src/fst/compiler.h"
#include "src/rpc/proc_backend.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

std::vector<uint64_t> ChaosSeeds() {
  std::vector<uint64_t> seeds;
  const char* env = std::getenv("DSEQ_CHAOS_SEEDS");
  if (env != nullptr && *env != '\0') {
    std::string list(env);
    size_t start = 0;
    while (start <= list.size()) {
      size_t comma = list.find(',', start);
      if (comma == std::string::npos) comma = list.size();
      std::string token = list.substr(start, comma - start);
      if (!token.empty()) {
        seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
      }
      start = comma + 1;
    }
  }
  if (seeds.empty()) seeds = {11, 23, 37, 41, 59, 67, 73, 89};
  return seeds;
}

// One dataflow shape per seed (rotated): worker counts, compression,
// out-of-core spilling, coordinator segment parking, and lowered
// segment-chunk caps all change which protocol paths the faults land on.
struct ChaosConfig {
  const char* name;
  int map_workers;
  int reduce_workers;
  bool compress = false;
  bool spill = false;   // memory budget + spill dir, workers and coordinator
  bool parks = false;   // spill, and the fault-free proc run must park
  const char* chunk_bytes = nullptr;  // DSEQ_PROC_TEST_CHUNK_BYTES override
};

const ChaosConfig kConfigs[] = {
    {"plain-2x2", 2, 2},
    {"plain-4x4", 4, 4},
    {"compress-3x3", 3, 3, /*compress=*/true},
    {"spill-2x2", 2, 2, false, /*spill=*/true},
    {"compress-spill-4x2", 4, 2, true, true},
    {"park-segments-2x4", 2, 4, false, /*spill=*/true, /*parks=*/true},
    {"chunked-3x3", 3, 3, false, false, false, "64"},
    {"compress-chunked-4x4", 4, 4, true, false, false, "128"},
};
constexpr size_t kNumConfigs = sizeof(kConfigs) / sizeof(kConfigs[0]);

// Derives a fault schedule from the seed: low-probability byte-level socket
// noise (short transfers, EINTR storms), budgeted connection-level faults
// (ECONNRESET, mid-frame disconnect), spill-file errno hits, and worker
// lifecycle kills/stalls. Every budget is bounded so a run terminates; the
// retry policy decides whether it recovers or fails typed.
fault::FaultSchedule MakeSchedule(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto prob = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto fires = [&rng](uint64_t lo, uint64_t hi) {
    return lo + rng() % (hi - lo + 1);
  };

  fault::FaultSchedule schedule;
  schedule.seed = seed;
  using fault::Action;
  using fault::FaultRule;
  using fault::Site;
  using fault::kAnyDetail;
  using fault::kAnyProcess;

  // Byte-level socket noise, both directions, every process.
  schedule.rules.push_back(FaultRule{Site::kSocketRead, Action::kShortIo, 0,
                                     kAnyDetail, kAnyProcess, 0,
                                     prob(0.001, 0.02), fires(5, 50)});
  schedule.rules.push_back(FaultRule{Site::kSocketRead, Action::kEintr, 0,
                                     kAnyDetail, kAnyProcess, 0,
                                     prob(0.001, 0.02), fires(5, 50)});
  schedule.rules.push_back(FaultRule{Site::kSocketWrite, Action::kShortIo, 0,
                                     kAnyDetail, kAnyProcess, 0,
                                     prob(0.001, 0.02), fires(5, 50)});
  // Connection-level faults: a read that fails ECONNRESET (the coordinator
  // treats the worker as dead) and a worker-side mid-frame disconnect.
  if (rng() % 2 == 0) {
    schedule.rules.push_back(FaultRule{Site::kSocketRead, Action::kErrno,
                                       ECONNRESET, kAnyDetail,
                                       fault::kCoordinator, fires(50, 500),
                                       0.0, 1});
  }
  if (rng() % 2 == 0) {
    schedule.rules.push_back(FaultRule{Site::kSocketSendFrame,
                                       Action::kDisconnect, 0, kAnyDetail,
                                       static_cast<int>(rng() % 4),
                                       fires(2, 30), 0.0, 1});
  }
  // Spill-file I/O errors (only bite in spilling configs).
  if (rng() % 2 == 0) {
    schedule.rules.push_back(FaultRule{Site::kSpillWrite, Action::kErrno,
                                       static_cast<int>(rng() % 2 == 0 ? ENOSPC
                                                                       : EIO),
                                       kAnyDetail, kAnyProcess, fires(3, 40),
                                       0.0, 1});
  }
  // Worker lifecycle: SIGKILL at the Nth task message, a kill or stall just
  // before the commit frame.
  schedule.rules.push_back(FaultRule{Site::kWorkerMessage, Action::kKill, 0,
                                     kAnyDetail, static_cast<int>(rng() % 4),
                                     fires(1, 4), 0.0, 1});
  if (rng() % 2 == 0) {
    schedule.rules.push_back(FaultRule{Site::kWorkerCommit,
                                       rng() % 2 == 0 ? Action::kKill
                                                      : Action::kStall,
                                       /*param=*/150, kAnyDetail,
                                       static_cast<int>(rng() % 4),
                                       fires(1, 2), 0.0, 1});
  }
  return schedule;
}

TEST(ChaosTest, MinerUnderSeededFaultsIsIdenticalOrFailsTyped) {
  if (!fault::kFaultInjectionEnabled) {
    GTEST_SKIP() << "built without -DDSEQ_FAULT_INJECTION=ON";
  }
  SequenceDatabase db = testing::RandomDatabase(6100, 7, 60, 8);
  Fst fst = CompileFst(".*(.)[.*(.)]{0,2}.*", db.dict);

  std::vector<uint64_t> seeds = ChaosSeeds();
  for (size_t i = 0; i < seeds.size(); ++i) {
    const uint64_t seed = seeds[i];
    const ChaosConfig& config = kConfigs[i % kNumConfigs];
    SCOPED_TRACE("seed " + std::to_string(seed) + " config " + config.name);
    std::printf("chaos: seed %llu config %s\n",
                static_cast<unsigned long long>(seed), config.name);

    testing::ScopedTempDir spill_dir;
    DSeqOptions options;
    options.sigma = 2;
    options.num_map_workers = config.map_workers;
    options.num_reduce_workers = config.reduce_workers;
    options.compress_shuffle = config.compress;
    if (config.spill) options.spill_dir = spill_dir.path();

    // Fault-free local reference for this config (run before any schedule
    // is installed — the local path shares the spill injection sites). For
    // spilling configs, measure the shuffle unbudgeted first, then re-run
    // the reference under the same bite-sized budget the proc run gets.
    DistributedResult local = MineDSeq(db.sequences, fst, db.dict, options);
    if (config.spill) {
      options.memory_budget_bytes = testing::SpillTestBudget(
          std::max<uint64_t>(local.metrics.shuffle_bytes / 4, 64));
      local = MineDSeq(db.sequences, fst, db.dict, options);
    }

    // The hardened policy under test: bounded retries, progress-gated
    // heartbeats, and a generous deadline backstop so a wedged run fails
    // typed instead of hanging the suite.
    options.backend = DataflowBackend::kProc;
    options.proc_worker_timeout_ms = 500;
    options.proc_max_task_attempts = 3;
    options.proc_round_deadline_ms = 60000;
    if (config.parks) {
      // The budget that makes the workers spill leaves the coordinator's
      // memory short of the round's segments, so the faults below land on
      // parked segments too.
      DistributedResult fault_free =
          MineDSeq(db.sequences, fst, db.dict, options);
      EXPECT_EQ(fault_free.patterns, local.patterns);
      EXPECT_GT(fault_free.metrics.proc_parked_segments, 0u);
    }

    if (config.chunk_bytes != nullptr) {
      ASSERT_EQ(::setenv("DSEQ_PROC_TEST_CHUNK_BYTES", config.chunk_bytes, 1),
                0);
    }
    {
      struct ScheduleGuard {
        ~ScheduleGuard() { fault::Reset(); }
      } guard;
      fault::Configure(MakeSchedule(seed));
      try {
        DistributedResult proc = MineDSeq(db.sequences, fst, db.dict, options);
        // Survived: the output contract is byte-identical equivalence.
        EXPECT_EQ(proc.patterns, local.patterns);
        EXPECT_EQ(proc.metrics.shuffle_bytes, local.metrics.shuffle_bytes);
        EXPECT_EQ(proc.metrics.shuffle_records, local.metrics.shuffle_records);
        EXPECT_EQ(proc.metrics.map_output_records,
                  local.metrics.map_output_records);
        if (!config.spill) {
          // Out-of-core runs count compression differently per backend (the
          // proc worker compresses merged spill output for the wire; the
          // local buffer never re-compresses spilled runs), so the
          // compressed volume is only comparable for resident shuffles.
          EXPECT_EQ(proc.metrics.shuffle_compressed_bytes,
                    local.metrics.shuffle_compressed_bytes);
        }
        EXPECT_EQ(proc.metrics.reducer_bytes, local.metrics.reducer_bytes);
      } catch (const std::exception& e) {
        // Died: only a typed, actionable error is acceptable.
        EXPECT_FALSE(std::string(e.what()).empty());
        std::printf("chaos: seed %llu failed typed: %s\n",
                    static_cast<unsigned long long>(seed), e.what());
      } catch (...) {
        ADD_FAILURE() << "non-typed exception escaped the chaos run";
      }
    }
    if (config.chunk_bytes != nullptr) ::unsetenv("DSEQ_PROC_TEST_CHUNK_BYTES");

    // Leak invariants, success or failure: shuffle arenas drained, spill
    // directory empty (ScopedTempDir re-asserts at destruction), and no
    // child process outliving the round.
    EXPECT_EQ(ShuffleBufferLiveBytes(), 0u);
    EXPECT_EQ(testing::CountDirEntries(spill_dir.path()), 0u);
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
  }
}

}  // namespace
}  // namespace dseq
