// Multi-process backend tests: the RPC frame codec, the backend-equivalence
// matrix (every distributed miner under --backend proc must be
// byte-identical to the local backend and the brute-force oracle, with
// identical raw shuffle metrics), the out-of-core and compressed configs,
// and fault tolerance (a worker killed mid-round must not change results).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/dataflow/chained.h"
#include "src/dataflow/engine.h"
#include "src/dist/dcand_miner.h"
#include "src/dist/dseq_miner.h"
#include "src/dist/naive.h"
#include "src/fst/compiler.h"
#include "src/obs/trace.h"
#include "src/rpc/frame.h"
#include "src/rpc/proc_backend.h"
#include "src/util/varint.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

// --- Frame codec ------------------------------------------------------------

TEST(FrameCodecTest, RoundTripsFramesFedByteByByte) {
  std::string wire;
  rpc::AppendFrame(&wire, rpc::MsgType::kHello, "w0");
  rpc::AppendFrame(&wire, rpc::MsgType::kSegment, std::string(300, 'x'));
  rpc::AppendFrame(&wire, rpc::MsgType::kShutdown, "");

  // One byte at a time: the decoder must report kNeedMore until a frame
  // completes, and must never mis-frame across the Append boundaries.
  rpc::FrameDecoder decoder;
  std::vector<std::pair<rpc::MsgType, std::string>> frames;
  for (char byte : wire) {
    decoder.Append(std::string_view(&byte, 1));
    rpc::MsgType type;
    std::string_view payload;
    while (decoder.Next(&type, &payload) == rpc::FrameDecoder::Status::kFrame) {
      frames.emplace_back(type, std::string(payload));
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].first, rpc::MsgType::kHello);
  EXPECT_EQ(frames[0].second, "w0");
  EXPECT_EQ(frames[1].first, rpc::MsgType::kSegment);
  EXPECT_EQ(frames[1].second, std::string(300, 'x'));
  EXPECT_EQ(frames[2].first, rpc::MsgType::kShutdown);
  EXPECT_EQ(frames[2].second, "");
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameCodecTest, OversizePayloadIsRejectedFromTheLengthPrefix) {
  // The length prefix alone must condemn the frame — no payload bytes are
  // ever buffered, so a hostile peer cannot make the coordinator allocate.
  std::string wire;
  PutVarint(&wire, static_cast<uint64_t>(rpc::MsgType::kSegment));
  PutVarint(&wire, rpc::kMaxFramePayloadBytes + 1);
  rpc::FrameDecoder decoder;
  decoder.Append(wire);
  rpc::MsgType type;
  std::string_view payload;
  EXPECT_EQ(decoder.Next(&type, &payload),
            rpc::FrameDecoder::Status::kBadFrame);
  // A bad stream is dead: more bytes cannot resurrect it.
  decoder.Append("anything");
  EXPECT_EQ(decoder.Next(&type, &payload),
            rpc::FrameDecoder::Status::kBadFrame);
}

TEST(FrameCodecTest, UnknownMessageTypeIsRejected) {
  std::string wire;
  PutVarint(&wire, 99);  // no such MsgType
  PutVarint(&wire, 0);
  rpc::FrameDecoder decoder;
  decoder.Append(wire);
  rpc::MsgType type;
  std::string_view payload;
  EXPECT_EQ(decoder.Next(&type, &payload),
            rpc::FrameDecoder::Status::kBadFrame);
}

TEST(FrameCodecTest, RetiredPingTypeIsRejected) {
  // Type 9 was a coordinator -> worker liveness probe; it is no longer part
  // of the protocol, so a frame carrying it is malformed.
  std::string wire;
  PutVarint(&wire, 9);
  PutVarint(&wire, 0);
  rpc::FrameDecoder decoder;
  decoder.Append(wire);
  rpc::MsgType type;
  std::string_view payload;
  EXPECT_EQ(decoder.Next(&type, &payload),
            rpc::FrameDecoder::Status::kBadFrame);
  // Its neighbours still decode.
  std::string neighbours;
  rpc::AppendFrame(&neighbours, rpc::MsgType::kShutdown, "");
  rpc::AppendFrame(&neighbours, rpc::MsgType::kPong, "");
  rpc::FrameDecoder fresh;
  fresh.Append(neighbours);
  ASSERT_EQ(fresh.Next(&type, &payload), rpc::FrameDecoder::Status::kFrame);
  EXPECT_EQ(type, rpc::MsgType::kShutdown);
  ASSERT_EQ(fresh.Next(&type, &payload), rpc::FrameDecoder::Status::kFrame);
  EXPECT_EQ(type, rpc::MsgType::kPong);
}

TEST(FrameCodecTest, TruncatedFrameReportsNeedMore) {
  std::string wire;
  rpc::AppendFrame(&wire, rpc::MsgType::kMapTask, "payload");
  rpc::FrameDecoder decoder;
  decoder.Append(std::string_view(wire).substr(0, wire.size() - 1));
  rpc::MsgType type;
  std::string_view payload;
  EXPECT_EQ(decoder.Next(&type, &payload),
            rpc::FrameDecoder::Status::kNeedMore);
  decoder.Append(std::string_view(wire).substr(wire.size() - 1));
  ASSERT_EQ(decoder.Next(&type, &payload), rpc::FrameDecoder::Status::kFrame);
  EXPECT_EQ(payload, "payload");
}

// --- Backend equivalence ----------------------------------------------------

// The determinism contract of src/rpc/proc_backend.h: raw shuffle metrics
// are identical across backends; spill_* and wall times are not compared.
void ExpectSameRawMetrics(const DataflowMetrics& local,
                          const DataflowMetrics& proc) {
  EXPECT_EQ(local.shuffle_bytes, proc.shuffle_bytes);
  EXPECT_EQ(local.shuffle_records, proc.shuffle_records);
  EXPECT_EQ(local.map_output_records, proc.map_output_records);
  EXPECT_EQ(local.shuffle_compressed_bytes, proc.shuffle_compressed_bytes);
  EXPECT_EQ(local.reducer_bytes, proc.reducer_bytes);
}

TEST(ProcBackendTest, MinersMatchLocalAndBruteForceAcrossWorkerCounts) {
  SequenceDatabase db = testing::RandomDatabase(4200, 7, 50, 8);
  Fst fst = CompileFst(".*(.)[.*(.)]{0,2}.*", db.dict);
  const uint64_t sigma = 2;
  MiningResult expected =
      testing::BruteForceMine(db.sequences, fst, db.dict, sigma);

  testing::ForEachWorkerCount(
      [&](int workers) {
        auto run = [&](auto& options, auto miner, const char* name) {
          options.sigma = sigma;
          options.num_map_workers = workers;
          options.num_reduce_workers = workers;
          options.backend = DataflowBackend::kLocal;
          DistributedResult local = miner(db.sequences, fst, db.dict, options);
          options.backend = DataflowBackend::kProc;
          DistributedResult proc = miner(db.sequences, fst, db.dict, options);
          EXPECT_EQ(local.patterns, expected) << name;
          EXPECT_EQ(proc.patterns, expected) << name << " (proc)";
          ExpectSameRawMetrics(local.metrics, proc.metrics);
        };
        NaiveOptions naive;
        run(naive,
            [](auto&&... a) { return MineNaive(a...); }, "NAIVE");
        DSeqOptions dseq;
        run(dseq,
            [](auto&&... a) { return MineDSeq(a...); }, "D-SEQ");
        DCandOptions dcand;
        run(dcand,
            [](auto&&... a) { return MineDCand(a...); }, "D-CAND");
      },
      {2, 4});
}

TEST(ProcBackendTest, CompressedShuffleIsIdenticalAcrossBackends) {
  SequenceDatabase db = testing::RandomDatabase(4300, 7, 60, 8);
  Fst fst = CompileFst(".*(i0)[(.^).*]*(i1).*", db.dict);
  DSeqOptions options;
  options.sigma = 2;
  options.num_map_workers = 3;
  options.num_reduce_workers = 3;
  options.compress_shuffle = true;
  DistributedResult local = MineDSeq(db.sequences, fst, db.dict, options);
  options.backend = DataflowBackend::kProc;
  DistributedResult proc = MineDSeq(db.sequences, fst, db.dict, options);
  EXPECT_EQ(local.patterns, proc.patterns);
  ASSERT_GT(local.metrics.shuffle_compressed_bytes, 0u);
  ExpectSameRawMetrics(local.metrics, proc.metrics);
}

TEST(ProcBackendTest, BudgetedSpillingRunIsIdenticalAcrossBackends) {
  SequenceDatabase db = testing::RandomDatabase(4400, 7, 80, 8);
  Fst fst = CompileFst(".*(.)[.*(.)]{0,2}.*", db.dict);
  const uint64_t sigma = 2;
  MiningResult expected =
      testing::BruteForceMine(db.sequences, fst, db.dict, sigma);
  testing::ScopedTempDir spill_dir;

  DSeqOptions options;
  options.sigma = sigma;
  options.num_map_workers = 2;
  options.num_reduce_workers = 2;
  // Budget well below the measured shuffle volume so both backends must
  // spill (the same scaling the local out-of-core acceptance test uses).
  DistributedResult unbudgeted = MineDSeq(db.sequences, fst, db.dict, options);
  ASSERT_GT(unbudgeted.metrics.shuffle_bytes, 0u);
  options.memory_budget_bytes = testing::SpillTestBudget(
      std::max<uint64_t>(unbudgeted.metrics.shuffle_bytes / 4, 64));
  options.spill_dir = spill_dir.path();
  DistributedResult local = MineDSeq(db.sequences, fst, db.dict, options);
  options.backend = DataflowBackend::kProc;
  DistributedResult proc = MineDSeq(db.sequences, fst, db.dict, options);

  EXPECT_EQ(local.patterns, expected);
  EXPECT_EQ(proc.patterns, expected);
  ExpectSameRawMetrics(local.metrics, proc.metrics);
  // The budget must actually bite in the worker processes — otherwise this
  // test exercises nothing — and the workers' spill files must all be gone
  // (ScopedTempDir verifies the directory is empty on destruction).
  EXPECT_GT(proc.metrics.spill_files, 0u);
}

TEST(ProcBackendTest, BudgetWithoutSpillDirThrowsAcrossTheWire) {
  // A worker that overflows its memory budget with nowhere to spill must
  // surface the same typed error the local backend throws, carried through
  // the kError frame and rethrown by the coordinator.
  SequenceDatabase db = testing::RandomDatabase(4500, 7, 60, 8);
  Fst fst = CompileFst(".*(.)[.*(.)]{0,2}.*", db.dict);
  DSeqOptions options;
  options.sigma = 2;
  options.num_map_workers = 2;
  options.num_reduce_workers = 2;
  options.memory_budget_bytes = 64;
  options.backend = DataflowBackend::kProc;
  EXPECT_THROW(MineDSeq(db.sequences, fst, db.dict, options),
               ShuffleOverflowError);
}

// --- Failure policy ---------------------------------------------------------

// Word-count harness for the failure-policy tests. The map closure is under
// test control, and fork copies it into the worker process — so a closure
// that kills, sleeps, or races on a lock file runs inside the child with no
// build-time hooks, in default (non-fault-injection) builds.
const std::vector<std::vector<std::string>>& PolicyInputs() {
  static const std::vector<std::vector<std::string>> inputs = {
      {"b", "a", "b"}, {"c", "c", "a"}, {"a"},      {"b", "d"},
      {"d", "a", "c"}, {"e"},           {"a", "e"}, {"b", "c"},
  };
  return inputs;
}

// Runs one word-count round under `options`, calling `before(i)` (if set)
// inside the map before input i is processed and `before_group()` (if set)
// inside the reduce before each key group is counted. Returns the boundary
// records and the round's metrics.
std::pair<std::vector<Record>, DataflowMetrics> RunPolicyRound(
    const DataflowOptions& options,
    std::function<void(size_t)> before = nullptr,
    std::function<void()> before_group = nullptr) {
  DataflowJob job(options);
  MapFn map_fn = [before](size_t i, const EmitFn& emit) {
    if (before) before(i);
    std::string one;
    PutVarint(&one, 1);
    for (const std::string& word : PolicyInputs()[i]) emit(word, one);
  };
  ReduceFn count = [before_group](int, std::string_view key,
                                  std::vector<std::string_view>& values,
                                  const EmitFn& emit) {
    if (before_group) before_group();
    std::string value;
    PutVarint(&value, values.size());
    emit(key, value);
  };
  job.RunRound(PolicyInputs().size(), map_fn, false, count);
  return {job.TakeRecords(), job.round_metrics().front()};
}

TEST(ProcFailurePolicyTest, KilledWorkerIsReExecutedWithIdenticalResults) {
  // A pool of exactly one worker, so the kill leaves it empty: the round
  // can only finish if the coordinator respawns a replacement (with
  // backoff) and re-executes the task on it.
  DataflowOptions options;
  options.num_map_workers = 1;
  options.num_reduce_workers = 1;
  auto [local_records, local_metrics] = RunPolicyRound(options);

  // The first process to claim the lock file SIGKILLs itself mid-map,
  // before anything is committed; the re-executed attempt finds the file
  // and proceeds. The coordinator must discard the dead worker's staged
  // segments and deliver byte-identical results and raw metrics.
  testing::ScopedTempDir dir;
  std::string lock = dir.path() + "/killed-once";
  options.backend = DataflowBackend::kProc;
  auto kill_once = [lock](size_t i) {
    if (i != 0) return;
    int fd = ::open(lock.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      ::close(fd);
      ::raise(SIGKILL);
    }
  };
  auto [proc_records, proc_metrics] = RunPolicyRound(options, kill_once);
  // The kill must actually have fired (and the temp dir must end up empty).
  ASSERT_EQ(::unlink(lock.c_str()), 0);

  EXPECT_EQ(local_records, proc_records);
  ExpectSameRawMetrics(local_metrics, proc_metrics);
  EXPECT_GE(proc_metrics.proc_task_retries, 1u);
  EXPECT_GE(proc_metrics.proc_workers_respawned, 1u);
}

TEST(ProcFailurePolicyTest, CrashingTaskFailsAfterExactlyMaxAttempts) {
  DataflowOptions options;
  options.num_map_workers = 2;
  options.num_reduce_workers = 2;
  options.backend = DataflowBackend::kProc;
  options.proc_max_task_attempts = 2;
  // Map task 0 (the shard owning input 0) dies on every attempt: the round
  // must fail with the typed error naming the phase, task, and the exact
  // attempt count — no infinite retry, no generic failure.
  auto crash = [](size_t i) {
    if (i == 0) ::raise(SIGKILL);
  };
  try {
    RunPolicyRound(options, crash);
    FAIL() << "expected ProcTaskFailedError";
  } catch (const ProcTaskFailedError& e) {
    EXPECT_EQ(e.phase(), "map");
    EXPECT_EQ(e.task(), 0);
    EXPECT_EQ(e.attempts(), 2);
    EXPECT_NE(std::string(e.what()).find("map task 0 failed after 2 attempts"),
              std::string::npos)
        << e.what();
  }
}

TEST(ProcFailurePolicyTest, HeartbeatsKeepSlowWorkersAlive) {
  DataflowOptions options;
  options.num_map_workers = 1;
  options.num_reduce_workers = 1;
  auto [local_records, local_metrics] = RunPolicyRound(options);

  // Every input takes ~40 ms, so the whole map task (8 inputs) far exceeds
  // the 150 ms stall timeout — but per-input progress drives kPong
  // heartbeats, so the coordinator must classify the worker as slow, not
  // hung: zero kills, zero retries, identical results.
  options.backend = DataflowBackend::kProc;
  options.proc_worker_timeout_ms = 150;
  auto slow = [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  };
  auto [proc_records, proc_metrics] = RunPolicyRound(options, slow);

  EXPECT_EQ(local_records, proc_records);
  ExpectSameRawMetrics(local_metrics, proc_metrics);
  EXPECT_EQ(proc_metrics.proc_worker_kills, 0u);
  EXPECT_EQ(proc_metrics.proc_task_retries, 0u);
}

TEST(ProcFailurePolicyTest, HeartbeatsKeepSlowReduceWorkersAlive) {
  DataflowOptions options;
  options.num_map_workers = 1;
  options.num_reduce_workers = 1;
  auto [local_records, local_metrics] = RunPolicyRound(options);

  // The map is quick, but every key group (5 of them) takes ~60 ms, so the
  // reduce task far exceeds the 150 ms stall timeout. The task thread's
  // per-group ticks drive its kPong heartbeats: zero kills, zero retries,
  // identical results.
  options.backend = DataflowBackend::kProc;
  options.proc_worker_timeout_ms = 150;
  auto slow_group = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  };
  auto [proc_records, proc_metrics] =
      RunPolicyRound(options, nullptr, slow_group);

  EXPECT_EQ(local_records.size(), 5u);
  EXPECT_EQ(local_records, proc_records);
  ExpectSameRawMetrics(local_metrics, proc_metrics);
  EXPECT_EQ(proc_metrics.proc_worker_kills, 0u);
  EXPECT_EQ(proc_metrics.proc_task_retries, 0u);
}

TEST(ProcFailurePolicyTest, HungTaskIsKilledAndExhaustsItsAttempts) {
  DataflowOptions options;
  options.num_map_workers = 2;
  options.num_reduce_workers = 1;
  options.backend = DataflowBackend::kProc;
  options.proc_worker_timeout_ms = 120;
  options.proc_max_task_attempts = 2;
  // Input 0 hangs without ever completing an input, so its worker's
  // progress-gated heartbeat stays silent: the coordinator must SIGKILL it
  // as hung (not wait out the sleep), retry, and fail typed after the
  // second stall.
  auto hang = [](size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::seconds(30));
  };
  try {
    RunPolicyRound(options, hang);
    FAIL() << "expected ProcTaskFailedError";
  } catch (const ProcTaskFailedError& e) {
    EXPECT_EQ(e.phase(), "map");
    EXPECT_EQ(e.task(), 0);
    EXPECT_EQ(e.attempts(), 2);
    EXPECT_NE(e.last_failure().find("no progress"), std::string::npos)
        << e.last_failure();
  }
}

TEST(ProcBackendTest, SegmentChunkingRoundTripsWithLoweredCap) {
  DataflowOptions options;
  options.num_map_workers = 2;
  options.num_reduce_workers = 2;
  auto [local_records, local_metrics] = RunPolicyRound(options);

  // Lower the chunk threshold (normally just under the 1 GiB frame cap) to
  // 16 bytes so ordinary word-count segments must be split into kSegmentPart
  // continuation frames — in both directions: map→coordinator shipping and
  // coordinator→reducer replay.
  ASSERT_EQ(::setenv("DSEQ_PROC_TEST_CHUNK_BYTES", "16", 1), 0);
  options.backend = DataflowBackend::kProc;
  auto [proc_records, proc_metrics] = RunPolicyRound(options);
  ::unsetenv("DSEQ_PROC_TEST_CHUNK_BYTES");

  EXPECT_EQ(local_records, proc_records);
  ExpectSameRawMetrics(local_metrics, proc_metrics);
  EXPECT_GT(proc_metrics.proc_segment_chunks, 0u);
}

TEST(ProcBackendTest, SegmentsOverTheBudgetAreParkedAtTheCoordinator) {
  DataflowOptions options;
  options.num_map_workers = 2;
  options.num_reduce_workers = 2;
  auto [local_records, local_metrics] = RunPolicyRound(options);

  // A 16-byte budget holds hardly any committed segment in the
  // coordinator's memory: the rest are parked in spill files and read back
  // at replay (the map workers spill under the same budget, so runs are
  // parked too). Results and raw metrics are unchanged, and the temp dir
  // is empty again afterwards.
  testing::ScopedTempDir dir;
  options.backend = DataflowBackend::kProc;
  options.spill_dir = dir.path();
  options.memory_budget_bytes = 16;
  auto [proc_records, proc_metrics] = RunPolicyRound(options);

  EXPECT_EQ(local_records, proc_records);
  ExpectSameRawMetrics(local_metrics, proc_metrics);
  EXPECT_GT(proc_metrics.proc_parked_segments, 0u);
  EXPECT_EQ(testing::CountDirEntries(dir.path()), 0u);
}

TEST(ProcBackendTest, NothingIsParkedWithoutAMemoryBudget) {
  // Budget 0 is unlimited at the coordinator too: a spill directory alone
  // parks nothing.
  DataflowOptions options;
  options.num_map_workers = 2;
  options.num_reduce_workers = 2;
  auto [local_records, local_metrics] = RunPolicyRound(options);

  testing::ScopedTempDir dir;
  options.backend = DataflowBackend::kProc;
  options.spill_dir = dir.path();
  auto [proc_records, proc_metrics] = RunPolicyRound(options);

  EXPECT_EQ(local_records, proc_records);
  ExpectSameRawMetrics(local_metrics, proc_metrics);
  EXPECT_EQ(proc_metrics.proc_parked_segments, 0u);
}

TEST(ProcBackendTest, BalancedMinerMatchesAcrossBackends) {
  // MineDSeqBalanced with forced splits: plan-driven partitioner, split
  // pivots reconciled in an extra round — both the 'F'/'S'-tagged boundary
  // channel and the reconcile shuffle must survive the process hop.
  SequenceDatabase db = testing::RandomDatabase(4700, 7, 60, 8);
  Fst fst = CompileFst(".*(.)[.*(.)]{0,2}.*", db.dict);
  for (int workers : {2, 3}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    DSeqBalanceOptions options;
    options.sigma = 2;
    options.num_map_workers = workers;
    options.num_reduce_workers = workers;
    options.split_factor = 0.25;  // force splits
    DistributedResult local =
        MineDSeqBalanced(db.sequences, fst, db.dict, options);
    options.backend = DataflowBackend::kProc;
    DistributedResult proc =
        MineDSeqBalanced(db.sequences, fst, db.dict, options);
    EXPECT_EQ(local.num_rounds(), 2u);
    EXPECT_EQ(local.patterns, proc.patterns);
    ASSERT_EQ(local.round_metrics.size(), proc.round_metrics.size());
    for (size_t r = 0; r < local.round_metrics.size(); ++r) {
      SCOPED_TRACE("round " + std::to_string(r));
      ExpectSameRawMetrics(local.round_metrics[r], proc.round_metrics[r]);
    }
  }
}

TEST(ProcBackendTest, DataflowJobRoundsMatchAcrossBackends) {
  // Engine-level equivalence without any miner on top: a word-count round
  // followed by a chained re-shuffle round, records compared byte-for-byte.
  std::vector<std::vector<std::string>> inputs = {
      {"b", "a", "b"}, {"c", "c", "a"}, {"a"}, {"b", "d"},
      {"d", "a", "c"}, {"e"},           {"a", "e"},
  };
  auto run = [&](DataflowBackend backend) {
    DataflowOptions options;
    options.num_map_workers = 3;
    options.num_reduce_workers = 2;
    options.backend = backend;
    DataflowJob job(options);
    MapFn map_fn = [&](size_t i, const EmitFn& emit) {
      std::string one;
      PutVarint(&one, 1);
      for (const std::string& word : inputs[i]) emit(word, one);
    };
    ReduceFn count = [](int, std::string_view key,
                        std::vector<std::string_view>& values,
                        const EmitFn& emit) {
      std::string value;
      PutVarint(&value, values.size());
      emit(key, value);
    };
    job.RunRound(inputs.size(), map_fn, false, count);
    // Round 2: re-key every count under one bucket and sum it.
    std::vector<Record> counts = job.TakeRecords();
    MapFn rekey = [&](size_t i, const EmitFn& emit) {
      emit("total:" + counts[i].key, counts[i].value);
    };
    ReduceFn sum = [](int, std::string_view key,
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
    job.RunRound(counts.size(), rekey, true, sum);
    return std::make_pair(job.TakeRecords(), job.round_metrics());
  };

  auto [local_records, local_metrics] = run(DataflowBackend::kLocal);
  auto [proc_records, proc_metrics] = run(DataflowBackend::kProc);
  EXPECT_EQ(local_records, proc_records);
  ASSERT_EQ(local_metrics.size(), proc_metrics.size());
  for (size_t r = 0; r < local_metrics.size(); ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    ExpectSameRawMetrics(local_metrics[r], proc_metrics[r]);
  }
}

// Every other equivalence test canonicalizes patterns or only counts
// values; this one pins the order in which a key's values reach the reduce
// function. Values must arrive in (map task, emit) order, which for
// contiguous input shards is plain input order, on both backends and
// whether a column is swept in memory or merged from spilled runs.
TEST(ProcBackendTest, ValueOrderWithinKeysIsIdenticalAcrossBackends) {
  // Eight inputs over four map workers, two inputs each. Workers 0 and 1
  // are heavy: they emit only s-keys, far past the budget, so they spill
  // repeatedly. Workers 2 and 3 are light: a few s- and m-keys, less in
  // total than the engine's spill-worthiness floor (min(budget/2, 4096)
  // bytes), so they never spill. s-keys go to reducer 0 and m-keys to
  // reducer 1: the budgeted round external-merges column 0 and sweeps
  // column 1 in memory.
  constexpr size_t kInputs = 8;
  constexpr uint64_t kBudget = 4096;
  auto for_each_record = [](size_t input, const EmitFn& emit) {
    const bool heavy = input < 4;
    const int count = heavy ? 150 : 6;
    for (int j = 0; j < count; ++j) {
      std::string key = (heavy || j % 2 == 0 ? "s" : "m") +
                        std::to_string((j * 7 + input) % 5);
      std::string value = std::to_string(input) + "." + std::to_string(j);
      if (heavy) value.append(16, 'x');
      emit(key, value);
    }
  };
  // The expected records: per reducer, keys ascending, each key's values
  // joined in input order.
  std::map<std::string, std::string> expected_by_key;
  for (size_t i = 0; i < kInputs; ++i) {
    for_each_record(i, [&](std::string_view key, std::string_view value) {
      std::string& joined = expected_by_key[std::string(key)];
      if (!joined.empty()) joined += '|';
      joined.append(value);
    });
  }
  std::vector<Record> expected;
  for (char prefix : {'s', 'm'}) {
    for (const auto& [key, joined] : expected_by_key) {
      if (key[0] == prefix) expected.push_back(Record{key, joined});
    }
  }

  testing::ScopedTempDir spill_dir;
  auto run = [&](DataflowOptions options, DataflowBackend backend) {
    options.num_map_workers = 4;
    options.num_reduce_workers = 2;
    options.partitioner = [](std::string_view key, int) {
      return key[0] == 's' ? 0 : 1;
    };
    options.backend = backend;
    DataflowJob job(options);
    MapFn map_fn = [&](size_t i, const EmitFn& emit) {
      for_each_record(i, emit);
    };
    ReduceFn concat = [](int, std::string_view key,
                         std::vector<std::string_view>& values,
                         const EmitFn& emit) {
      std::string joined;
      for (std::string_view v : values) {
        if (!joined.empty()) joined += '|';
        joined.append(v);
      }
      emit(key, joined);
    };
    obs::ResetTraceForTest();
    obs::SetEnabled(true);
    job.RunRound(kInputs, map_fn, false, concat);
    obs::SetEnabled(false);
    std::set<std::string> reduce_spans;
    for (const obs::TraceEvent& ev : obs::SnapshotTrace()) {
      if (ev.name == "external_merge" || ev.name == "group_sweep") {
        reduce_spans.insert(ev.name);
      }
    }
    obs::ResetTraceForTest();
    return std::make_tuple(job.TakeRecords(), job.round_metrics().front(),
                           reduce_spans);
  };

  DataflowOptions in_memory;
  DataflowOptions compressed;
  compressed.compress_shuffle = true;
  DataflowOptions budgeted;
  budgeted.memory_budget_bytes = kBudget;
  budgeted.spill_dir = spill_dir.path();
  const std::vector<std::pair<const char*, DataflowOptions>> configs = {
      {"in-memory", in_memory},
      {"compressed", compressed},
      {"budgeted", budgeted},
  };
  for (const auto& [name, options] : configs) {
    SCOPED_TRACE(name);
    auto [local_records, local_metrics, local_spans] =
        run(options, DataflowBackend::kLocal);
    auto [proc_records, proc_metrics, proc_spans] =
        run(options, DataflowBackend::kProc);
    EXPECT_EQ(local_records, expected);
    EXPECT_EQ(proc_records, local_records);
    ExpectSameRawMetrics(local_metrics, proc_metrics);
    const bool spills = options.memory_budget_bytes > 0;
    std::set<std::string> expected_spans = {"group_sweep"};
    if (spills) {
      expected_spans.insert("external_merge");
      EXPECT_GT(local_metrics.spill_merge_passes, 1u);
      EXPECT_GT(proc_metrics.spill_merge_passes, 1u);
    }
    EXPECT_EQ(local_spans, expected_spans);
    EXPECT_EQ(proc_spans, expected_spans);
  }
}

TEST(ProcBackendTest, RunMapReduceRunsTheSameRoundOnBothBackends) {
  // RunMapReduce is the one round call for both backends: under kProc it
  // returns the same records, in the same reduce-worker order, and the same
  // raw shuffle metrics as under kLocal — also when the reduce emits nothing.
  MapFn map_fn = [](size_t i, const EmitFn& emit) {
    for (const std::string& word : PolicyInputs()[i]) emit(word, "v");
  };
  ReduceFn count = [](int, std::string_view key,
                      std::vector<std::string_view>& values,
                      const EmitFn& emit) {
    std::string value;
    PutVarint(&value, values.size());
    emit(key, value);
  };
  ReduceFn silent = [](int, std::string_view, std::vector<std::string_view>&,
                       const EmitFn&) {};
  const std::vector<std::pair<const char*, ReduceFn>> reduces = {
      {"count", count},
      {"silent", silent},
  };
  for (const auto& [name, reduce_fn] : reduces) {
    SCOPED_TRACE(name);
    DataflowOptions options;
    options.num_map_workers = 3;
    options.num_reduce_workers = 2;
    RoundResult local = RunMapReduce(PolicyInputs().size(), map_fn, false,
                                     reduce_fn, options);
    options.backend = DataflowBackend::kProc;
    RoundResult proc = RunMapReduce(PolicyInputs().size(), map_fn, false,
                                    reduce_fn, options);
    EXPECT_EQ(proc.records, local.records);
    EXPECT_EQ(local.records.empty(), std::string(name) == "silent");
    ExpectSameRawMetrics(local.metrics, proc.metrics);
    EXPECT_GT(local.metrics.shuffle_records, 0u);
  }
}

}  // namespace
}  // namespace dseq
