// Cross-process timeline merge: a proc-backend round run with tracing on
// must surface spans from the coordinator *and* from at least two distinct
// forked worker ordinals in one merged trace, ship worker-side metric
// observations through kTrace frames, and leave the mined results
// byte-identical to an untraced local run.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/dist/dcand_miner.h"
#include "src/dist/dseq_miner.h"
#include "src/dist/naive.h"
#include "src/fst/compiler.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

class TraceProcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ResetTraceForTest();
    obs::ResetMetricsForTest();
    obs::SetEnabled(true);
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::ResetTraceForTest();
    obs::ResetMetricsForTest();
  }
};

TEST_F(TraceProcTest, ProcRoundMergesCoordinatorAndWorkerSpans) {
  SequenceDatabase db = testing::RandomDatabase(4200, 7, 50, 8);
  Fst fst = CompileFst(".*(.)[.*(.)]{0,2}.*", db.dict);

  DSeqOptions options;
  options.sigma = 2;
  options.num_map_workers = 3;
  options.num_reduce_workers = 3;

  options.backend = DataflowBackend::kLocal;
  obs::SetEnabled(false);  // reference run: untraced local
  DistributedResult local = MineDSeq(db.sequences, fst, db.dict, options);
  obs::SetEnabled(true);

  options.backend = DataflowBackend::kProc;
  DistributedResult proc = MineDSeq(db.sequences, fst, db.dict, options);

  // Tracing must observe, never perturb: traced proc == untraced local.
  EXPECT_EQ(proc.patterns, local.patterns);

  std::vector<obs::TraceEvent> events = obs::SnapshotTrace();
  ASSERT_FALSE(events.empty());
  std::set<int> worker_ordinals;
  bool saw_coordinator_span = false;
  bool saw_worker_map_task = false;
  bool saw_worker_reduce_body = false;
  for (const obs::TraceEvent& ev : events) {
    if (ev.process_ordinal >= 0) worker_ordinals.insert(ev.process_ordinal);
    if (ev.process_ordinal < 0 && ev.category == "proc") {
      saw_coordinator_span = true;
    }
    if (ev.category == "worker" && ev.name == "map_task") {
      saw_worker_map_task = true;
    }
    // Reduce workers run the local engine's reduce-column body, spans and
    // all, so its span shows up on a worker lane.
    if (ev.process_ordinal >= 0 && ev.category == "engine" &&
        (ev.name == "group_sweep" || ev.name == "external_merge")) {
      saw_worker_reduce_body = true;
    }
  }
  // The merged timeline carries the coordinator's orchestration spans plus
  // task spans shipped back by at least two distinct forked workers.
  EXPECT_TRUE(saw_coordinator_span);
  EXPECT_TRUE(saw_worker_map_task);
  EXPECT_TRUE(saw_worker_reduce_body);
  EXPECT_GE(worker_ordinals.size(), 2u)
      << "expected spans from >=2 distinct worker ordinals";

  // Worker-side hot-path observations crossed the process boundary: the
  // shuffle-record histogram (observed only inside map shards, which run in
  // the forked workers under kProc) matches the round's record count.
  EXPECT_EQ(obs::GetHistogram("shuffle.record_bytes").TotalCount(),
            proc.metrics.shuffle_records);

  // The Chrome export gives each seen worker its own pid lane.
  std::string json = obs::ChromeTraceJson();
  EXPECT_NE(json.find("\"name\":\"coordinator\""), std::string::npos);
  for (int ordinal : worker_ordinals) {
    std::string name = "\"name\":\"worker " + std::to_string(ordinal) + "\"";
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

// The mining-layer counters are tallied by the map and reduce functions
// wherever they run, so a proc run (workers ship registry deltas) must
// report exactly what a local run does. Both miners count their map
// (MapCounts: the grid and pivot fields, then D-SEQ's rewrite items or
// D-CAND's DFA states and bytes) and their reduce (MinePartitionInput).
// SEMI-NAIVE's map counts its grids and the distinct candidates it emits.
// All three maps time their grid build.
TEST_F(TraceProcTest, MiningCountersMatchAcrossBackends) {
  const std::vector<std::string> reduce_names = {
      "mining.reduce_sequences", "mining.reduce_edges_kept",
      "mining.reduce_edges_dropped", "mining.reduce_dfs_expansions",
      "mining.reduce_postings_pruned"};
  const std::vector<std::string> map_names = {
      "mining.map_sequences", "mining.map_grid_edges", "mining.map_pivots"};
  std::vector<std::string> dseq_names = map_names;
  dseq_names.insert(dseq_names.end(),
                    {"mining.map_input_items", "mining.map_shipped_items"});
  dseq_names.insert(dseq_names.end(), reduce_names.begin(),
                    reduce_names.end());
  std::vector<std::string> dcand_names = map_names;
  dcand_names.insert(dcand_names.end(),
                     {"mining.map_dfa_states", "mining.map_min_states",
                      "mining.map_nfa_bytes"});
  dcand_names.insert(dcand_names.end(), reduce_names.begin(),
                     reduce_names.end());
  // The map phase timers (the grid build's of every map, D-SEQ's other two)
  // and both miners' reduce phase timers: their values differ between
  // backends, so only their presence (non-zero on both) is compared.
  const std::vector<std::string> dseq_timers = {"mining.map_pivots_ns",
                                                "mining.map_rewrite_ns"};
  const std::vector<std::string> common_timers = {
      "mining.map_grid_ns", "mining.reduce_store_ns", "mining.reduce_dfs_ns"};
  SequenceDatabase db = testing::RandomDatabase(4300, 7, 60, 10);
  Fst fst = CompileFst(".*(i0^)[.*(.^)]{1,2}.*", db.dict);
  DSeqOptions options;
  options.sigma = 2;
  options.num_map_workers = 3;
  options.num_reduce_workers = 3;
  DCandOptions dcand_options;
  dcand_options.sigma = 2;
  dcand_options.num_map_workers = 3;
  dcand_options.num_reduce_workers = 3;

  MiningResult dseq_patterns;
  for (bool dcand : {false, true}) {
    SCOPED_TRACE(dcand ? "D-CAND" : "D-SEQ");
    const std::vector<std::string>& checked = dcand ? dcand_names : dseq_names;
    std::vector<std::vector<uint64_t>> counters;
    std::vector<DistributedResult> results;
    for (DataflowBackend backend :
         {DataflowBackend::kLocal, DataflowBackend::kProc}) {
      obs::ResetTraceForTest();
      obs::ResetMetricsForTest();
      options.backend = backend;
      dcand_options.backend = backend;
      results.push_back(
          dcand ? MineDCand(db.sequences, fst, db.dict, dcand_options)
                : MineDSeq(db.sequences, fst, db.dict, options));
      std::vector<uint64_t>& values = counters.emplace_back();
      for (const std::string& name : checked) {
        values.push_back(obs::GetCounter(name).Value());
      }
      std::vector<std::string> timers = common_timers;
      if (!dcand) {
        timers.insert(timers.end(), dseq_timers.begin(), dseq_timers.end());
      }
      for (const std::string& name : timers) {
        EXPECT_GT(obs::GetCounter(name).Value(), 0u)
            << name << " on backend " << static_cast<int>(backend);
      }
      // One shuffled record per pivot of every input.
      EXPECT_EQ(obs::GetCounter("mining.map_pivots").Value(),
                results.back().metrics.map_output_records);
      if (dcand) {
        // The reduce decodes every shuffled record: one weighted NFA.
        EXPECT_EQ(obs::GetCounter("mining.reduce_sequences").Value(),
                  results.back().metrics.shuffle_records);
        // Every subset maps onto one state of its minimal DFA.
        EXPECT_LE(obs::GetCounter("mining.map_min_states").Value(),
                  obs::GetCounter("mining.map_dfa_states").Value());
      }
    }
    EXPECT_EQ(results[1].patterns, results[0].patterns);
    if (!dcand) dseq_patterns = results[0].patterns;
    for (size_t i = 0; i < checked.size(); ++i) {
      EXPECT_EQ(counters[1][i], counters[0][i]) << checked[i];
    }
    // Nothing above is vacuous: the run mined, D-SEQ's rewriting trimmed
    // copies, and D-CAND's early stopping pruned postings. D-CAND's map
    // ships each NFA with its labels cut to the pivot and every state on an
    // accepting path that outputs it, so its reduce drops no edge.
    EXPECT_FALSE(results[0].patterns.empty());
    for (size_t i = 0; i < checked.size(); ++i) {
      if (!dcand && checked[i] == "mining.reduce_postings_pruned") continue;
      if (dcand && checked[i] == "mining.reduce_edges_dropped") {
        EXPECT_EQ(counters[0][i], 0u) << checked[i];
        continue;
      }
      EXPECT_GT(counters[0][i], 0u) << checked[i];
    }
    if (!dcand) {
      EXPECT_LT(obs::GetCounter("mining.map_shipped_items").Value(),
                obs::GetCounter("mining.map_input_items").Value());
    }
  }

  SCOPED_TRACE("SEMI-NAIVE");
  const std::vector<std::string> naive_names = {
      "mining.map_sequences", "mining.map_grid_edges",
      "mining.map_candidates"};
  NaiveOptions naive_options;
  naive_options.sigma = 2;
  naive_options.semi_naive = true;
  naive_options.num_map_workers = 3;
  naive_options.num_reduce_workers = 3;
  std::vector<std::vector<uint64_t>> naive_counters;
  std::vector<DistributedResult> naive_results;
  for (DataflowBackend backend :
       {DataflowBackend::kLocal, DataflowBackend::kProc}) {
    obs::ResetTraceForTest();
    obs::ResetMetricsForTest();
    naive_options.backend = backend;
    naive_results.push_back(
        MineNaive(db.sequences, fst, db.dict, naive_options));
    std::vector<uint64_t>& values = naive_counters.emplace_back();
    for (const std::string& name : naive_names) {
      values.push_back(obs::GetCounter(name).Value());
    }
    EXPECT_GT(obs::GetCounter("mining.map_grid_ns").Value(), 0u)
        << "on backend " << static_cast<int>(backend);
    // One (candidate, 1) record per distinct candidate of every input.
    EXPECT_EQ(obs::GetCounter("mining.map_candidates").Value(),
              naive_results.back().metrics.map_output_records);
    EXPECT_EQ(obs::GetCounter("mining.map_pivots").Value(), 0u);
  }
  EXPECT_EQ(naive_results[1].patterns, naive_results[0].patterns);
  EXPECT_EQ(naive_results[0].patterns, dseq_patterns);
  for (size_t i = 0; i < naive_names.size(); ++i) {
    EXPECT_EQ(naive_counters[1][i], naive_counters[0][i]) << naive_names[i];
    EXPECT_GT(naive_counters[0][i], 0u) << naive_names[i];
  }
}

TEST_F(TraceProcTest, DisabledTracingLeavesProcRoundSilent) {
  obs::SetEnabled(false);
  SequenceDatabase db = testing::RandomDatabase(600, 6, 30, 8);
  Fst fst = CompileFst(".*(.).*", db.dict);
  DSeqOptions options;
  options.sigma = 2;
  options.num_map_workers = 2;
  options.num_reduce_workers = 2;
  options.backend = DataflowBackend::kProc;
  DistributedResult result = MineDSeq(db.sequences, fst, db.dict, options);
  EXPECT_FALSE(result.patterns.empty());
  EXPECT_TRUE(obs::SnapshotTrace().empty());
  EXPECT_EQ(obs::GetHistogram("shuffle.record_bytes").TotalCount(), 0u);
}

}  // namespace
}  // namespace dseq
