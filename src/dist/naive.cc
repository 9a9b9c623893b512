#include "src/dist/naive.h"

#include <stdexcept>
#include <string>

#include "src/core/candidates.h"
#include "src/core/grid.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace dseq {

void MapNaiveInput(const Sequence& T, const StepTable& table,
                   const NaiveOptions& options, const EmitFn& emit) {
  DSEQ_DCHECK_EQ(table.prune_sigma(), options.semi_naive ? options.sigma : 0);
  StateGrid grid = StateGrid::Build(T, table);
  if (!grid.HasAcceptingRun()) return;
  // The key set is deduplicated per sequence, so each candidate counts the
  // input sequence once (distinct-sequence support).
  MapCounts counts;
  std::string value;
  PutVarint(&value, 1);
  if (!ForEachCandidateKey(grid, options.candidates_per_sequence_budget,
                           [&](std::string_view key) {
                             ++counts.candidates;
                             emit(key, value);
                           })) {
    throw MiningBudgetError(
        "NAIVE candidate enumeration exceeded its per-sequence budget");
  }
  if (obs::Enabled()) {
    counts.sequences = 1;
    counts.grid_edges = grid.num_edges();
    counts.Flush();
  }
}

namespace {

// The job's step table. SEMI-NAIVE communicates only candidates made of
// frequent items; NAIVE ships the raw candidate space and lets the reducers
// discard the rest.
StepTable NaiveStepTable(const Fst& fst, const Dictionary& dict,
                         const NaiveOptions& options) {
  return StepTable(fst, dict, options.semi_naive ? options.sigma : 0);
}

// Map/reduce phases shared by the single-round miner and the chained
// recount driver. The returned closures capture `db`, `table` and `options`
// by reference; callers keep them alive for the round.
MapFn MakeNaiveMapFn(const std::vector<Sequence>& db, const StepTable& table,
                     const NaiveOptions& options) {
  return [&db, &table, &options](size_t index, const EmitFn& emit) {
    MapNaiveInput(db[index], table, options, emit);
  };
}

PartitionReduceFn MakeNaiveReduceFn(const NaiveOptions& options) {
  return [sigma = options.sigma](std::string_view key,
                                 std::vector<std::string_view>& values,
                                 MiningResult& out) {
    uint64_t support = 0;
    for (std::string_view v : values) {
      size_t pos = 0;
      uint64_t count = 0;
      // A count is exactly one varint: trailing bytes would be a payload,
      // which no NAIVE mapper emits.
      if (!GetVarint(v, &pos, &count) || pos != v.size()) {
        throw std::invalid_argument("malformed NAIVE count record");
      }
      support += count;
    }
    if (support < sigma) return;
    size_t pos = 0;
    Sequence pattern;
    if (!GetSequence(key, &pos, &pattern) || pos != key.size()) {
      throw std::invalid_argument("malformed NAIVE candidate key");
    }
    out.push_back(PatternCount{std::move(pattern), support});
  };
}

}  // namespace

DistributedResult MineNaive(const std::vector<Sequence>& db, const Fst& fst,
                            const Dictionary& dict,
                            const NaiveOptions& options) {
  const StepTable table = NaiveStepTable(fst, dict, options);
  return RunDistributedMining(db.size(), MakeNaiveMapFn(db, table, options),
                              /*combine=*/true, MakeNaiveReduceFn(options),
                              options);
}

DistributedResult MineNaiveRecount(const std::vector<Sequence>& db,
                                   const Fst& fst,
                                   const Dictionary& dict,
                                   const NaiveRecountOptions& options) {
  // Round 1 recounts the f-list; round 2 prunes with the recounted counts.
  DataflowJob job(options);
  Dictionary recounted =
      RecountFrequencies(job, db, dict, options.recount_sample_every);
  const StepTable table = NaiveStepTable(fst, recounted, options);
  return MakeChainedResult(
      RunMiningRound(job, db.size(), MakeNaiveMapFn(db, table, options),
                     /*combine=*/true, MakeNaiveReduceFn(options)),
      job);
}

}  // namespace dseq
