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
  MapCounts counts;
  const bool traced = obs::Enabled();
  const int64_t start_ns = traced ? obs::NowNs() : 0;
  StateGrid grid = StateGrid::Build(T, table);
  if (traced) counts.grid_ns = static_cast<uint64_t>(obs::NowNs() - start_ns);
  if (!grid.HasAcceptingRun()) {
    if (traced) counts.Flush();
    return;
  }
  // The key set is deduplicated per sequence, so each candidate counts the
  // input sequence once (distinct-sequence support).
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
  if (traced) {
    counts.sequences = 1;
    counts.grid_edges = grid.num_edges();
    counts.Flush();
  }
}

MiningResult MineNaivePartition(std::string_view key,
                                const std::vector<std::string_view>& values,
                                const NaiveOptions& options) {
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
  if (support < options.sigma) return {};
  size_t pos = 0;
  Sequence pattern;
  if (!GetSequence(key, &pos, &pattern) || pos != key.size()) {
    throw std::invalid_argument("malformed NAIVE candidate key");
  }
  MiningResult result;
  result.push_back(PatternCount{std::move(pattern), support});
  return result;
}

DistributedResult MineNaive(const std::vector<Sequence>& db, const Fst& fst,
                            const Dictionary& dict,
                            const NaiveOptions& options) {
  // SEMI-NAIVE communicates only candidates made of frequent items; NAIVE
  // ships the raw candidate space and lets the reducers discard the rest.
  const StepTable table(fst, dict, options.semi_naive ? options.sigma : 0);
  MapFn map_fn = [&db, &table, &options](size_t index, const EmitFn& emit) {
    MapNaiveInput(db[index], table, options, emit);
  };
  PartitionReduceFn reduce_fn = [&options](
      std::string_view key, std::vector<std::string_view>& values,
      MiningResult& out) {
    for (PatternCount& p : MineNaivePartition(key, values, options)) {
      out.push_back(std::move(p));
    }
  };
  return RunDistributedMining(db.size(), map_fn, /*combine=*/true, reduce_fn,
                              options);
}

}  // namespace dseq
