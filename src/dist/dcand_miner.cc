#include "src/dist/dcand_miner.h"

#include <iterator>
#include <string>

#include "src/core/grid.h"
#include "src/core/pivot.h"
#include "src/nfa/serializer.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace dseq {
namespace {

[[noreturn]] void ThrowBudgetError() {
  throw MiningBudgetError(
      "D-CAND NFA construction exceeded its per-sequence state budget");
}

}  // namespace

MiningResult MineNfas(const std::vector<OutputNfa>& nfas,
                      const std::vector<uint64_t>& weights, uint64_t sigma,
                      ItemId pivot) {
  DSEQ_CHECK_EQ(nfas.size(), weights.size());
  DfsInput input(pivot);
  std::string bytes;
  for (size_t i = 0; i < nfas.size(); ++i) {
    bytes.clear();
    SerializeNfaTo(nfas[i], &bytes);
    size_t pos = 0;
    input.AddNfa(bytes, &pos, weights[i]);
  }
  DesqDfsOptions options;
  options.sigma = sigma;
  options.pivot = pivot;
  return MineDesqDfs(input, options);
}

void MapDCandInput(const Sequence& T, const StepTable& table,
                   const DCandOptions& options, const EmitFn& emit) {
  DSEQ_DCHECK_EQ(table.prune_sigma(), options.sigma);
  MapCounts counts;
  const bool traced = obs::Enabled();
  const int64_t start_ns = traced ? obs::NowNs() : 0;
  StateGrid grid = StateGrid::Build(T, table);
  if (traced) counts.grid_ns = static_cast<uint64_t>(obs::NowNs() - start_ns);
  if (!grid.HasAcceptingRun()) {
    if (traced) counts.Flush();
    return;
  }
  Sequence pivots = FindPivotItems(grid);
  if (!pivots.empty()) {
    // One NFA per pivot partition, built from the grid as the minimal DFA
    // (no run is enumerated); the unminimized ablation ships its unfolding.
    PivotNfaBuilder builder(grid, options.max_nfa_states_per_sequence);
    std::string value;
    for (ItemId pivot : pivots) {
      const uint64_t created = builder.states_created();
      if (!builder.Build(pivot)) ThrowBudgetError();
      counts.dfa_states += builder.states_created() - created;
      counts.min_states += builder.num_states();
      if (builder.empty()) continue;
      value.clear();
      PutVarint(&value, 1);
      const size_t weight_bytes = value.size();
      if (options.minimize_nfas) {
        builder.SerializeTo(&value);
      } else {
        OutputNfa trie;
        if (!builder.Unfold(&trie)) ThrowBudgetError();
        SerializeNfaTo(trie, &value);
      }
      counts.nfa_bytes += value.size() - weight_bytes;
      emit(EncodePivotKey(pivot), value);
    }
  }
  if (traced) {
    counts.sequences = 1;
    counts.grid_edges = grid.num_edges();
    counts.pivots = pivots.size();
    counts.Flush();
  }
}

MiningResult MineDCandPartition(std::string_view key,
                                const std::vector<std::string_view>& values,
                                const DCandOptions& options) {
  DSEQ_TRACE_SPAN("mining", "dcand_reduce");
  const int64_t start_ns = obs::Enabled() ? obs::NowNs() : -1;
  DesqDfsOptions local;
  local.sigma = options.sigma;
  local.pivot = DecodePivotKey(key);
  DfsInput input(local.pivot);
  for (std::string_view v : values) {
    size_t pos = 0;
    uint64_t weight = 0;
    if (!GetVarint(v, &pos, &weight) || weight == 0) {
      throw NfaParseError("malformed weighted NFA record");
    }
    input.AddNfa(v, &pos, weight);
    if (pos != v.size()) {
      throw NfaParseError("trailing bytes after NFA record");
    }
  }
  return MinePartitionInput(input, local, values.size(), start_ns);
}

DistributedResult MineDCand(const std::vector<Sequence>& db, const Fst& fst,
                            const Dictionary& dict,
                            const DCandOptions& options) {
  const StepTable table(fst, dict, options.sigma);
  MapFn map_fn = [&](size_t index, const EmitFn& emit) {
    MapDCandInput(db[index], table, options, emit);
  };

  PartitionReduceFn reduce_fn = [&](std::string_view key,
                                    std::vector<std::string_view>& values,
                                    MiningResult& out) {
    MiningResult mined = MineDCandPartition(key, values, options);
    out.insert(out.end(), std::make_move_iterator(mined.begin()),
               std::make_move_iterator(mined.end()));
  };

  return RunDistributedMining(db.size(), map_fn, options.aggregate_nfas,
                              reduce_fn, options);
}

}  // namespace dseq
