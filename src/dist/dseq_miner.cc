#include "src/dist/dseq_miner.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "src/util/thread_pool.h"

namespace dseq {

// --- Sequence rewriting (paper Sec. V-B) -----------------------------------
//
// The rewriter trims a prefix and a suffix of T while preserving the set of
// pivot-k candidate subsequences exactly. A leading position i can be
// dropped while (a) the grid has an alive ε self-loop on the initial state
// at layer i (so runs of the trimmed sequence extend back to runs of T by
// idling in the initial state) and (b) no other alive edge at layer i lies
// on a run producing a pivot-k candidate (so every pivot-k run of T idles
// in the initial state through layer i and survives the trim). Trailing
// positions are symmetric with "ε self-loop on a final state"; additionally
// the cut layer must not expose new acceptances: every final state that is
// forward-reachable at the cut must have an ε-only completion in T
// (otherwise the trimmed sequence would accept a candidate T does not).
//
// "Lies on a run producing a pivot-k candidate" is decided with the pivot
// DPs: the pivots of all candidates of runs through edge e at layer i are
// K(i, e.from) ⊕ out(e) ⊕ B(i+1, e.to), because ⊕ distributes over the
// per-coordinate unions the DP tables take.

PivotRewriter::PivotRewriter(const Sequence& T, const StateGrid& grid)
    : T_(T), grid_(grid) {
  if (!grid.HasAcceptingRun()) return;
  fwd_ = ComputeForwardPivots(grid);
  bwd_ = ComputeBackwardPivots(grid);
  eps_accept_ = grid.ComputeEpsAcceptTable();
}

bool PivotRewriter::EdgeProducesPivot(size_t layer,
                                      const StateGrid::Edge& edge,
                                      ItemId pivot) const {
  size_t ns = grid_.num_states();
  PivotSet through = fwd_[layer * ns + edge.from];
  if (through.IsEmpty()) return false;
  if (!edge.out.empty()) {
    through = PivotMerge(through, PivotSet::Items(edge.out));
  }
  through = PivotMerge(through, bwd_[(layer + 1) * ns + edge.to]);
  return std::binary_search(through.items.begin(), through.items.end(),
                            pivot);
}

Sequence PivotRewriter::Rewrite(ItemId pivot) const {
  size_t n = grid_.length();
  if (!grid_.HasAcceptingRun() || n == 0) return T_;
  size_t ns = grid_.num_states();
  StateId initial = grid_.initial_state();

  // Leading trim.
  size_t lead = 0;
  while (lead < n) {
    bool has_initial_self_loop = false;
    bool safe = true;
    for (const StateGrid::Edge& e : grid_.EdgesAt(lead)) {
      if (e.from == initial && e.to == initial && e.out.empty()) {
        has_initial_self_loop = true;
        continue;
      }
      if (EdgeProducesPivot(lead, e, pivot)) {
        safe = false;
        break;
      }
    }
    if (!safe || !has_initial_self_loop) break;
    ++lead;
  }

  // Trailing trim: keep T[lead..cut).
  size_t cut = n;
  while (cut > lead + 1) {
    size_t layer = cut - 1;
    bool safe = true;
    for (const StateGrid::Edge& e : grid_.EdgesAt(layer)) {
      bool final_self_loop =
          e.from == e.to && e.out.empty() && grid_.IsFinalState(e.from);
      if (!final_self_loop && EdgeProducesPivot(layer, e, pivot)) {
        safe = false;
        break;
      }
    }
    if (!safe) break;
    // Cut-layer acceptance check: a run of the trimmed sequence ends in any
    // forward-reachable final state at `layer`; its candidate is one of T's
    // only if T can finish from there without further output.
    for (StateId q = 0; q < ns && safe; ++q) {
      if (!grid_.IsFinalState(q) || !grid_.ForwardActive(layer, q)) continue;
      if (!grid_.Alive(layer, q) || !eps_accept_[layer * ns + q]) safe = false;
    }
    if (!safe) break;
    --cut;
  }

  if (lead == 0 && cut == n) return T_;
  return Sequence(T_.begin() + lead, T_.begin() + cut);
}

Sequence RewriteForPivot(const Sequence& T, const StateGrid& grid,
                         ItemId pivot) {
  return PivotRewriter(T, grid).Rewrite(pivot);
}

// --- The miner -------------------------------------------------------------

namespace {

// Map/reduce phases shared by the single-round miner, the chained recount
// driver, and the plan-driven balanced miner. The returned closures capture
// `db`, `fst`, `dict`, `options` (and `plan`, when given) by reference;
// callers keep them alive for the round. The recount driver passes its
// cross-round CachedDatabase so round 2 is served from the round-1 cache;
// the balanced miner passes its PartitionPlan so pivots the plan split ship
// under range-split sub-partition keys.
MapFn MakeDSeqMapFn(const std::vector<Sequence>& db, const Fst& fst,
                    const Dictionary& dict, const DSeqOptions& options,
                    CachedDatabase* cached_db = nullptr,
                    const PartitionPlan* plan = nullptr) {
  GridOptions grid_options;
  grid_options.prune_sigma = options.sigma;

  return [&db, &fst, &dict, &options, grid_options, cached_db, plan](
             size_t index, const EmitFn& emit) {
    const Sequence& T =
        cached_db != nullptr ? cached_db->Read(index) : db[index];
    StateGrid grid;
    Sequence pivots;
    if (options.use_grid) {
      grid = StateGrid::Build(T, fst, dict, grid_options);
      if (!grid.HasAcceptingRun()) return;
      pivots = FindPivotItems(grid);
    } else {
      if (!FindPivotItemsNoGrid(T, fst, dict, options.sigma,
                                options.nogrid_step_budget, &pivots)) {
        throw MiningBudgetError(
            "D-SEQ no-grid pivot search exceeded its step budget");
      }
    }
    if (pivots.empty()) return;

    // Only pay for the rewriting DPs when rewriting is on — the Fig. 10a
    // "no rewriting" ablation must not include their cost in map time.
    std::optional<PivotRewriter> rewriter;
    if (options.rewrite && options.use_grid) rewriter.emplace(T, grid);
    std::string value;
    for (ItemId k : pivots) {
      value.clear();
      if (options.aggregate_sequences) PutVarint(&value, 1);
      PutSequence(&value, rewriter ? rewriter->Rewrite(k) : T);
      const PivotSplit* split =
          plan != nullptr ? plan->FindSplit(k) : nullptr;
      if (split != nullptr) {
        emit(EncodeSubpartitionKey(k, plan->SubpartitionForIndex(*split,
                                                                 index)),
             value);
      } else {
        emit(EncodePivotKey(k), value);
      }
    }
  };
}

// Deserializes one partition's shuffled (possibly weighted) sequences into
// σ-pruned grids — the shared front half of every D-SEQ reduce.
void BuildPartitionGrids(const std::vector<std::string_view>& values,
                         const Fst& fst, const Dictionary& dict,
                         const GridOptions& grid_options,
                         bool aggregate_sequences,
                         std::vector<StateGrid>* grids,
                         std::vector<uint64_t>* weights) {
  grids->reserve(values.size());
  weights->reserve(values.size());
  Sequence seq;
  for (std::string_view v : values) {
    size_t pos = 0;
    uint64_t weight = 1;
    if (aggregate_sequences && !GetVarint(v, &pos, &weight)) {
      throw std::invalid_argument("malformed weighted shuffle record");
    }
    if (!GetSequence(v, &pos, &seq) || pos != v.size()) {
      throw std::invalid_argument("malformed D-SEQ shuffle record");
    }
    grids->push_back(StateGrid::Build(seq, fst, dict, grid_options));
    weights->push_back(weight);
  }
}

PartitionReduceFn MakeDSeqReduceFn(const Fst& fst, const Dictionary& dict,
                                   const DSeqOptions& options) {
  GridOptions grid_options;
  grid_options.prune_sigma = options.sigma;

  return [&fst, &dict, &options, grid_options](
             std::string_view key, std::vector<std::string_view>& values,
             MiningResult& out) {
    ItemId pivot = DecodePivotKey(key);
    std::vector<StateGrid> grids;
    std::vector<uint64_t> weights;
    BuildPartitionGrids(values, fst, dict, grid_options,
                        options.aggregate_sequences, &grids, &weights);

    DesqDfsOptions local;
    local.sigma = options.sigma;
    local.pivot = pivot;
    local.early_stop = options.early_stop;
    MiningResult local_result = MineDesqDfsGrids(grids, weights, local);
    out.insert(out.end(), std::make_move_iterator(local_result.begin()),
               std::make_move_iterator(local_result.end()));
  };
}

CombinerFactory DSeqCombinerFactory(const DSeqOptions& options) {
  return options.aggregate_sequences ? CombinerFactory(MakeWeightedValueCombiner)
                                     : CombinerFactory(nullptr);
}

}  // namespace

DistributedResult MineDSeq(const std::vector<Sequence>& db, const Fst& fst,
                           const Dictionary& dict,
                           const DSeqOptions& options) {
  return RunDistributedMining(db.size(), MakeDSeqMapFn(db, fst, dict, options),
                              DSeqCombinerFactory(options),
                              MakeDSeqReduceFn(fst, dict, options), options);
}

ChainedDistributedResult MineDSeqRecount(const std::vector<Sequence>& db,
                                         const Fst& fst,
                                         const Dictionary& dict,
                                         const DSeqRecountOptions& options) {
  // Round 1 recounts the f-list; round 2 builds σ-pruned grids against it,
  // reading the database from the round-1 cache.
  return RunRecountMining(
      db, dict, options.recount_sample_every, options,
      [&](const Dictionary& recounted, CachedDatabase& cached_db,
          MapFn* map_fn, CombinerFactory* combiner_factory,
          PartitionReduceFn* reduce_fn) {
        *map_fn = MakeDSeqMapFn(db, fst, recounted, options, &cached_db);
        *combiner_factory = DSeqCombinerFactory(options);
        *reduce_fn = MakeDSeqReduceFn(fst, recounted, options);
      });
}

ChainedDistributedResult MineDSeqBalanced(const std::vector<Sequence>& db,
                                          const Fst& fst,
                                          const Dictionary& dict,
                                          const DSeqBalanceOptions& options,
                                          PartitionPlan* plan_out) {
  // The balanced run owns the key→reducer hook (the whole point is to
  // install the plan's); silently discarding a caller-supplied partitioner
  // would contradict DistributedRunOptions' pass-through contract.
  if (options.partitioner) {
    throw std::invalid_argument(
        "MineDSeqBalanced installs the plan's partitioner; "
        "options.partitioner must be unset");
  }
  // Planning pass (driver-local, no shuffle): measure what the map phase
  // would ship per pivot and pack it onto the configured reducers.
  std::vector<PartitionStats> stats = ComputePartitionStats(
      db, fst, dict, options.sigma, options.num_map_workers);
  PartitionPlanOptions plan_options = options.plan;
  plan_options.num_reducers = ClampWorkers(options.num_reduce_workers);
  PartitionPlan plan = BuildPartitionPlan(stats, db.size(), plan_options);
  if (plan_out != nullptr) *plan_out = plan;

  ChainedDataflowOptions chained = options;
  chained.partitioner = plan.MakePartitioner();
  DataflowJob job(chained);

  GridOptions grid_options;
  grid_options.prune_sigma = options.sigma;

  // Mining round. Unsplit partitions finish here exactly as in MineDSeq.
  // Sub-partitions of a split pivot see only a slice of the pivot's
  // sequences, so their local support proves nothing about σ — they mine at
  // σ=1 and ship (pattern, local support) records for the reconcile round.
  //
  // Both outcomes leave the reduce as boundary records (the only channel
  // that survives the proc backend's forked reducers), distinguished by a
  // one-byte tag: 'F' = finished pattern, 'S' = split partial. The tag is
  // stripped by the driver before anything re-enters a shuffle, so round
  // metrics are unchanged by the tagging.
  ChainReduceFn reduce = [&](int /*worker*/, std::string_view key,
                             std::vector<std::string_view>& values,
                             const EmitFn& emit) {
    PivotKeyParts parts = DecodePivotKeyParts(key);
    std::vector<StateGrid> grids;
    std::vector<uint64_t> weights;
    BuildPartitionGrids(values, fst, dict, grid_options,
                        options.aggregate_sequences, &grids, &weights);

    DesqDfsOptions local;
    local.pivot = parts.pivot;
    local.early_stop = options.early_stop;
    local.sigma = parts.subpartition < 0 ? options.sigma : 1;
    MiningResult local_result = MineDesqDfsGrids(grids, weights, local);
    const char tag = parts.subpartition < 0 ? 'F' : 'S';
    std::string k;
    std::string v;
    for (const PatternCount& pc : local_result) {
      k.assign(1, tag);
      v.clear();
      PutSequence(&k, pc.pattern);
      PutVarint(&v, pc.frequency);
      emit(k, v);
    }
  };
  job.RunRound(db.size(),
               MakeDSeqMapFn(db, fst, dict, options, nullptr, &plan),
               DSeqCombinerFactory(options), reduce);

  // Partition the boundary records by tag: finished patterns are final,
  // split partials (tag stripped) feed the reconcile round below in their
  // emission order — exactly the record order the pre-tagging driver
  // re-shuffled, so the reconcile round's bytes are unchanged.
  MiningResult patterns;
  std::vector<Record> split;
  for (Record& record : job.TakeRecords()) {
    if (record.key.empty() || (record.key[0] != 'F' && record.key[0] != 'S')) {
      throw std::invalid_argument("malformed balanced-mining record tag");
    }
    const char tag = record.key[0];
    record.key.erase(0, 1);
    if (tag == 'S') {
      split.push_back(std::move(record));
      continue;
    }
    PatternCount mined;
    size_t pos = 0;
    if (!GetSequence(record.key, &pos, &mined.pattern) ||
        pos != record.key.size()) {
      throw std::invalid_argument("malformed finished-pattern key");
    }
    pos = 0;
    if (!GetVarint(record.value, &pos, &mined.frequency) ||
        pos != record.value.size()) {
      throw std::invalid_argument("malformed finished-pattern value");
    }
    patterns.push_back(std::move(mined));
  }

  // Reconcile round: sum each split pattern's per-sub-partition supports
  // and apply σ once, globally. Every input sequence reached exactly one
  // sub-partition of its pivot, so the sums equal the unsplit supports and
  // the merged output is byte-identical to MineDSeq's. Survivors come back
  // as boundary records (proc-safe, as above).
  if (!split.empty()) {
    MapFn replay = [&split](size_t index, const EmitFn& emit) {
      emit(split[index].key, split[index].value);
    };
    ChainReduceFn sum = [&](int /*worker*/, std::string_view key,
                            std::vector<std::string_view>& values,
                            const EmitFn& emit) {
      uint64_t total = 0;
      for (std::string_view v : values) {
        size_t pos = 0;
        uint64_t count = 0;
        if (!GetVarint(v, &pos, &count) || pos != v.size()) {
          throw std::invalid_argument("malformed split-support record");
        }
        if (count > std::numeric_limits<uint64_t>::max() - total) {
          throw std::overflow_error("split-support sum overflows");
        }
        total += count;
      }
      if (total < options.sigma) return;
      std::string v;
      PutVarint(&v, total);
      emit(key, v);
    };
    job.RunRound(split.size(), replay, MakeSumCombiner, sum);
    for (const Record& record : job.TakeRecords()) {
      PatternCount mined;
      size_t pos = 0;
      if (!GetSequence(record.key, &pos, &mined.pattern) ||
          pos != record.key.size()) {
        throw std::invalid_argument("malformed split-pattern key");
      }
      pos = 0;
      if (!GetVarint(record.value, &pos, &mined.frequency) ||
          pos != record.value.size()) {
        throw std::invalid_argument("malformed reconciled-support value");
      }
      patterns.push_back(std::move(mined));
    }
  }

  Canonicalize(&patterns);
  return MakeChainedResult(std::move(patterns), job);
}

}  // namespace dseq
