#include "src/dist/dseq_miner.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>

#include "src/util/check.h"
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
// its through-set K(i, e.from) ⊕ out(e) ⊕ B(i+1, e.to), because ⊕
// distributes over the per-coordinate unions the DP tables take.
//
// None of this depends on k except the final membership test, so the
// constructor computes every edge's through-set once and folds it into two
// sorted per-layer unions: the lead block (all edges but the initial ε
// self-loop) and the trail block (all edges but final ε self-loops). The
// initial-self-loop flag and the cut-layer acceptance check do not depend
// on k either and are per-layer flags. Rewrite(k) then walks layers from
// both ends with one binary search per layer. The cost is O(|E|) pivot
// merges and one small sort per layer per sequence, plus O(n log |K(T)|)
// per pivot, instead of the per-edge merges being redone for every pivot.

void PivotRewriter::LayerBlocks::Close(Sequence* scratch) {
  std::sort(scratch->begin(), scratch->end());
  scratch->erase(std::unique(scratch->begin(), scratch->end()),
                 scratch->end());
  auto first = items.insert(items.end(), scratch->begin(), scratch->end());
  DSEQ_DCHECK(std::adjacent_find(first, items.end(),
                                 std::greater_equal<ItemId>()) == items.end());
  begin.push_back(static_cast<uint32_t>(items.size()));
  scratch->clear();
}

bool PivotRewriter::LayerBlocks::Contains(size_t layer, ItemId pivot) const {
  return std::binary_search(items.begin() + begin[layer],
                            items.begin() + begin[layer + 1], pivot);
}

PivotRewriter::PivotRewriter(const Sequence& T, const StateGrid& grid)
    : T_(T) {
  if (!grid.HasAcceptingRun()) return;
  std::vector<PivotSet> fwd = ComputeForwardPivots(grid);
  pivots_ = PivotItemsFromForward(grid, fwd);
  if (pivots_.empty()) return;  // Rewrite has no pivot to be called with
  std::vector<PivotSet> bwd = ComputeBackwardPivots(grid);
  std::vector<uint8_t> eps_accept = grid.ComputeEpsAcceptTable();

  const size_t n = grid.length();
  const size_t ns = grid.num_states();
  const StateId initial = grid.initial_state();
  initial_self_loop_.assign(n, 0);
  cut_accepts_.assign(n, 1);
  Sequence lead;
  Sequence trail;
  for (size_t i = 0; i < n; ++i) {
    for (const StateGrid::Edge& e : grid.EdgesAt(i)) {
      bool idle = e.from == e.to && e.out.empty();
      bool initial_loop = idle && e.from == initial;
      bool final_loop = idle && grid.IsFinalState(e.from);
      if (initial_loop) initial_self_loop_[i] = 1;
      if (initial_loop && final_loop) continue;
      const PivotSet& before = fwd[i * ns + e.from];
      if (before.IsEmpty()) continue;
      const PivotSet& after = bwd[(i + 1) * ns + e.to];
      PivotSet through =
          e.out.empty()
              ? PivotMerge(before, after)
              : PivotMerge(PivotMerge(before, PivotSet::Items(e.out)), after);
      const PivotItemVec& items = through.items;
      if (!initial_loop) lead.insert(lead.end(), items.begin(), items.end());
      if (!final_loop) trail.insert(trail.end(), items.begin(), items.end());
    }
    lead_.Close(&lead);
    trail_.Close(&trail);
    // Cut-layer acceptance check: a run of the trimmed sequence ends in any
    // forward-reachable final state at layer i; its candidate is one of T's
    // only if T can finish from there without further output.
    for (StateId q = 0; q < ns; ++q) {
      if (!grid.IsFinalState(q) || !grid.ForwardActive(i, q)) continue;
      if (!grid.Alive(i, q) || !eps_accept[i * ns + q]) {
        cut_accepts_[i] = 0;
        break;
      }
    }
  }
}

Sequence PivotRewriter::Rewrite(ItemId pivot) const {
  DSEQ_DCHECK(std::binary_search(pivots_.begin(), pivots_.end(), pivot));
  if (pivots_.empty()) return T_;
  const size_t n = T_.size();

  // Leading trim.
  size_t lead = 0;
  while (lead < n && initial_self_loop_[lead] &&
         !lead_.Contains(lead, pivot)) {
    ++lead;
  }

  // Trailing trim: keep T[lead..cut).
  size_t cut = n;
  while (cut > lead + 1 && cut_accepts_[cut - 1] &&
         !trail_.Contains(cut - 1, pivot)) {
    --cut;
  }

  DSEQ_DCHECK_LT(lead, cut);
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
    Sequence found;
    const Sequence* pivots = &found;
    // Only pay for the rewriting DPs when rewriting is on — the Fig. 10a
    // "no rewriting" ablation must not include their cost in map time. When
    // it is on, the rewriter's forward DP also yields K(T).
    std::optional<PivotRewriter> rewriter;
    if (options.use_grid) {
      grid = StateGrid::Build(T, fst, dict, grid_options);
      if (!grid.HasAcceptingRun()) return;
      if (options.rewrite) {
        pivots = &rewriter.emplace(T, grid).pivots();
      } else {
        found = FindPivotItems(grid);
      }
    } else {
      if (!FindPivotItemsNoGrid(T, fst, dict, options.sigma,
                                options.nogrid_step_budget, &found)) {
        throw MiningBudgetError(
            "D-SEQ no-grid pivot search exceeded its step budget");
      }
    }

    std::string value;
    for (ItemId k : *pivots) {
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
