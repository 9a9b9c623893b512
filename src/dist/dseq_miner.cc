#include "src/dist/dseq_miner.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace dseq {

// --- Sequence rewriting (paper Sec. V-B) -----------------------------------
//
// The rewriter trims a prefix and a suffix of T while preserving the set of
// pivot-k candidate subsequences exactly. A leading position i can be
// dropped while (a) the grid has an ε self-loop on the initial state at
// layer i (so runs of the trimmed sequence extend back to runs of T by
// idling in the initial state) and (b) no pivot-k run uses another edge at
// layer i (so every pivot-k run of T idles through layer i and survives the
// trim). Trailing positions are symmetric with "ε self-loop on a final
// state"; additionally the cut layer must not expose new acceptances: every
// final state that is forward-reachable at the cut must have an ε-only
// completion in T (otherwise the trimmed sequence would accept a candidate
// T does not).
//
// Rule (b) is read off each run's two ends. A run idles on the initial ε
// self-loop until its *departure*, its first other edge, and after its
// *arrival*, its last edge that is not a final ε self-loop, it idles on
// final ε self-loops. So the lead of pivot k is the first layer at which
// some pivot-k run departs, and the cut is one past the last layer at which
// some pivot-k run arrives (or past the last layer failing the acceptance
// check, if that comes later). Because ⊕ distributes over the unions the DP
// tables take:
//   - the pivots of runs departing at layer i via edge e out of the initial
//     state are out(e) ⊕ B(i+1, e.to): their prefix is all ε. This holds
//     up to the first layer without an initial ε self-loop, and every run
//     has departed by then, so the lead scan never needs a later layer;
//   - the pivots of runs arriving at layer i via edge e are
//     K(i, e.from) ⊕ out(e), provided e.to idles on final ε self-loops
//     through layer n: their suffix is all ε.
// The trail scan takes every edge into a final state, idling or not, and
// stays exact. If (i+1, e.to) does not idle to the end, then either it has
// no ε-only completion, so the acceptance check fails at layer i+1 and the
// scan stops before layer i, or each prefix through e extends by an ε-only
// completion to a run with the prefix's pivots that arrives after layer i.
// Either way the edge cannot move a pivot's cut.
//
// The constructor walks layers up from 0 until every pivot has departed, and
// down from n−1 until every pivot has arrived or a layer fails the
// acceptance check, with one ⊕ per edge out of the initial state, or into a
// final state, on the layers it visits. It stores one [lead, cut) pair per
// pivot, so Rewrite(k) is one binary search plus the copy.

PivotRewriter::PivotRewriter(const Sequence& T, const StateGrid& grid)
    : T_(T) {
  if (!grid.HasAcceptingRun()) return;
  const size_t n = grid.length();
  const size_t ns = grid.num_states();
  const StateId initial = grid.initial_state();
  PivotDp& dp = PivotDp::ForThisThread();
  dp.Load(grid);
  pivots_ = dp.Pivots();
  if (pivots_.empty()) return;  // Rewrite has no pivot to be called with

  // Lead: the first departure layer of each pivot's runs. Every pivot has
  // departed by the first layer without an initial ε self-loop, so the scan
  // ends before any layer where an all-ε prefix no longer exists.
  lead_.resize(pivots_.size());
  size_t open = dp.BeginScan();
  for (size_t i = 0; i < n && open > 0; ++i) {
    for (const StateGrid::Edge& e : grid.EdgesOf(i * ns + initial)) {
      if (e.to == initial && e.out.empty()) continue;  // initial ε self-loop
      open = dp.Settle(dp.Departing(i, e), static_cast<uint32_t>(i), &lead_);
    }
  }
  DSEQ_DCHECK_EQ(open, 0u);

  // Trail: the last arrival layer of each pivot's runs, down to the last
  // layer failing the cut-acceptance check.
  dp.ComputeForward();
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  cut_.assign(pivots_.size(), kNone);
  open = dp.BeginScan();
  size_t cut_floor = 0;  // one past the last layer failing the cut check
  for (size_t i = n; i-- > 0 && open > 0;) {
    // Cut-layer acceptance check: a run of the trimmed sequence ends in any
    // forward-reachable final state at layer i; its candidate is one of T's
    // only if T can finish from there without further output.
    bool cut_accepts = true;
    for (StateId q = 0; q < ns && cut_accepts; ++q) {
      if (!grid.IsFinalState(q) || !grid.ForwardActive(i, q)) continue;
      cut_accepts = grid.EpsAccept(i, q);
    }
    if (!cut_accepts) {
      cut_floor = i + 1;
      break;
    }
    for (const StateGrid::Edge& e : grid.EdgesAt(i)) {
      if (!grid.IsFinalState(e.to)) continue;
      if (e.from == e.to && e.out.empty()) continue;  // final ε self-loop
      open = dp.Settle(dp.Arriving(i, e), static_cast<uint32_t>(i + 1), &cut_);
    }
  }
  // Some run of each pivot arrives no earlier than another one departs, so
  // every cut lies past its lead.
  for (size_t p = 0; p < pivots_.size(); ++p) {
    if (cut_[p] == kNone) cut_[p] = static_cast<uint32_t>(cut_floor);
    DSEQ_DCHECK_LT(lead_[p], cut_[p]);
    DSEQ_DCHECK_LE(cut_[p], n);
  }
}

Sequence PivotRewriter::Rewrite(ItemId pivot) const {
  auto it = std::lower_bound(pivots_.begin(), pivots_.end(), pivot);
  DSEQ_DCHECK(it != pivots_.end() && *it == pivot);
  if (it == pivots_.end() || *it != pivot) return T_;
  const size_t p = it - pivots_.begin();
  const size_t lead = lead_[p];
  const size_t cut = cut_[p];
  if (lead == 0 && cut == T_.size()) return T_;
  return Sequence(T_.begin() + lead, T_.begin() + cut);
}

// --- The miner -------------------------------------------------------------

void MapDSeqInput(const Sequence& T, const StepTable& table,
                  const DSeqOptions& options, const EmitFn& emit,
                  const PartitionPlan* plan, size_t index) {
  DSEQ_DCHECK_EQ(table.prune_sigma(), options.sigma);
  // Under obs::Enabled(), lap(&phase) charges the time since the previous
  // lap to one of the map's phases. The laps are per input, not per pivot:
  // a clock read costs tens of nanoseconds, as much as a short rewrite.
  MapCounts counts;
  const bool traced = obs::Enabled();
  int64_t mark = traced ? obs::NowNs() : 0;
  auto lap = [&](uint64_t* phase_ns) {
    if (!traced) return;
    const int64_t now = obs::NowNs();
    *phase_ns += static_cast<uint64_t>(now - mark);
    mark = now;
  };
  StateGrid grid;
  Sequence found;
  const Sequence* pivots = &found;
  // Only pay for the rewriting DPs when rewriting is on — the Fig. 10a
  // "no rewriting" ablation must not include their cost in map time. When
  // it is on, the rewriter's backward DP also yields K(T).
  std::optional<PivotRewriter> rewriter;
  if (options.use_grid) {
    grid = StateGrid::Build(T, table);
    lap(&counts.grid_ns);
    if (!grid.HasAcceptingRun()) {
      if (traced) counts.Flush();
      return;
    }
    if (options.rewrite) {
      pivots = &rewriter.emplace(T, grid).pivots();
    } else {
      found = FindPivotItems(grid);
    }
  } else {
    if (!FindPivotItemsNoGrid(T, table, options.nogrid_step_budget, &found)) {
      throw MiningBudgetError(
          "D-SEQ no-grid pivot search exceeded its step budget");
    }
  }
  lap(&counts.pivots_ns);

  // One record buffer per thread, reused from input to input.
  thread_local std::string value;
  for (ItemId k : *pivots) {
    value.clear();
    if (options.aggregate_sequences) PutVarint(&value, 1);
    if (rewriter) {
      Sequence rewritten = rewriter->Rewrite(k);
      counts.shipped_items += rewritten.size();
      PutSequence(&value, rewritten);
    } else {
      counts.shipped_items += T.size();
      PutSequence(&value, T);
    }
    const PivotSplit* split = plan != nullptr ? plan->FindSplit(k) : nullptr;
    if (split != nullptr) {
      emit(EncodeSubpartitionKey(k, plan->SubpartitionForIndex(*split, index)),
           value);
    } else {
      emit(EncodePivotKey(k), value);
    }
  }
  lap(&counts.rewrite_ns);
  if (traced) {
    counts.sequences = options.use_grid ? 1 : 0;
    counts.grid_edges = options.use_grid ? grid.num_edges() : 0;
    counts.pivots = pivots->size();
    counts.input_items = pivots->size() * T.size();
    counts.Flush();
  }
}

namespace {

// The map function shared by the single-round miner and the plan-driven
// balanced miner. The returned closure captures `db`, `table`, `options`
// (and `plan`, when given) by reference; callers keep them alive for the
// round. The balanced miner passes its PartitionPlan so pivots the plan
// split ship under range-split sub-partition keys.
MapFn MakeDSeqMapFn(const std::vector<Sequence>& db, const StepTable& table,
                    const DSeqOptions& options,
                    const PartitionPlan* plan = nullptr) {
  return [&db, &table, &options, plan](size_t index, const EmitFn& emit) {
    MapDSeqInput(db[index], table, options, emit, plan, index);
  };
}

}  // namespace

MiningResult MineDSeqPartition(std::string_view key,
                               const std::vector<std::string_view>& values,
                               const StepTable& table,
                               const DSeqOptions& options) {
  DSEQ_TRACE_SPAN("mining", "dseq_reduce");
  const int64_t start_ns = obs::Enabled() ? obs::NowNs() : -1;
  DSEQ_DCHECK_EQ(table.prune_sigma(), options.sigma);
  const PivotKeyParts parts = DecodePivotKeyParts(key);
  DfsInput input(table, parts.pivot);
  Sequence seq;
  for (std::string_view v : values) {
    size_t pos = 0;
    uint64_t weight = 1;
    if (options.aggregate_sequences && !GetVarint(v, &pos, &weight)) {
      throw std::invalid_argument("malformed weighted shuffle record");
    }
    if (!GetSequence(v, &pos, &seq) || pos != v.size()) {
      throw std::invalid_argument("malformed D-SEQ shuffle record");
    }
    input.Add(seq, weight);
  }

  DesqDfsOptions local;
  // A sub-partition sees a slice of its pivot's sequences, so its local
  // support proves nothing about σ: it mines at 1 (items stay pruned at σ).
  local.sigma = parts.subpartition < 0 ? options.sigma : 1;
  local.pivot = parts.pivot;
  local.early_stop = options.early_stop;
  return MinePartitionInput(input, local, values.size(), start_ns);
}

DistributedResult MineDSeq(const std::vector<Sequence>& db, const Fst& fst,
                           const Dictionary& dict,
                           const DSeqOptions& options) {
  const StepTable table(fst, dict, options.sigma);
  PartitionReduceFn reduce_fn = [&table, &options](
      std::string_view key, std::vector<std::string_view>& values,
      MiningResult& out) {
    MiningResult local = MineDSeqPartition(key, values, table, options);
    out.insert(out.end(), std::make_move_iterator(local.begin()),
               std::make_move_iterator(local.end()));
  };
  return RunDistributedMining(db.size(), MakeDSeqMapFn(db, table, options),
                              options.aggregate_sequences, reduce_fn, options);
}

DistributedResult MineDSeqBalanced(const std::vector<Sequence>& db,
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
  const StepTable table(fst, dict, options.sigma);
  std::vector<PartitionStats> stats =
      ComputePartitionStats(db, table, options.num_map_workers);
  PartitionPlanOptions plan_options;
  plan_options.num_reducers = ClampWorkers(options.num_reduce_workers);
  plan_options.split_factor = options.split_factor;
  PartitionPlan plan = BuildPartitionPlan(stats, db.size(), plan_options);
  if (plan_out != nullptr) *plan_out = plan;

  DataflowOptions planned = options;
  planned.partitioner = plan.MakePartitioner();
  DataflowJob job(planned);

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
  ReduceFn reduce = [&](int /*worker*/, std::string_view key,
                        std::vector<std::string_view>& values,
                        const EmitFn& emit) {
    MiningResult local_result = MineDSeqPartition(key, values, table, options);
    const char tag = DecodePivotKeyParts(key).subpartition < 0 ? 'F' : 'S';
    std::string k;
    std::string v;
    for (const PatternCount& pc : local_result) {
      k.assign(1, tag);
      v.clear();
      EncodePatternRecord(pc, &k, &v);
      emit(k, v);
    }
  };
  job.RunRound(db.size(),
               MakeDSeqMapFn(db, table, options, &plan),
               options.aggregate_sequences, reduce);

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
    patterns.push_back(DecodePatternRecord(record.key, record.value));
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
    ReduceFn sum = [&](int /*worker*/, std::string_view key,
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
    job.RunRound(split.size(), replay, /*combine=*/true, sum);
    for (const Record& record : job.TakeRecords()) {
      patterns.push_back(DecodePatternRecord(record.key, record.value));
    }
  }

  Canonicalize(&patterns);
  return MakeChainedResult(std::move(patterns), job);
}

}  // namespace dseq
