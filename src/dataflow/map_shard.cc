#include "src/dataflow/map_shard.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace dseq {
namespace {

void AppendEntries(std::string_view raw, std::vector<BucketEntry>* entries) {
  ShuffleBuffer::ForEachRecord(
      raw, [&](std::string_view key, std::string_view value) {
        entries->push_back(BucketEntry{key, value});
      });
}

// Stable: within a key, entries keep their parse order.
void StableSortByKey(std::vector<BucketEntry>* entries) {
  std::stable_sort(
      entries->begin(), entries->end(),
      [](const BucketEntry& a, const BucketEntry& b) { return a.key < b.key; });
}

}  // namespace

std::vector<BucketEntry> SortedBucketEntries(std::string_view raw) {
  std::vector<BucketEntry> entries;
  AppendEntries(raw, &entries);
  StableSortByKey(&entries);
  return entries;
}

void RunMapShard(const MapShardContext& ctx) {
  const DataflowOptions& options = *ctx.options;
  MemoryBudget& budget = *ctx.budget;
  const bool spill_enabled = budget.enabled() && !options.spill_dir.empty();
  const int w = ctx.map_worker;
  const int reduce_workers = ctx.reduce_workers;
  DataflowMetrics& shard = *ctx.metrics;
  shard = DataflowMetrics();
  shard.reducer_bytes.assign(reduce_workers, 0);
  const InputReads reads_before = ThreadInputReads();

  // Drains every resident bucket of this worker to a sorted run on disk,
  // returning the freed bytes to the budget. A worker can only ever free
  // its own state, so this is the whole spill action of the emit path.
  auto spill_worker_buckets = [&]() {
    DSEQ_TRACE_SPAN("engine", "spill_run_write");
    static obs::Histogram& run_bytes_hist =
        obs::GetHistogram("spill.run_bytes");
    for (int r = 0; r < reduce_workers; ++r) {
      if (ctx.buckets[r].num_records() == 0) continue;
      if (obs::Enabled()) run_bytes_hist.Observe(ctx.buckets[r].data_bytes());
      std::string raw = ctx.buckets[r].ReleaseRaw();
      SpillFile run = SpillFile::Create(options.spill_dir);
      SpillWriter writer(&run, options.compress_spill, ctx.spill_stats);
      for (const BucketEntry& entry : SortedBucketEntries(raw)) {
        writer.Append(entry.key, entry.value);
      }
      writer.Finish();
      ctx.spill_runs[r].push_back(std::move(run));
      budget.Release(ctx.bucket_charged[r]);
      ctx.bucket_charged[r] = 0;
    }
  };

  // Emits a post-combine record into this worker's shuffle buckets.
  // Hot-path observability: registry lookups happen once (static locals);
  // each record then costs one relaxed flag load — nothing when disabled.
  static obs::Histogram& record_bytes_hist =
      obs::GetHistogram("shuffle.record_bytes");
  static obs::Histogram& budget_charge_hist =
      obs::GetHistogram("budget.charge_bytes");
  EmitFn shuffle_emit = [&](std::string_view key, std::string_view value) {
    uint64_t bytes = key.size() + value.size() + kShuffleRecordOverheadBytes;
    if (obs::Enabled()) record_bytes_hist.Observe(bytes);
    // The reducer is resolved before the budget checks so overflow errors
    // can name the offending bucket.
    int r = options.partitioner
                ? options.partitioner(key, reduce_workers)
                : ShuffleReducerForKey(key, reduce_workers);
    if (r < 0 || r >= reduce_workers) {
      throw std::out_of_range("partitioner returned reducer " +
                              std::to_string(r) + " for " +
                              std::to_string(reduce_workers) + " workers");
    }
    // Relaxed is enough for the budget check: RMWs on one atomic are
    // totally ordered regardless of memory order, so `total` is an exact
    // running sum; no other memory is published through the counter.
    uint64_t total =
        ctx.shuffle_bytes->fetch_add(bytes, std::memory_order_relaxed) + bytes;
    shard.shuffle_bytes += bytes;
    ++shard.shuffle_records;
    if (options.shuffle_budget_bytes > 0 &&
        total > options.shuffle_budget_bytes) {
      throw ShuffleOverflowError(
          "round " + std::to_string(options.round_index) +
          ": shuffle volume exceeded the budget buffering a record for "
          "reducer " +
          std::to_string(r) + " (budget " +
          std::to_string(options.shuffle_budget_bytes) + " bytes, attempted " +
          std::to_string(total) + " bytes)");
    }
    if (budget.enabled() && !budget.TryCharge(bytes)) {
      if (!spill_enabled) {
        throw ShuffleOverflowError(
            "round " + std::to_string(options.round_index) + ", map worker " +
            std::to_string(w) +
            ": shuffle memory exceeded the budget buffering a record for "
            "reducer " +
            std::to_string(r) + " (budget " +
            std::to_string(budget.budget_bytes()) + " bytes, resident " +
            std::to_string(budget.used_bytes()) + " bytes, attempted +" +
            std::to_string(bytes) +
            " bytes); set spill_dir to spill to disk or raise "
            "memory_budget_bytes");
      }
      // Spill only when this worker holds enough resident bytes to make
      // the disk run worthwhile; otherwise take the bounded overdraft
      // (ForceCharge) — spilling near-empty buckets would degrade into
      // one-record runs when other workers hold the whole budget.
      uint64_t resident = 0;
      for (int rr = 0; rr < reduce_workers; ++rr) {
        resident += ctx.bucket_charged[rr];
      }
      uint64_t min_worth_spilling = std::max<uint64_t>(
          bytes, std::min<uint64_t>(budget.budget_bytes() / 2, 4096));
      if (resident >= min_worth_spilling) {
        spill_worker_buckets();
        // Everything this worker can free is on disk; the record itself
        // must still be buffered (bounded overshoot, see MemoryBudget).
        if (!budget.TryCharge(bytes)) budget.ForceCharge(bytes);
      } else {
        budget.ForceCharge(bytes);
      }
    }
    if (budget.enabled()) {
      ctx.bucket_charged[r] += bytes;
      // Budget pressure: how full the budget is per charge, in percent.
      if (obs::Enabled()) {
        budget_charge_hist.Observe(budget.used_bytes() * 100 /
                                   budget.budget_bytes());
      }
    }
    shard.reducer_bytes[r] += bytes;
    ctx.buckets[r].Append(key, value);
  };

  std::unique_ptr<Combiner> combiner =
      *ctx.combiner_factory ? (*ctx.combiner_factory)() : nullptr;
  if (combiner != nullptr && budget.enabled()) {
    combiner->EnableSpill(ctx.combiner_ctx);
  }
  EmitFn map_emit = [&](std::string_view key, std::string_view value) {
    ++shard.map_output_records;
    if (combiner != nullptr) {
      combiner->Add(key, value);
    } else {
      shuffle_emit(key, value);
    }
  };

  for (size_t i = ctx.begin; i < ctx.end; ++i) {
    (*ctx.map_fn)(i, map_emit);
    if (ctx.progress != nullptr) {
      ctx.progress->fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (combiner != nullptr) {
    DSEQ_TRACE_SPAN("engine", "combine_flush");
    combiner->Flush(shuffle_emit);
  }
  if (options.compress_shuffle) {
    for (int r = 0; r < reduce_workers; ++r) {
      shard.shuffle_compressed_bytes += ctx.buckets[r].Compress();
    }
  } else {
    // Sync the amortized live-bytes gauge now that the buckets are final.
    for (int r = 0; r < reduce_workers; ++r) ctx.buckets[r].Seal();
  }
  // The map functions ran on this thread, so these are the shard's reads.
  const InputReads& reads_after = ThreadInputReads();
  shard.input_storage_reads =
      reads_after.storage_reads - reads_before.storage_reads;
  shard.input_cache_hits = reads_after.cache_hits - reads_before.cache_hits;
}

void RunReduceColumn(std::vector<ReduceColumnSource> sources,
                     const DataflowOptions& options, SpillStats* spill_stats,
                     MemoryBudget* budget, const MergeGroupFn& reduce_group) {
  // `sources` is owned here and never resized, so the views below stay
  // valid: relocating a short (SSO) tail string would move its bytes.
  uint64_t values_handed_out = 0;
#if DSEQ_DCHECK_IS_ON
  // The previous key is copied: on the merge path its view dies with the
  // group (debug builds only).
  std::string prev_key;
  bool has_prev = false;
#endif
  auto deliver = [&](std::string_view key,
                     std::vector<std::string_view>& values) {
#if DSEQ_DCHECK_IS_ON
    DSEQ_DCHECK_MSG(!has_prev || prev_key < key,
                    "reduce column keys not strictly increasing");
    // Guarded assign: an empty view may legally carry a null data pointer.
    if (key.empty()) {
      prev_key.clear();
    } else {
      prev_key.assign(key.data(), key.size());
    }
    has_prev = true;
#endif
    values_handed_out += values.size();
    reduce_group(key, values);
  };

  bool any_run = false;
  for (const ReduceColumnSource& source : sources) {
    any_run = any_run || !source.runs.empty();
  }
  if (any_run) {
    DSEQ_TRACE_SPAN("engine", "external_merge");
    // Source order is the stability contract: per map task, the spilled
    // runs (chronological) and then the resident tail.
    ExternalMergePlan plan(options.spill_dir, options.compress_spill,
                           options.spill_merge_fan_in, spill_stats, budget);
    for (ReduceColumnSource& source : sources) {
      for (SpillFile& run : source.runs) plan.AddRun(std::move(run));
      source.runs.clear();
      if (source.tail.empty()) continue;
      std::vector<std::pair<std::string_view, std::string_view>> tail;
      for (const BucketEntry& entry : SortedBucketEntries(source.tail)) {
        tail.emplace_back(entry.key, entry.value);
      }
      plan.AddSource(std::make_unique<InMemorySource>(std::move(tail)));
    }
    uint64_t merged = plan.MergeGroups(deliver);
    DSEQ_DCHECK_EQ(values_handed_out, merged);
    return;
  }

  DSEQ_TRACE_SPAN("engine", "group_sweep");
  size_t total_records = 0;
  for (const ReduceColumnSource& source : sources) {
    total_records += source.tail_records;
  }
  std::vector<BucketEntry> entries;
  entries.reserve(total_records);
  for (const ReduceColumnSource& source : sources) {
    AppendEntries(source.tail, &entries);
  }
  // Within a key, values keep (map task, emit) order.
  StableSortByKey(&entries);

  std::vector<std::string_view> values;
  size_t i = 0;
  while (i < entries.size()) {
    size_t j = i + 1;
    while (j < entries.size() && entries[j].key == entries[i].key) ++j;
    values.clear();
    values.reserve(j - i);
    for (size_t k = i; k < j; ++k) values.push_back(entries[k].value);
    deliver(entries[i].key, values);
    i = j;
  }
  DSEQ_DCHECK_EQ(values_handed_out, entries.size());
}

}  // namespace dseq
