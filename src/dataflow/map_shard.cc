#include "src/dataflow/map_shard.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/dataflow/combiner.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace dseq {

void RunMapShard(const MapShardContext& ctx) {
  const DataflowOptions& options = *ctx.options;
  MemoryBudget& budget = *ctx.budget;
  const bool spill_enabled = budget.enabled() && !options.spill_dir.empty();
  const int w = ctx.map_worker;
  const int reduce_workers = ctx.reduce_workers;
  DataflowMetrics& shard = *ctx.metrics;
  shard = DataflowMetrics();
  shard.reducer_bytes.assign(reduce_workers, 0);

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
      ctx.buckets[r].SortByKey();
      std::string raw = ctx.buckets[r].ReleaseRaw();
      SpillFile run = SpillFile::Create(options.spill_dir);
      SpillWriter writer(&run, options.compress_shuffle, ctx.spill_stats);
      ShuffleBuffer::ForEachRecord(
          raw, [&](std::string_view key, std::string_view value) {
            writer.Append(key, value);
          });
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

  std::optional<Combiner> combiner;
  if (ctx.combine) combiner.emplace(options, &budget, ctx.spill_stats, w);
  EmitFn map_emit = [&](std::string_view key, std::string_view value) {
    ++shard.map_output_records;
    if (combiner) {
      combiner->Add(key, value);
    } else {
      shuffle_emit(key, value);
    }
  };

  for (size_t i = ctx.begin; i < ctx.end; ++i) {
    (*ctx.map_fn)(i, map_emit);
    if (ctx.on_input) ctx.on_input();
  }
  if (combiner) {
    DSEQ_TRACE_SPAN("engine", "combine_flush");
    combiner->Flush(shuffle_emit);
  }
  {
    // Each bucket leaves the map side as one sorted run, so the reduce side
    // only merges. Sealing syncs the amortized live-bytes gauge.
    DSEQ_TRACE_SPAN("engine", "bucket_sort");
    for (int r = 0; r < reduce_workers; ++r) {
      ShuffleBuffer& bucket = ctx.buckets[r];
      bucket.SortByKey();
      if (options.compress_shuffle) {
        shard.shuffle_compressed_bytes += bucket.Compress();
      } else {
        bucket.Seal();
      }
    }
  }
}

void RunReduceColumn(std::vector<ReduceColumnSource> sources,
                     const DataflowOptions& options, SpillStats* spill_stats,
                     MemoryBudget* budget, const MergeGroupFn& reduce_group) {
  bool any_run = false;
  for (const ReduceColumnSource& source : sources) {
    any_run = any_run || !source.runs.empty();
  }
  // One path either way; the span name tells the per-layer split whether
  // the column came back from disk.
  DSEQ_TRACE_SPAN("engine", any_run ? "external_merge" : "group_sweep");
  // Source order is the stability contract: per map task, the spilled runs
  // (chronological) and then the resident tail. `sources` is owned here and
  // never resized, so the tail views stay valid: relocating a short (SSO)
  // tail string would move its bytes.
  ExternalMergePlan plan(options.spill_dir, options.compress_shuffle,
                         kSpillMergeFanIn, spill_stats, budget);
  for (ReduceColumnSource& source : sources) {
    for (SpillFile& run : source.runs) plan.AddRun(std::move(run));
    source.runs.clear();
    if (source.tail.empty()) continue;
    std::vector<std::pair<std::string_view, std::string_view>> tail;
    ShuffleBuffer::ForEachRecord(
        source.tail, [&](std::string_view key, std::string_view value) {
          tail.emplace_back(key, value);
        });
    plan.AddSource(std::make_unique<InMemorySource>(std::move(tail)));
  }
  plan.MergeGroups(reduce_group);
}

}  // namespace dseq
