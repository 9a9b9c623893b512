#include "src/dataflow/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/dataflow/map_shard.h"
#include "src/dataflow/shuffle_buffer.h"
#include "src/obs/trace.h"
#include "src/spill/external_merger.h"
#include "src/spill/memory_budget.h"
#include "src/spill/spill_context.h"
#include "src/spill/spill_file.h"
#include "src/util/arena.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"
#include "src/util/varint.h"

namespace dseq {
namespace {

// The combiners aggregate into open-addressing tables (power-of-two
// capacity, linear probing, growth at 7/8 load) whose string keys are views
// into a StringArena — one bulk copy per distinct key instead of a heap
// allocation per record.

inline size_t HashBytes(std::string_view s) {
  return std::hash<std::string_view>{}(s);
}

// Shared open-addressing machinery of the combiners. Slot requires `used`
// (bool) and `hash` (size_t); the hash is cached so probes compare hashes
// before bytes and growth rehashes without touching the interned views.
template <typename Slot>
class CombinerTable {
 public:
  /// Returns the slot for `hash`, probing with `equals(slot)` on cached-hash
  /// matches; on a miss, inserts a slot initialized by `init(slot)`.
  template <typename Eq, typename Init>
  Slot& FindOrInsert(size_t hash, const Eq& equals, const Init& init) {
    if (size_ * 8 >= slots_.size() * 7) Grow();
    size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].used) {
      if (slots_[i].hash == hash && equals(slots_[i])) return slots_[i];
      i = (i + 1) & mask;
    }
    slots_[i].used = true;
    slots_[i].hash = hash;
    init(slots_[i]);
    ++size_;
    return slots_[i];
  }

  const std::vector<Slot>& slots() const { return slots_; }

  /// First allocation size (default 1024 slots, sized for the unbudgeted
  /// hot path). Budget-constrained combiners start small so a tiny memory
  /// budget can hold a real batch of records instead of thrashing on a
  /// table allocation it could never fit.
  void set_initial_capacity(size_t slots) { initial_capacity_ = slots; }

  /// Actually frees the slot storage (not just clear()): Clear is called
  /// when a table is spilled, and a spilled table's memory must really
  /// return to the budget.
  void Clear() {
    std::vector<Slot>().swap(slots_);
    size_ = 0;
  }

 private:
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? initial_capacity_ : old.size() * 2, Slot{});
    size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (!slot.used) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].used) i = (i + 1) & mask;
      slots_[i] = slot;  // interned views stay valid across rehash
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t initial_capacity_ = 1024;
};

/// Initial table capacity of budget-constrained combiners (see
/// CombinerTable::set_initial_capacity).
constexpr size_t kSpillInitialSlots = 16;

// Budget charging + spill-run bookkeeping shared by the spill-aware
// combiners. Subclasses report their resident bytes after every Add; when
// the shared budget cannot absorb the growth they spill their table as a
// sorted partial run (SpillPartial) and Flush external-merges the runs so
// the emitted records equal the in-memory path's fully-combined output.
class SpillableCombiner : public Combiner {
 public:
  void EnableSpill(CombinerSpillContext* ctx) override { ctx_ = ctx; }

 protected:
  ~SpillableCombiner() override { ReleaseCharge(); }

  /// Writes the current table as a sorted run into runs_ and clears it.
  virtual void SpillPartial() = 0;

  bool has_runs() const { return !runs_.empty(); }
  bool spilling() const { return ctx_ != nullptr; }

  /// Records added between spills while the table is in overdraft (its
  /// baseline alone exceeds the budget share): one disk run amortizes at
  /// least this many records, so an adversarially tiny budget degrades
  /// into batched runs instead of one file per record.
  static constexpr uint64_t kSpillBatchRecords = 64;

  /// Charges the growth of the resident state after an Add, spilling when
  /// the budget is exhausted (or throwing when spilling is disabled).
  /// `payload_bytes` is the interned record payload (the part of the
  /// resident state a spill actually turns into run bytes, as opposed to
  /// the slot-array baseline).
  void ChargeResident(size_t resident_bytes, size_t payload_bytes) {
    if (ctx_ == nullptr) return;
    ++records_since_spill_;
    if (resident_bytes > charged_) {
      uint64_t delta = resident_bytes - charged_;
      if (ctx_->budget->TryCharge(delta)) {
        charged_ = resident_bytes;
      } else {
        if (!ctx_->can_spill()) {
          throw ShuffleOverflowError(
              "round " + std::to_string(ctx_->round_index) + ", map worker " +
              std::to_string(ctx_->map_worker) +
              ": combiner state exceeded the memory budget (budget " +
              std::to_string(ctx_->budget->budget_bytes()) +
              " bytes, resident " +
              std::to_string(ctx_->budget->used_bytes()) + " bytes, attempted +" +
              std::to_string(delta) +
              " bytes); set spill_dir to spill to disk or raise "
              "memory_budget_bytes");
        }
        // Spill if the run would carry a worthwhile payload; otherwise take
        // the overdraft (bounded by the batch rule below plus the payload
        // cap here) so a budget smaller than the minimum table does not
        // degrade into one-record runs.
        if (records_since_spill_ >= kSpillBatchRecords ||
            payload_bytes >= std::min<uint64_t>(
                                 ctx_->budget->budget_bytes() / 2, 65536)) {
          Spill();
          return;
        }
        ctx_->budget->ForceCharge(delta);
        charged_ = resident_bytes;
        overdraft_ = true;
      }
    }
    // Periodic drain while over budget: even a table whose resident size
    // has stopped growing (e.g. one hot key absorbing every record) sheds
    // its state every batch, keeping the overdraft honest and bounded.
    if (overdraft_ && records_since_spill_ >= kSpillBatchRecords) Spill();
  }

  void ReleaseCharge() {
    if (ctx_ != nullptr && charged_ > 0) {
      ctx_->budget->Release(charged_);
      charged_ = 0;
    }
    overdraft_ = false;
    records_since_spill_ = 0;
  }

  void Spill() {
    SpillPartial();  // clears the table and calls ReleaseCharge
    overdraft_ = false;
    records_since_spill_ = 0;
  }

  /// Writes `entries` (already in run order; views must stay valid for the
  /// call) as one sorted run and registers it.
  void WriteRun(
      const std::vector<std::pair<std::string_view, std::string_view>>&
          entries) {
    SpillFile run = SpillFile::Create(ctx_->spill_dir);
    SpillWriter writer(&run, ctx_->compress_spill, ctx_->stats);
    for (const auto& [key, value] : entries) writer.Append(key, value);
    writer.Finish();
    runs_.push_back(std::move(run));
  }

  /// Merge plan over all spilled runs (consumed) — the caller adds its
  /// in-memory tail and streams the groups.
  ExternalMergePlan MakeMergePlan() {
    ExternalMergePlan plan(ctx_->spill_dir, ctx_->compress_spill,
                           ctx_->merge_fan_in, ctx_->stats, ctx_->budget);
    for (SpillFile& run : runs_) plan.AddRun(std::move(run));
    runs_.clear();
    return plan;
  }

 private:
  CombinerSpillContext* ctx_ = nullptr;
  uint64_t charged_ = 0;
  uint64_t records_since_spill_ = 0;
  bool overdraft_ = false;
  std::vector<SpillFile> runs_;
};

class SumCombiner : public SpillableCombiner {
 public:
  void EnableSpill(CombinerSpillContext* ctx) override {
    SpillableCombiner::EnableSpill(ctx);
    table_.set_initial_capacity(kSpillInitialSlots);
  }

  void Add(std::string_view key, std::string_view value) override {
    size_t pos = 0;
    uint64_t count = 0;
    // A malformed count must fail loudly: silently treating it as 1 (or
    // skipping it) would miscount supports downstream.
    if (!GetVarint(value, &pos, &count) || pos != value.size()) {
      throw std::invalid_argument(
          "SumCombiner: value is not a single varint count");
    }
    Slot& slot = table_.FindOrInsert(
        HashBytes(key), [&](const Slot& s) { return s.key == key; },
        [&](Slot& s) { s.key = arena_.Intern(key); });
    if (count > std::numeric_limits<uint64_t>::max() - slot.sum) {
      throw std::overflow_error("SumCombiner: per-key count sum overflows");
    }
    slot.sum += count;
    ChargeResident(arena_.bytes() + table_.slots().size() * sizeof(Slot),
                   arena_.bytes());
  }

  void Flush(const EmitFn& emit) override {
    if (has_runs()) {
      FlushExternal(emit);
    } else if (spilling()) {
      // Key-sorted, exactly like the external path: every budgeted run
      // (spilled or not, whatever the table capacity) emits one
      // deterministic stream.
      std::string values;
      for (const auto& [key, value] : SortedEntries(&values)) {
        emit(key, value);
      }
    } else {
      // Unbudgeted hot path: table order, no sort, no extra pass. Flush
      // order is per-run deterministic but unspecified across
      // configurations (it already varies with sharding), and RunMapShard
      // sorts each bucket by key when it seals it anyway.
      std::string value;
      for (const Slot& slot : table_.slots()) {
        if (!slot.used) continue;
        value.clear();
        PutVarint(&value, slot.sum);
        emit(slot.key, value);
      }
    }
    table_.Clear();
    arena_.Clear();
    ReleaseCharge();
  }

 private:
  struct Slot {
    std::string_view key;
    size_t hash = 0;
    uint64_t sum = 0;
    bool used = false;
  };

  // Current table as (key, varint(sum)) entries sorted by key; `values`
  // backs the value views.
  std::vector<std::pair<std::string_view, std::string_view>> SortedEntries(
      std::string* values) const {
    std::vector<const Slot*> live;
    for (const Slot& slot : table_.slots()) {
      if (slot.used) live.push_back(&slot);
    }
    std::sort(live.begin(), live.end(),
              [](const Slot* a, const Slot* b) { return a->key < b->key; });
    std::vector<std::pair<size_t, size_t>> spans;
    spans.reserve(live.size());
    for (const Slot* slot : live) {
      size_t offset = values->size();
      PutVarint(values, slot->sum);
      spans.emplace_back(offset, values->size() - offset);
    }
    std::vector<std::pair<std::string_view, std::string_view>> entries;
    entries.reserve(live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      entries.emplace_back(
          live[i]->key,
          std::string_view(values->data() + spans[i].first, spans[i].second));
    }
    return entries;
  }

  void SpillPartial() override {
    std::string values;
    WriteRun(SortedEntries(&values));
    table_.Clear();
    arena_.Clear();
    ReleaseCharge();
  }

  // External aggregation: merge the spilled partial runs with the current
  // table, summing equal keys — the emitted stream is exactly the one-flush
  // in-memory output (same records, key-sorted order).
  void FlushExternal(const EmitFn& emit) {
    std::string values;
    auto entries = SortedEntries(&values);
    ExternalMergePlan plan = MakeMergePlan();
    if (!entries.empty()) {
      plan.AddSource(std::make_unique<InMemorySource>(std::move(entries)));
    }
    std::string value;
    plan.MergeGroups([&](std::string_view key,
                         std::vector<std::string_view>& partials) {
      uint64_t total = 0;
      for (std::string_view partial : partials) {
        size_t pos = 0;
        uint64_t sum = 0;
        if (!GetVarint(partial, &pos, &sum) || pos != partial.size()) {
          throw std::runtime_error("SumCombiner: corrupt spilled partial sum");
        }
        if (sum > std::numeric_limits<uint64_t>::max() - total) {
          throw std::overflow_error(
              "SumCombiner: per-key count sum overflows");
        }
        total += sum;
      }
      value.clear();
      PutVarint(&value, total);
      emit(key, value);
    });
  }

  CombinerTable<Slot> table_;
  StringArena arena_;
};

class WeightedValueCombiner : public SpillableCombiner {
 public:
  void EnableSpill(CombinerSpillContext* ctx) override {
    SpillableCombiner::EnableSpill(ctx);
    table_.set_initial_capacity(kSpillInitialSlots);
  }

  void Add(std::string_view key, std::string_view value) override {
    size_t pos = 0;
    uint64_t weight = 0;
    if (!GetVarint(value, &pos, &weight)) {
      throw std::invalid_argument(
          "WeightedValueCombiner: value lacks a varint weight prefix");
    }
    std::string_view payload = value.substr(pos);  // view, not a copy
    Slot& slot = table_.FindOrInsert(
        HashPair(key, payload),
        [&](const Slot& s) { return s.key == key && s.payload == payload; },
        [&](Slot& s) {
          s.key = arena_.Intern(key);
          s.payload = arena_.Intern(payload);
        });
    if (weight > std::numeric_limits<uint64_t>::max() - slot.sum) {
      throw std::overflow_error(
          "WeightedValueCombiner: per-value weight sum overflows");
    }
    slot.sum += weight;
    ChargeResident(arena_.bytes() + table_.slots().size() * sizeof(Slot),
                   arena_.bytes());
  }

  void Flush(const EmitFn& emit) override {
    if (has_runs()) {
      FlushExternal(emit);
    } else if (spilling()) {
      // Composite-sorted, exactly like the external path (and independent
      // of the table capacity): every budgeted run emits one deterministic
      // stream.
      std::string bytes;
      std::string value;
      for (const auto& [composite, sum] : SortedEntries(&bytes)) {
        auto [key, payload] = CompositeParts(composite);
        value.assign(sum.data(), sum.size());
        value.append(payload.data(), payload.size());
        emit(key, value);
      }
    } else {
      // Unbudgeted hot path: table order, no encode, no sort (see
      // SumCombiner::Flush).
      std::string value;
      for (const Slot& slot : table_.slots()) {
        if (!slot.used) continue;
        value.clear();
        PutVarint(&value, slot.sum);
        value.append(slot.payload.data(), slot.payload.size());
        emit(slot.key, value);
      }
    }
    table_.Clear();
    arena_.Clear();
    ReleaseCharge();
  }

 private:
  struct Slot {
    std::string_view key;
    std::string_view payload;
    size_t hash = 0;
    uint64_t sum = 0;
    bool used = false;
  };

  static size_t HashPair(std::string_view key, std::string_view payload) {
    size_t h = HashBytes(key);
    return h ^ (HashBytes(payload) + 0x9e3779b97f4a7c15ULL + (h << 6) +
                (h >> 2));
  }

  // The merge identity is (key, payload), so spill records carry a
  // self-framing composite sort key: varint(key size) + key + payload. Any
  // consistent total order that makes equal identities adjacent works; the
  // original record is recovered by CompositeParts.
  static void AppendComposite(std::string* out, std::string_view key,
                              std::string_view payload) {
    PutVarint(out, key.size());
    out->append(key.data(), key.size());
    if (!payload.empty()) out->append(payload.data(), payload.size());
  }

  static std::pair<std::string_view, std::string_view> CompositeParts(
      std::string_view composite) {
    size_t pos = 0;
    uint64_t key_size = 0;
    if (!GetVarint(composite, &pos, &key_size) ||
        key_size > composite.size() - pos) {
      throw std::runtime_error(
          "WeightedValueCombiner: corrupt spilled composite key");
    }
    return {composite.substr(pos, key_size), composite.substr(pos + key_size)};
  }

  // Current table as (composite key, varint(sum)) entries in composite
  // order; `bytes` backs both views.
  std::vector<std::pair<std::string_view, std::string_view>> SortedEntries(
      std::string* bytes) const {
    std::vector<const Slot*> live;
    for (const Slot& slot : table_.slots()) {
      if (slot.used) live.push_back(&slot);
    }
    std::vector<std::pair<size_t, size_t>> key_spans;  // offset, size
    std::vector<std::pair<size_t, size_t>> value_spans;
    key_spans.reserve(live.size());
    value_spans.reserve(live.size());
    for (const Slot* slot : live) {
      size_t offset = bytes->size();
      AppendComposite(bytes, slot->key, slot->payload);
      key_spans.emplace_back(offset, bytes->size() - offset);
      offset = bytes->size();
      PutVarint(bytes, slot->sum);
      value_spans.emplace_back(offset, bytes->size() - offset);
    }
    std::vector<std::pair<std::string_view, std::string_view>> entries;
    entries.reserve(live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      entries.emplace_back(
          std::string_view(bytes->data() + key_spans[i].first,
                           key_spans[i].second),
          std::string_view(bytes->data() + value_spans[i].first,
                           value_spans[i].second));
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return entries;
  }

  void SpillPartial() override {
    std::string bytes;
    WriteRun(SortedEntries(&bytes));
    table_.Clear();
    arena_.Clear();
    ReleaseCharge();
  }

  void FlushExternal(const EmitFn& emit) {
    std::string bytes;
    auto entries = SortedEntries(&bytes);
    ExternalMergePlan plan = MakeMergePlan();
    if (!entries.empty()) {
      plan.AddSource(std::make_unique<InMemorySource>(std::move(entries)));
    }
    std::string value;
    plan.MergeGroups([&](std::string_view composite,
                         std::vector<std::string_view>& partials) {
      uint64_t total = 0;
      for (std::string_view partial : partials) {
        size_t pos = 0;
        uint64_t sum = 0;
        if (!GetVarint(partial, &pos, &sum) || pos != partial.size()) {
          throw std::runtime_error(
              "WeightedValueCombiner: corrupt spilled partial weight");
        }
        if (sum > std::numeric_limits<uint64_t>::max() - total) {
          throw std::overflow_error(
              "WeightedValueCombiner: per-value weight sum overflows");
        }
        total += sum;
      }
      auto [key, payload] = CompositeParts(composite);
      value.clear();
      PutVarint(&value, total);
      value.append(payload.data(), payload.size());
      emit(key, value);
    });
  }

  CombinerTable<Slot> table_;
  StringArena arena_;
};

}  // namespace

int ShuffleReducerForKey(std::string_view key, int num_reduce_workers) {
  return static_cast<int>(HashBytes(key) %
                          static_cast<size_t>(ClampWorkers(num_reduce_workers)));
}

void DataflowMetrics::Accumulate(const DataflowMetrics& other) {
  map_seconds += other.map_seconds;
  reduce_seconds += other.reduce_seconds;
  shuffle_bytes += other.shuffle_bytes;
  shuffle_compressed_bytes += other.shuffle_compressed_bytes;
  shuffle_records += other.shuffle_records;
  map_output_records += other.map_output_records;
  if (other.reducer_bytes.size() > reducer_bytes.size()) {
    reducer_bytes.resize(other.reducer_bytes.size(), 0);
  }
  for (size_t r = 0; r < other.reducer_bytes.size(); ++r) {
    reducer_bytes[r] += other.reducer_bytes[r];
  }
  spill_files += other.spill_files;
  spill_bytes_written += other.spill_bytes_written;
  spill_merge_passes += other.spill_merge_passes;
  input_storage_reads += other.input_storage_reads;
  input_cache_hits += other.input_cache_hits;
  proc_task_attempts += other.proc_task_attempts;
  proc_task_retries += other.proc_task_retries;
  proc_worker_kills += other.proc_worker_kills;
  proc_workers_respawned += other.proc_workers_respawned;
  proc_segment_chunks += other.proc_segment_chunks;
  proc_parked_tails += other.proc_parked_tails;
}

InputReads& ThreadInputReads() {
  thread_local InputReads reads;
  return reads;
}

std::unique_ptr<Combiner> MakeSumCombiner() {
  return std::make_unique<SumCombiner>();
}

std::unique_ptr<Combiner> MakeWeightedValueCombiner() {
  return std::make_unique<WeightedValueCombiner>();
}

namespace {

// Runs `fn(worker)` for workers 0..n-1 under the configured execution mode
// and returns the phase duration: wall time for threads, the critical path
// (max per-worker busy time) for the cluster simulation.
double RunPhase(int num_workers, Execution execution,
                const std::function<void(int)>& fn) {
  if (execution == Execution::kSimulated) {
    double critical_path = 0.0;
    for (int w = 0; w < num_workers; ++w) {
      auto start = obs::Now();
      fn(w);
      critical_path = std::max(critical_path, obs::SecondsSince(start));
    }
    return critical_path;
  }
  auto start = obs::Now();
  ParallelWorkers(num_workers, fn);
  return obs::SecondsSince(start);
}

}  // namespace

DataflowMetrics RunMapReduce(size_t num_inputs, const MapFn& map_fn,
                             const CombinerFactory& combiner_factory,
                             const ReduceFn& reduce_fn,
                             const DataflowOptions& options) {
  if (options.backend != DataflowBackend::kLocal) {
    throw std::invalid_argument(
        "RunMapReduce only executes the local backend; run proc-backend "
        "rounds through DataflowJob (src/dataflow/chained.h)");
  }
  DataflowMetrics metrics;
  int map_workers = ClampWorkers(options.num_map_workers);
  int reduce_workers = ClampWorkers(options.num_reduce_workers);

  // buckets[map_worker][reduce_worker] -> one byte arena of varint-framed
  // records destined for that reducer.
  std::vector<std::vector<ShuffleBuffer>> buckets(map_workers);
  for (auto& row : buckets) row.resize(reduce_workers);
  // The shuffle-budget counter is shared by all map workers (the budget
  // bounds their sum); every other map-side counter is per shard, summed
  // after the phase.
  std::atomic<uint64_t> shuffle_bytes{0};
  std::vector<DataflowMetrics> shard_metrics(map_workers);

  // Out-of-core state: the shared budget, the spill counters, the sorted
  // runs spilled per bucket (chronological), and the bytes each resident
  // bucket has charged. All locals, so a failed round unwinds through the
  // SpillFile destructors and leaves the spill directory empty.
  MemoryBudget budget(options.memory_budget_bytes);
  const bool spill_enabled = budget.enabled() && !options.spill_dir.empty();
  SpillStats spill_stats;
  std::vector<std::vector<std::vector<SpillFile>>> spill_runs(map_workers);
  std::vector<std::vector<uint64_t>> bucket_charged(
      map_workers, std::vector<uint64_t>(reduce_workers, 0));
  std::vector<CombinerSpillContext> combiner_contexts(map_workers);
  if (budget.enabled()) {
    for (auto& runs : spill_runs) runs.resize(reduce_workers);
    for (int w = 0; w < map_workers; ++w) {
      CombinerSpillContext& ctx = combiner_contexts[w];
      ctx.spill_dir = options.spill_dir;
      ctx.compress_spill = options.compress_spill;
      ctx.merge_fan_in = options.spill_merge_fan_in;
      ctx.budget = &budget;
      ctx.stats = &spill_stats;
      ctx.round_index = options.round_index;
      ctx.map_worker = w;
    }
  }

  size_t shard = (num_inputs + map_workers - 1) / map_workers;
  obs::SetCurrentRound(options.round_index);
  metrics.map_seconds = RunPhase(map_workers, options.execution, [&](int w) {
    DSEQ_TRACE_SPAN("engine", "map_shard");
    // The shard body lives in map_shard.cc, shared verbatim with the proc
    // backend's worker processes — that sharing is the byte-identity
    // contract between the two backends.
    MapShardContext ctx;
    ctx.options = &options;
    ctx.map_worker = w;
    ctx.reduce_workers = reduce_workers;
    ctx.begin = std::min(num_inputs, static_cast<size_t>(w) * shard);
    ctx.end = std::min(num_inputs, ctx.begin + shard);
    ctx.map_fn = &map_fn;
    ctx.combiner_factory = &combiner_factory;
    ctx.buckets = buckets[w].data();
    ctx.spill_runs = budget.enabled() ? spill_runs[w].data() : nullptr;
    ctx.bucket_charged = bucket_charged[w].data();
    ctx.budget = &budget;
    ctx.spill_stats = &spill_stats;
    ctx.combiner_ctx = budget.enabled() ? &combiner_contexts[w] : nullptr;
    ctx.shuffle_bytes = &shuffle_bytes;
    ctx.metrics = &shard_metrics[w];
    RunMapShard(ctx);
  });
  // The map workers that wrote the shard metrics were joined in RunPhase.
  for (const DataflowMetrics& m : shard_metrics) metrics.Accumulate(m);

  // Reduce: each reduce worker takes ownership of the bucket column hashed
  // to it — per map worker, the spilled runs and the resident tail — and
  // hands it to RunReduceColumn, the body shared with the proc backend's
  // reduce workers. The drained arenas die with the worker, so the
  // shuffle's memory is freed worker by worker, not at the end of the phase.
  metrics.reduce_seconds =
      RunPhase(reduce_workers, options.execution, [&](int r) {
        DSEQ_TRACE_SPAN("engine", "reduce_shard");
        // The column's residency now belongs to this worker and dies with
        // it; hand the charges back to the budget up front.
        if (budget.enabled()) {
          for (int w = 0; w < map_workers; ++w) {
            budget.Release(bucket_charged[w][r]);
            bucket_charged[w][r] = 0;
          }
        }
        std::vector<ReduceColumnSource> sources(map_workers);
        for (int w = 0; w < map_workers; ++w) {
          if (spill_enabled) sources[w].runs.swap(spill_runs[w][r]);
          sources[w].tail = buckets[w][r].ReleaseRaw();
        }
        RunReduceColumn(
            std::move(sources), options, &spill_stats, &budget,
            [&](std::string_view key, std::vector<std::string_view>& values) {
              reduce_fn(r, key, values);
            });
      });
  // Relaxed: both phases' workers are joined by the time the stats are read.
  metrics.spill_files = spill_stats.files.load(std::memory_order_relaxed);
  metrics.spill_bytes_written =
      spill_stats.bytes_written.load(std::memory_order_relaxed);
  metrics.spill_merge_passes =
      spill_stats.merge_passes.load(std::memory_order_relaxed);
  // Round teardown: every bucket must have been drained by its reduce
  // worker (its live-gauge contribution is then zero — the per-round form
  // of the ShuffleBufferLiveBytes()==0 contract the RAII tests assert), its
  // budget charge handed back, and every spilled run consumed by a merge.
  for (int w = 0; w < map_workers; ++w) {
    for (int r = 0; r < reduce_workers; ++r) {
      DSEQ_DCHECK_MSG(buckets[w][r].data_bytes() == 0,
                      "shuffle bucket not drained at round teardown");
      if (budget.enabled()) {
        DSEQ_DCHECK_MSG(bucket_charged[w][r] == 0,
                        "bucket budget charge not released at round teardown");
        DSEQ_DCHECK_MSG(spill_runs[w][r].empty(),
                        "spilled run not consumed at round teardown");
      }
    }
  }
  return metrics;
}

}  // namespace dseq
