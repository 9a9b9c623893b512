#include "src/dataflow/combiner.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/spill/external_merger.h"
#include "src/util/check.h"
#include "src/util/varint.h"

namespace dseq {
namespace {

/// First table allocation: sized for the unbudgeted hot path, or small
/// under a budget, so a tiny budget can hold a real batch of records
/// instead of thrashing on a table allocation it could never fit.
constexpr size_t kInitialSlots = 1024;
constexpr size_t kBudgetedInitialSlots = 16;

/// Records added between spills while the table is in overdraft (its
/// baseline alone exceeds the budget share): one disk run amortizes at
/// least this many records, so an adversarially tiny budget degrades into
/// batched runs instead of one file per record.
constexpr uint64_t kSpillBatchRecords = 64;

size_t HashBytes(std::string_view s) {
  return std::hash<std::string_view>{}(s);
}

// An empty payload hashes as its key alone, so a count pays one hash, not
// two.
size_t HashRecord(std::string_view key, std::string_view payload) {
  size_t h = HashBytes(key);
  if (payload.empty()) return h;
  return h ^ (HashBytes(payload) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

// The first 8 bytes of `key` as a big-endian integer, zero-padded. Keys
// whose prefixes differ order as their prefixes do; keys that share their
// first 8 bytes tie, and so does a key shorter than 8 bytes with itself
// followed by 0x00 bytes.
uint64_t KeyPrefix(std::string_view key) {
  unsigned char bytes[8] = {};
  if (!key.empty()) {
    std::memcpy(bytes, key.data(), std::min<size_t>(key.size(), 8));
  }
  uint64_t prefix = 0;
  for (unsigned char b : bytes) prefix = prefix << 8 | b;
  return prefix;
}

// Emits (key, varint(sum) + payload), building the value in `*value`.
void EmitRecord(const EmitFn& emit, std::string_view key, uint64_t sum,
                std::string_view payload, std::string* value) {
  value->clear();
  PutVarint(value, sum);
  value->append(payload.data(), payload.size());
  emit(key, *value);
}

uint64_t AddWeight(uint64_t sum, uint64_t weight) {
  if (weight > std::numeric_limits<uint64_t>::max() - sum) {
    throw std::overflow_error("Combiner: weight sum overflows uint64");
  }
  return sum + weight;
}

}  // namespace

void AppendCompositeKey(std::string* out, std::string_view key,
                        std::string_view payload) {
  size_t start = 0;
  for (size_t zero; (zero = key.find('\0', start)) != std::string_view::npos;
       start = zero + 1) {
    out->append(key.data() + start, zero + 1 - start);
    out->push_back('\x01');
  }
  out->append(key.data() + start, key.size() - start);
  if (payload.empty()) return;
  out->append(2, '\0');
  out->append(payload.data(), payload.size());
}

std::pair<std::string_view, std::string_view> SplitCompositeKey(
    std::string_view composite, std::string* scratch) {
  // The key stays a view into `composite` until its first escaped 0x00.
  bool escaped = false;
  size_t start = 0;
  for (;;) {
    size_t zero = composite.find('\0', start);
    size_t end = zero == std::string_view::npos ? composite.size() : zero;
    if (escaped) scratch->append(composite.data() + start, end - start);
    std::string_view key =
        escaped ? std::string_view(*scratch) : composite.substr(0, end);
    if (zero == std::string_view::npos) return {key, {}};
    if (zero + 2 < composite.size() && composite[zero + 1] == '\0') {
      return {key, composite.substr(zero + 2)};
    }
    if (zero + 1 == composite.size() || composite[zero + 1] != '\x01') {
      throw std::runtime_error("Combiner: corrupt spilled composite key");
    }
    if (!escaped) scratch->assign(composite.data(), zero);
    escaped = true;
    scratch->push_back('\0');
    start = zero + 2;
  }
}

Combiner::Combiner(const DataflowOptions& options, MemoryBudget* budget,
                   SpillStats* stats, int map_worker)
    : options_(options),
      budget_(budget),
      stats_(stats),
      map_worker_(map_worker) {}

Combiner::~Combiner() { Reset(); }

void Combiner::Add(std::string_view key, std::string_view value) {
  size_t pos = 0;
  uint64_t weight = 0;
  if (!GetVarint(value, &pos, &weight)) {
    throw std::invalid_argument("Combiner: value lacks a varint weight prefix");
  }
  if (key.size() > std::numeric_limits<uint32_t>::max()) {
    throw std::invalid_argument("Combiner: key larger than 4 GiB");
  }
  std::string_view payload = value.substr(pos);  // view, not a copy
  const size_t hash = HashRecord(key, payload);
  if (size_ * 8 >= slots_.size() * 7) Grow();
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  // Probes compare the cached hash before any bytes.
  while (slots_[i].used &&
         !(slots_[i].hash == hash && slots_[i].key() == key &&
           slots_[i].payload() == payload)) {
    i = (i + 1) & mask;
  }
  Slot& slot = slots_[i];
  if (!slot.used) {
    slot.record = arena_.Intern(key, payload);
    slot.hash = hash;
    slot.key_size = static_cast<uint32_t>(key.size());
    slot.used = true;
    ++size_;
  }
  slot.sum = AddWeight(slot.sum, weight);
  if (budget_->enabled()) ChargeResident();
}

void Combiner::Grow() {
  std::vector<Slot> old = std::move(slots_);
  size_t initial =
      budget_->enabled() ? kBudgetedInitialSlots : kInitialSlots;
  slots_.assign(old.empty() ? initial : old.size() * 2, Slot{});
  size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (!slot.used) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].used) i = (i + 1) & mask;
    slots_[i] = slot;  // interned views stay valid across rehash
  }
}

std::vector<Combiner::SortEntry> Combiner::SortedSlots() const {
  std::vector<SortEntry> live;
  live.reserve(size_);
  for (const Slot& slot : slots_) {
    if (slot.used) live.push_back({KeyPrefix(slot.key()), &slot});
  }
  std::sort(live.begin(), live.end(),
            [](const SortEntry& a, const SortEntry& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              int c = a.slot->key().compare(b.slot->key());
              return c != 0 ? c < 0 : a.slot->payload() < b.slot->payload();
            });
  return live;
}

// Charges the growth of the resident state after an Add, spilling when the
// budget is exhausted (or throwing when spilling is disabled).
void Combiner::ChargeResident() {
  const uint64_t payload_bytes = arena_.bytes();
  const uint64_t resident = payload_bytes + slots_.size() * sizeof(Slot);
  ++records_since_spill_;
  if (resident > charged_) {
    uint64_t delta = resident - charged_;
    if (budget_->TryCharge(delta)) {
      charged_ = resident;
    } else {
      if (options_.spill_dir.empty()) {
        throw ShuffleOverflowError(
            "round " + std::to_string(options_.round_index) + ", map worker " +
            std::to_string(map_worker_) +
            ": combiner state exceeded the memory budget (budget " +
            std::to_string(budget_->budget_bytes()) + " bytes, resident " +
            std::to_string(budget_->used_bytes()) + " bytes, attempted +" +
            std::to_string(delta) +
            " bytes); set spill_dir to spill to disk or raise "
            "memory_budget_bytes");
      }
      // Spill if the run would carry a worthwhile payload; otherwise take
      // the overdraft (bounded by the batch rule below plus the payload cap
      // here) so a budget smaller than the minimum table does not degrade
      // into one-record runs.
      if (records_since_spill_ >= kSpillBatchRecords ||
          payload_bytes >=
              std::min<uint64_t>(budget_->budget_bytes() / 2, 65536)) {
        Spill();
        return;
      }
      budget_->ForceCharge(delta);
      charged_ = resident;
      overdraft_ = true;
    }
  }
  // Periodic drain while over budget: even a table whose resident size has
  // stopped growing (e.g. one hot key absorbing every record) sheds its
  // state every batch, keeping the overdraft honest and bounded.
  if (overdraft_ && records_since_spill_ >= kSpillBatchRecords) Spill();
}

// The table as run records in (key, payload) order: (composite key,
// varint(sum)). A count whose key holds no 0x00 is its own composite
// (AppendCompositeKey) and views the table's arena; the other composites
// and the sums are interned in `scratch`.
std::vector<std::pair<std::string_view, std::string_view>>
Combiner::RunRecords(StringArena* scratch) const {
  std::vector<std::pair<std::string_view, std::string_view>> records;
  records.reserve(size_);
  std::string bytes;
  for (const SortEntry& entry : SortedSlots()) {
    const Slot* slot = entry.slot;
    std::string_view composite = slot->key();
    if (!slot->payload().empty() ||
        composite.find('\0') != std::string_view::npos) {
      bytes.clear();
      AppendCompositeKey(&bytes, slot->key(), slot->payload());
      composite = scratch->Intern(bytes);
    }
    bytes.clear();
    PutVarint(&bytes, slot->sum);
    records.emplace_back(composite, scratch->Intern(bytes));
  }
  return records;
}

// Writes the table as one sorted run and empties it.
void Combiner::Spill() {
  SpillFile run = SpillFile::Create(options_.spill_dir);
  SpillWriter writer(&run, options_.compress_shuffle, stats_);
  StringArena scratch;
  for (const auto& [composite, sum] : RunRecords(&scratch)) {
    writer.Append(composite, sum);
  }
  writer.Finish();
  runs_.push_back(std::move(run));
  Reset();
}

void Combiner::Flush(const EmitFn& emit) {
  std::string value;
  if (!budget_->enabled()) {
    // Unbudgeted hot path: table order, no sort, no extra pass.
    for (const Slot& slot : slots_) {
      if (!slot.used) continue;
      EmitRecord(emit, slot.key(), slot.sum, slot.payload(), &value);
    }
    Reset();
    return;
  }
  // Every budgeted flush, spilled or not and whatever the table capacity,
  // emits one deterministic stream in (key, payload) order.
  const EmitFn* sorted_emit = &emit;
#if DSEQ_DCHECK_IS_ON
  std::string last_key;
  std::string last_payload;
  bool first = true;
  EmitFn checked_emit = [&](std::string_view key, std::string_view record) {
    size_t pos = 0;
    uint64_t sum = 0;
    GetVarint(record, &pos, &sum);
    std::string_view payload = record.substr(pos);
    DSEQ_DCHECK_MSG(first || std::make_pair(std::string_view(last_key),
                                            std::string_view(last_payload)) <
                                 std::make_pair(key, payload),
                    "budgeted combiner flush out of (key, payload) order");
    last_key.assign(key.data(), key.size());
    last_payload.assign(payload.data(), payload.size());
    first = false;
    emit(key, record);
  };
  sorted_emit = &checked_emit;
#endif
  if (runs_.empty()) {
    for (const SortEntry& entry : SortedSlots()) {
      const Slot* slot = entry.slot;
      EmitRecord(*sorted_emit, slot->key(), slot->sum, slot->payload(),
                 &value);
    }
  } else {
    FlushExternal(*sorted_emit);
  }
  Reset();
}

// External aggregation: merges the spilled partial runs with the current
// table, summing equal (key, payload) records — the emitted stream is
// exactly the one-flush in-memory output.
void Combiner::FlushExternal(const EmitFn& emit) {
  // The resident table joins the merge as one more sorted source.
  StringArena scratch;
  auto entries = RunRecords(&scratch);
  ExternalMergePlan plan(options_.spill_dir, options_.compress_shuffle,
                         kSpillMergeFanIn, stats_, budget_);
  for (SpillFile& run : runs_) plan.AddRun(std::move(run));
  runs_.clear();
  if (!entries.empty()) {
    plan.AddSource(std::make_unique<InMemorySource>(std::move(entries)));
  }
  std::string key_scratch;
  std::string value;
  plan.MergeGroups([&](std::string_view composite,
                       std::vector<std::string_view>& partials) {
    uint64_t total = 0;
    for (std::string_view partial : partials) {
      size_t pos = 0;
      uint64_t sum = 0;
      if (!GetVarint(partial, &pos, &sum) || pos != partial.size()) {
        throw std::runtime_error("Combiner: corrupt spilled partial sum");
      }
      total = AddWeight(total, sum);
    }
    auto [key, payload] = SplitCompositeKey(composite, &key_scratch);
    EmitRecord(emit, key, total, payload, &value);
  });
}

// Empties the table and the arena (actually freeing the slot storage: a
// spilled table's memory must really return to the budget) and hands the
// charge back.
void Combiner::Reset() {
  std::vector<Slot>().swap(slots_);
  size_ = 0;
  arena_.Clear();
  if (charged_ > 0) budget_->Release(charged_);
  charged_ = 0;
  overdraft_ = false;
  records_since_spill_ = 0;
}

}  // namespace dseq
