#include "src/spill/external_merger.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/spill/memory_budget.h"
#include "src/util/check.h"

namespace dseq {
namespace {

// Heap entry of the k-way merge: the current record of source `index`.
struct HeadRecord {
  std::string_view key;
  std::string_view value;
  size_t index;
};

// Min-heap on (key, source index): the smallest key wins, ties go to the
// earliest source — the stability guarantee of the merge.
struct HeapGreater {
  bool operator()(const HeadRecord& a, const HeadRecord& b) const {
    if (a.key != b.key) return a.key > b.key;
    return a.index > b.index;
  }
};

// Streams the stable merge of `sources`, calling emit(key, value) per
// record. Views are valid during the call only.
template <typename EmitRecord>
uint64_t MergeSources(const std::vector<RecordSource*>& sources,
                      const EmitRecord& emit) {
  std::vector<HeadRecord> heap;
  heap.reserve(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    HeadRecord head{std::string_view(), std::string_view(), i};
    if (sources[i]->Next(&head.key, &head.value)) heap.push_back(head);
  }
  std::make_heap(heap.begin(), heap.end(), HeapGreater{});
  uint64_t records = 0;
#if DSEQ_DCHECK_IS_ON
  // Merge-order stability: each emitted key must be >= its predecessor, or
  // a source lied about being sorted (an unsorted bucket or run) and the
  // grouping would split keys.
  // The previous key is copied because its backing view dies when its
  // source advances (debug builds only).
  std::string prev_key;
  bool has_prev = false;
#endif
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), HeapGreater{});
    HeadRecord head = heap.back();
    heap.pop_back();
#if DSEQ_DCHECK_IS_ON
    DSEQ_DCHECK_MSG(!has_prev || head.key >= prev_key,
                    "external merge emitted keys out of order (unsorted "
                    "source run?)");
    // Guarded assign: an empty view may legally carry a null data pointer.
    if (head.key.empty()) {
      prev_key.clear();
    } else {
      prev_key.assign(head.key.data(), head.key.size());
    }
    has_prev = true;
#endif
    emit(head.key, head.value);
    ++records;
    // Only now advance the source (Next invalidates the emitted views).
    if (sources[head.index]->Next(&head.key, &head.value)) {
      heap.push_back(head);
      std::push_heap(heap.begin(), heap.end(), HeapGreater{});
    }
  }
  return records;
}

}  // namespace

ExternalMergePlan::ExternalMergePlan(std::string dir, bool compress,
                                     int max_fan_in, SpillStats* stats,
                                     MemoryBudget* budget)
    : dir_(std::move(dir)),
      compress_(compress),
      max_fan_in_(max_fan_in < 2 ? 2 : max_fan_in),
      stats_(stats),
      budget_(budget) {
  // Merge-side memory accounting: each open file-backed source holds up to
  // two block buffers (stored + decoded), so a budget admits roughly
  // budget / (2 * kSpillBlockBytes) concurrently open runs. Clamp the
  // fan-in to that (never below 2 — a 2-way merge is the floor of
  // progress), trading extra collapse passes for bounded reader memory.
  if (budget_ != nullptr && budget_->enabled()) {
    uint64_t affordable = budget_->budget_bytes() / (2 * kSpillBlockBytes);
    if (affordable < static_cast<uint64_t>(max_fan_in_)) {
      max_fan_in_ = affordable < 2 ? 2 : static_cast<int>(affordable);
    }
  }
}

void ExternalMergePlan::AddRun(SpillFile run) {
  sources_.push_back(
      std::make_unique<SpillRunSource>(std::move(run), compress_, budget_));
}

void ExternalMergePlan::AddSource(std::unique_ptr<RecordSource> source) {
  sources_.push_back(std::move(source));
}

void ExternalMergePlan::CollapseToFanIn() {
  // Round-based collapse (O(N log_fan-in N) I/O): each round merges
  // consecutive groups of fan-in sources into one intermediate run each.
  // Groups are contiguous and the merged run takes its group's position,
  // so relative source order — the stability contract — is preserved; the
  // consumed runs are dropped (and their files deleted) group by group.
  while (sources_.size() > static_cast<size_t>(max_fan_in_)) {
    if (dir_.empty()) {
      throw std::runtime_error(
          "external merge fan-in exceeded without a spill directory");
    }
    std::vector<std::unique_ptr<RecordSource>> next;
    next.reserve((sources_.size() + max_fan_in_ - 1) / max_fan_in_);
    for (size_t begin = 0; begin < sources_.size();
         begin += static_cast<size_t>(max_fan_in_)) {
      size_t end = std::min(sources_.size(),
                            begin + static_cast<size_t>(max_fan_in_));
      if (end - begin == 1) {  // lone trailing source passes through
        next.push_back(std::move(sources_[begin]));
        continue;
      }
      std::vector<RecordSource*> group;
      group.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) group.push_back(sources_[i].get());
      SpillFile out = SpillFile::Create(dir_);
      SpillWriter writer(&out, compress_, stats_);
      MergeSources(group, [&](std::string_view key, std::string_view value) {
        writer.Append(key, value);
      });
      writer.Finish();
      if (stats_ != nullptr) {
        stats_->merge_passes.fetch_add(1, std::memory_order_relaxed);
      }
      // Free the consumed runs' disk space before the next group merges.
      for (size_t i = begin; i < end; ++i) sources_[i].reset();
      next.push_back(
          std::make_unique<SpillRunSource>(std::move(out), compress_, budget_));
    }
    sources_ = std::move(next);
  }
}

uint64_t ExternalMergePlan::MergeGroups(const MergeGroupFn& fn) {
  if (sources_.empty()) return 0;
  const bool spilled =
      std::any_of(sources_.begin(), sources_.end(),
                  [](const auto& source) { return source->spilled(); });
  if (spilled) CollapseToFanIn();

  std::vector<RecordSource*> sources;
  sources.reserve(sources_.size());
  for (const auto& source : sources_) sources.push_back(source.get());

  // Group assembly: values are copied into a per-group scratch buffer (the
  // source views die as each source advances), then handed to `fn` as views.
  std::string group_key;
  bool has_group = false;
  std::string value_buf;
  std::vector<std::pair<size_t, size_t>> value_spans;
  std::vector<std::string_view> values;
  auto flush = [&]() {
    values.clear();
    values.reserve(value_spans.size());
    for (const auto& [offset, size] : value_spans) {
      values.emplace_back(value_buf.data() + offset, size);
    }
    fn(group_key, values);
    value_buf.clear();
    value_spans.clear();
  };
  uint64_t records =
      MergeSources(sources, [&](std::string_view key, std::string_view value) {
        if (!has_group || key != group_key) {
          if (has_group) flush();
          group_key.assign(key.data(), key.size());
          has_group = true;
        }
        value_spans.emplace_back(value_buf.size(), value.size());
        value_buf.append(value.data(), value.size());
      });
  if (has_group) flush();
  if (spilled && stats_ != nullptr) {
    stats_->merge_passes.fetch_add(1, std::memory_order_relaxed);
  }
  return records;
}

}  // namespace dseq
