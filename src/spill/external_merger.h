// K-way merge of sorted record runs for out-of-core execution.
//
// An ExternalMergePlan collects sorted record sources — spilled runs on
// disk (SpillRunSource) and in-memory sorted buckets (InMemorySource) — and
// streams their stable merge back as key groups. It is the engine's one
// reduce-side grouping: every column, spilled or not, goes through it.
// Stability: on equal keys, sources drain in the order they were added, and
// each source yields its own records in order — so a column added as
// [worker 0 runs..., worker 0 tail, worker 1 runs..., ...] delivers each
// key's values in (map worker, emit) order.
//
// When a plan holds a spilled run and the number of sources exceeds the
// merge fan-in, sources collapse in rounds: each round merges consecutive
// groups of fan-in sources into intermediate runs that take their group's
// place (classic multi-pass external sort, O(N log_fan-in N) I/O; groups
// are contiguous, so stability is preserved, and consumed runs are deleted
// as soon as their group is merged). Every k-way merge — intermediate or
// final — over spilled data counts one merge pass in SpillStats. A plan of
// in-memory sources alone opens no file, so it merges them all in one
// in-memory pass: no fan-in limit, no intermediate run, no pass counted.
//
// Memory: one block per file-backed source plus the values of the current
// group; never a whole run, never the whole column. Open files: a run is
// opened when a merge pass first reads it, so at most one pass's fan-in of
// runs is open at once, however many runs the plan holds.
#ifndef DSEQ_SPILL_EXTERNAL_MERGER_H_
#define DSEQ_SPILL_EXTERNAL_MERGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/spill/spill_file.h"

namespace dseq {

/// A stream of (key, value) records in nondecreasing key order. Views are
/// valid until the next Next() call on the same source.
class RecordSource {
 public:
  virtual ~RecordSource() = default;
  virtual bool Next(std::string_view* key, std::string_view* value) = 0;
  /// True when the records are read back from a spill file.
  virtual bool spilled() const { return false; }
};

/// RecordSource over a finished spill run. The owning constructor takes
/// the run's backing file with it, so dropping the source (e.g. once an
/// intermediate merge consumed the run) deletes the file immediately.
/// `budget` (may be null) is handed to the reader, which charges its block
/// buffers against it while the source is alive, from the first Next() on
/// (the reader opens the run then).
class SpillRunSource : public RecordSource {
 public:
  SpillRunSource(const SpillFile& run, bool compressed,
                 MemoryBudget* budget = nullptr)
      : reader_(run, compressed, budget) {}
  SpillRunSource(SpillFile&& run, bool compressed,
                 MemoryBudget* budget = nullptr)
      : owned_(std::make_unique<SpillFile>(std::move(run))),
        reader_(*owned_, compressed, budget) {}
  bool Next(std::string_view* key, std::string_view* value) override {
    return reader_.Next(key, value);
  }
  bool spilled() const override { return true; }

 private:
  // Declared before the reader: the reader closes its handle before the
  // backing file is removed.
  std::unique_ptr<SpillFile> owned_;
  SpillRunReader reader_;
};

/// RecordSource over caller-owned views, already in sort order (e.g. the
/// records of a bucket sorted at seal). The viewed bytes must outlive the
/// source.
class InMemorySource : public RecordSource {
 public:
  explicit InMemorySource(
      std::vector<std::pair<std::string_view, std::string_view>> entries)
      : entries_(std::move(entries)) {}
  bool Next(std::string_view* key, std::string_view* value) override {
    if (pos_ >= entries_.size()) return false;
    *key = entries_[pos_].first;
    *value = entries_[pos_].second;
    ++pos_;
    return true;
  }

 private:
  std::vector<std::pair<std::string_view, std::string_view>> entries_;
  size_t pos_ = 0;
};

/// Called once per distinct key, keys ascending; `values` is scratch (the
/// callee may reorder it) and the views are valid only during the call —
/// the contract of the engine's ReduceFn.
using MergeGroupFn = std::function<void(std::string_view key,
                                        std::vector<std::string_view>& values)>;

/// Maximum runs the engine's merges (reduce columns, combiner flushes)
/// take per k-way pass; more runs collapse in extra passes
/// (DataflowMetrics::spill_merge_passes). A budget can lower it further (see
/// ExternalMergePlan).
inline constexpr int kSpillMergeFanIn = 16;

/// One merge job: add sources in priority order, then stream the groups.
class ExternalMergePlan {
 public:
  /// `dir` is where intermediate runs go when the fan-in forces extra
  /// passes (required unless the plan holds no spilled run or the source
  /// count stays within the fan-in);
  /// `stats` may be null. `budget` (may be null) charges the merge-side
  /// read buffers against the round's MemoryBudget: each file-backed
  /// source's resident blocks are charged while it is open, and the
  /// effective fan-in is clamped so at most ~budget/(2*kSpillBlockBytes)
  /// runs are open per pass (never below 2) — a tight budget trades extra
  /// merge passes for bounded memory instead of silently exceeding it.
  ExternalMergePlan(std::string dir, bool compress, int max_fan_in,
                    SpillStats* stats, MemoryBudget* budget = nullptr);

  /// Takes ownership of a finished run and registers it as the next source.
  void AddRun(SpillFile run);
  void AddSource(std::unique_ptr<RecordSource> source);

  size_t num_sources() const { return sources_.size(); }

  /// Streams the stable merge of all sources as key groups. Single use.
  /// Returns the number of records merged.
  uint64_t MergeGroups(const MergeGroupFn& fn);

 private:
  void CollapseToFanIn();

  std::string dir_;
  bool compress_;
  int max_fan_in_;
  SpillStats* stats_;
  MemoryBudget* budget_;
  // Every file-backed source owns its run (SpillRunSource), so dropping a
  // consumed source removes its file from disk.
  std::vector<std::unique_ptr<RecordSource>> sources_;
};

}  // namespace dseq

#endif  // DSEQ_SPILL_EXTERNAL_MERGER_H_
