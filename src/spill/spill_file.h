// RAII spill files and sorted-run I/O for out-of-core execution.
//
// A SpillFile is one temp file in the job's spill directory; it removes its
// backing file on destruction, including exception paths, so a dead run
// never leaves droppings behind. A SpillWriter streams a *sorted run* of
// (key, value) records into a SpillFile; a SpillRunReader streams it back.
//
// On-disk layout: a sequence of length-framed blocks,
//
//   varint(stored_size) + stored bytes
//
// where `stored` is a chunk of varint-framed records — varint(key size),
// varint(value size), key, value, exactly the ShuffleBuffer frame — run
// through the block codec (src/util/block_codec.h) when the run is
// compressed. Records never straddle a block, so a reader needs one block
// of memory, not the whole run. Whether a run is compressed is a property
// of the job (DataflowOptions::compress_shuffle), not recorded per file.
#ifndef DSEQ_SPILL_SPILL_FILE_H_
#define DSEQ_SPILL_SPILL_FILE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace dseq {

class MemoryBudget;  // src/spill/memory_budget.h

/// Target frame bytes per stored block. A record larger than this still goes
/// into a single (oversized) block — records never straddle blocks. Exposed
/// so the external merger can size its per-source read-buffer footprint
/// against a MemoryBudget.
inline constexpr size_t kSpillBlockBytes = 64 * 1024;

/// Spill-volume counters of one dataflow round, shared by the engine's
/// bucket spills and the combiners' table spills. Feed the
/// DataflowMetrics::spill_* fields.
struct SpillStats {
  std::atomic<uint64_t> files{0};          // sorted runs written
  std::atomic<uint64_t> bytes_written{0};  // stored bytes incl. block framing
  std::atomic<uint64_t> merge_passes{0};   // k-way merges over spilled runs
};

/// One temp file under the spill directory. Move-only; the destructor closes
/// and removes the backing file (RAII hygiene: a failed round must leave the
/// spill directory empty).
class SpillFile {
 public:
  /// Creates a fresh, uniquely named file in `dir` open for writing. Throws
  /// std::runtime_error if the file cannot be created (missing or
  /// unwritable directory).
  static SpillFile Create(const std::string& dir);

  SpillFile(SpillFile&& other) noexcept;
  SpillFile& operator=(SpillFile&& other) noexcept;
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  ~SpillFile();

  const std::string& path() const { return path_; }
  uint64_t stored_bytes() const { return stored_bytes_; }

  /// Appends raw bytes to the write handle. Throws std::runtime_error on
  /// I/O failure (e.g. a full disk).
  void Append(const void* data, size_t size);

  /// Flushes and closes the write handle; the file stays on disk for
  /// readers until destruction. Idempotent.
  void FinishWrite();

 private:
  SpillFile(std::string path, std::FILE* write_handle)
      : path_(std::move(path)), write_handle_(write_handle) {}

  std::string path_;
  std::FILE* write_handle_ = nullptr;
  uint64_t stored_bytes_ = 0;
};

/// Streams a sorted run into a SpillFile. The caller appends records in the
/// run's sort order (the writer does not check); Finish() flushes the tail
/// block, closes the file for writing, and records the run in `stats`.
class SpillWriter {
 public:
  /// `stats` may be null (unit tests).
  SpillWriter(SpillFile* file, bool compress, SpillStats* stats);

  void Append(std::string_view key, std::string_view value);

  /// Returns the total stored bytes of the run. Must be called exactly once
  /// before the run is read.
  uint64_t Finish();

  uint64_t num_records() const { return num_records_; }

 private:
  void FlushBlock();

  SpillFile* file_;
  bool compress_;
  SpillStats* stats_;
  std::string block_;
  uint64_t num_records_ = 0;
  bool finished_ = false;
};

/// Streams a finished run back as (key, value) views. Views point into the
/// reader's current block and are valid until the next Next() call. Each
/// reader opens the file independently, so a run can be read any number of
/// times (and concurrently). Throws std::runtime_error on malformed or
/// truncated runs — spill files never cross a trust boundary, but disk
/// corruption must fail loudly, exactly like the shuffle codecs.
class SpillRunReader {
 public:
  /// The run is opened by the first Next(), not here: a merge plan holds a
  /// reader per run, and only the runs a merge pass reads may hold a file
  /// descriptor, so a column with more runs than the process may open
  /// files still merges.
  /// `budget` (may be null) is charged with the reader's actual block-buffer
  /// footprint while the reader is alive — merge-side memory is accounted,
  /// not free. The charge uses ForceCharge semantics when the budget is
  /// already full: a reader cannot shed its own buffers, so the bounded
  /// overshoot is the same contract as the map-side emit path (the merge
  /// fan-in clamp in ExternalMergePlan keeps the total reader footprint
  /// near the budget).
  SpillRunReader(const SpillFile& file, bool compressed,
                 MemoryBudget* budget = nullptr);
  SpillRunReader(const SpillRunReader&) = delete;
  SpillRunReader& operator=(const SpillRunReader&) = delete;
  ~SpillRunReader();

  /// Advances to the next record; returns false at end of run.
  bool Next(std::string_view* key, std::string_view* value);

 private:
  bool ReadBlock();
  void ChargeBuffers();

  std::FILE* handle_ = nullptr;  // null until the first read
  std::string path_;
  bool compressed_;
  MemoryBudget* budget_ = nullptr;
  uint64_t charged_ = 0;  // bytes currently charged against budget_
  std::string stored_;    // raw block bytes as read from disk
  std::string block_;     // decoded frame bytes the views point into
  size_t pos_ = 0;
};

}  // namespace dseq

#endif  // DSEQ_SPILL_SPILL_FILE_H_
