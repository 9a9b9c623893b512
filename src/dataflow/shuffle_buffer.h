// Contiguous byte arena for one (map worker, reduce worker) shuffle bucket.
//
// Records are appended as varint-framed (key, value) byte strings into one
// growing buffer instead of a vector of heap-allocated string pairs, so the
// map phase pays zero per-record allocations. Each bucket is stable-sorted
// by key once, when its map worker seals it (SortByKey), so it leaves the
// map side as one sorted run and the reduce side only merges. Buffers may
// optionally be block-compressed after the sort
// (DataflowOptions::compress_shuffle); ReleaseRaw() transparently
// decompresses.
//
// A process-wide gauge tracks the bytes resident in not-yet-drained buffers
// (ShuffleBufferLiveBytes) so tests can assert that reduce workers release
// their buckets as they finish instead of holding the whole shuffle until
// the end of the phase.
#ifndef DSEQ_DATAFLOW_SHUFFLE_BUFFER_H_
#define DSEQ_DATAFLOW_SHUFFLE_BUFFER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace dseq {

/// Bytes currently held by live ShuffleBuffers across the process. Purely
/// diagnostic (tests assert drain behavior); updated atomically.
uint64_t ShuffleBufferLiveBytes();

class ShuffleBuffer {
 public:
  ShuffleBuffer() = default;
  ShuffleBuffer(const ShuffleBuffer&) = delete;
  ShuffleBuffer& operator=(const ShuffleBuffer&) = delete;
  ShuffleBuffer(ShuffleBuffer&& other) noexcept
      : data_(std::move(other.data_)),
        num_records_(other.num_records_),
        compressed_(other.compressed_),
        tracked_(other.tracked_) {
    other.num_records_ = 0;
    other.compressed_ = false;
    other.tracked_ = 0;
    other.data_.clear();
  }
  ShuffleBuffer& operator=(ShuffleBuffer&& other) noexcept;
  ~ShuffleBuffer();

  /// Appends one record: varint(key size), varint(value size), key, value.
  void Append(std::string_view key, std::string_view value);

  uint64_t num_records() const { return num_records_; }
  size_t data_bytes() const { return data_.size(); }
  bool compressed() const { return compressed_; }

  /// Stable-sorts the records by key in place: equal keys keep their append
  /// order. The one bucket sort of the engine: RunMapShard calls it on each
  /// bucket before sealing or spilling it. Must run before Compress().
  void SortByKey();

  /// Block-compresses the buffer in place (no-op if empty or already
  /// compressed) and syncs the live gauge. Returns the compressed size.
  size_t Compress();

  /// Syncs the live-bytes gauge exactly (Append amortizes its updates).
  /// The engine seals each bucket at the end of its map worker.
  void Seal();

  /// Moves the raw (decompressed) frame bytes out, leaving the buffer empty
  /// and releasing its gauge contribution. Throws std::runtime_error if a
  /// compressed buffer fails to decode.
  std::string ReleaseRaw();

  /// Moves the stored bytes out as-is — the raw frames, or the compressed
  /// block when Compress() ran — leaving the buffer empty and releasing its
  /// gauge contribution. The proc backend ships buckets over the wire in
  /// exactly their stored form, so the compressed shuffle volume it reports
  /// equals the local backend's; the receiver knows the form from
  /// DataflowOptions::compress_shuffle.
  std::string ReleaseStored();

  /// Calls fn(key_view, value_view) for each record framed in `raw` (bytes
  /// produced by ReleaseRaw; views point into `raw`). Throws
  /// std::runtime_error on malformed framing.
  template <typename Fn>
  static void ForEachRecord(std::string_view raw, const Fn& fn) {
    size_t pos = 0;
    while (pos < raw.size()) {
      std::string_view key;
      std::string_view value;
      ParseRecord(raw, &pos, &key, &value);
      fn(key, value);
    }
  }

 private:
  static void ParseRecord(std::string_view raw, size_t* pos,
                          std::string_view* key, std::string_view* value);
  void Track();
  void Untrack();

  std::string data_;
  uint64_t num_records_ = 0;
  bool compressed_ = false;
  size_t tracked_ = 0;  // bytes currently counted in the live gauge
};

}  // namespace dseq

#endif  // DSEQ_DATAFLOW_SHUFFLE_BUFFER_H_
