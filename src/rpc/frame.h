// Length-framed message protocol of the multi-process backend.
//
// Every message on a coordinator<->worker connection is one frame:
//
//   varint(message type) + varint(payload size) + payload bytes
//
// reusing the varint coding of the shuffle serialization (src/util/varint.h)
// so the wire format needs no new primitives. Payload contents are
// message-specific (see MsgType); shuffle segments travel in exactly the
// stored form the engine holds them in — raw varint frames, a block-codec
// compressed bucket, or verbatim spill-run bytes — so the proc backend's
// shuffle volumes equal the local engine's by construction.
//
// FrameDecoder is an incremental push parser over untrusted bytes: feed it
// whatever arrived on the socket, drain complete frames. It never throws —
// malformed input (overlong varint, unknown or retired type, oversized
// payload) turns
// into kBadFrame before any allocation is sized from attacker-controlled
// lengths, which is what the fuzz target (fuzz/fuzz_rpc_frame.cc) hammers.
#ifndef DSEQ_RPC_FRAME_H_
#define DSEQ_RPC_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dseq {
namespace rpc {

/// Message types of the coordinator/worker protocol. Payloads are varint
/// sequences unless noted; `task` is a map task index, `reducer` a reduce
/// task index.
enum class MsgType : uint8_t {
  /// worker -> coordinator, once after connecting: varint(worker ordinal).
  kHello = 1,
  /// coordinator -> worker: varint(task) varint(begin) varint(end) — run the
  /// map shard over inputs [begin, end).
  kMapTask = 2,
  /// One shuffle segment, or one chunk of one. worker -> coordinator after
  /// a map task (the task's output for one reducer), coordinator -> worker
  /// inside a reduce task (replayed in map-task order). Payload:
  /// varint(task) varint(reducer) varint(kind: 0 = spill-run bytes,
  /// 1 = bucket tail, sorted by key at seal, 2 = continuation chunk)
  /// followed by the segment bytes. Like spill runs, a tail is
  /// block-compressed iff the round's compress_shuffle is set, so the
  /// header carries no flag for it. Segments larger than the chunk
  /// threshold (see kMaxFramePayloadBytes) ship as zero or more kind-2
  /// frames — raw byte chunks — terminated by one frame with the real kind
  /// carrying the final chunk; the receiver concatenates. Chunks of one
  /// logical segment are never interleaved with other segments on a
  /// connection.
  kSegment = 3,
  /// worker -> coordinator: map task finished and all its segments sent.
  /// Payload: varint(task) varint(map_output_records) varint(shuffle_records)
  /// varint(shuffle_bytes) varint(shuffle_compressed_bytes)
  /// varint(spill_files) varint(spill_bytes_written) varint(spill_merge_passes)
  /// varint(num_reducers) num_reducers * varint(reducer_bytes[r]).
  kMapDone = 4,
  /// coordinator -> worker: varint(reducer) varint(num_segments) — reduce
  /// the segments streamed in the next num_segments kSegment frames.
  kReduceTask = 5,
  /// worker -> coordinator: varint(reducer) varint(spill_files)
  /// varint(spill_bytes_written) varint(spill_merge_passes)
  /// varint(num_records) then num_records boundary records, each
  /// varint(key size) varint(value size) key value.
  kReduceDone = 6,
  /// worker -> coordinator, once, before exiting on an exception:
  /// varint(kind: 0 runtime_error, 1 ShuffleOverflowError,
  /// 2 invalid_argument, 3 out_of_range, 4 overflow_error) followed by the
  /// exception message bytes. The coordinator rethrows the typed exception.
  kError = 7,
  /// coordinator -> worker: empty payload; the worker exits cleanly.
  kShutdown = 8,
  // 9 is retired (it was a coordinator -> worker liveness probe); a type-9
  // frame is malformed.
  /// worker -> coordinator: empty payload; heartbeat. The worker's task
  /// thread sends it when the task made progress (a map input, a received
  /// segment, a reduced key group) and the heartbeat interval has passed
  /// since its last beat, so a hung worker goes silent. A worker inside one
  /// such unit for longer than the stall timeout goes silent too (ROADMAP
  /// item S). The coordinator treats any frame as progress and otherwise
  /// ignores kPong.
  kPong = 10,
  /// worker -> coordinator: one observability snapshot (src/obs/trace.h
  /// wire codec — spans drained from the worker's buffers plus metric
  /// registry deltas since the previous snapshot). Sent immediately before
  /// kMapDone / kReduceDone, and only when tracing was enabled in the
  /// coordinator before the fork. The coordinator merges the spans into
  /// its timeline (stamped with the worker's ordinal) and folds the metric
  /// deltas into its registry; a malformed snapshot is dropped, never
  /// fatal — observability must not fail a round.
  kTrace = 11,
};

/// Upper bound accepted for a frame payload. Its purpose is rejecting
/// hostile length prefixes before they size an allocation. Senders never
/// hit it: logical shuffle segments larger than the chunk threshold (just
/// under this cap; lowered in tests via DSEQ_PROC_TEST_CHUNK_BYTES) are
/// split across continuation kSegment frames and reassembled on receive.
inline constexpr uint64_t kMaxFramePayloadBytes = uint64_t{1} << 30;

/// Appends one encoded frame to `out`.
void AppendFrame(std::string* out, MsgType type, std::string_view payload);

/// Incremental frame parser. Append() buffered bytes, then call Next()
/// until it stops returning kFrame. Never throws.
class FrameDecoder {
 public:
  enum class Status {
    kFrame,     // one complete frame decoded
    kNeedMore,  // the buffer holds only a frame prefix
    kBadFrame,  // malformed input; the stream is unrecoverable
  };

  /// Buffers more wire bytes. Invalidates payload views handed out by Next.
  void Append(std::string_view bytes);

  /// Decodes the next complete frame. On kFrame, `*type` is the (validated)
  /// message type and `*payload` views the payload inside the decoder's
  /// buffer — valid until the next Append() call. Once kBadFrame is
  /// returned, every later call returns kBadFrame.
  Status Next(MsgType* type, std::string_view* payload);

  /// Bytes buffered but not yet consumed by complete frames.
  size_t buffered_bytes() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  size_t pos_ = 0;
  bool bad_ = false;
};

}  // namespace rpc
}  // namespace dseq

#endif  // DSEQ_RPC_FRAME_H_
