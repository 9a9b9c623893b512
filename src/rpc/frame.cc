#include "src/rpc/frame.h"

#include "src/util/varint.h"

namespace dseq {
namespace rpc {
namespace {

// Incremental varint parse distinguishing "truncated so far" from
// "malformed": GetVarint (src/util/varint.h) folds both into false, but a
// streaming decoder must keep waiting on the former and die on the latter.
// Returns 1 on success (advancing *pos), 0 when `data` ends mid-varint,
// -1 on a varint that cannot encode a 64-bit value.
int ParseVarint(std::string_view data, size_t* pos, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  size_t p = *pos;
  for (;;) {
    if (p >= data.size()) return 0;
    uint8_t byte = static_cast<uint8_t>(data[p++]);
    if (shift == 63 && (byte & 0x7f) > 1) return -1;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *pos = p;
      *value = result;
      return 1;
    }
    shift += 7;
    if (shift >= 64) return -1;
  }
}

// Type 9 is retired (see MsgType).
bool ValidType(uint64_t type) {
  return type >= static_cast<uint64_t>(MsgType::kHello) &&
         type <= static_cast<uint64_t>(MsgType::kTrace) && type != 9;
}

}  // namespace

void AppendFrame(std::string* out, MsgType type, std::string_view payload) {
  PutVarint(out, static_cast<uint64_t>(type));
  PutVarint(out, payload.size());
  if (!payload.empty()) out->append(payload.data(), payload.size());
}

void FrameDecoder::Append(std::string_view bytes) {
  if (bad_) return;  // the stream is dead; stop accumulating
  // Compact consumed bytes first — this is the only point where previously
  // returned payload views go stale, matching the documented contract.
  if (pos_ > 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

FrameDecoder::Status FrameDecoder::Next(MsgType* type,
                                        std::string_view* payload) {
  if (bad_) return Status::kBadFrame;
  size_t p = pos_;
  uint64_t raw_type = 0;
  uint64_t size = 0;
  int rc = ParseVarint(buffer_, &p, &raw_type);
  if (rc == 0) return Status::kNeedMore;
  if (rc < 0 || !ValidType(raw_type)) {
    bad_ = true;
    return Status::kBadFrame;
  }
  rc = ParseVarint(buffer_, &p, &size);
  if (rc == 0) return Status::kNeedMore;
  // The size cap is enforced here, on the length *prefix*: a hostile frame
  // never makes the decoder buffer (or its caller allocate) gigabytes.
  if (rc < 0 || size > kMaxFramePayloadBytes) {
    bad_ = true;
    return Status::kBadFrame;
  }
  if (buffer_.size() - p < size) return Status::kNeedMore;
  *type = static_cast<MsgType>(raw_type);
  *payload = std::string_view(buffer_).substr(p, size);
  pos_ = p + size;
  return Status::kFrame;
}

}  // namespace rpc
}  // namespace dseq
