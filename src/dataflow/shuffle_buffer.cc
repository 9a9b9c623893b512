#include "src/dataflow/shuffle_buffer.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "src/util/block_codec.h"
#include "src/util/check.h"
#include "src/util/varint.h"

namespace dseq {
namespace {

// Process-global diagnostic gauge of bytes resident in shuffle arenas.
// Relaxed everywhere: each buffer is single-writer (one map worker fills it,
// one reduce worker drains it, with a phase join between), so the adds and
// subs for one buffer are already ordered by the engine; the gauge itself
// publishes nothing. Cross-thread readers (teardown CHECKs, the RAII tests)
// run after the joins that make the final value exact.
std::atomic<uint64_t> g_live_bytes{0};

}  // namespace

uint64_t ShuffleBufferLiveBytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

ShuffleBuffer& ShuffleBuffer::operator=(ShuffleBuffer&& other) noexcept {
  if (this == &other) return *this;
  Untrack();
  data_ = std::move(other.data_);
  num_records_ = other.num_records_;
  compressed_ = other.compressed_;
  tracked_ = other.tracked_;
  other.data_.clear();
  other.num_records_ = 0;
  other.compressed_ = false;
  other.tracked_ = 0;
  return *this;
}

ShuffleBuffer::~ShuffleBuffer() { Untrack(); }

void ShuffleBuffer::Track() {
  if (data_.size() != tracked_) {
    if (data_.size() > tracked_) {
      g_live_bytes.fetch_add(data_.size() - tracked_,
                             std::memory_order_relaxed);
    } else {
      g_live_bytes.fetch_sub(tracked_ - data_.size(),
                             std::memory_order_relaxed);
    }
    tracked_ = data_.size();
  }
}

void ShuffleBuffer::Untrack() {
  if (tracked_ > 0) {
    g_live_bytes.fetch_sub(tracked_, std::memory_order_relaxed);
    tracked_ = 0;
  }
}

void ShuffleBuffer::Append(std::string_view key, std::string_view value) {
  // Appending varint frames after the buffer was block-compressed would
  // interleave raw bytes into the codec stream and corrupt every record.
  DSEQ_DCHECK_MSG(!compressed_, "ShuffleBuffer::Append after Compress");
  PutVarint(&data_, key.size());
  PutVarint(&data_, value.size());
  // Guarded appends: emitted views may legally be empty with null data.
  if (!key.empty()) data_.append(key.data(), key.size());
  if (!value.empty()) data_.append(value.data(), value.size());
  ++num_records_;
  // Amortize the process-global gauge: one atomic RMW per ~4 KiB appended,
  // not per record (Seal() syncs it exactly at the end of the map phase).
  if (data_.size() - tracked_ >= 4096) Track();
}

void ShuffleBuffer::SortByKey() {
  DSEQ_DCHECK_MSG(!compressed_, "ShuffleBuffer::SortByKey after Compress");
  struct Entry {
    std::string_view key;
    std::string_view frame;  // the whole record, framing included
  };
  std::vector<Entry> entries;
  entries.reserve(num_records_);
  const std::string_view raw(data_);
  size_t pos = 0;
  while (pos < raw.size()) {
    const size_t begin = pos;
    std::string_view key;
    std::string_view value;
    ParseRecord(raw, &pos, &key, &value);
    entries.push_back(Entry{key, raw.substr(begin, pos - begin)});
  }
  auto by_key = [](const Entry& a, const Entry& b) { return a.key < b.key; };
  if (std::is_sorted(entries.begin(), entries.end(), by_key)) return;
  std::stable_sort(entries.begin(), entries.end(), by_key);
  std::string sorted;
  sorted.reserve(data_.size());
  for (const Entry& entry : entries) {
    sorted.append(entry.frame.data(), entry.frame.size());
  }
  data_.swap(sorted);
}

size_t ShuffleBuffer::Compress() {
  if (!compressed_ && !data_.empty()) {
    data_ = CompressBlock(data_);
    compressed_ = true;
  }
  Track();
  return data_.size();
}

void ShuffleBuffer::Seal() { Track(); }

std::string ShuffleBuffer::ReleaseRaw() {
  std::string raw;
  if (compressed_) {
    if (!DecompressBlock(data_, &raw)) {
      throw std::runtime_error("corrupt compressed shuffle buffer");
    }
  } else {
    raw = std::move(data_);
  }
  data_.clear();
  num_records_ = 0;
  compressed_ = false;
  Untrack();
  return raw;
}

std::string ShuffleBuffer::ReleaseStored() {
  std::string stored = std::move(data_);
  data_.clear();
  num_records_ = 0;
  compressed_ = false;
  Untrack();
  return stored;
}

void ShuffleBuffer::ParseRecord(std::string_view raw, size_t* pos,
                                std::string_view* key,
                                std::string_view* value) {
  uint64_t key_size = 0;
  uint64_t value_size = 0;
  if (!GetVarint(raw, pos, &key_size) || !GetVarint(raw, pos, &value_size) ||
      key_size > raw.size() - *pos ||
      value_size > raw.size() - *pos - key_size) {
    throw std::runtime_error("malformed shuffle record framing");
  }
  *key = raw.substr(*pos, key_size);
  *pos += key_size;
  *value = raw.substr(*pos, value_size);
  *pos += value_size;
}

}  // namespace dseq
