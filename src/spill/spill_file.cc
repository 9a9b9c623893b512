#include "src/spill/spill_file.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "src/fault/fault_injection.h"
#include "src/spill/memory_budget.h"
#include "src/util/block_codec.h"
#include "src/util/check.h"
#include "src/util/varint.h"

namespace dseq {
namespace {

std::atomic<uint64_t> g_spill_file_seq{0};

// Full-buffer stdio helpers. A signal can interrupt the underlying read(2)/
// write(2) mid-transfer, surfacing as a short stdio count with errno ==
// EINTR; these retry until the whole buffer moved or a real error remains.
// (The proc backend's coordinator forks and signals worker processes, so
// interrupted spill I/O is a routine event, not a corner case.)

// Writes all `size` bytes; returns false on a non-EINTR error.
bool FWriteFully(std::FILE* f, const char* data, size_t size) {
  while (size > 0) {
    size_t n = std::fwrite(data, 1, size, f);
    data += n;
    size -= n;
    if (size > 0) {
      if (errno != EINTR) return false;
      std::clearerr(f);
    }
  }
  return true;
}

// Reads exactly `size` bytes; returns false on EOF or a non-EINTR error.
bool FReadFully(std::FILE* f, char* out, size_t size) {
  while (size > 0) {
    size_t n = std::fread(out, 1, size, f);
    out += n;
    size -= n;
    if (size > 0) {
      if (std::feof(f)) return false;
      if (errno != EINTR) return false;
      std::clearerr(f);
    }
  }
  return true;
}

// fgetc with EINTR retry; EOF means end-of-file or a real error (the caller
// distinguishes via ferror).
int FGetcRetry(std::FILE* f) {
  while (true) {
    int c = std::fgetc(f);
    if (c != EOF) return c;
    if (std::feof(f) || errno != EINTR) return EOF;
    std::clearerr(f);
  }
}

}  // namespace

SpillFile SpillFile::Create(const std::string& dir) {
  // Relaxed: the sequence number only needs uniqueness (RMW atomicity);
  // nothing is published through it.
  std::string path =
      dir + "/spill-" + std::to_string(::getpid()) + "-" +
      std::to_string(g_spill_file_seq.fetch_add(1, std::memory_order_relaxed)) +
      ".run";
  // "wx": exclusive creation, so a stale file from another job is an error
  // instead of silently shared.
  std::FILE* handle = std::fopen(path.c_str(), "wbx");
  if (handle == nullptr) {
    throw std::runtime_error("cannot create spill file " + path + ": " +
                             std::strerror(errno));
  }
  return SpillFile(std::move(path), handle);
}

SpillFile::SpillFile(SpillFile&& other) noexcept
    : path_(std::move(other.path_)),
      write_handle_(other.write_handle_),
      stored_bytes_(other.stored_bytes_) {
  other.path_.clear();
  other.write_handle_ = nullptr;
  other.stored_bytes_ = 0;
}

SpillFile& SpillFile::operator=(SpillFile&& other) noexcept {
  if (this == &other) return *this;
  if (write_handle_ != nullptr) std::fclose(write_handle_);
  if (!path_.empty()) std::remove(path_.c_str());
  path_ = std::move(other.path_);
  write_handle_ = other.write_handle_;
  stored_bytes_ = other.stored_bytes_;
  other.path_.clear();
  other.write_handle_ = nullptr;
  other.stored_bytes_ = 0;
  return *this;
}

SpillFile::~SpillFile() {
  if (write_handle_ != nullptr) std::fclose(write_handle_);
  if (!path_.empty()) std::remove(path_.c_str());
}

void SpillFile::Append(const void* data, size_t size) {
  if (size == 0) return;
  if (write_handle_ == nullptr) {
    throw std::runtime_error("spill file " + path_ + " is closed for writing");
  }
  // Injection site spill.write: kErrno models ENOSPC/EIO on a full or
  // failing disk; kShortIo lands half the buffer first, so the partially
  // written run is on disk when the error surfaces (RAII must still reclaim
  // it). Both take the same short-write error path as the real thing.
  fault::Fault f = fault::Evaluate(fault::Site::kSpillWrite, size);
  if (f.action == fault::Action::kErrno ||
      f.action == fault::Action::kShortIo) {
    int err = f.action == fault::Action::kErrno ? f.param : EIO;
    if (f.action == fault::Action::kShortIo) {
      FWriteFully(write_handle_, static_cast<const char*>(data), size / 2);
    }
    errno = err;
    throw std::runtime_error("short write to spill file " + path_ + ": " +
                             std::strerror(err));
  }
  if (!FWriteFully(write_handle_, static_cast<const char*>(data), size)) {
    throw std::runtime_error("short write to spill file " + path_ + ": " +
                             std::strerror(errno));
  }
  stored_bytes_ += size;
}

void SpillFile::FinishWrite() {
  if (write_handle_ == nullptr) return;
  if (std::fclose(write_handle_) != 0) {
    write_handle_ = nullptr;
    throw std::runtime_error("cannot flush spill file " + path_ + ": " +
                             std::strerror(errno));
  }
  write_handle_ = nullptr;
}

SpillWriter::SpillWriter(SpillFile* file, bool compress, SpillStats* stats)
    : file_(file), compress_(compress), stats_(stats) {}

void SpillWriter::Append(std::string_view key, std::string_view value) {
  // Appending to a finished run would buffer records that are never
  // flushed — silent data loss, not an I/O error, so it aborts.
  DSEQ_CHECK_MSG(!finished_, "SpillWriter::Append after Finish");
  PutVarint(&block_, key.size());
  PutVarint(&block_, value.size());
  if (!key.empty()) block_.append(key.data(), key.size());
  if (!value.empty()) block_.append(value.data(), value.size());
  ++num_records_;
  if (block_.size() >= kSpillBlockBytes) FlushBlock();
}

void SpillWriter::FlushBlock() {
  if (block_.empty()) return;
  std::string frame;
  if (compress_) {
    std::string stored = CompressBlock(block_);
    PutVarint(&frame, stored.size());
    file_->Append(frame.data(), frame.size());
    file_->Append(stored.data(), stored.size());
  } else {
    PutVarint(&frame, block_.size());
    file_->Append(frame.data(), frame.size());
    file_->Append(block_.data(), block_.size());
  }
  block_.clear();
}

uint64_t SpillWriter::Finish() {
  if (finished_) return file_->stored_bytes();
  finished_ = true;
  FlushBlock();
  file_->FinishWrite();
  if (stats_ != nullptr) {
    stats_->files.fetch_add(1, std::memory_order_relaxed);
    stats_->bytes_written.fetch_add(file_->stored_bytes(),
                                    std::memory_order_relaxed);
  }
  return file_->stored_bytes();
}

SpillRunReader::SpillRunReader(const SpillFile& file, bool compressed,
                               MemoryBudget* budget)
    : path_(file.path()), compressed_(compressed), budget_(budget) {}

SpillRunReader::~SpillRunReader() {
  if (handle_ != nullptr) std::fclose(handle_);
  if (budget_ != nullptr && charged_ > 0) budget_->Release(charged_);
}

void SpillRunReader::ChargeBuffers() {
  if (budget_ == nullptr) return;
  uint64_t resident = stored_.size() + block_.size();
  if (resident > charged_) {
    uint64_t delta = resident - charged_;
    // A reader cannot free its own buffers, so a full budget takes the
    // bounded overshoot instead of deadlocking (see the constructor doc).
    if (!budget_->TryCharge(delta)) budget_->ForceCharge(delta);
    charged_ = resident;
  }
}

bool SpillRunReader::ReadBlock() {
  // Injection site spill.read: a failing disk surfaces as a read error on
  // the next block, taking the same typed error path as a real EIO.
  fault::Fault f = fault::Evaluate(fault::Site::kSpillRead);
  if (f.action == fault::Action::kErrno) {
    errno = f.param;
    throw std::runtime_error("read error on spill run " + path_);
  }
  if (handle_ == nullptr) {
    handle_ = std::fopen(path_.c_str(), "rb");
    if (handle_ == nullptr) {
      throw std::runtime_error("cannot open spill run " + path_ + ": " +
                               std::strerror(errno));
    }
  }
  // Block length varint, byte by byte (at most 10 bytes).
  uint64_t stored_size = 0;
  int shift = 0;
  int c = FGetcRetry(handle_);
  if (c == EOF) {
    if (std::ferror(handle_)) {
      throw std::runtime_error("read error on spill run " + path_);
    }
    return false;  // clean end of run
  }
  while (true) {
    if (shift >= 64) {
      throw std::runtime_error("corrupt spill run " + path_ +
                               ": oversized block length");
    }
    stored_size |= static_cast<uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) break;
    shift += 7;
    c = FGetcRetry(handle_);
    if (c == EOF) {
      throw std::runtime_error("truncated spill run " + path_);
    }
  }
  stored_.resize(stored_size);
  if (stored_size > 0 && !FReadFully(handle_, &stored_[0], stored_size)) {
    throw std::runtime_error("truncated spill run " + path_);
  }
  if (compressed_) {
    if (!DecompressBlock(stored_, &block_)) {
      throw std::runtime_error("corrupt compressed spill run " + path_);
    }
  } else {
    block_.swap(stored_);
  }
  pos_ = 0;
  ChargeBuffers();
  return true;
}

bool SpillRunReader::Next(std::string_view* key, std::string_view* value) {
  while (pos_ >= block_.size()) {
    if (!ReadBlock()) return false;
  }
  std::string_view raw(block_);
  uint64_t key_size = 0;
  uint64_t value_size = 0;
  if (!GetVarint(raw, &pos_, &key_size) ||
      !GetVarint(raw, &pos_, &value_size) || key_size > raw.size() - pos_ ||
      value_size > raw.size() - pos_ - key_size) {
    throw std::runtime_error("corrupt spill run " + path_ +
                             ": malformed record framing");
  }
  *key = raw.substr(pos_, key_size);
  pos_ += key_size;
  *value = raw.substr(pos_, value_size);
  pos_ += value_size;
  // The bounds checks above imply this; keep the cursor invariant planted
  // so a future framing change cannot silently read past the block.
  DSEQ_DCHECK_LE(pos_, block_.size());
  return true;
}

}  // namespace dseq
