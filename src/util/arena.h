// Block-allocating byte arena for interning short strings.
//
// The map-side combiner keeps one table entry per distinct (key, payload)
// and must not pay a heap allocation per record: Intern copies the bytes
// into a chain of fixed-size blocks and returns a stable std::string_view.
// Views stay valid until Clear() or destruction; blocks are never moved.
#ifndef DSEQ_UTIL_ARENA_H_
#define DSEQ_UTIL_ARENA_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace dseq {

class StringArena {
 public:
  static constexpr size_t kBlockSize = 1 << 16;

  /// Copies `head` then `tail` contiguously into the arena and returns a
  /// view of the stable copy.
  std::string_view Intern(std::string_view head, std::string_view tail = {}) {
    const size_t size = head.size() + tail.size();
    // Non-null data even for empty strings, so downstream append/memcpy
    // calls never see a {nullptr, 0} view (UB per [string.append]).
    if (size == 0) return std::string_view("", 0);
    char* dst;
    if (size > kBlockSize / 4) {
      // Oversized strings get a dedicated block so normal blocks stay dense.
      // The current bump block (tracked by next_/remaining_, not by list
      // position) is unaffected and keeps filling up.
      blocks_.push_back(std::make_unique<char[]>(size));
      dst = blocks_.back().get();
    } else {
      if (size > remaining_) {
        blocks_.push_back(std::make_unique<char[]>(kBlockSize));
        next_ = blocks_.back().get();
        remaining_ = kBlockSize;
      }
      dst = next_;
      next_ += size;
      remaining_ -= size;
    }
    if (!head.empty()) std::memcpy(dst, head.data(), head.size());
    if (!tail.empty()) std::memcpy(dst + head.size(), tail.data(), tail.size());
    bytes_ += size;
    return std::string_view(dst, size);
  }

  /// Drops all interned strings (invalidates every view).
  void Clear() {
    blocks_.clear();
    next_ = nullptr;
    remaining_ = 0;
    bytes_ = 0;
  }

  /// Total interned payload bytes (not block capacity).
  size_t bytes() const { return bytes_; }

 private:
  std::vector<std::unique_ptr<char[]>> blocks_;
  char* next_ = nullptr;
  size_t remaining_ = 0;
  size_t bytes_ = 0;
};

}  // namespace dseq

#endif  // DSEQ_UTIL_ARENA_H_
