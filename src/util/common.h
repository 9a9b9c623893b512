// Basic shared types for the dseq library.
#ifndef DSEQ_UTIL_COMMON_H_
#define DSEQ_UTIL_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dseq {

/// Item identifier. After frequency-based recoding, item ids ("fids") are
/// assigned by decreasing document frequency starting at 1; the total order
/// `<` of the paper is then simply numeric order of fids, and the *pivot
/// item* of a sequence is its maximum fid (its least frequent item).
/// Id 0 is reserved (invalid / "no item").
using ItemId = uint32_t;

/// Reserved invalid item id.
inline constexpr ItemId kNoItem = 0;

/// A sequence of items (fid-encoded after recoding).
using Sequence = std::vector<ItemId>;

/// FST / NFA state identifier.
using StateId = uint32_t;

/// A read-only view of `size` contiguous values (C++17 has no std::span).
template <typename T>
class Span {
 public:
  Span(const T* data, size_t size) : data_(data), size_(size) {}
  Span(const std::vector<T>& v) : data_(v.data()), size_(v.size()) {}
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  const T* data_;
  size_t size_;
};

/// A T that is never destroyed, for process-wide state that must outlive
/// thread exit and static destructors (the metrics registry, the trace
/// buffers, the fault-injection state). Declare it function-local static.
template <typename T>
class NoDestructor {
 public:
  NoDestructor() : value_() {}
  ~NoDestructor() {}  // leaves value_ alive
  T& operator*() { return value_; }

 private:
  union {
    T value_;
  };
};

}  // namespace dseq

#endif  // DSEQ_UTIL_COMMON_H_
