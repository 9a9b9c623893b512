// Pivot search (paper Sec. V-A).
//
// The pivot item of a subsequence S is its maximum item w.r.t. the total
// order `<` (= its least frequent item = max fid). K(T) is the set of pivot
// items over all candidate subsequences Gσπ(T); D-SEQ sends (rewritten)
// copies of T to exactly the partitions K(T).
//
// This module implements:
//  * the commutative/associative "pivot merge" ⊕ on output sets (Theorem 1),
//  * the forward DP K(i,q) and backward DP B(i,q) over the position–state
//    grid (linear in |T| for a fixed FST),
//  * a no-grid variant that naively folds ⊕ over every accepting run
//    (exponential; kept for the Fig. 10a ablation).
#ifndef DSEQ_CORE_PIVOT_H_
#define DSEQ_CORE_PIVOT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <ostream>
#include <vector>

#include "src/core/grid.h"
#include "src/util/common.h"

namespace dseq {

/// Small-vector of item ids with inline storage for up to 8 items — the
/// hot value type of the pivot DP tables. Output sets are tiny in practice
/// (most positions produce at most a handful of pivot candidates), so the
/// DP's per-coordinate PivotMerge/UnionWith stay allocation-free; only the
/// rare larger set spills to the heap. Always sorted ascending and
/// duplicate-free when used inside a PivotSet.
class PivotItemVec {
 public:
  static constexpr size_t kInlineCapacity = 8;

  using value_type = ItemId;
  using iterator = ItemId*;
  using const_iterator = const ItemId*;

  PivotItemVec() = default;
  PivotItemVec(std::initializer_list<ItemId> items) {
    Append(items.begin(), items.end());
  }
  /// Converting constructor from a plain Sequence (copies the items).
  PivotItemVec(const Sequence& items) {  // NOLINT: implicit by design
    Append(items.data(), items.data() + items.size());
  }

  PivotItemVec(const PivotItemVec& other) { Append(other.begin(), other.end()); }
  PivotItemVec(PivotItemVec&& other) noexcept { MoveFrom(other); }
  PivotItemVec& operator=(const PivotItemVec& other) {
    if (this != &other) {
      clear();
      Append(other.begin(), other.end());
    }
    return *this;
  }
  PivotItemVec& operator=(PivotItemVec&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      MoveFrom(other);
    }
    return *this;
  }
  ~PivotItemVec() { FreeHeap(); }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  bool is_inline() const { return data_ == inline_; }

  ItemId& operator[](size_t i) { return data_[i]; }
  ItemId operator[](size_t i) const { return data_[i]; }
  ItemId front() const { return data_[0]; }
  ItemId back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }

  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }

  void push_back(ItemId w) {
    if (size_ == capacity_) Grow(size_ + 1);
    data_[size_++] = w;
  }

  /// Appends [first, last). Pivot sets are built in sorted order, so
  /// end-append is the only bulk insertion this type offers (no positional
  /// insert — it would invite silently unsorted sets).
  template <typename It>
  void Append(It first, It last) {
    size_t n = static_cast<size_t>(std::distance(first, last));
    if (size_ + n > capacity_) Grow(size_ + n);
    std::copy(first, last, data_ + size_);
    size_ += n;
  }

  iterator erase(iterator first, iterator last) {
    std::copy(last, end(), first);
    size_ -= static_cast<size_t>(last - first);
    return first;
  }

  Sequence ToSequence() const { return Sequence(begin(), end()); }

  friend bool operator==(const PivotItemVec& a, const PivotItemVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator!=(const PivotItemVec& a, const PivotItemVec& b) {
    return !(a == b);
  }
  friend bool operator==(const PivotItemVec& a, const Sequence& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const Sequence& a, const PivotItemVec& b) {
    return b == a;
  }
  friend bool operator!=(const PivotItemVec& a, const Sequence& b) {
    return !(a == b);
  }
  friend bool operator!=(const Sequence& a, const PivotItemVec& b) {
    return !(b == a);
  }

  friend std::ostream& operator<<(std::ostream& os, const PivotItemVec& v) {
    os << '[';
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) os << ' ';
      os << v[i];
    }
    return os << ']';
  }

 private:
  void Grow(size_t min_capacity) {
    size_t new_capacity = capacity_ * 2;
    if (new_capacity < min_capacity) new_capacity = min_capacity;
    // This *is* the owning RAII type: the small-vector's heap storage,
    // paired with FreeHeap() below. dseq-lint: allow(naked-new)
    ItemId* heap = new ItemId[new_capacity];
    std::memcpy(heap, data_, size_ * sizeof(ItemId));
    FreeHeap();
    data_ = heap;
    capacity_ = new_capacity;
  }

  void FreeHeap() {
    // dseq-lint: allow(naked-new)
    if (data_ != inline_) delete[] data_;
  }

  // Steals `other`'s heap buffer (or copies its inline items) and leaves it
  // empty-inline. Assumes *this holds no heap buffer.
  void MoveFrom(PivotItemVec& other) {
    if (other.is_inline()) {
      data_ = inline_;
      capacity_ = kInlineCapacity;
      size_ = other.size_;
      std::memcpy(inline_, other.inline_, size_ * sizeof(ItemId));
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
    }
    other.data_ = other.inline_;
    other.capacity_ = kInlineCapacity;
    other.size_ = 0;
  }

  ItemId inline_[kInlineCapacity];
  ItemId* data_ = inline_;
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineCapacity;
};

/// A set of items plus an optional ε element; ε is smaller than every item.
/// Item vectors are sorted ascending and duplicate-free.
struct PivotSet {
  bool has_eps = false;
  PivotItemVec items;

  bool IsEmpty() const { return !has_eps && items.empty(); }

  static PivotSet Eps() { return PivotSet{true, {}}; }
  static PivotSet Items(PivotItemVec sorted_items) {
    return PivotSet{false, std::move(sorted_items)};
  }

  /// Set union (not ⊕). Used to combine pivot sets of alternative runs.
  void UnionWith(const PivotSet& other);

  bool operator==(const PivotSet& o) const {
    return has_eps == o.has_eps && items == o.items;
  }
};

/// The paper's pivot merge: U ⊕ Q = {ω∈U | ω ≥ min Q} ∪ {ω∈Q | ω ≥ min U}.
/// If either side is empty (no ε, no items), the result is empty.
PivotSet PivotMerge(const PivotSet& u, const PivotSet& q);

/// Theorem 1: pivots of a run given its output sets (empty vector = ε).
/// Folds ⊕ left to right starting from {ε}.
PivotSet PivotsOfOutputSets(const std::vector<Sequence>& output_sets);

/// Forward DP table K(i,q): pivot items of the partial accepting runs whose
/// i-th transition ends in q. Indexed i * grid.num_states() + q. Coordinates
/// not on an accepting path have empty sets.
std::vector<PivotSet> ComputeForwardPivots(const StateGrid& grid);

/// Backward DP table B(i,q): pivot items of run *suffixes* starting at (i,q).
std::vector<PivotSet> ComputeBackwardPivots(const StateGrid& grid);

/// K(T): all pivot items of the grid's candidate subsequences, sorted
/// ascending. Assumes the grid was built with the desired σ pruning.
Sequence FindPivotItems(const StateGrid& grid);

/// K(T) read off an already computed forward table `fwd` of `grid` (the
/// union of K(n,q) over the alive final states q). FindPivotItems is this
/// applied to ComputeForwardPivots(grid).
Sequence PivotItemsFromForward(const StateGrid& grid,
                               const std::vector<PivotSet>& fwd);

/// Ablation variant (Fig. 10a, "no grid"): enumerates accepting runs by raw
/// DFS over the FST (exploring dead ends, no memoization) and folds ⊕ per
/// run. Infrequent items (doc freq < sigma) are pruned from output sets when
/// sigma > 0. Returns false if more than `max_steps` simulation steps were
/// taken (guard against exponential blow-up); `*pivots` is then incomplete.
bool FindPivotItemsNoGrid(const Sequence& T, const Fst& fst,
                          const Dictionary& dict, uint64_t sigma,
                          uint64_t max_steps, Sequence* pivots);

}  // namespace dseq

#endif  // DSEQ_CORE_PIVOT_H_
