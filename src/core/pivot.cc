#include "src/core/pivot.h"

#include <algorithm>

#include "src/util/check.h"

namespace dseq {

namespace {

// U ⊕ Q over sorted, duplicate-free item ranges. min(Q) = ε if Q contains ε,
// else its smallest item. An element ω of U survives iff ω >= min(Q), i.e.
// all of U if Q has ε, else ω >= Q's first item. Each survivor set is a
// sorted tail range of its side, so the union is written straight into the
// result — no temporaries. Both sides must be non-empty.
PivotSet MergeRanges(bool u_eps, Span<ItemId> u, bool q_eps, Span<ItemId> q) {
  PivotSet result;
  result.has_eps = u_eps && q_eps;
  auto ufrom = q_eps ? u.begin() : std::lower_bound(u.begin(), u.end(), q[0]);
  auto qfrom = u_eps ? q.begin() : std::lower_bound(q.begin(), q.end(), u[0]);
  result.items.reserve((u.end() - ufrom) + (q.end() - qfrom));
  std::set_union(ufrom, u.end(), qfrom, q.end(),
                 std::back_inserter(result.items));
  return result;
}

}  // namespace

PivotSet PivotMerge(const PivotSet& u, const PivotSet& q) {
  if (u.IsEmpty() || q.IsEmpty()) return PivotSet{};
  return MergeRanges(u.has_eps, u.items, q.has_eps, q.items);
}

PivotSet PivotMerge(const PivotSet& u, Span<ItemId> out) {
  if (u.IsEmpty() || out.empty()) return u;
  return MergeRanges(u.has_eps, u.items, false, out);
}

PivotSet PivotsOfOutputSets(const std::vector<Sequence>& output_sets) {
  PivotSet acc = PivotSet::Eps();
  for (const Sequence& out : output_sets) {
    acc = PivotMerge(acc, out);
    if (acc.IsEmpty()) return acc;
  }
  return acc;
}

namespace {

using Word = PivotDp::Word;

// The bits of rank >= r in word w of a set.
inline Word AtLeast(size_t w, uint32_t r) {
  if (w != r / 64) return w < r / 64 ? 0 : ~Word{0};
  return ~Word{0} << (r % 64);
}

}  // namespace

PivotDp& PivotDp::ForThisThread() {
  thread_local PivotDp dp;
  return dp;
}

template <typename ForEachLabel>
void PivotDp::Rank(size_t num_labels, ForEachLabel&& for_each_label) {
  if (++stamp_ == 0) {  // wrapped: forget every stale stamp
    rank_.assign(rank_.size(), {0, 0});
    stamp_ = 1;
  }
  items_.clear();
  for_each_label([this](Span<ItemId> label) {
    for (ItemId w : label) {
      if (w >= rank_.size()) rank_.resize(w + 1);
      if (rank_[w].first == stamp_) continue;
      rank_[w].first = stamp_;
      items_.push_back(w);
    }
  });
  std::sort(items_.begin(), items_.end());
  for (size_t r = 0; r < items_.size(); ++r) {
    rank_[items_[r]].second = static_cast<uint32_t>(r + 1);  // ε is rank 0
  }
  width_ = (items_.size() + 1 + 63) / 64;
  masks_.assign(num_labels * width_, 0);
  mask_min_.assign(num_labels, kNoEdge);
}

void PivotDp::SetMask(size_t slot, Span<ItemId> label) {
  mask_min_[slot] = label.empty() ? 0 : rank_[label[0]].second;
  masks_[slot * width_] |= label.empty() ? 1 : 0;
  for (ItemId w : label) {
    const uint32_t r = rank_[w].second;
    masks_[slot * width_ + r / 64] |= Word{1} << (r % 64);
  }
}

void PivotDp::OrStep(const Word* u, size_t slot, Word* dst) const {
  const size_t W = width_;
  // min U, or past every rank if U is empty (then so is U ⊕ Q).
  uint32_t u_min = UINT32_MAX;
  for (size_t w = 0; w < W; ++w) {
    if (u[w] == 0) continue;
    u_min = static_cast<uint32_t>(w * 64 + __builtin_ctzll(u[w]));
    break;
  }
  const uint32_t q_min = mask_min_[slot];
  const Word* q = masks_.data() + slot * W;
  for (size_t w = 0; w < W; ++w) {
    dst[w] |= (u[w] & AtLeast(w, q_min)) | (q[w] & AtLeast(w, u_min));
  }
}

void PivotDp::Fold(std::vector<Word>* table, bool backward) {
  const StateGrid& grid = *grid_;
  const size_t n = grid.length();
  const size_t ns = grid.num_states();
  const size_t W = width_;
  table->assign((n + 1) * ns * W, 0);
  if (!grid.HasAcceptingRun()) return;
  Word* const sets = table->data();
  if (backward) {
    for (StateId q = 0; q < ns; ++q) {
      if (grid.Alive(n, q) && grid.IsFinalState(q)) sets[(n * ns + q) * W] = 1;
    }
  } else {
    sets[grid.initial_state() * W] = 1;  // {ε}
  }
  for (size_t step = 0; step < n; ++step) {
    const size_t i = backward ? n - 1 - step : step;
    for (const StateGrid::Edge& e : grid.EdgesAt(i)) {
      Word* from = sets + (i * ns + e.from) * W;
      Word* to = sets + ((i + 1) * ns + e.to) * W;
      if (backward) std::swap(from, to);
      OrStep(from, grid.EdgeIndex(e), to);
    }
  }
}

void PivotDp::Load(const StateGrid& grid) {
  grid_ = &grid;
  const Span<StateGrid::Edge> edges = grid.edges();
  Rank(edges.size(), [&](auto&& add) {
    for (const StateGrid::Edge& e : edges) add(e.out);
  });
  for (size_t x = 0; x < edges.size(); ++x) SetMask(x, edges[x].out);
  Fold(&bwd_, /*backward=*/true);
}

void PivotDp::ComputeForward() { Fold(&fwd_, /*backward=*/false); }

const Word* PivotDp::Through(const std::vector<Word>& table, size_t coord,
                             size_t slot) {
  merged_.assign(width_, 0);
  OrStep(table.data() + coord * width_, slot, merged_.data());
  return merged_.data();
}

const Word* PivotDp::Departing(size_t i, const StateGrid::Edge& e) {
  return Through(bwd_, (i + 1) * grid_->num_states() + e.to,
                 grid_->EdgeIndex(e));
}

const Word* PivotDp::Arriving(size_t i, const StateGrid::Edge& e) {
  return Through(fwd_, i * grid_->num_states() + e.from, grid_->EdgeIndex(e));
}

size_t PivotDp::BeginScan() {
  const Word* root = bwd_.data() + grid_->initial_state() * width_;
  keys_.assign(root, root + width_);
  keys_[0] &= ~Word{1};  // ε is never a pivot
  settled_.assign(width_, 0);
  open_ = 0;
  for (Word w : keys_) open_ += __builtin_popcountll(w);
  return open_;
}

size_t PivotDp::Settle(const Word* set, uint32_t value,
                       std::vector<uint32_t>* bounds) {
  size_t below = 0;  // pivots of rank below word w
  for (size_t w = 0; w < width_; ++w) {
    // Every bit of `set` is a pivot, or ε.
    DSEQ_DCHECK_EQ(set[w] & ~keys_[w] & ~Word{w == 0}, Word{0});
    const Word fresh = set[w] & keys_[w] & ~settled_[w];
    for (Word bits = fresh; bits != 0; bits &= bits - 1) {
      const Word lower = keys_[w] & ((bits & -bits) - 1);
      (*bounds)[below + __builtin_popcountll(lower)] = value;
      --open_;
    }
    settled_[w] |= fresh;
    below += __builtin_popcountll(keys_[w]);
  }
  return open_;
}

PivotSet PivotDp::Decode(const std::vector<Word>& table, size_t set) const {
  const Word* words = table.data() + set * width_;
  PivotSet decoded;
  for (size_t w = 0; w < width_; ++w) {
    for (Word bits = words[w]; bits != 0; bits &= bits - 1) {
      const size_t r = w * 64 + __builtin_ctzll(bits);
      if (r == 0) decoded.has_eps = true;
      if (r > 0) decoded.items.push_back(items_[r - 1]);
    }
  }
  return decoded;
}

Sequence FindPivotItems(const StateGrid& grid) {
  if (!grid.HasAcceptingRun()) return {};
  PivotDp& dp = PivotDp::ForThisThread();
  dp.Load(grid);
  return dp.Pivots();  // ε (the empty candidate) is never a pivot
}

// The raw DFS of the no-grid search. Set i of acc_ holds the pivots of the
// path down to depth i, and set n + 1 their union over the accepting paths.
bool PivotDp::NoGridDfs(const StepTable& table, size_t i, StateId q) {
  if (steps_left_-- == 0) return false;
  const size_t W = width_;
  const size_t n = acc_.size() / W - 2;
  const Word* acc = acc_.data() + i * W;
  if (i == n) {
    Word* all = acc_.data() + (n + 1) * W;
    for (size_t w = 0; w < W && table.IsFinal(q); ++w) all[w] |= acc[w];
    return true;
  }
  Word* next = acc_.data() + (i + 1) * W;
  for (const StepTable::Move& m : table.MovesFrom(q)) {
    const size_t slot = i * num_classes_ + m.cls;
    if (mask_min_[slot] == kNoEdge) continue;
    std::fill(next, next + W, 0);
    OrStep(acc, slot, next);
    if (!NoGridDfs(table, i + 1, m.to)) return false;
  }
  return true;
}

bool FindPivotItemsNoGrid(const Sequence& T, const StepTable& table,
                          uint64_t max_steps, Sequence* pivots) {
  pivots->clear();
  if (table.num_states() == 0) return true;
  PivotDp& dp = PivotDp::ForThisThread();
  const size_t n = T.size();
  const size_t nc = table.num_classes();
  // Label slot i * nc + cls is the step of class cls on T[i] (kNoEdge if
  // it yields none).
  auto for_each_edge = [&](auto&& fn) {
    Span<ItemId> label(nullptr, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t col = table.Column(T[i]);
      for (uint32_t cls = 0; cls < nc; ++cls) {
        if (table.Step(col, cls, &label)) fn(i * nc + cls, label);
      }
    }
  };
  dp.Rank(n * nc, [&](auto&& add) {
    for_each_edge([&](size_t, Span<ItemId> label) { add(label); });
  });
  for_each_edge([&](size_t slot, Span<ItemId> label) {
    dp.SetMask(slot, label);
  });
  dp.num_classes_ = nc;
  dp.acc_.assign((n + 2) * dp.width_, 0);
  dp.acc_[0] = 1;  // {ε}
  dp.steps_left_ = max_steps;
  const bool complete = dp.NoGridDfs(table, 0, table.initial());
  *pivots = dp.Decode(dp.acc_, n + 1).items;
  return complete;
}

}  // namespace dseq
