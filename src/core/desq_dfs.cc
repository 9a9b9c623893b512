#include "src/core/desq_dfs.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>

#include "src/core/pivot.h"
#include "src/nfa/serializer.h"
#include "src/util/check.h"

namespace dseq {
namespace {

// Per-coordinate bits of a DfsInput: pivot.h's two seen-k liveness bits and
// its ε-accept bit, the three a store keeps; and, while a sequence is
// built, "reached from its root over kept edges".
constexpr uint8_t kStoredBits = kLive | kEpsAccept;
constexpr uint8_t kReached = 8;

constexpr uint64_t kMaxIndex = std::numeric_limits<uint32_t>::max();

// The bit a root must have to be stored: a run starts unseen with a pivot;
// without one every accepting run counts.
uint8_t RootBit(ItemId pivot) {
  return pivot == kNoItem ? kLiveSeen : kLiveUnseen;
}

}  // namespace

// --- DfsInput --------------------------------------------------------------

DfsInput::DfsInput(const StepTable& table, ItemId pivot)
    : table_(&table),
      pivot_(pivot),
      bound_(pivot == kNoItem ? std::numeric_limits<ItemId>::max() : pivot) {
  edge_begin_.push_back(0);
}

DfsInput::DfsInput(ItemId pivot)
    : pivot_(pivot),
      bound_(pivot == kNoItem ? std::numeric_limits<ItemId>::max() : pivot) {
  edge_begin_.push_back(0);
}

void DfsInput::Add(const Sequence& T, uint64_t weight) {
  DSEQ_CHECK_MSG(table_ != nullptr, "DfsInput built without a step table");
  const StepTable& table = *table_;
  const size_t n = T.size();
  const size_t ns = table.num_states();
  const size_t nc = table.num_classes();
  if (ns == 0) return;
  if ((n + 1) * ns > kMaxIndex) {
    throw std::length_error("DESQ-DFS input sequence too long");
  }

  // Pass 1, the table's walk: every step cut to the pivot and every
  // coordinate's bits. Column throws here, before the store changes.
  table.Walk(T, pivot_, &steps_, &scratch_);
  uint8_t* const bits = scratch_.data();
  const StateId root = table.initial();
  if ((bits[root] & RootBit(pivot_)) == 0) return;

  // Pass 2, forward from the root: the live coordinates it reaches, in
  // coordinate order, and their edges into live targets. Moves are sorted
  // by (to, class), so the kept edges into one target are adjacent and an
  // identical (from, to, label) edge is caught within that run.
  const size_t coords = (n + 1) * ns;
  if (remap_.size() < coords) remap_.resize(coords);
  const ItemId* const pool = table.label_pool();
  const Mark at = BeginAppend();
  bits[root] |= kReached;
  uint32_t local = 0;
  for (size_t i = 0; i <= n; ++i) {
    for (StateId q = 0; q < ns; ++q) {
      const size_t c = i * ns + q;
      if ((bits[c] & kReached) == 0) continue;
      remap_[c] = local++;
      bits_.push_back(bits[c] & kStoredBits);
      if (i < n) {
        const StepTable::WalkStep* const steps = &steps_[i * nc];
        const size_t next = (i + 1) * ns;
        size_t run = edges_.size();
        StateId run_to = ns;
        for (const StepTable::Move& m : table.MovesFrom(q)) {
          const StepTable::WalkStep& step = steps[m.cls];
          if (step.kind == StepTable::kNoStep) continue;
          if (step.kind == StepTable::kCutStep ||
              (bits[next + m.to] & kLive) == 0) {
            ++dropped_edges_;
            continue;
          }
          if (m.to != run_to) {
            run_to = m.to;
            run = edges_.size();
          } else if (std::any_of(
                         edges_.begin() + run, edges_.end(),
                         [&](const Edge& e) {
                           return std::equal(
                               pool + e.label_begin,
                               pool + e.label_begin + e.label_size,
                               pool + step.label_begin,
                               pool + step.label_begin + step.label_size);
                         })) {
            continue;
          }
          edges_.push_back(Edge{static_cast<uint32_t>(next + m.to),
                                step.label_begin, step.label_size});
          bits[next + m.to] |= kReached;
        }
      }
      edge_begin_.push_back(static_cast<uint32_t>(edges_.size()));
    }
  }
  FinishAppend(at, weight);
}

void DfsInput::AddPending(size_t from, size_t target, Span<ItemId> out) {
  // TestPivotEdge's label: out ∩ [0, k]; a non-ε edge left empty is dead.
  size_t size =
      std::upper_bound(out.begin(), out.end(), bound_) - out.begin();
  if (size == 0 && !out.empty()) {
    cut_from_.push_back(static_cast<uint32_t>(from));
    return;
  }
  pending_.push_back(PendingEdge{static_cast<uint32_t>(from),
                                 static_cast<uint32_t>(target),
                                 static_cast<uint32_t>(pending_labels_.size()),
                                 static_cast<uint32_t>(size)});
  pending_labels_.insert(pending_labels_.end(), out.begin(),
                         out.begin() + size);
}

void DfsInput::SealPending() {
  // Distinct FST transitions can collapse to the same (from, to, label)
  // edge, and distinct labels to the same cut; with no pivot this keeps the
  // edges exactly StateGrid's.
  const ItemId* const labels = pending_labels_.data();
  auto label = [labels](const PendingEdge& e) {
    return labels + e.label_begin;
  };
  auto ends_less = [](const PendingEdge& a, const PendingEdge& b) {
    return a.from != b.from ? a.from < b.from : a.target < b.target;
  };
  auto less = [&](const PendingEdge& a, const PendingEdge& b) {
    if (a.from != b.from || a.target != b.target) return ends_less(a, b);
    return std::lexicographical_compare(label(a), label(a) + a.label_size,
                                        label(b), label(b) + b.label_size);
  };
  auto equal = [&](const PendingEdge& a, const PendingEdge& b) {
    return a.from == b.from && a.target == b.target &&
           std::equal(label(a), label(a) + a.label_size, label(b),
                      label(b) + b.label_size);
  };
  // A grid's edges come sorted by (from, to); only an NFA's need the full
  // sort.
  if (std::is_sorted(pending_.begin(), pending_.end(), ends_less)) {
    SortWithinRuns(pending_.begin(), pending_.end(), ends_less, less);
  } else {
    std::sort(pending_.begin(), pending_.end(), less);
  }
  pending_.erase(std::unique(pending_.begin(), pending_.end(), equal),
                 pending_.end());
}

void DfsInput::Add(const StateGrid& grid, uint64_t weight) {
  DSEQ_CHECK_MSG(table_ == nullptr, "grid added to a table-fed DfsInput");
  if (!grid.HasAcceptingRun()) return;
  const size_t n = grid.length();
  const size_t ns = grid.num_states();
  pending_.clear();
  pending_labels_.clear();
  cut_from_.clear();
  for (size_t i = 0; i < n; ++i) {
    for (const StateGrid::Edge& e : grid.EdgesAt(i)) {
      AddPending(i * ns + e.from, (i + 1) * ns + e.to, e.out);
    }
  }
  SealPending();
  scratch_.assign((n + 1) * ns, 0);
  for (StateId q = 0; q < ns; ++q) {
    if (grid.Alive(n, q) && grid.IsFinalState(q)) {
      scratch_[n * ns + q] = kLiveSeen | kEpsAccept;
    }
  }
  Commit(grid.initial_state(), weight);
}

void DfsInput::AddNfa(std::string_view bytes, size_t* pos, uint64_t weight) {
  DSEQ_DCHECK(table_ == nullptr);
  pending_.clear();
  pending_labels_.clear();
  cut_from_.clear();
  arcs_.clear();
  finals_.clear();
  const size_t n = ReadNfaEdges(
      bytes, pos,
      [this](StateId from, const Sequence& label, StateId to, bool /*created*/,
             bool final) {
        arcs_.emplace_back(from, to);
        if (final) finals_.push_back(to);
        AddPending(from, to, label);
      });

  // Kahn's algorithm over every decoded edge, the ones the pivot cut dropped
  // included, so a cycle is rejected as DeserializeNfa rejects it. Every
  // state but the root is the target of the edge that created it, so the
  // order starts at the root, and a state it misses lies on a cycle.
  std::sort(arcs_.begin(), arcs_.end());
  arc_begin_.assign(n + 1, 0);
  in_degree_.assign(n, 0);
  for (const auto& [from, to] : arcs_) {
    ++arc_begin_[from + 1];
    ++in_degree_[to];
  }
  std::partial_sum(arc_begin_.begin(), arc_begin_.end(), arc_begin_.begin());
  rank_.assign(n, 0);
  ready_.assign(in_degree_[0] == 0 ? 1 : 0, 0);
  uint32_t ordered = 0;
  while (!ready_.empty()) {
    const StateId q = ready_.back();
    ready_.pop_back();
    rank_[q] = ordered++;
    for (uint32_t k = arc_begin_[q]; k < arc_begin_[q + 1]; ++k) {
      const StateId next = arcs_[k].second;
      if (--in_degree_[next] == 0) ready_.push_back(next);
    }
  }
  if (ordered != n) throw NfaParseError("cyclic NFA");

  // The ranks are the coordinates (the root's is 0): every edge leads to a
  // larger one.
  for (PendingEdge& e : pending_) {
    e.from = rank_[e.from];
    e.target = rank_[e.target];
  }
  for (uint32_t& from : cut_from_) from = rank_[from];
  SealPending();
  scratch_.assign(n, 0);
  for (StateId q : finals_) scratch_[rank_[q]] = kLiveSeen | kEpsAccept;
  Commit(0, weight);
}

void DfsInput::Commit(size_t root, uint64_t weight) {
  const size_t coords = scratch_.size();
  uint8_t* const bits = scratch_.data();

  // Backward pass: the seen-k liveness bits over the pending edges, plus
  // the ε-accept table. Sorted by source, with every target larger, the
  // edges out of a coordinate are all swept before any edge into it.
  for (size_t j = pending_.size(); j-- > 0;) {
    const PendingEdge& e = pending_[j];
    DSEQ_DCHECK_LT(e.from, e.target);
    const bool carries_pivot =
        pivot_ != kNoItem && e.label_size != 0 &&
        pending_labels_[e.label_begin + e.label_size - 1] == pivot_;
    bits[e.from] |=
        BitsThrough(bits[e.target], e.label_size == 0, carries_pivot);
  }
  if ((bits[root] & RootBit(pivot_)) == 0) return;

  // Forward from the root, as Add(T, weight)'s second pass: the live
  // coordinates it reaches, in coordinate order, and their edges into live
  // targets.
  if (remap_.size() < coords) remap_.resize(coords);
  const Mark at = BeginAppend();
  bits[root] |= kReached;
  uint32_t local = 0;
  size_t j = 0;
  for (size_t c = 0; c < coords; ++c) {
    const bool stored = (bits[c] & kReached) != 0;
    if (stored) {
      remap_[c] = local++;
      bits_.push_back(bits[c] & kStoredBits);
    }
    for (; j < pending_.size() && pending_[j].from == c; ++j) {
      if (!stored) continue;
      const PendingEdge& e = pending_[j];
      if ((bits[e.target] & kLive) == 0) {
        ++dropped_edges_;
        continue;
      }
      bits[e.target] |= kReached;
      edges_.push_back(Edge{e.target, static_cast<uint32_t>(labels_.size()),
                            e.label_size});
      labels_.insert(labels_.end(), pending_labels_.begin() + e.label_begin,
                     pending_labels_.begin() + e.label_begin + e.label_size);
    }
    if (stored) edge_begin_.push_back(static_cast<uint32_t>(edges_.size()));
  }
  DSEQ_DCHECK_EQ(j, pending_.size());
  for (uint32_t c : cut_from_) {
    if (bits[c] & kReached) ++dropped_edges_;
  }
  FinishAppend(at, weight);
}

void DfsInput::FinishAppend(const Mark& at, uint64_t weight) {
  if (edges_.size() > kMaxIndex || labels_.size() > kMaxIndex) {
    bits_.resize(at.coord);
    edge_begin_.resize(at.coord + 1);
    edges_.resize(at.edge);
    labels_.resize(at.label);
    dropped_edges_ = at.dropped;
    throw std::length_error("DESQ-DFS input exceeds its index range");
  }
  for (size_t k = at.edge; k < edges_.size(); ++k) {
    edges_[k].target = remap_[edges_[k].target];
  }
  weights_.push_back(weight);
  coord_begin_.push_back(at.coord);
#if DSEQ_DCHECK_IS_ON
  // Only live coordinates are stored, the root first, and every edge leads
  // to a larger one of the same sequence.
  const size_t count = bits_.size() - at.coord;
  DSEQ_CHECK_GT(count, 0u);
  for (size_t c = 0; c < count; ++c) {
    DSEQ_CHECK_NE(bits_[at.coord + c] & kLive, 0);
    for (uint32_t k = edge_begin_[at.coord + c];
         k < edge_begin_[at.coord + c + 1]; ++k) {
      DSEQ_CHECK_GT(edges_[k].target, c);
      DSEQ_CHECK_LT(edges_[k].target, count);
    }
  }
  DSEQ_CHECK_NE(bits_[at.coord] & RootBit(pivot_), 0);
#endif
}

// --- The miner -------------------------------------------------------------

class DfsMiner {
 public:
  DfsMiner(const DfsInput& input, const DesqDfsOptions& options,
           MiningResult* out)
      : in_(input),
        options_(options),
        out_(out),
        labels_(input.Labels()),
        pivot_mode_(options.pivot != kNoItem),
        prune_(options.early_stop && pivot_mode_),
        stamp_(input.bits_.size(), 0) {}

  const DesqDfsStats& stats() const { return stats_; }

  void Run() {
    std::vector<Posting> roots;
    roots.reserve(in_.num_sequences());
    for (size_t s = 0; s < in_.num_sequences(); ++s) {
      roots.push_back(Posting{0, static_cast<uint32_t>(s), 0});
    }
    Expand(roots.data(), roots.data() + roots.size(), /*has_pivot=*/false,
           0);
  }

 private:
  // A posting (sequence, coordinate local to it), tagged with the item that
  // produced it while children are collected.
  struct Posting {
    ItemId item;
    uint32_t seq;
    uint32_t coord;

    bool operator<(const Posting& o) const {
      if (item != o.item) return item < o.item;
      if (seq != o.seq) return seq < o.seq;
      return coord < o.coord;
    }
    bool operator==(const Posting& o) const {
      return item == o.item && seq == o.seq && coord == o.coord;
    }
  };

  uint8_t Bits(const Posting& p) const {
    return in_.bits_[in_.coord_begin_[p.seq] + p.coord];
  }

  // Total weight of distinct sequences with postings: an upper bound on the
  // support of the prefix and all of its extensions.
  uint64_t PotentialSupport(const Posting* begin, const Posting* end) const {
    uint64_t total = 0;
    uint32_t prev = UINT32_MAX;
    for (const Posting* p = begin; p != end; ++p) {
      if (p->seq != prev) {
        total += in_.weights_[p->seq];
        prev = p->seq;
      }
    }
    return total;
  }

  uint64_t Support(const Posting* begin, const Posting* end) const {
    uint64_t support = 0;
    uint32_t counted = UINT32_MAX;
    for (const Posting* p = begin; p != end; ++p) {
      if (p->seq != counted && (Bits(*p) & kEpsAccept)) {
        support += in_.weights_[p->seq];
        counted = p->seq;
      }
    }
    return support;
  }

  // Children of one search-tree depth, reused across siblings. A deque, so
  // deeper levels appended during recursion leave this one in place.
  std::vector<Posting>& Level(size_t depth) {
    if (levels_.size() <= depth) levels_.emplace_back();
    return levels_[depth];
  }

  void NextEpoch() {
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  // Expands the current prefix; [begin, end) are its postings, sorted by
  // (seq, coord) and deduplicated.
  void Expand(const Posting* begin, const Posting* end, bool has_pivot,
              size_t depth) {
    if (PotentialSupport(begin, end) < options_.sigma) return;
    if (!prefix_.empty() && (!pivot_mode_ || has_pivot)) {
      uint64_t support = Support(begin, end);
      if (support >= options_.sigma) {
        out_->push_back(PatternCount{prefix_, support});
      }
    }
    ++stats_.expansions;

    // The ε-closure of every posting, collecting (item, child posting). One
    // epoch for all postings: a coordinate reached before yields the same
    // children again, so it is skipped.
    std::vector<Posting>& children = Level(depth);
    children.clear();
    NextEpoch();
    for (const Posting* p = begin; p != end; ++p) {
      const uint64_t base = in_.coord_begin_[p->seq];
      if (stamp_[base + p->coord] == epoch_) continue;
      stamp_[base + p->coord] = epoch_;
      stack_.clear();
      stack_.push_back(p->coord);
      while (!stack_.empty()) {
        const uint64_t c = base + stack_.back();
        stack_.pop_back();
        for (uint64_t k = in_.edge_begin_[c]; k < in_.edge_begin_[c + 1];
             ++k) {
          const DfsInput::Edge& e = in_.edges_[k];
          if (e.label_size == 0) {
            if (stamp_[base + e.target] != epoch_) {
              stamp_[base + e.target] = epoch_;
              stack_.push_back(e.target);
            }
            continue;
          }
          const uint8_t target_bits = in_.bits_[base + e.target];
          const ItemId* label = labels_ + e.label_begin;
          for (const ItemId* w = label; w != label + e.label_size; ++w) {
            if (prune_) {
              bool seen = has_pivot || *w == options_.pivot;
              if ((target_bits & (seen ? kLiveSeen : kLiveUnseen)) == 0) {
                ++stats_.postings_pruned;
                continue;
              }
            }
            children.push_back(Posting{*w, p->seq, e.target});
          }
        }
      }
    }
    std::sort(children.begin(), children.end());
    children.erase(std::unique(children.begin(), children.end()),
                   children.end());

    const Posting* data = children.data();
    for (size_t a = 0, b = 0; a < children.size(); a = b) {
      const ItemId w = children[a].item;
      while (b < children.size() && children[b].item == w) ++b;
      prefix_.push_back(w);
      Expand(data + a, data + b, has_pivot || w == options_.pivot, depth + 1);
      prefix_.pop_back();
    }
  }

  const DfsInput& in_;
  const DesqDfsOptions& options_;
  MiningResult* out_;
  const ItemId* const labels_;
  const bool pivot_mode_;
  const bool prune_;  // posting-level early stopping
  std::vector<uint32_t> stamp_;  // per global coordinate: last epoch seen
  uint32_t epoch_ = 0;
  std::vector<uint32_t> stack_;
  std::deque<std::vector<Posting>> levels_;
  Sequence prefix_;
  DesqDfsStats stats_;
};

MiningResult MineDesqDfs(const DfsInput& input, const DesqDfsOptions& options,
                         DesqDfsStats* stats) {
  if (options.pivot != input.pivot()) {
    throw std::invalid_argument("DESQ-DFS pivot differs from its input's");
  }
  MiningResult result;
  DfsMiner miner(input, options, &result);
  miner.Run();
  if (stats != nullptr) *stats = miner.stats();
  Canonicalize(&result);
  return result;
}

MiningResult MineDesqDfsGrids(const std::vector<StateGrid>& grids,
                              const std::vector<uint64_t>& weights,
                              const DesqDfsOptions& options) {
  DSEQ_CHECK_EQ(grids.size(), weights.size());
  DfsInput input(options.pivot);
  for (size_t i = 0; i < grids.size(); ++i) input.Add(grids[i], weights[i]);
  return MineDesqDfs(input, options);
}

MiningResult MineDesqDfs(const std::vector<Sequence>& db, const Fst& fst,
                         const Dictionary& dict,
                         const DesqDfsOptions& options) {
  const StepTable table(fst, dict, options.sigma);
  DfsInput input(table, options.pivot);
  for (const Sequence& T : db) {
    input.Add(T);
    if (options.max_total_grid_edges > 0 &&
        input.num_edges() > options.max_total_grid_edges) {
      throw MiningBudgetError("DESQ-DFS grid memory budget exceeded");
    }
  }
  return MineDesqDfs(input, options);
}

}  // namespace dseq
