#include "src/nfa/output_nfa.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "src/core/pivot.h"
#include "src/nfa/serializer.h"
#include "src/util/check.h"

namespace dseq {

size_t OutputNfa::num_edges() const {
  size_t total = 0;
  for (const State& s : states_) total += s.edges.size();
  return total;
}

OutputNfa::LabelId OutputNfa::InternLabel(const Sequence& label) {
  for (LabelId id = label_ids_.size(); id < labels_.size(); ++id) {
    label_ids_.emplace(labels_[id], id);
  }
  auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  LabelId id = static_cast<LabelId>(labels_.size());
  labels_.push_back(label);
  label_ids_[label] = id;
  return id;
}

void OutputNfa::AddRun(const std::vector<const StateGrid::Edge*>& run,
                       ItemId pivot) {
  std::vector<Sequence> label_string;
  label_string.reserve(run.size());
  Sequence trimmed;
  for (const StateGrid::Edge* e : run) {
    if (e->out.empty()) continue;  // ε output
    trimmed.clear();
    for (ItemId w : e->out) {
      if (w <= pivot) trimmed.push_back(w);
    }
    if (trimmed.empty()) return;  // defensive: run has no pivot-k candidate
    label_string.push_back(trimmed);
  }
  AddLabelString(label_string);
}

void OutputNfa::AddLabelString(const std::vector<Sequence>& label_string) {
  if (label_string.empty()) return;
  StateId cur = 0;
  for (const Sequence& label : label_string) {
    LabelId lid = InternLabel(label);
    StateId next = UINT32_MAX;
    for (const Edge& e : states_[cur].edges) {
      if (e.label == lid) {
        next = e.target;
        break;
      }
    }
    if (next == UINT32_MAX) {
      next = static_cast<StateId>(states_.size());
      states_.emplace_back();
      states_[cur].edges.push_back(Edge{lid, next});
    }
    cur = next;
  }
  states_[cur].final = true;
}

StateId OutputNfa::AddEdge(StateId from, const Sequence& label,
                           StateId to_or_new, bool create_new,
                           bool mark_final) {
  LabelId lid = InternLabel(label);
  StateId to = to_or_new;
  if (create_new) {
    to = static_cast<StateId>(states_.size());
    states_.emplace_back();
  }
  states_[from].edges.push_back(Edge{lid, to});
  if (mark_final) states_[to].final = true;
  return to;
}

bool OutputNfa::IsAcyclic() const {
  // Kahn's algorithm: a topological order covers every state iff there is
  // no cycle.
  std::vector<uint32_t> in_degree(states_.size(), 0);
  for (const State& s : states_) {
    for (const Edge& e : s.edges) ++in_degree[e.target];
  }
  std::vector<StateId> ready;
  for (StateId q = 0; q < states_.size(); ++q) {
    if (in_degree[q] == 0) ready.push_back(q);
  }
  size_t ordered = 0;
  while (!ready.empty()) {
    StateId q = ready.back();
    ready.pop_back();
    ++ordered;
    for (const Edge& e : states_[q].edges) {
      if (--in_degree[e.target] == 0) ready.push_back(e.target);
    }
  }
  return ordered == states_.size();
}

namespace {

// Signature of a state for hash-consing: finality + canonicalized edges
// (label *content* index, canonical target).
struct StateSignature {
  bool final;
  std::vector<std::pair<uint32_t, uint32_t>> edges;

  bool operator==(const StateSignature& o) const {
    return final == o.final && edges == o.edges;
  }
};

struct StateSignatureHash {
  size_t operator()(const StateSignature& s) const {
    size_t h = s.final ? 0x9e3779b97f4a7c15ULL : 0x517cc1b727220a95ULL;
    for (const auto& [l, t] : s.edges) {
      h ^= (static_cast<size_t>(l) * 0x9e3779b97f4a7c15ULL + t) +
           0x9e3779b9 + (h << 6) + (h >> 2);
    }
    return h;
  }
};

}  // namespace

void OutputNfa::Minimize() {
  size_t n = states_.size();
  if (n <= 1) return;

  // Canonical order of label ids by content, so that signatures do not
  // depend on interning order.
  std::vector<uint32_t> label_rank(labels_.size());
  {
    std::vector<LabelId> order(labels_.size());
    for (LabelId i = 0; i < labels_.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](LabelId a, LabelId b) {
      return labels_[a] < labels_[b];
    });
    for (uint32_t rank = 0; rank < order.size(); ++rank) {
      label_rank[order[rank]] = rank;
    }
  }

  // The trie invariant (edges point to higher ids) makes descending id order
  // a reverse topological order: children are canonicalized before parents.
  std::vector<StateId> canon(n);
  std::unordered_map<StateSignature, StateId, StateSignatureHash> registry;
  for (size_t qi = n; qi-- > 0;) {
    StateId q = static_cast<StateId>(qi);
    StateSignature sig;
    sig.final = states_[q].final;
    sig.edges.reserve(states_[q].edges.size());
    for (const Edge& e : states_[q].edges) {
      sig.edges.emplace_back(label_rank[e.label], canon[e.target]);
    }
    std::sort(sig.edges.begin(), sig.edges.end());
    sig.edges.erase(std::unique(sig.edges.begin(), sig.edges.end()),
                    sig.edges.end());
    auto [it, inserted] = registry.emplace(sig, q);
    canon[q] = it->second;
  }

  // Rewrite edges to canonical targets, keep only canonical states, then
  // renumber in DFS preorder for a deterministic serialization.
  for (State& s : states_) {
    for (Edge& e : s.edges) e.target = canon[e.target];
  }
  RenumberDfs();
}

void OutputNfa::Canonicalize() { RenumberDfs(); }

void OutputNfa::RenumberDfs() {
  // Sort edges by (label content, subtree) — approximated by label content
  // then current target id — then renumber states in DFS preorder.
  for (State& s : states_) {
    std::sort(s.edges.begin(), s.edges.end(),
              [&](const Edge& a, const Edge& b) {
                if (labels_[a.label] != labels_[b.label]) {
                  return labels_[a.label] < labels_[b.label];
                }
                return a.target < b.target;
              });
    s.edges.erase(std::unique(s.edges.begin(), s.edges.end(),
                              [](const Edge& a, const Edge& b) {
                                return a.label == b.label &&
                                       a.target == b.target;
                              }),
                  s.edges.end());
  }

  std::vector<StateId> remap(states_.size(), UINT32_MAX);
  std::vector<StateId> order;
  order.reserve(states_.size());
  // Iterative DFS preorder from root, visiting edges in sorted order.
  std::vector<std::pair<StateId, size_t>> stack;
  remap[0] = 0;
  order.push_back(0);
  stack.emplace_back(0, 0);
  while (!stack.empty()) {
    auto& [q, ei] = stack.back();
    if (ei >= states_[q].edges.size()) {
      stack.pop_back();
      continue;
    }
    StateId t = states_[q].edges[ei].target;
    ++ei;
    if (remap[t] == UINT32_MAX) {
      remap[t] = static_cast<StateId>(order.size());
      order.push_back(t);
      stack.emplace_back(t, 0);
    }
  }

  std::vector<State> new_states(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    State& src = states_[order[i]];
    new_states[i].final = src.final;
    new_states[i].edges = std::move(src.edges);
    for (Edge& e : new_states[i].edges) e.target = remap[e.target];
  }
  states_ = std::move(new_states);
}

namespace {

constexpr uint32_t kEpsMove = UINT32_MAX;
constexpr uint32_t kDeadMove = UINT32_MAX - 1;
constexpr uint32_t kNoLabel = UINT32_MAX;
constexpr uint32_t kEmptySlot = UINT32_MAX;
constexpr StateId kPending = UINT32_MAX;

// The liveness bit (kLiveSeen or kLiveUnseen) of an element with the given
// seen-k bit.
constexpr uint8_t LiveBit(uint32_t seen) {
  return seen != 0 ? kLiveSeen : kLiveUnseen;
}

uint64_t HashWord(uint32_t code) { return code; }
uint64_t HashWord(const OutputNfa::Edge& e) {
  return uint64_t{e.label} << 32 | e.target;
}

}  // namespace

template <typename T>
void PivotNfaBuilder::InternTable<T>::Clear() {
  pool.clear();
  begin.assign(1, 0);
  tag.clear();
  hash.clear();
  table.assign(64, kEmptySlot);
}

template <typename T>
uint32_t PivotNfaBuilder::InternTable<T>::Intern(uint8_t t,
                                                 const std::vector<T>& values) {
  uint64_t h = values.size() << 1 | t;
  for (const T& v : values) {
    h = (h ^ HashWord(v)) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
  }
  const size_t mask = table.size() - 1;
  size_t slot = h & mask;
  for (; table[slot] != kEmptySlot; slot = (slot + 1) & mask) {
    const uint32_t id = table[slot];
    if (hash[id] != h || tag[id] != t) continue;
    const Span<T> stored = At(id);
    if (stored.size() == values.size() &&
        std::equal(values.begin(), values.end(), stored.begin())) {
      return id;
    }
  }
  const uint32_t id = static_cast<uint32_t>(tag.size());
  table[slot] = id;
  tag.push_back(t);
  hash.push_back(h);
  pool.insert(pool.end(), values.begin(), values.end());
  begin.push_back(static_cast<uint32_t>(pool.size()));
  if (2 * tag.size() > table.size()) {
    table.assign(table.size() * 2, kEmptySlot);
    const size_t grown_mask = table.size() - 1;
    for (uint32_t s = 0; s < tag.size(); ++s) {
      size_t at = hash[s] & grown_mask;
      while (table[at] != kEmptySlot) at = (at + 1) & grown_mask;
      table[at] = s;
    }
  }
  return id;
}

PivotNfaBuilder::PivotNfaBuilder(const StateGrid& grid, uint64_t max_states)
    : grid_(grid),
      max_states_(max_states),
      num_states_(grid.num_states()),
      last_layer_(static_cast<uint32_t>(grid.length() * grid.num_states())) {
  const size_t n = grid.length();
  const size_t ns = num_states_;
  // Element codes (coordinate << 1 | seen-k) must fit 32 bits.
  DSEQ_CHECK_LT((n + 1) * ns, size_t{1} << 31);
  const Span<StateGrid::Edge> edges = grid.edges();

  // Label trie: in content order, outputs sharing a prefix are adjacent, so
  // each one reuses the nodes of its common prefix with the previous one.
  // A node is created by the first output with its prefix, so node ids
  // follow label content: a prefix precedes its extensions, and outputs
  // with a smaller prefix come first.
  label_base_.resize(edges.size());
  std::vector<uint32_t> order;
  uint32_t total = 0;
  for (uint32_t g = 0; g < edges.size(); ++g) {
    label_base_[g] = total;
    total += edges[g].out.size();
    if (!edges[g].out.empty()) order.push_back(g);
  }
  prefix_nodes_.resize(total);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return edges[a].out < edges[b].out;
  });
  const Sequence* prev = nullptr;
  uint32_t prev_base = 0;
  for (uint32_t g : order) {
    const Sequence& out = edges[g].out;
    size_t common = 0;
    if (prev != nullptr) {
      while (common < out.size() && common < prev->size() &&
             out[common] == (*prev)[common]) {
        ++common;
      }
    }
    uint32_t* nodes = &prefix_nodes_[label_base_[g]];
    for (size_t j = 0; j < out.size(); ++j) {
      if (j < common) {
        nodes[j] = prefix_nodes_[prev_base + j];
      } else {
        nodes[j] = static_cast<uint32_t>(node_edge_.size());
        node_edge_.push_back(g);
        node_depth_.push_back(static_cast<uint32_t>(j + 1));
      }
    }
    prev = &out;
    prev_base = label_base_[g];
  }
#if DSEQ_DCHECK_IS_ON
  for (uint32_t x = 1; x < node_edge_.size(); ++x) {
    const Span<ItemId> a = Label(x - 1);
    const Span<ItemId> b = Label(x);
    DSEQ_CHECK(std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                            b.end()));
  }
#endif
  visited_.assign((n + 1) * ns * 2, 0);
}

bool PivotNfaBuilder::CountState() {
  ++states_created_;
  return max_states_ == 0 || states_created_ <= max_states_;
}

bool PivotNfaBuilder::Build(ItemId pivot) {
  dfa_.Clear();
  root_ = 0;
  if (!CountState()) return false;  // the root
  const uint32_t start = grid_.initial_state();  // coordinate (0, initial)
  if (!Sweep(pivot) || (live_[start] & kLiveUnseen) == 0) {
    signature_.clear();
    dfa_.Intern(0, signature_);  // pivot ∉ K(T): the root alone
    return true;
  }

  subsets_.Clear();
  canon_.clear();
  frames_.clear();
  children_.clear();

  stack_.assign(1, start << 1);
  Closure();
  subsets_.Intern(0, scratch_);
  canon_.push_back(kPending);
  if (!Expand(0)) return false;
  while (!frames_.empty()) {
    Frame& top = frames_.back();
    if (top.next == top.end) {
      Register();
      continue;
    }
    const uint32_t child = children_[top.next++].second;
    if (canon_[child] == kPending && !Expand(child)) return false;
  }
  root_ = canon_[0];
  return true;
}

bool PivotNfaBuilder::Sweep(ItemId pivot) {
  if (!grid_.HasAcceptingRun()) return false;
  const size_t n = grid_.length();
  const size_t ns = num_states_;
  live_.assign((n + 1) * ns, 0);
  move_.resize(grid_.num_edges());
  for (StateId q = 0; q < ns; ++q) {
    if (grid_.Alive(n, q) && grid_.IsFinalState(q)) {
      live_[last_layer_ + q] = kLiveSeen;
    }
  }
  // Every edge leads one layer up, so descending layers settle a layer's
  // bits before the layer below reads them.
  for (size_t i = n; i-- > 0;) {
    uint8_t* const live = &live_[i * ns];
    const uint8_t* const above = live + ns;
    for (const StateGrid::Edge& e : grid_.EdgesAt(i)) {
      const size_t g = grid_.EdgeIndex(e);
      move_[g] = kDeadMove;
      const uint8_t next = above[e.to];
      if (next == 0) continue;  // no live target: as good as dead
      const PivotEdge test = TestPivotEdge(e.out, pivot);
      if (test.kind == PivotEdge::kDead) continue;
      const bool eps = test.kind == PivotEdge::kEpsilon;
      if (eps) {
        move_[g] = kEpsMove;
      } else {
        const uint32_t node =
            prefix_nodes_[label_base_[g] + test.label_size - 1];
        move_[g] = node << 1 | (test.carries_pivot ? 1 : 0);
      }
      live[e.from] |= BitsThrough(next, eps, test.carries_pivot);
    }
  }
  return true;
}

bool PivotNfaBuilder::Expand(uint32_t subset) {
  const size_t ns = num_states_;
  moves_.clear();
  for (uint32_t code : subsets_.At(subset)) {
    uint32_t coord = code >> 1;
    uint32_t seen = code & 1;
    uint32_t next_layer = (coord / ns + 1) * ns;
    for (const StateGrid::Edge& e : grid_.EdgesOf(coord)) {
      uint32_t move = move_[grid_.EdgeIndex(e)];
      if (move >= kDeadMove) continue;  // ε (in the closure) or dead
      uint32_t next_seen = seen | (move & 1);
      uint32_t to = next_layer + e.to;
      if ((live_[to] & LiveBit(next_seen)) == 0) continue;
      moves_.emplace_back(move >> 1, to << 1 | next_seen);
    }
  }
  // One edge per label: the targets of its moves, ε-closed. Sorted moves
  // give the edges in ascending label-node order.
  std::sort(moves_.begin(), moves_.end());
  const uint32_t begin = static_cast<uint32_t>(children_.size());
  for (size_t lo = 0; lo < moves_.size();) {
    size_t hi = lo;
    stack_.clear();
    while (hi < moves_.size() && moves_[hi].first == moves_[lo].first) {
      stack_.push_back(moves_[hi++].second);
    }
    Closure();
    const uint32_t target = subsets_.Intern(0, scratch_);
    if (target == canon_.size()) {
      if (!CountState()) return false;
      canon_.push_back(kPending);
    }
    children_.emplace_back(moves_[lo].first, target);
    lo = hi;
  }
  const uint32_t end = static_cast<uint32_t>(children_.size());
  frames_.push_back(Frame{subset, begin, end, begin});
  return true;
}

void PivotNfaBuilder::Register() {
  const Frame& top = frames_.back();
  signature_.clear();
  for (uint32_t c = top.begin; c < top.end; ++c) {
    const auto& [node, child] = children_[c];
    // Post order: every successor is registered before its predecessor.
    DSEQ_DCHECK_NE(canon_[child], kPending);
    DSEQ_DCHECK(signature_.empty() || signature_.back().label < node);
    signature_.push_back(OutputNfa::Edge{node, canon_[child]});
  }
  const Span<uint32_t> elements = subsets_.At(top.subset);
  // Only seen-k elements are live on the last layer: they accept. Every
  // state is live: it accepts or has a way on.
  const bool final = (elements[elements.size() - 1] >> 1) >= last_layer_;
  DSEQ_DCHECK(final || !signature_.empty());
  canon_[top.subset] = dfa_.Intern(final ? 1 : 0, signature_);
  children_.resize(top.begin);
  frames_.pop_back();
}

void PivotNfaBuilder::Closure() {
  if (++stamp_ == 0) {
    std::fill(visited_.begin(), visited_.end(), 0);
    stamp_ = 1;
  }
  const size_t ns = num_states_;
  scratch_.clear();
  while (!stack_.empty()) {
    uint32_t code = stack_.back();
    stack_.pop_back();
    if (visited_[code] == stamp_) continue;
    visited_[code] = stamp_;
    scratch_.push_back(code);
    uint32_t coord = code >> 1;
    uint32_t seen = code & 1;
    uint32_t next_layer = (coord / ns + 1) * ns;
    for (const StateGrid::Edge& e : grid_.EdgesOf(coord)) {
      if (move_[grid_.EdgeIndex(e)] != kEpsMove) continue;
      uint32_t to = next_layer + e.to;
      if ((live_[to] & LiveBit(seen)) == 0) continue;
      uint32_t next = to << 1 | seen;  // ε edges keep the seen bit
      if (visited_[next] != stamp_) stack_.push_back(next);
    }
  }
  std::sort(scratch_.begin(), scratch_.end());
  // A label carries k iff it contains k, so the seen bit is a function of
  // the label string read: a subset never holds both (c, unseen) and
  // (c, seen), and no element of it dominates another.
#if DSEQ_DCHECK_IS_ON
  for (uint32_t code : scratch_) DSEQ_CHECK_EQ(code & 1, scratch_[0] & 1);
#endif
}

void PivotNfaBuilder::SerializeTo(std::string* out) const {
  WriteNfaDfs(*this, root_, out);
}

bool PivotNfaBuilder::Unfold(OutputNfa* trie) {
  DSEQ_DCHECK(trie->num_states() == 1 && trie->labels_.empty());
  node_label_.assign(node_edge_.size(), kNoLabel);
  // (DFA state, trie state) pairs still to expand.
  std::vector<std::pair<StateId, StateId>> stack = {{root_, 0}};
  while (!stack.empty()) {
    auto [from, at] = stack.back();
    stack.pop_back();
    for (const OutputNfa::Edge& e : EdgesOf(from)) {
      if (!CountState()) return false;
      if (node_label_[e.label] == kNoLabel) {
        node_label_[e.label] =
            static_cast<OutputNfa::LabelId>(trie->labels_.size());
        const Span<ItemId> label = Label(e.label);
        trie->labels_.emplace_back(label.begin(), label.end());
      }
      StateId child = static_cast<StateId>(trie->states_.size());
      trie->states_.emplace_back();
      trie->states_[child].final = IsFinal(e.target);
      trie->states_[at].edges.push_back(
          OutputNfa::Edge{node_label_[e.label], child});
      stack.emplace_back(e.target, child);
    }
  }
  return true;
}

bool OutputNfa::Language(size_t budget, std::vector<Sequence>* out) const {
  out->clear();
  Sequence prefix;
  bool ok = true;
  // Recursive lambda DFS expanding output sets.
  std::function<void(StateId)> dfs = [&](StateId q) {
    if (!ok) return;
    if (states_[q].final && !prefix.empty()) {
      if (out->size() >= budget) {
        ok = false;
        return;
      }
      out->push_back(prefix);
    }
    for (const Edge& e : states_[q].edges) {
      for (ItemId w : labels_[e.label]) {
        prefix.push_back(w);
        dfs(e.target);
        prefix.pop_back();
        if (!ok) return;
      }
    }
  };
  dfs(0);
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return ok;
}

}  // namespace dseq
