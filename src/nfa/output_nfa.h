// Output NFAs for candidate representation (paper Sec. VI-A, Fig. 7/8).
//
// D-CAND sends to partition P_k an NFA that accepts exactly ρk(T): the
// candidate subsequences of T with pivot item k. The NFA's edges are labeled
// with *output sets* (one edge per non-ε output set of an accepting run;
// items larger than the pivot are dropped — they can only produce candidates
// with a larger pivot). PivotNfaBuilder builds it straight from the grid as
// the minimal DFA over these labels, in one depth-first subset construction
// that registers each state once its successors are done (Revuz's bottom-up
// minimization during construction), and writes the wire bytes from it
// directly. The paper's construction — insert every accepting run into a
// trie (AddRun), then Minimize — yields the same bytes and remains
// available for tests and benchmarks.
#ifndef DSEQ_NFA_OUTPUT_NFA_H_
#define DSEQ_NFA_OUTPUT_NFA_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/grid.h"
#include "src/util/common.h"

namespace dseq {

class PivotNfaBuilder;

/// A weighted acyclic NFA over output-set labels. State 0 is the root.
/// Invariant: every edge points from a lower to a higher state id until
/// Minimize() renumbers states in canonical DFS order.
class OutputNfa {
 public:
  /// Label id into labels(); labels are interned output sets.
  using LabelId = uint32_t;

  struct Edge {
    LabelId label;
    StateId target;

    bool operator==(const Edge& o) const {
      return label == o.label && target == o.target;
    }
  };

  OutputNfa() { states_.emplace_back(); }

  size_t num_states() const { return states_.size(); }
  size_t num_edges() const;
  bool IsFinal(StateId q) const { return states_[q].final; }
  const std::vector<Edge>& EdgesOf(StateId q) const {
    return states_[q].edges;
  }
  const Sequence& Label(LabelId id) const { return labels_[id]; }
  bool empty() const { return states_.size() == 1 && states_[0].edges.empty(); }

  /// Inserts one accepting run: the sequence of its non-ε output sets, with
  /// items > pivot removed. Sets that become empty must not occur (the pivot
  /// search guarantees every output set contains an item <= pivot when the
  /// pivot is in K(r)); such runs are skipped defensively. Runs whose label
  /// string is empty (all-ε output) are ignored — the empty candidate is
  /// never mined.
  void AddRun(const std::vector<const StateGrid::Edge*>& run, ItemId pivot);

  /// Inserts a pre-trimmed label string (used by tests and deserialization).
  void AddLabelString(const std::vector<Sequence>& label_string);

  /// Adds a single edge (used by the deserializer). Creates states on demand.
  StateId AddEdge(StateId from, const Sequence& label, StateId to_or_new,
                  bool create_new, bool mark_final);

  /// Minimizes the acyclic automaton by bottom-up hash-consing and renumbers
  /// states in canonical DFS preorder with edges sorted by label content.
  /// Equal candidate sets inserted in any run order serialize identically
  /// afterwards (required for shuffle aggregation).
  void Minimize();

  /// Sorts edges by label content and renumbers in DFS preorder without
  /// merging states (canonicalization for unminimized tries).
  void Canonicalize();

  /// True iff no state reaches itself, in O(V+E). Every construction keeps
  /// this; DeserializeNfa checks it on untrusted input, as DfsInput::AddNfa
  /// checks it over the edges it decodes, because DESQ-DFS needs an order
  /// of the states in which every edge leads forward.
  bool IsAcyclic() const;

  /// Enumerates the accepted language (expanding output sets), deduplicated
  /// and sorted; stops and returns false if more than `budget` raw sequences
  /// are produced. Test/oracle helper.
  bool Language(size_t budget, std::vector<Sequence>* out) const;

 private:
  friend class PivotNfaBuilder;

  struct State {
    bool final = false;
    std::vector<Edge> edges;
  };

  LabelId InternLabel(const Sequence& label);
  void RenumberDfs();

  std::vector<State> states_;
  std::vector<Sequence> labels_;
  // Indexes labels_ by content. PivotNfaBuilder appends distinct labels
  // without it; InternLabel catches up on first use.
  std::map<Sequence, LabelId> label_ids_;
};

/// D-CAND's map-side construction of the pivot NFAs of one σ-pruned grid
/// (paper Sec. VI-A), with no accepting run materialized. By Theorem 1 (see
/// TestPivotEdge), the label strings of ρk(T) are those of the runs that use
/// only ε and admissible edges and carry k at least once, each admissible
/// edge contributing out ∩ [0,k]. Build() makes pivot k's DFA over these
/// labels by subset construction over grid × {seen-k}: a DFA state is the
/// ε-closure of the coordinates reached on one label string, restricted to
/// the live ones (kLiveSeen/kLiveUnseen, pivot.h), so every state lies on an
/// accepting path. A label carries k iff it contains k, so all elements of a
/// subset share one seen-k bit. Build() first sweeps the grid's edge array
/// once, backward in coordinate order, for both each edge's move and each
/// coordinate's liveness; the construction then reads a coordinate's moves
/// off the grid's own per-coordinate edge ranges (StateGrid::EdgesOf).
///
/// The construction runs depth-first. The automaton is acyclic, so a
/// subset's successors are all done before it is; it is then registered by
/// its signature (final, (label, minimal successor)...) in a hash table, and
/// equal signatures share one state. By Revuz's argument this yields the
/// minimal DFA, which a finite language has only one of: its bytes
/// (SerializeTo) equal those of the run trie after Minimize(), and Unfold()
/// turns it into exactly that trie.
///
/// Labels are interned per sequence through a trie of the grid's output
/// sets: out ∩ [0,k] is the node at depth |out ∩ [0,k]| on out's path, so
/// equal labels share a node without any copy or map lookup. Nodes are
/// numbered in label-content order, so edges sorted by node are in the
/// canonical order Minimize() sorts by.
///
/// The builder also presents the minimal DFA of the last Build() as an
/// automaton (num_states, EdgesOf, ...; state ids are registration order,
/// the root is root()), as WriteNfaDfs in serializer.h reads it.
class PivotNfaBuilder {
 public:
  /// `grid` must outlive the builder. `max_states` bounds the states
  /// created over all Build() and Unfold() calls (0 = unlimited).
  explicit PivotNfaBuilder(const StateGrid& grid, uint64_t max_states = 0);

  /// Builds pivot k's minimal DFA, replacing the previous one. The DFA is
  /// empty if k ∉ K(T). Returns false once the state budget is exceeded;
  /// the DFA is then unusable.
  bool Build(ItemId pivot);

  /// Appends the wire bytes of the DFA, equal to SerializeNfaTo of the run
  /// trie after Minimize().
  void SerializeTo(std::string* out) const;

  /// Makes `*trie` (a fresh OutputNfa) the unfolding of the DFA: the trie
  /// with one state per prefix of an accepted label string, as the paper's
  /// run insertion builds it (Fig. 10b's unminimized "tries"), edges in
  /// canonical order. Returns false once the state budget is exceeded.
  bool Unfold(OutputNfa* trie);

  /// States created so far: the subsets of every Build() (the root
  /// included), plus the trie states of every Unfold().
  uint64_t states_created() const { return states_created_; }

  // The minimal DFA of the last Build(). Edge labels are label-trie nodes.
  StateId root() const { return root_; }
  size_t num_states() const { return dfa_.size(); }
  size_t num_edges() const { return dfa_.pool.size(); }
  bool empty() const { return num_edges() == 0; }
  bool IsFinal(StateId q) const { return dfa_.tag[q] != 0; }
  Span<OutputNfa::Edge> EdgesOf(StateId q) const { return dfa_.At(q); }
  Span<ItemId> Label(uint32_t node) const {
    return {grid_.edges()[node_edge_[node]].out.data(), node_depth_[node]};
  }

 private:
  // Interns strings of T, each with a small tag: one pool, one
  // open-addressing table of ids.
  template <typename T>
  struct InternTable {
    std::vector<T> pool;
    std::vector<uint32_t> begin;  // one entry per string, plus end
    std::vector<uint8_t> tag;
    std::vector<uint64_t> hash;
    std::vector<uint32_t> table;

    void Clear();
    size_t size() const { return tag.size(); }
    Span<T> At(uint32_t id) const {
      return {pool.data() + begin[id], begin[id + 1] - begin[id]};
    }
    // Id of (tag, values); a new string gets the next id.
    uint32_t Intern(uint8_t tag, const std::vector<T>& values);
  };

  // A subset on the depth-first stack, and the range of its
  // (label node, subset) successors in children_.
  struct Frame {
    uint32_t subset;
    uint32_t begin;
    uint32_t end;
    uint32_t next;
  };

  bool CountState();
  // Fills move_ and live_ for `pivot` in one backward sweep over the grid's
  // edges. False if the grid has no accepting run.
  bool Sweep(ItemId pivot);
  // Empties stack_ (live elements) into scratch_ as their ε-closure over
  // live elements, sorted.
  void Closure();
  // Pushes the frame of `subset`, its successors appended to children_.
  // Returns false once the state budget is exceeded.
  bool Expand(uint32_t subset);
  // Registers the top frame's subset in dfa_ and pops the frame.
  void Register();

  const StateGrid& grid_;
  uint64_t max_states_;
  uint64_t states_created_ = 0;
  size_t num_states_;    // FST states per layer
  uint32_t last_layer_;  // the first coordinate of the last layer

  // Per sequence, indexed by the grid's edge index g (EdgeIndex).
  // prefix_nodes_[label_base_[g] + j - 1]: label-trie node of the first j
  // items of edge g's out. node_edge_[x]: an edge whose out starts with
  // node x's label, node_depth_[x] its length.
  std::vector<uint32_t> label_base_;
  std::vector<uint32_t> prefix_nodes_;
  std::vector<uint32_t> node_edge_;
  std::vector<uint32_t> node_depth_;

  // Per pivot (Sweep). move_[g]: (label node << 1 | carries k) of an
  // admissible edge with a live target, else kEpsMove or kDeadMove.
  // live_[c]: coordinate c's liveness bits.
  std::vector<uint32_t> move_;
  std::vector<uint8_t> live_;
  // DFA subsets: sorted element codes (coordinate << 1 | seen-k).
  InternTable<uint32_t> subsets_;
  // canon_[s]: the minimal state of subset s, or kPending until registered.
  std::vector<StateId> canon_;
  // The minimal DFA: tag = final, edges ascending by label node.
  InternTable<OutputNfa::Edge> dfa_;
  StateId root_ = 0;
  std::vector<Frame> frames_;
  std::vector<std::pair<uint32_t, uint32_t>> children_;
  std::vector<OutputNfa::Edge> signature_;
  std::vector<std::pair<uint32_t, uint32_t>> moves_;  // (label node, code)
  std::vector<uint32_t> scratch_;  // the subset being interned
  std::vector<uint32_t> stack_;    // elements whose closure is taken next
  std::vector<uint32_t> visited_;  // closure stamp per element code
  std::vector<OutputNfa::LabelId> node_label_;  // Unfold's label per node
  uint32_t stamp_ = 0;
};

}  // namespace dseq

#endif  // DSEQ_NFA_OUTPUT_NFA_H_
