// NFA (de)serialization in DFS order (paper Sec. VI-A, "Serialization").
//
// Transitions are written in DFS visit order. For each transition we write a
// header byte and then, depending on the header:
//   * the source state   — only if it is not the target of the previous
//                          transition (the paper's rule 1),
//   * the label          — varint item count + delta-coded item ids,
//   * the target state   — only if the target was visited before (rule 2);
//                          otherwise the transition implicitly creates the
//                          next fresh state,
//   * a "final" marker   — if the target is final and newly created (rule 3;
//                          re-visited targets carry their known finality).
//
// States are numbered in DFS visit order (root = 0). Weighted NFAs prepend a
// varint weight.
#ifndef DSEQ_NFA_SERIALIZER_H_
#define DSEQ_NFA_SERIALIZER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/nfa/output_nfa.h"
#include "src/util/common.h"
#include "src/util/varint.h"

namespace dseq {

/// Thrown on malformed serialized NFAs.
class NfaParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace nfa_wire {

// Header bits of an edge record.
inline constexpr uint8_t kHasSource = 1;
inline constexpr uint8_t kHasTarget = 2;
inline constexpr uint8_t kFinalMarker = 4;

/// Appends a label: varint item count, then the ascending items as deltas.
void PutLabel(std::string* out, Span<ItemId> label);

}  // namespace nfa_wire

/// The one writer of the wire format: appends the automaton `a` rooted at
/// `root`, visiting its states depth-first and each state's edges in the
/// order a.EdgesOf(q) lists them. `a` provides num_states(), num_edges()
/// (every state and edge reachable from `root`), IsFinal(q), EdgesOf(q)
/// (indexable edges with `label` and `target`) and Label(label) (ascending
/// items with data() and size()). OutputNfa and PivotNfaBuilder's minimal
/// DFA are both written through it.
template <typename Automaton>
void WriteNfaDfs(const Automaton& a, StateId root, std::string* out) {
  PutVarint(out, a.num_edges());
  if (a.num_edges() == 0) return;
  // States are written by their DFS visit order, the numbering the parser
  // gives them. Track the previous record's target to apply the paper's
  // implicit source/target compression.
  constexpr StateId kUnvisited = std::numeric_limits<StateId>::max();
  std::vector<StateId> dfs_id(a.num_states(), kUnvisited);
  dfs_id[root] = 0;
  StateId next_id = 1;
  StateId prev_target = root;
  std::vector<std::pair<StateId, size_t>> stack;
  stack.emplace_back(root, 0);
  while (!stack.empty()) {
    auto& [q, ei] = stack.back();
    const auto& edges = a.EdgesOf(q);
    if (ei >= edges.size()) {
      stack.pop_back();
      continue;
    }
    const auto& e = edges[ei];
    ++ei;

    uint8_t header = 0;
    const bool target_new = dfs_id[e.target] == kUnvisited;
    if (q != prev_target) header |= nfa_wire::kHasSource;
    if (!target_new) header |= nfa_wire::kHasTarget;
    if (target_new && a.IsFinal(e.target)) header |= nfa_wire::kFinalMarker;
    out->push_back(static_cast<char>(header));
    if (header & nfa_wire::kHasSource) PutVarint(out, dfs_id[q]);
    const auto& label = a.Label(e.label);
    nfa_wire::PutLabel(out, Span<ItemId>(label.data(), label.size()));
    if (header & nfa_wire::kHasTarget) PutVarint(out, dfs_id[e.target]);

    prev_target = e.target;
    if (target_new) {
      dfs_id[e.target] = next_id++;
      stack.emplace_back(e.target, 0);
    }
  }
}

/// Serializes the NFA, numbering its states in DFS order from the root.
/// Call Minimize() or Canonicalize() first so that equal NFAs serialize to
/// equal bytes (shuffle aggregation relies on it).
std::string SerializeNfa(const OutputNfa& nfa);

/// Appends the serialization to `*out` (avoids a copy in hot paths).
void SerializeNfaTo(const OutputNfa& nfa, std::string* out);

/// Receives one decoded edge: its source, its label (ascending, non-empty;
/// valid only during the call) and its target. `created` marks a target that
/// the edge creates, numbered next in creation order (the root is 0);
/// `final` marks a created target as final.
using NfaEdgeFn = std::function<void(StateId from, const Sequence& label,
                                     StateId to, bool created, bool final)>;

/// The one parser of the wire format: decodes the NFA starting at `*pos`
/// edge by edge into `edge_fn`, advances `*pos` past it and returns its
/// number of states. Throws NfaParseError on malformed input; it does not
/// check for cycles, which its callers do over the decoded edges.
size_t ReadNfaEdges(std::string_view bytes, size_t* pos,
                    const NfaEdgeFn& edge_fn);

/// Parses a serialized NFA starting at `*pos`; advances `*pos` to the end of
/// the consumed bytes. Throws NfaParseError on malformed input, cyclic NFAs
/// included. For tests, fuzzing and the benchmark replay: D-CAND's reduce
/// decodes shuffle records with DfsInput::AddNfa instead.
OutputNfa DeserializeNfa(std::string_view bytes, size_t* pos);

/// Convenience whole-string parse.
OutputNfa DeserializeNfa(std::string_view bytes);

}  // namespace dseq

#endif  // DSEQ_NFA_SERIALIZER_H_
