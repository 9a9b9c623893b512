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
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/nfa/output_nfa.h"

namespace dseq {

/// Thrown on malformed serialized NFAs.
class NfaParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

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
