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

/// Serializes the NFA (call Minimize() or Canonicalize() first so that state
/// numbering is DFS preorder; the serializer asserts this layout).
std::string SerializeNfa(const OutputNfa& nfa);

/// Appends the serialization to `*out` (avoids a copy in hot paths).
void SerializeNfaTo(const OutputNfa& nfa, std::string* out);

/// Parses a serialized NFA starting at `*pos`; advances `*pos` to the end of
/// the consumed bytes. Throws NfaParseError on malformed input, cyclic NFAs
/// included. Takes a view so shuffle records can be decoded in place.
OutputNfa DeserializeNfa(std::string_view bytes, size_t* pos);

/// Convenience whole-string parse.
OutputNfa DeserializeNfa(std::string_view bytes);

}  // namespace dseq

#endif  // DSEQ_NFA_SERIALIZER_H_
