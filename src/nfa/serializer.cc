#include "src/nfa/serializer.h"

#include <limits>
#include <vector>

#include "src/util/varint.h"

namespace dseq {
namespace nfa_wire {

void PutLabel(std::string* out, Span<ItemId> label) {
  PutVarint(out, label.size());
  ItemId prev = 0;
  for (ItemId w : label) {
    // Labels are sorted ascending, so plain deltas suffice.
    PutVarint(out, w - prev);
    prev = w;
  }
}

}  // namespace nfa_wire

namespace {

using nfa_wire::kFinalMarker;
using nfa_wire::kHasSource;
using nfa_wire::kHasTarget;

bool GetLabel(std::string_view data, size_t* pos, Sequence* label) {
  uint64_t n = 0;
  if (!GetVarint(data, pos, &n)) return false;
  label->clear();
  // Each encoded item is at least one byte; reject adversarial length
  // prefixes before they can drive a huge allocation.
  if (n > data.size() - *pos) return false;
  label->reserve(n);
  constexpr uint64_t kMaxItem = std::numeric_limits<ItemId>::max();
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t delta = 0;
    if (!GetVarint(data, pos, &delta)) return false;
    // Labels are strictly ascending item sets starting at an item >= 1, so
    // every delta is positive; the bound is checked before the addition so
    // an adversarial near-2^64 delta cannot wrap back into range.
    if (delta == 0 || delta > kMaxItem - prev) return false;
    prev += delta;
    label->push_back(static_cast<ItemId>(prev));
  }
  return true;
}

}  // namespace

void SerializeNfaTo(const OutputNfa& nfa, std::string* out) {
  WriteNfaDfs(nfa, 0, out);
}

std::string SerializeNfa(const OutputNfa& nfa) {
  std::string out;
  SerializeNfaTo(nfa, &out);
  return out;
}

size_t ReadNfaEdges(std::string_view bytes, size_t* pos,
                    const NfaEdgeFn& edge_fn) {
  uint64_t num_edges = 0;
  if (!GetVarint(bytes, pos, &num_edges)) {
    throw NfaParseError("truncated NFA header");
  }
  // Every serialized edge occupies at least two bytes (header + label), so
  // an adversarial edge count is rejected up front.
  if (num_edges > (bytes.size() - *pos) / 2) {
    throw NfaParseError("NFA edge count exceeds input size");
  }
  size_t num_states = 1;
  StateId prev_target = 0;
  Sequence label;
  for (uint64_t i = 0; i < num_edges; ++i) {
    if (*pos >= bytes.size()) throw NfaParseError("truncated NFA record");
    uint8_t header = static_cast<uint8_t>(bytes[*pos]);
    ++*pos;
    StateId src = prev_target;
    if (header & kHasSource) {
      uint64_t v = 0;
      if (!GetVarint(bytes, pos, &v)) throw NfaParseError("bad source state");
      if (v >= num_states) throw NfaParseError("source out of range");
      src = static_cast<StateId>(v);
    }
    if (!GetLabel(bytes, pos, &label) || label.empty()) {
      throw NfaParseError("bad label");
    }
    const bool created = (header & kHasTarget) == 0;
    StateId tgt = static_cast<StateId>(num_states);
    if (!created) {
      uint64_t v = 0;
      if (!GetVarint(bytes, pos, &v)) throw NfaParseError("bad target state");
      if (v >= num_states) throw NfaParseError("target out of range");
      tgt = static_cast<StateId>(v);
    } else {
      ++num_states;
    }
    edge_fn(src, label, tgt, created, created && (header & kFinalMarker));
    prev_target = tgt;
  }
  return num_states;
}

OutputNfa DeserializeNfa(std::string_view bytes, size_t* pos) {
  OutputNfa nfa;
  ReadNfaEdges(bytes, pos,
               [&nfa](StateId from, const Sequence& label, StateId to,
                      bool created, bool final) {
                 nfa.AddEdge(from, label, to, created, final);
               });
  // Targets may be any earlier state (DFS preorder has cross edges to lower
  // ids), so a back edge can close a cycle; DESQ-DFS assumes none.
  if (!nfa.IsAcyclic()) throw NfaParseError("cyclic NFA");
  return nfa;
}

OutputNfa DeserializeNfa(std::string_view bytes) {
  size_t pos = 0;
  OutputNfa nfa = DeserializeNfa(bytes, &pos);
  if (pos != bytes.size()) throw NfaParseError("trailing bytes after NFA");
  return nfa;
}

}  // namespace dseq
