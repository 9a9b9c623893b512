// Fuzzes NFA decoding (src/nfa/serializer.h). Serialized NFAs cross the
// shuffle, so both decoders — DeserializeNfa and D-CAND's reduce path,
// DfsInput::AddNfa — must reject every malformed byte string with
// NfaParseError, never crash, hang, or over-allocate, and must agree: the
// store accepts exactly the inputs DeserializeNfa accepts and stops at the
// same position. Inputs that do parse must be acyclic (DESQ-DFS follows
// edges to ever larger coordinates) and must normalize:
// serialize(parse(x)) is a fixed point of parse∘serialize.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/core/desq_dfs.h"
#include "src/nfa/output_nfa.h"
#include "src/nfa/serializer.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  bool store_accepts = true;
  size_t store_pos = 0;
  try {
    dseq::DfsInput store(dseq::kNoItem);
    store.AddNfa(input, &store_pos, /*weight=*/1);
  } catch (const dseq::NfaParseError&) {
    store_accepts = false;
  }
  dseq::OutputNfa nfa;
  size_t pos = 0;
  try {
    nfa = dseq::DeserializeNfa(input, &pos);
  } catch (const dseq::NfaParseError&) {
    if (store_accepts) __builtin_trap();
    return 0;  // malformed input correctly rejected
  }
  if (!store_accepts || store_pos != pos) __builtin_trap();
  if (pos != input.size()) return 0;  // trailing bytes: not one NFA
  if (!nfa.IsAcyclic()) __builtin_trap();
  // Parsed NFAs re-serialize deterministically: one round of normalization
  // must reach a fixed point, or shuffle aggregation of identical NFAs
  // breaks.
  std::string first = dseq::SerializeNfa(nfa);
  std::string second = dseq::SerializeNfa(dseq::DeserializeNfa(first));
  if (first != second) __builtin_trap();
  return 0;
}
