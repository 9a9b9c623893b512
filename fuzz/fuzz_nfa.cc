// Fuzzes NFA deserialization (src/nfa/serializer.h). Serialized NFAs cross
// the shuffle, so DeserializeNfa must reject every malformed byte string
// with NfaParseError — never crash, hang, or over-allocate. Inputs that do
// parse must be acyclic (the NFA miner recurses along edges) and must
// normalize: serialize(parse(x)) is a fixed point of parse∘serialize.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/nfa/output_nfa.h"
#include "src/nfa/serializer.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  dseq::OutputNfa nfa;
  try {
    nfa = dseq::DeserializeNfa(input);
  } catch (const dseq::NfaParseError&) {
    return 0;  // malformed input correctly rejected
  }
  if (!nfa.IsAcyclic()) __builtin_trap();
  // Parsed NFAs re-serialize deterministically: one round of normalization
  // must reach a fixed point, or shuffle aggregation of identical NFAs
  // breaks.
  std::string first = dseq::SerializeNfa(nfa);
  std::string second = dseq::SerializeNfa(dseq::DeserializeNfa(first));
  if (first != second) __builtin_trap();
  return 0;
}
