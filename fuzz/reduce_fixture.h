// The fixed job behind fuzz_reduce and its seeds (make_corpus.cc): the
// paper's running example dictionary, a constraint whose outputs hold at
// most four items (so no input can make the mined language explode), its
// step table σ-pruned at kSigma, and each miner's options. The input's
// first byte selects the miner and, for D-SEQ, weighted records; the rest
// is a list of varint-length-prefixed chunks, the key then the values.
#ifndef DSEQ_FUZZ_REDUCE_FIXTURE_H_
#define DSEQ_FUZZ_REDUCE_FIXTURE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/grid.h"
#include "src/dict/sequence.h"
#include "src/dist/dcand_miner.h"
#include "src/dist/dseq_miner.h"
#include "src/dist/naive.h"
#include "src/fst/compiler.h"
#include "src/util/common.h"
#include "src/util/varint.h"

namespace dseq::fuzz {

inline constexpr uint64_t kSigma = 2;
inline constexpr char kPattern[] = ".*(A)[.*(.^)]{0,2}.*(b).*";

// Selector byte: the miner is (byte & 3) % 3; bit kWeighted makes D-SEQ's
// records weighted (DSeqOptions::aggregate_sequences).
inline constexpr uint8_t kNaive = 0;
inline constexpr uint8_t kDSeq = 1;
inline constexpr uint8_t kDCand = 2;
inline constexpr uint8_t kWeighted = 4;

inline uint8_t Miner(uint8_t selector) { return (selector & 3) % 3; }

struct ReduceFixture {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPattern, db.dict);
  StepTable table{fst, db.dict, kSigma};
};

inline const ReduceFixture& Fixture() {
  static NoDestructor<ReduceFixture> fixture;
  return *fixture;
}

// One fuzz input: the selector, then each chunk length-prefixed.
inline std::string EncodeReduceInput(uint8_t selector, std::string_view key,
                                     const std::vector<std::string>& values) {
  std::string out(1, static_cast<char>(selector));
  PutVarint(&out, key.size());
  out.append(key);
  for (const std::string& v : values) {
    PutVarint(&out, v.size());
    out.append(v);
  }
  return out;
}

}  // namespace dseq::fuzz

#endif  // DSEQ_FUZZ_REDUCE_FIXTURE_H_
