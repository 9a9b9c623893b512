// Fuzzes the partition reduces (src/dist): MineNaivePartition,
// MineDSeqPartition and MineDCandPartition decode a shuffled key and its
// values, which a proc worker receives from other processes, and build and
// mine a store from them. On any bytes each must return or throw one of
// std::invalid_argument, NfaParseError, MiningBudgetError or
// std::length_error — never crash, hang, over-read or throw anything else.
// The job is fixed (fuzz/reduce_fixture.h).
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "fuzz/reduce_fixture.h"
#include "src/core/desq_dfs.h"
#include "src/nfa/serializer.h"

namespace {

// Accepted label strings an input's D-CAND records can hold before its
// reduce is skipped: a valid NFA may accept exponentially many, and mining
// enumerates them all.
constexpr uint64_t kMaxLabelStrings = 1 << 12;

// The number of label strings `nfa` accepts, capped at kMaxLabelStrings + 1.
uint64_t CountLabelStrings(const dseq::OutputNfa& nfa) {
  const uint64_t cap = kMaxLabelStrings + 1;
  std::vector<uint64_t> count(nfa.num_states(), UINT64_MAX);
  // Deserialized NFAs are acyclic and their states numbered in DFS order,
  // so a memoized depth-first count terminates.
  auto visit = [&](auto& self, dseq::StateId q) -> uint64_t {
    if (count[q] != UINT64_MAX) return count[q];
    uint64_t total = nfa.IsFinal(q) ? 1 : 0;
    for (const dseq::OutputNfa::Edge& e : nfa.EdgesOf(q)) {
      const uint64_t below = self(self, e.target);
      total += nfa.Label(e.label).size() * below;
      if (total >= cap) break;
    }
    return count[q] = total < cap ? total : cap;
  };
  return visit(visit, 0);
}

// False if the D-CAND records in `values` all parse and together accept
// more than kMaxLabelStrings strings. A record that does not parse makes
// the reduce throw before it mines, so it is run.
bool DCandWithinBudget(const std::vector<std::string_view>& values) {
  uint64_t total = 0;
  for (std::string_view v : values) {
    size_t pos = 0;
    uint64_t weight = 0;
    if (!dseq::GetVarint(v, &pos, &weight)) return true;
    try {
      total += CountLabelStrings(dseq::DeserializeNfa(v, &pos));
    } catch (const dseq::NfaParseError&) {
      return true;
    }
    if (total > kMaxLabelStrings) return false;
  }
  return true;
}

void RunReduce(uint8_t selector, std::string_view key,
               const std::vector<std::string_view>& values) {
  switch (dseq::fuzz::Miner(selector)) {
    case dseq::fuzz::kNaive: {
      dseq::NaiveOptions options;
      options.sigma = dseq::fuzz::kSigma;
      dseq::MineNaivePartition(key, values, options);
      break;
    }
    case dseq::fuzz::kDSeq: {
      dseq::DSeqOptions options;
      options.sigma = dseq::fuzz::kSigma;
      options.aggregate_sequences = (selector & dseq::fuzz::kWeighted) != 0;
      dseq::MineDSeqPartition(key, values, dseq::fuzz::Fixture().table,
                              options);
      break;
    }
    default: {
      if (!DCandWithinBudget(values)) return;
      dseq::DCandOptions options;
      options.sigma = dseq::fuzz::kSigma;
      dseq::MineDCandPartition(key, values, options);
      break;
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  std::string_view input(reinterpret_cast<const char*>(data), size);
  // Chunks up to the first one whose length prefix is malformed or runs
  // past the end.
  std::vector<std::string_view> chunks;
  size_t pos = 1;
  uint64_t length = 0;
  while (dseq::GetVarint(input, &pos, &length) &&
         length <= input.size() - pos) {
    chunks.push_back(input.substr(pos, length));
    pos += length;
  }
  if (chunks.empty()) return 0;
  const std::vector<std::string_view> values(chunks.begin() + 1, chunks.end());
  try {
    RunReduce(data[0], chunks.front(), values);
  } catch (const std::invalid_argument&) {
  } catch (const dseq::NfaParseError&) {
  } catch (const dseq::MiningBudgetError&) {
  } catch (const std::length_error&) {
  }
  return 0;
}
