// PrefixSpan baseline (the paper's "MLlib setting", Fig. 13).
//
// Classic PrefixSpan semantics: distinct subsequences with arbitrary gaps,
// no hierarchy, maximum length lambda — the paper's T1(σ, λ) constraint.
// Distributed with prefix-based partitioning collapsed to one round: the map
// phase emits, for every frequent item w of T, the projected suffix after
// w's first occurrence; each first-item partition then runs sequential
// PrefixSpan on its projected database.
#ifndef DSEQ_BASELINES_PREFIX_SPAN_H_
#define DSEQ_BASELINES_PREFIX_SPAN_H_

#include "src/dict/dictionary.h"
#include "src/dist/distributed.h"

namespace dseq {

struct PrefixSpanOptions : DistributedRunOptions {
  uint64_t sigma = 1;
  uint32_t lambda = 5;  // max output length
};

/// Runs distributed PrefixSpan. Results agree with MineDesqDfs on the
/// pattern `.*(.)[.*(.)]{0,lambda-1}.*` (paper constraint T1).
DistributedResult MinePrefixSpan(const std::vector<Sequence>& db,
                                 const Dictionary& dict,
                                 const PrefixSpanOptions& options);

}  // namespace dseq

#endif  // DSEQ_BASELINES_PREFIX_SPAN_H_
