// Reproduces paper Fig. 13: the MLlib setting — T1(σ,5) on AMZN without
// hierarchy (max length 5, arbitrary gaps), σ sweep.
//
// Expected shape: D-SEQ is competitive with the specialized miners and the
// PrefixSpan baseline degrades for small σ; D-CAND runs out of memory while
// constructing NFAs — arbitrary gaps allow the maximum possible number of
// accepting runs, the worst case for candidate representation. Here D-CAND
// builds each NFA from the grid without enumerating runs, and on AMZN' it
// stays within the state budget below, so its column shows times, not OOM.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common/bench_util.h"

int main() {
  using namespace dseq;
  using namespace dseq::bench;
  const SequenceDatabase& db = Amzn();
  double scale = GetConfig().scale;

  PrintHeader("Fig. 13: MLlib setting, T1(sigma,5) on AMZN' (no hierarchy)",
              {"sigma", "MLlib-PS", "LASH", "D-SEQ", "D-CAND",
               "# frequent"});

  Fst fst = CompileFst(T1Pattern(5), db.dict);
  // The σ sweep after scaling, descending. Small scales send several σ to
  // the floor of 2; each σ runs once.
  std::vector<uint64_t> sigmas;
  for (uint64_t base : {200, 100, 50, 20, 10}) {
    sigmas.push_back(
        std::max<uint64_t>(2, static_cast<uint64_t>(base * scale)));
  }
  sigmas.erase(std::unique(sigmas.begin(), sigmas.end()), sigmas.end());
  for (uint64_t sigma : sigmas) {

    PrefixSpanOptions ps_options;
    ps_options.sigma = sigma;
    ps_options.lambda = 5;
    RunRow mllib = RunPrefixSpan(db, ps_options);

    // LASH in "arbitrary gap" mode: unbounded gap, min length 1.
    GapMinerOptions lash_options;
    lash_options.sigma = sigma;
    lash_options.gamma = 1'000'000;
    lash_options.lambda = 5;
    lash_options.min_length = 1;
    lash_options.use_hierarchy = false;
    RunRow lash = RunGapMiner(db, lash_options);

    DSeqOptions dseq_options;
    dseq_options.sigma = sigma;
    RunRow dseq = RunDSeq(db, fst, dseq_options);

    DCandOptions dcand_options;
    dcand_options.sigma = sigma;
    // Budget stands in for the paper's per-container memory, scaled to the
    // substitute dataset: with arbitrary gaps the candidates of a basket
    // grow combinatorially in its length (C(n, <=5) embeddings), and so do
    // the NFA states that represent them — the paper's OOM mechanism.
    dcand_options.max_nfa_states_per_sequence = 200'000;
    RunRow dcand = RunDCand(db, fst, dcand_options);

    CheckAgreement({mllib, lash, dseq, dcand},
                   "T1(" + std::to_string(sigma) + ",5)");
    size_t frequent = mllib.oom ? dseq.num_patterns : mllib.num_patterns;
    PrintRow({std::to_string(sigma), FormatRun(mllib), FormatRun(lash),
              FormatRun(dseq), FormatRun(dcand), std::to_string(frequent)});
  }
  std::printf(
      "\nExpected shape (paper Fig. 13): specialized miners fastest, D-SEQ "
      "competitive, D-CAND OOMs\n(the MLlib setting is the worst case for "
      "candidate representation).\n");
  return AgreementExitStatus();
}
