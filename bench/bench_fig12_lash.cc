// Reproduces paper Fig. 12: the LASH setting (max gap + max length [+
// hierarchies]) — generalization overhead of D-SEQ / D-CAND over the
// specialized miner.
//
//  12a: T3 constraints on AMZN-F (LASH: hierarchies)
//  12b: T2 constraints on CW50 (MG-FSM: no hierarchy)
//
// Expected shape: the specialized miner wins (it exploits the constraint
// structure directly), with D-SEQ / D-CAND within a small factor — the
// paper reports 0.9x–2.8x generalization overhead.
#include <cstdio>

#include "bench/common/bench_util.h"

namespace {

using namespace dseq;
using namespace dseq::bench;

void Row(const std::string& name, const SequenceDatabase& db, uint64_t sigma,
         uint32_t gamma, uint32_t lambda, bool hierarchy) {
  GapMinerOptions specialized;
  specialized.sigma = sigma;
  specialized.gamma = gamma;
  specialized.lambda = lambda;
  specialized.use_hierarchy = hierarchy;
  RunRow lash = RunGapMiner(db, specialized);

  std::string pattern =
      hierarchy ? T3Pattern(gamma, lambda) : T2Pattern(gamma, lambda);
  Fst fst = CompileFst(pattern, db.dict);
  DSeqOptions dseq_options;
  dseq_options.sigma = sigma;
  RunRow dseq = RunDSeq(db, fst, dseq_options);
  DCandOptions dcand_options;
  dcand_options.sigma = sigma;
  RunRow dcand = RunDCand(db, fst, dcand_options);
  CheckAgreement({lash, dseq, dcand}, name);

  auto overhead = [&](const RunRow& r) -> std::string {
    if (r.oom) return "n/a (OOM)";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s (%.1fx)",
                  FormatSeconds(r.total_s).c_str(), r.total_s / lash.total_s);
    return buf;
  };
  PrintRow({name, FormatRun(lash), overhead(dseq), overhead(dcand),
            std::to_string(lash.num_patterns)});
}

}  // namespace

int main() {
  double scale = GetConfig().scale;
  auto sig = [&](uint64_t s) {
    return std::max<uint64_t>(2, static_cast<uint64_t>(s * scale));
  };

  PrintHeader("Fig. 12a: LASH setting on AMZN-F' (overhead vs specialized)",
              {"constraint", "LASH", "D-SEQ", "D-CAND", "# frequent"});
  Row("T3(" + std::to_string(sig(100)) + ",1,5)", AmznF(), sig(100), 1, 5,
      true);
  Row("T3(" + std::to_string(sig(5)) + ",1,5)", AmznF(), sig(5), 1, 5, true);
  Row("T3(" + std::to_string(sig(100)) + ",2,5)", AmznF(), sig(100), 2, 5,
      true);
  Row("T3(" + std::to_string(sig(100)) + ",1,6)", AmznF(), sig(100), 1, 6,
      true);

  PrintHeader("Fig. 12b: MG-FSM setting on CW50'",
              {"constraint", "MG-FSM", "D-SEQ", "D-CAND", "# frequent"});
  Row("T2(" + std::to_string(sig(100)) + ",0,5)", Cw50(), sig(100), 0, 5,
      false);
  Row("T2(" + std::to_string(sig(250)) + ",0,5)", Cw50(), sig(250), 0, 5,
      false);
  return AgreementExitStatus();
}
