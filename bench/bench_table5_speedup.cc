// Reproduces paper Table V: speed-up of the distributed algorithms over
// sequential DESQ-DFS execution.
//
// DESQ-DFS runs single-threaded; D-SEQ and D-CAND use all configured
// workers. For the CW50 rows the sequential miner runs under a memory
// budget scaled to a single machine — the paper's DESQ-DFS runs out of
// memory on CW50 with 124/204 GB of heap, which the budget reproduces.
//
// Expected shape: near-linear speed-ups for long-running constraints
// (constant setup amortized), a standout D-CAND speed-up on N4 thanks to
// NFA aggregation, and OOM for sequential execution on CW50.
#include <cstdio>

#include "bench/common/bench_util.h"

namespace {

using namespace dseq;
using namespace dseq::bench;

void Row(const std::string& name, const SequenceDatabase& db,
         const std::string& pattern, uint64_t sigma,
         uint64_t sequential_budget) {
  Fst fst = CompileFst(pattern, db.dict);
  RunRow sequential =
      RunDesqDfsSequential(db, fst, sigma, sequential_budget);
  DSeqOptions dseq_options;
  dseq_options.sigma = sigma;
  RunRow dseq = RunDSeq(db, fst, dseq_options);
  DCandOptions dcand_options;
  dcand_options.sigma = sigma;
  RunRow dcand = RunDCand(db, fst, dcand_options);
  CheckAgreement({sequential, dseq, dcand}, name);

  auto speedup = [&](const RunRow& r) -> std::string {
    if (r.oom) return "n/a (OOM)";
    if (sequential.oom) return FormatSeconds(r.total_s) + " (n/a)";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s (%.1fx)",
                  FormatSeconds(r.total_s).c_str(),
                  sequential.total_s / r.total_s);
    return buf;
  };
  PrintRow({name, FormatRun(sequential), speedup(dseq), speedup(dcand)});
}

}  // namespace

int main() {
  double scale = GetConfig().scale;
  auto sig = [&](uint64_t s) {
    return std::max<uint64_t>(2, static_cast<uint64_t>(s * scale));
  };

  PrintHeader("Table V: speed-up over sequential execution",
              {"constraint", "DESQ-DFS", "D-SEQ", "D-CAND"});

  Row("N4, NYT'", Nyt(), NytConstraint(4).pattern, NytConstraint(4).sigma, 0);
  Row("N5, NYT'", Nyt(), NytConstraint(5).pattern, NytConstraint(5).sigma, 0);
  Row("T3(" + std::to_string(sig(5)) + ",1,5), AMZN-F'", AmznF(),
      T3Pattern(1, 5), sig(5), 0);
  Row("T3(" + std::to_string(sig(1000)) + ",1,5), AMZN-F'", AmznF(),
      T3Pattern(1, 5), sig(1000), 0);
  Row("T3(" + std::to_string(sig(100)) + ",3,5), AMZN-F'", AmznF(),
      T3Pattern(3, 5), sig(100), 0);
  // CW50 rows: sequential execution limited to a single machine's memory
  // (budget in live grid edges, scaled to the dataset substitute).
  uint64_t single_machine_budget =
      static_cast<uint64_t>(4'000'000 * GetConfig().scale);
  Row("T2(" + std::to_string(sig(100)) + ",0,5), CW50'", Cw50(),
      T2Pattern(0, 5), sig(100), single_machine_budget);
  Row("T2(" + std::to_string(sig(250)) + ",0,5), CW50'", Cw50(),
      T2Pattern(0, 5), sig(250), single_machine_budget);
  return AgreementExitStatus();
}
