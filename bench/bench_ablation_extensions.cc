// Ablation benches for design choices beyond the paper's figures
// (DESIGN.md §4 "extensions"):
//
//  * D-SEQ sequence aggregation: combining identical rewritten sequences
//    into weighted sequences (the LASH/MG-FSM trick, applied to D-SEQ).
//  * DESQ-COUNT vs DESQ-DFS: the two sequential strategies of the DESQ
//    framework, selective vs loose constraints.
//  * Partition balance (paper Sec. III-B): the frequency-based item order
//    should keep item-based partitions balanced.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/common/bench_util.h"
#include "src/core/desq_count.h"
#include "src/core/desq_dfs.h"
#include "src/dist/partition_stats.h"
#include "src/obs/trace.h"

namespace {

using namespace dseq;
using namespace dseq::bench;

}  // namespace

int main() {
  double scale = GetConfig().scale;
  auto sig = [&](uint64_t s) {
    return std::max<uint64_t>(2, static_cast<uint64_t>(s * scale));
  };

  // --- D-SEQ sequence aggregation ---------------------------------------
  PrintHeader("Extension: D-SEQ sequence aggregation",
              {"constraint", "plain", "aggregated", "shuffle plain",
               "shuffle agg"});
  struct Case {
    std::string name;
    const SequenceDatabase* db;
    std::string pattern;
    uint64_t sigma;
  };
  std::vector<Case> cases = {
      {NytConstraint(4).name + " NYT'", &Nyt(), NytConstraint(4).pattern,
       NytConstraint(4).sigma},
      {AmznConstraint(4).name + " AMZN'", &Amzn(), AmznConstraint(4).pattern,
       AmznConstraint(4).sigma},
      {"T2(" + std::to_string(sig(100)) + ",0,5) CW50'", &Cw50(),
       T2Pattern(0, 5), sig(100)},
  };
  for (const Case& c : cases) {
    Fst fst = CompileFst(c.pattern, c.db->dict);
    DSeqOptions plain;
    plain.sigma = c.sigma;
    RunRow r1 = RunDSeq(*c.db, fst, plain);
    DSeqOptions aggregated = plain;
    aggregated.aggregate_sequences = true;
    RunRow r2 = RunDSeq(*c.db, fst, aggregated);
    CheckAgreement({r1, r2}, c.name);
    PrintRow({c.name, FormatRun(r1), FormatRun(r2),
              FormatBytes(r1.shuffle_bytes), FormatBytes(r2.shuffle_bytes)});
  }

  // --- DESQ-COUNT vs DESQ-DFS (sequential strategies) --------------------
  PrintHeader("Extension: sequential DESQ-COUNT vs DESQ-DFS",
              {"constraint", "DESQ-COUNT", "DESQ-DFS"});
  struct SeqCase {
    std::string name;
    const SequenceDatabase* db;
    std::string pattern;
    uint64_t sigma;
  };
  std::vector<SeqCase> seq_cases = {
      {NytConstraint(1).name + " NYT' (selective)", &Nyt(),
       NytConstraint(1).pattern, NytConstraint(1).sigma},
      {NytConstraint(3).name + " NYT' (selective)", &Nyt(),
       NytConstraint(3).pattern, NytConstraint(3).sigma},
      {NytConstraint(4).name + " NYT' (loose)", &Nyt(),
       NytConstraint(4).pattern, NytConstraint(4).sigma},
  };
  for (const SeqCase& c : seq_cases) {
    Fst fst = CompileFst(c.pattern, c.db->dict);
    double count_s = 0.0;
    size_t count_patterns = 0;
    bool count_oom = false;
    {
      auto start = obs::Now();
      try {
        DesqCountOptions options;
        options.sigma = c.sigma;
        options.candidates_per_sequence_budget = 5'000'000;
        MiningResult r =
            MineDesqCount(c.db->sequences, fst, c.db->dict, options);
        count_patterns = r.size();
      } catch (const MiningBudgetError&) {
        count_oom = true;
      }
      count_s = obs::SecondsSince(start);
    }
    RunRow dfs = RunDesqDfsSequential(*c.db, fst, c.sigma);
    if (!count_oom && count_patterns != dfs.num_patterns) {
      std::fprintf(stderr, "WARNING: DESQ-COUNT disagrees on %s\n",
                   c.name.c_str());
    }
    PrintRow({c.name,
              count_oom ? "n/a (OOM)" : FormatSeconds(count_s),
              FormatRun(dfs)});
  }

  // --- Partition balance --------------------------------------------------
  PrintHeader("Partition balance (D-SEQ map phase)",
              {"constraint", "partitions", "total bytes", "max/mean",
               "largest share"});
  for (const Case& c : cases) {
    Fst fst = CompileFst(c.pattern, c.db->dict);
    std::vector<PartitionStats> stats = ComputePartitionStats(
        c.db->sequences, StepTable(fst, c.db->dict, c.sigma),
        GetConfig().workers);
    BalanceSummary summary = SummarizeBalance(stats);
    char buf[2][32];
    std::snprintf(buf[0], sizeof(buf[0]), "%.1fx", summary.max_to_mean_bytes);
    std::snprintf(buf[1], sizeof(buf[1]), "%.1f%%",
                  100.0 * summary.largest_share);
    PrintRow({c.name, std::to_string(summary.num_partitions),
              FormatBytes(summary.total_bytes), buf[0], buf[1]});
  }
  return AgreementExitStatus();
}
