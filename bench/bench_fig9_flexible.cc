// Reproduces paper Fig. 9: performance on flexible subsequence constraints.
//
//  9a: total time of NAIVE / SEMI-NAIVE / D-SEQ / D-CAND on NYT (N1–N5)
//  9b: same on AMZN (A1–A4); the naive methods OOM on A1
//  9c: shuffle sizes for A1 and A4
//
// Expected shape: D-SEQ and D-CAND outperform the naive baselines by a
// growing margin as CSPI grows (up to ~50x in the paper); both
// representations shuffle far less data than the naive candidate shipping.
#include <cstdio>

#include "bench/common/bench_util.h"

namespace {

using namespace dseq;
using namespace dseq::bench;

// A shuffle budget standing in for the paper's YARN container limit.
constexpr uint64_t kShuffleBudget = 1ULL << 30;  // 1 GB

std::vector<RunRow> RunAll(const SequenceDatabase& db, const Constraint& c) {
  Fst fst = CompileFst(c.pattern, db.dict);
  std::vector<RunRow> rows;
  rows.push_back(RunNaive(db, fst, c.sigma, /*semi_naive=*/false,
                          kShuffleBudget));
  rows.push_back(RunNaive(db, fst, c.sigma, /*semi_naive=*/true,
                          kShuffleBudget));
  // Naive candidate enumeration on a single pathological sequence stands in
  // for the paper's container OOM (A1 on AMZN).
  DSeqOptions dseq_options;
  dseq_options.sigma = c.sigma;
  dseq_options.shuffle_budget_bytes = kShuffleBudget;
  rows.push_back(RunDSeq(db, fst, dseq_options));
  DCandOptions dcand_options;
  dcand_options.sigma = c.sigma;
  dcand_options.shuffle_budget_bytes = kShuffleBudget;
  rows.push_back(RunDCand(db, fst, dcand_options));
  CheckAgreement(rows, c.name);
  return rows;
}

void Section(const char* title, const SequenceDatabase& db,
             const std::vector<Constraint>& constraints) {
  PrintHeader(title, {"constraint", "Naive", "SemiNaive", "D-SEQ", "D-CAND",
                      "# frequent"});
  for (const Constraint& c : constraints) {
    std::vector<RunRow> rows = RunAll(db, c);
    size_t frequent = 0;
    for (const RunRow& r : rows) {
      if (!r.oom) frequent = r.num_patterns;
    }
    PrintRow({c.name, FormatRun(rows[0]), FormatRun(rows[1]),
              FormatRun(rows[2]), FormatRun(rows[3]),
              std::to_string(frequent)});
  }
}

}  // namespace

int main() {
  Section("Fig. 9a: flexible constraints on NYT' (total time)", Nyt(),
          {NytConstraint(1), NytConstraint(2), NytConstraint(3),
           NytConstraint(4), NytConstraint(5)});

  Section("Fig. 9b: flexible constraints on AMZN' (total time)", Amzn(),
          {AmznConstraint(1), AmznConstraint(2), AmznConstraint(3),
           AmznConstraint(4)});

  // Fig. 9c: shuffle sizes for A1 and A4.
  PrintHeader("Fig. 9c: shuffle size on AMZN'",
              {"constraint", "Naive", "SemiNaive", "D-SEQ", "D-CAND"});
  for (int i : {1, 4}) {
    Constraint c = AmznConstraint(i);
    std::vector<RunRow> rows = RunAll(Amzn(), c);
    auto cell = [](const RunRow& r) {
      return r.oom ? std::string("n/a (OOM)") : FormatBytes(r.shuffle_bytes);
    };
    PrintRow({c.name, cell(rows[0]), cell(rows[1]), cell(rows[2]),
              cell(rows[3])});
  }
  std::printf(
      "\nExpected shape (paper): naive methods shuffle up to 100x more than "
      "D-SEQ/D-CAND; the D-CAND\nNFA representation is almost as concise as "
      "D-SEQ's rewritten sequences.\n");
  return AgreementExitStatus();
}
