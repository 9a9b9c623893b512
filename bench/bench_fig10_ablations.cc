// Reproduces paper Fig. 10: detailed analysis of algorithm components.
//
//  10a: D-SEQ with/without the position–state grid, input rewriting, and
//       early stopping ("no stop., no rewrites, no grid" -> full D-SEQ)
//  10b: D-CAND with plain tries, minimized NFAs, and NFA aggregation
//
// A "map/mine" split is printed per run — the horizontal line inside the
// paper's bars. Expected shape: each component speeds some constraints up
// drastically and costs little on the rest.
#include <cstdio>

#include "bench/common/bench_util.h"

namespace {

using namespace dseq;
using namespace dseq::bench;

std::string Split(const RunRow& row) {
  if (row.oom) return "n/a (OOM)";
  return FormatSeconds(row.map_s) + "+" + FormatSeconds(row.mine_s);
}

struct NamedConstraint {
  std::string name;
  const SequenceDatabase* db;
  std::string pattern;
  uint64_t sigma;
};

}  // namespace

int main() {
  double scale = GetConfig().scale;
  auto sig = [&](uint64_t s) {
    return std::max<uint64_t>(2, static_cast<uint64_t>(s * scale));
  };

  std::vector<NamedConstraint> dseq_cases = {
      {AmznConstraint(1).name + " AMZN'", &Amzn(), AmznConstraint(1).pattern,
       AmznConstraint(1).sigma},
      {NytConstraint(5).name + " NYT'", &Nyt(), NytConstraint(5).pattern,
       NytConstraint(5).sigma},
      {"T3(" + std::to_string(sig(100)) + ",1,6) AMZN-F'", &AmznF(),
       T3Pattern(1, 6), sig(100)},
      {"T3(" + std::to_string(sig(5000)) + ",8,5) AMZN-F'", &AmznF(),
       T3Pattern(8, 5), sig(5000)},
  };

  PrintHeader(
      "Fig. 10a: D-SEQ components (map+mine time)",
      {"constraint", "no grid/rw/st", "no rw/st", "no stop", "D-SEQ"});
  for (const NamedConstraint& c : dseq_cases) {
    Fst fst = CompileFst(c.pattern, c.db->dict);
    auto run = [&](bool grid, bool rewrite, bool stop) {
      DSeqOptions options;
      options.sigma = c.sigma;
      options.use_grid = grid;
      options.rewrite = rewrite;
      options.early_stop = stop;
      options.nogrid_step_budget = 2'000'000'000;
      return RunDSeq(*c.db, fst, options);
    };
    RunRow none = run(false, false, false);
    RunRow grid_only = run(true, false, false);
    RunRow no_stop = run(true, true, false);
    RunRow full = run(true, true, true);
    CheckAgreement({none, grid_only, no_stop, full}, c.name);
    PrintRow({c.name, Split(none), Split(grid_only), Split(no_stop),
              Split(full)});
  }

  std::vector<NamedConstraint> dcand_cases = {
      {AmznConstraint(1).name + " AMZN'", &Amzn(), AmznConstraint(1).pattern,
       AmznConstraint(1).sigma},
      {NytConstraint(4).name + " NYT'", &Nyt(), NytConstraint(4).pattern,
       NytConstraint(4).sigma},
      {"T3(" + std::to_string(sig(100)) + ",1,6) AMZN-F'", &AmznF(),
       T3Pattern(1, 6), sig(100)},
  };

  PrintHeader("Fig. 10b: D-CAND components (map+mine time)",
              {"constraint", "tries, no agg", "tries", "D-CAND"});
  for (const NamedConstraint& c : dcand_cases) {
    Fst fst = CompileFst(c.pattern, c.db->dict);
    auto run = [&](bool minimize, bool aggregate) {
      DCandOptions options;
      options.sigma = c.sigma;
      options.minimize_nfas = minimize;
      options.aggregate_nfas = aggregate;
      return RunDCand(*c.db, fst, options);
    };
    RunRow tries_noagg = run(false, false);
    RunRow tries = run(false, true);
    RunRow full = run(true, true);
    CheckAgreement({tries_noagg, tries, full}, c.name);
    PrintRow({c.name, Split(tries_noagg), Split(tries), Split(full)});
  }

  std::printf(
      "\nExpected shape (paper Fig. 10): the grid dominates for loose "
      "constraints (many runs); rewrites\nand early stopping help "
      "hierarchy-heavy constraints; NFA aggregation is decisive for N4-style"
      "\nconstraints that produce many identical NFAs.\n");
  return AgreementExitStatus();
}
