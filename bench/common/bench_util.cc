#include "bench/common/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/core/desq_dfs.h"
#include "src/datagen/market_baskets.h"
#include "src/datagen/text_corpus.h"
#include "src/datagen/web_text.h"
#include "src/obs/trace.h"

namespace dseq {
namespace bench {

namespace {

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atof(v);
}

uint64_t ScaledSigma(uint64_t sigma) {
  double scaled = sigma * GetConfig().scale;
  return std::max<uint64_t>(2, static_cast<uint64_t>(scaled));
}

template <typename Fn>
RunRow Measure(const std::string& algo, const Fn& fn) {
  RunRow row;
  row.algo = algo;
  int repeats = std::max(1, GetConfig().repeats);
  for (int r = 0; r < repeats; ++r) {
    try {
      DistributedResult result = fn();
      row.total_s += result.metrics.total_seconds() / repeats;
      row.map_s += result.metrics.map_seconds / repeats;
      row.mine_s += result.metrics.reduce_seconds / repeats;
      row.shuffle_bytes = result.metrics.shuffle_bytes;
      row.num_patterns = result.patterns.size();
      row.checksum = ResultChecksum(result.patterns);
    } catch (const ShuffleOverflowError&) {
      row.oom = true;
      return row;
    } catch (const MiningBudgetError&) {
      row.oom = true;
      return row;
    }
  }
  return row;
}

}  // namespace

Execution BenchExecution() {
  static Execution execution = [] {
    const char* env = std::getenv("DSEQ_BENCH_EXECUTION");
    if (env != nullptr) {
      return std::string(env) == "threads" ? Execution::kThreads
                                           : Execution::kSimulated;
    }
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    return hw >= GetConfig().workers ? Execution::kThreads
                                     : Execution::kSimulated;
  }();
  return execution;
}

const Config& GetConfig() {
  static Config config = [] {
    Config c;
    c.scale = EnvDouble("DSEQ_BENCH_SCALE", 1.0);
    // The paper runs 8 executors; default to 8 workers. On machines with
    // fewer cores the engine's cluster simulation reports critical-path
    // times (see Execution::kSimulated), so the scaling experiments remain
    // meaningful.
    c.workers = static_cast<int>(EnvDouble("DSEQ_BENCH_WORKERS", 8));
    c.repeats = static_cast<int>(EnvDouble("DSEQ_BENCH_REPEATS", 1));
    return c;
  }();
  return config;
}

const SequenceDatabase& Nyt() {
  static SequenceDatabase db = [] {
    TextCorpusOptions options;
    options.num_sentences =
        static_cast<size_t>(30'000 * GetConfig().scale);
    options.lemmas_per_pos = 1'000;
    options.num_entities = 2'000;
    return GenerateTextCorpus(options);
  }();
  return db;
}

const SequenceDatabase& Amzn() {
  static SequenceDatabase db = [] {
    MarketBasketOptions options;
    options.num_customers =
        static_cast<size_t>(30'000 * GetConfig().scale);
    return GenerateMarketBaskets(options);
  }();
  return db;
}

const SequenceDatabase& AmznF() {
  static SequenceDatabase db = ToForest(Amzn());
  return db;
}

const SequenceDatabase& Cw50() {
  static SequenceDatabase db = [] {
    WebTextOptions options;
    options.num_sentences =
        static_cast<size_t>(60'000 * GetConfig().scale);
    options.vocabulary_size = 30'000;
    return GenerateWebText(options);
  }();
  return db;
}

Constraint NytConstraint(int index) {
  switch (index) {
    case 1:
      return {"N1(" + std::to_string(ScaledSigma(5)) + ")",
              ".* ENTITY (VERB+ NOUN+? PREP?) ENTITY .*", ScaledSigma(5)};
    case 2:
      return {"N2(" + std::to_string(ScaledSigma(20)) + ")",
              ".* (ENTITY^ VERB+ NOUN+? PREP? ENTITY^) .*", ScaledSigma(20)};
    case 3:
      return {"N3(" + std::to_string(ScaledSigma(5)) + ")",
              ".* (ENTITY^ be^=) DET? (ADV? ADJ? NOUN) .*", ScaledSigma(5)};
    case 4:
      return {"N4(" + std::to_string(ScaledSigma(500)) + ")",
              ".* (.^){3} NOUN .*", ScaledSigma(500)};
    case 5:
      return {"N5(" + std::to_string(ScaledSigma(50)) + ")",
              ".* ([.^. .]|[. .^.]|[. . .^]) .*", ScaledSigma(50)};
  }
  std::abort();
}

Constraint AmznConstraint(int index) {
  switch (index) {
    case 1:
      return {"A1(" + std::to_string(ScaledSigma(250)) + ")",
              ".*(Electr^)[.{0,2}(Electr^)]{1,4}.*", ScaledSigma(250)};
    case 2:
      return {"A2(" + std::to_string(ScaledSigma(5)) + ")",
              ".*(Book)[.{0,2}(Book)]{1,4}.*", ScaledSigma(5)};
    case 3:
      return {"A3(" + std::to_string(ScaledSigma(100)) + ")",
              ".*DigitalCamera[.{0,3}(.^)]{1,4}.*", ScaledSigma(100)};
    case 4:
      return {"A4(" + std::to_string(ScaledSigma(50)) + ")",
              ".*(MusicInstr^)[.{0,2}(MusicInstr^)]{1,4}.*", ScaledSigma(50)};
  }
  std::abort();
}

std::string T1Pattern(uint32_t lambda) {
  return ".*(.)[.*(.)]{0," + std::to_string(lambda - 1) + "}.*";
}
std::string T2Pattern(uint32_t gamma, uint32_t lambda) {
  return ".*(.)[.{0," + std::to_string(gamma) + "}(.)]{1," +
         std::to_string(lambda - 1) + "}.*";
}
std::string T3Pattern(uint32_t gamma, uint32_t lambda) {
  return ".*(.^)[.{0," + std::to_string(gamma) + "}(.^)]{1," +
         std::to_string(lambda - 1) + "}.*";
}

uint64_t ResultChecksum(const MiningResult& result) {
  uint64_t checksum = 0;
  for (const PatternCount& pc : result) {
    uint64_t h = 1469598103934665603ULL;
    for (ItemId w : pc.pattern) h = (h ^ w) * 1099511628211ULL;
    h = (h ^ pc.frequency) * 1099511628211ULL;
    checksum += h;  // order-independent
  }
  return checksum;
}

RunRow RunNaive(const SequenceDatabase& db, const Fst& fst, uint64_t sigma,
                bool semi_naive, uint64_t shuffle_budget) {
  NaiveOptions options;
  options.execution = BenchExecution();
  options.sigma = sigma;
  options.semi_naive = semi_naive;
  options.num_map_workers = GetConfig().workers;
  options.num_reduce_workers = GetConfig().workers;
  options.shuffle_budget_bytes = shuffle_budget;
  // Fail fast on candidate explosions (a single pathological sequence can
  // produce millions of candidates — certain OOM at cluster scale).
  options.candidates_per_sequence_budget = 2'000'000;
  return Measure(semi_naive ? "SemiNaive" : "Naive", [&] {
    return MineNaive(db.sequences, fst, db.dict, options);
  });
}

RunRow RunDSeq(const SequenceDatabase& db, const Fst& fst,
               const DSeqOptions& base_options) {
  DSeqOptions options = base_options;
  options.execution = BenchExecution();
  options.num_map_workers = GetConfig().workers;
  options.num_reduce_workers = GetConfig().workers;
  return Measure("D-SEQ", [&] {
    return MineDSeq(db.sequences, fst, db.dict, options);
  });
}

RunRow RunDCand(const SequenceDatabase& db, const Fst& fst,
                const DCandOptions& base_options) {
  DCandOptions options = base_options;
  options.execution = BenchExecution();
  options.num_map_workers = GetConfig().workers;
  options.num_reduce_workers = GetConfig().workers;
  return Measure("D-CAND", [&] {
    return MineDCand(db.sequences, fst, db.dict, options);
  });
}

RunRow RunDesqDfsSequential(const SequenceDatabase& db, const Fst& fst,
                            uint64_t sigma, uint64_t max_grid_edges) {
  return Measure("DESQ-DFS", [&] {
    DesqDfsOptions options;
    options.sigma = sigma;
    options.max_total_grid_edges = max_grid_edges;
    auto start = obs::Now();
    MiningResult patterns = MineDesqDfs(db.sequences, fst, db.dict, options);
    DistributedResult result;
    result.patterns = std::move(patterns);
    result.metrics.map_seconds = obs::SecondsSince(start);
    return result;
  });
}

RunRow RunGapMiner(const SequenceDatabase& db,
                   const GapMinerOptions& base_options) {
  GapMinerOptions options = base_options;
  options.execution = BenchExecution();
  options.num_map_workers = GetConfig().workers;
  options.num_reduce_workers = GetConfig().workers;
  return Measure(options.use_hierarchy ? "LASH" : "MG-FSM", [&] {
    return MineGapConstrained(db.sequences, db.dict, options);
  });
}

RunRow RunPrefixSpan(const SequenceDatabase& db,
                     const PrefixSpanOptions& base_options) {
  PrefixSpanOptions options = base_options;
  options.execution = BenchExecution();
  options.num_map_workers = GetConfig().workers;
  options.num_reduce_workers = GetConfig().workers;
  return Measure("MLlib-PS", [&] {
    return MinePrefixSpan(db.sequences, db.dict, options);
  });
}

namespace {
constexpr int kFirstColumnWidth = 26;
constexpr int kColumnWidth = 18;
}  // namespace

void PrintHeader(const std::string& title,
                 const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  PrintRow(columns);
  size_t width = kFirstColumnWidth;
  if (columns.size() > 1) width += (columns.size() - 1) * kColumnWidth;
  for (size_t i = 0; i < width; ++i) std::printf("-");
  std::printf("\n");
}

void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%-*s", i == 0 ? kFirstColumnWidth : kColumnWidth,
                cells[i].c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  if (seconds < 10) {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fs", seconds);
  }
  return buf;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= 100ULL * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fGB", bytes / (1024.0 * 1024 * 1024));
  } else if (bytes >= 100ULL * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fMB", bytes / (1024.0 * 1024));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fKB", bytes / 1024.0);
  }
  return buf;
}

std::string FormatRun(const RunRow& row) {
  return row.oom ? "n/a (OOM)" : FormatSeconds(row.total_s);
}

namespace {
bool disagreed = false;  // set by CheckAgreement, read by main's return
}  // namespace

void CheckAgreement(const std::vector<RunRow>& rows,
                    const std::string& where) {
  const RunRow* reference = nullptr;
  for (const RunRow& row : rows) {
    if (row.oom) continue;
    if (reference == nullptr) {
      reference = &row;
    } else if (row.checksum != reference->checksum ||
               row.num_patterns != reference->num_patterns) {
      std::fprintf(stderr,
                   "WARNING [%s]: %s (%zu patterns) disagrees with %s "
                   "(%zu patterns)\n",
                   where.c_str(), row.algo.c_str(), row.num_patterns,
                   reference->algo.c_str(), reference->num_patterns);
      disagreed = true;
    }
  }
}

int AgreementExitStatus() { return disagreed ? 1 : 0; }

}  // namespace bench
}  // namespace dseq
