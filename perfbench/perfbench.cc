// The repository benchmark program: runs one named workload drawn from the
// paper's experiments (Fig. 9, Tab. III constraints on NYT'/AMZN'), checks
// every job's result, and prints its metrics. See perfbench/README.md for
// the workloads, the metrics, and which layer each per-layer metric reads.
//
//   perfbench --workload dseq-nyt --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of warm, untraced passes
// over the job list; with --trace 1 it alternates untraced and traced passes
// (obs::SetEnabled), aggregates the spans and DataflowMetrics of the traced
// ones, and then replays the same jobs single-threaded through the public
// core/nfa calls, timing each call from here. Nothing is instrumented
// inside src/: every number is taken at a public boundary.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Everything human-readable goes to stderr. Exit code 1 when any job threw,
// returned a wrong result or left files behind, or when a layer replay
// disagreed with its miner; 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/common/bench_util.h"
#include "src/core/candidates.h"
#include "src/core/desq_dfs.h"
#include "src/core/grid.h"
#include "src/core/pivot.h"
#include "src/datagen/market_baskets.h"
#include "src/datagen/text_corpus.h"
#include "src/dist/dcand_miner.h"
#include "src/dist/dseq_miner.h"
#include "src/dist/naive.h"
#include "src/fst/compiler.h"
#include "src/nfa/output_nfa.h"
#include "src/nfa/serializer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/varint.h"

namespace {

using namespace dseq;
namespace fs = std::filesystem;

// Every job runs on 4 map + 4 reduce worker threads with real parallelism
// (never the engine's simulated execution).
constexpr int kWorkers = 4;
// Matches bench_util's SEMI-NAIVE runner; no workload comes near it.
constexpr uint64_t kCandidateBudget = 2'000'000;
// The out-of-core budget of each proc worker. At 2 MiB on this corpus the
// combiner spills thousands of tiny runs per pass and the pass time swings
// with the disk. At 4 MiB whether a worker's combiner table reaches its next
// doubling before it spills depends on the seed, and peak memory jumps by a
// quarter between seeds; at 8 MiB the jump is a tenth, and a pass still
// writes and merges about a dozen runs.
constexpr uint64_t kProcMemoryBudget = uint64_t{8} << 20;
// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 9;
// A run always makes at least this many timed passes, however short
// --seconds is.
constexpr int kMinPasses = 3;

enum class Algo { kDSeq, kDCand, kSemiNaive };

const char* AlgoName(Algo algo) {
  switch (algo) {
    case Algo::kDSeq:
      return "D-SEQ";
    case Algo::kDCand:
      return "D-CAND";
    case Algo::kSemiNaive:
      return "SEMI-NAIVE";
  }
  return "?";
}

struct Job {
  std::string name;
  std::string pattern;
  uint64_t sigma = 1;
};

// Paper Tab. III. The paper-scale runs (bench_util at scale 1: NYT' with 30k
// sentences) use σ 5/20/5/500/50; at the default 10k sentences N2, N4 and N5
// keep σ in proportion. AMZN' uses bench_util's σ at the default 30k
// customers. Changing a size does not rescale σ.
std::vector<Job> NytJobs() {
  return {{"N1", ".* ENTITY (VERB+ NOUN+? PREP?) ENTITY .*", 5},
          {"N2", ".* (ENTITY^ VERB+ NOUN+? PREP? ENTITY^) .*", 7},
          {"N3", ".* (ENTITY^ be^=) DET? (ADV? ADJ? NOUN) .*", 5},
          {"N4", ".* (.^){3} NOUN .*", 170},
          {"N5", ".* ([.^. .]|[. .^.]|[. . .^]) .*", 17}};
}

std::vector<Job> AmznJobs() {
  return {{"A1", ".*(Electr^)[.{0,2}(Electr^)]{1,4}.*", 250},
          {"A2", ".*(Book)[.{0,2}(Book)]{1,4}.*", 5},
          {"A3", ".*DigitalCamera[.{0,3}(.^)]{1,4}.*", 100},
          {"A4", ".*(MusicInstr^)[.{0,2}(MusicInstr^)]{1,4}.*", 50}};
}

struct Backend {
  DataflowBackend backend = DataflowBackend::kLocal;
  uint64_t memory_budget = 0;  // 0 = in memory, otherwise spill to disk
};

struct Workload {
  const char* name;
  bool amzn;  // dataset: AMZN' (market baskets) or NYT' (text corpus)
  Algo algo;
  Backend backend;
  // An independent run on the same inputs whose patterns every job must
  // reproduce. With `raw_shuffle_contract` the raw shuffle metrics must
  // match too (the local/proc equivalence contract).
  Algo peer;
  bool raw_shuffle_contract;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"dseq-nyt", false, Algo::kDSeq, {}, Algo::kSemiNaive, false},
      {"dcand-amzn", true, Algo::kDCand, {}, Algo::kDSeq, false},
      {"seminaive-nyt", false, Algo::kSemiNaive, {}, Algo::kDSeq, false},
      {"seminaive-nyt-proc", false, Algo::kSemiNaive,
       {DataflowBackend::kProc, kProcMemoryBudget}, Algo::kSemiNaive, true},
  };
  return workloads;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t nyt_sentences = 10'000;
  size_t amzn_customers = 30'000;
  std::string spill_dir;
  std::string reference;
  bool print_reference = false;
};

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --spill-dir DIR "
               "[--seed N] [--seconds S] [--trace 0|1]\n"
               "       [--nyt-sentences N] [--amzn-customers N] "
               "[--reference FILE] [--print-reference]\n",
               message.c_str());
  std::exit(2);
}

uint64_t ParseUint(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0') Usage(flag + ": not a number: " + value);
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--print-reference") {
      args.print_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage(flag + " needs a value");
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseUint(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(ParseUint(flag, value));
    } else if (flag == "--trace") {
      args.trace = ParseUint(flag, value) != 0;
    } else if (flag == "--nyt-sentences") {
      args.nyt_sentences = ParseUint(flag, value);
    } else if (flag == "--amzn-customers") {
      args.amzn_customers = ParseUint(flag, value);
    } else if (flag == "--spill-dir") {
      args.spill_dir = value;
    } else if (flag == "--reference") {
      args.reference = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.spill_dir.empty()) Usage("--spill-dir is required");
  return args;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

bool DirEmpty(const std::string& dir) {
  return fs::is_empty(fs::path(dir));
}

// --- set-up ------------------------------------------------------------------

struct Data {
  SequenceDatabase db;
  std::vector<Job> jobs;
  std::vector<Fst> fsts;  // one per job
  std::string tag;        // dataset/size/seed, the reference-table key
};

// Dataset generation (including the dictionary recode the generators end
// with) and FST compilation for every job: the set-up a user pays once.
Data Setup(const Workload& workload, const Args& args) {
  Data data;
  if (workload.amzn) {
    MarketBasketOptions options;
    options.num_customers = args.amzn_customers;
    options.seed = args.seed;
    data.db = GenerateMarketBaskets(options);
    data.jobs = AmznJobs();
    data.tag = "amzn " + std::to_string(args.amzn_customers);
  } else {
    // The options of bench::Nyt(), with the seed and size made explicit.
    TextCorpusOptions options;
    options.num_sentences = args.nyt_sentences;
    options.lemmas_per_pos = 1'000;
    options.num_entities = 2'000;
    options.seed = args.seed;
    data.db = GenerateTextCorpus(options);
    data.jobs = NytJobs();
    data.tag = "nyt " + std::to_string(args.nyt_sentences);
  }
  data.tag += " " + std::to_string(args.seed);
  for (const Job& job : data.jobs) {
    data.fsts.push_back(CompileFst(job.pattern, data.db.dict));
  }
  return data;
}

// --- running jobs ------------------------------------------------------------

struct JobRun {
  bool ok = false;
  std::string error;
  double seconds = 0.0;
  size_t patterns = 0;
  uint64_t checksum = 0;
  DataflowMetrics metrics;
  std::vector<obs::TraceEvent> trace;  // traced passes only
};

JobRun RunJob(const Data& data, size_t j, Algo algo, const Backend& backend,
              const std::string& spill_dir) {
  JobRun run;
  auto configure = [&](DistributedRunOptions& options) {
    options.num_map_workers = kWorkers;
    options.num_reduce_workers = kWorkers;
    options.execution = Execution::kThreads;
    options.backend = backend.backend;
    if (backend.memory_budget > 0) {
      options.memory_budget_bytes = backend.memory_budget;
      options.spill_dir = spill_dir;
    }
  };
  const std::vector<Sequence>& db = data.db.sequences;
  const Fst& fst = data.fsts[j];
  const uint64_t sigma = data.jobs[j].sigma;
  try {
    DistributedResult result;
    auto start = obs::Now();
    switch (algo) {
      case Algo::kDSeq: {
        DSeqOptions options;
        configure(options);
        options.sigma = sigma;
        result = MineDSeq(db, fst, data.db.dict, options);
        break;
      }
      case Algo::kDCand: {
        DCandOptions options;
        configure(options);
        options.sigma = sigma;
        options.minimize_nfas = true;
        options.aggregate_nfas = true;
        result = MineDCand(db, fst, data.db.dict, options);
        break;
      }
      case Algo::kSemiNaive: {
        NaiveOptions options;
        configure(options);
        options.sigma = sigma;
        options.semi_naive = true;
        options.candidates_per_sequence_budget = kCandidateBudget;
        result = MineNaive(db, fst, data.db.dict, options);
        break;
      }
    }
    run.seconds = obs::SecondsSince(start);
    run.ok = true;
    run.patterns = result.patterns.size();
    run.checksum = bench::ResultChecksum(result.patterns);
    run.metrics = std::move(result.metrics);
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  if (!DirEmpty(spill_dir)) {
    run.ok = false;
    run.error += " [files left in the spill dir]";
    for (const auto& entry : fs::directory_iterator(spill_dir)) {
      fs::remove_all(entry.path());
    }
  }
  return run;
}

struct Pass {
  double seconds = 0.0;  // sum of the jobs' wall times
  uint64_t shuffle_bytes = 0;
  std::vector<JobRun> jobs;
};

// One pass over the job list. With `traced`, tracing is on for the pass and
// each job's spans are collected separately.
Pass RunPass(const Data& data, Algo algo, const Backend& backend,
             const std::string& spill_dir, bool traced) {
  Pass pass;
  obs::SetEnabled(traced);  // before any fork, so proc workers inherit it
  for (size_t j = 0; j < data.jobs.size(); ++j) {
    if (traced) obs::TakeTrace();
    pass.jobs.push_back(RunJob(data, j, algo, backend, spill_dir));
    if (traced) pass.jobs.back().trace = obs::TakeTrace();
    pass.seconds += pass.jobs.back().seconds;
    pass.shuffle_bytes += pass.jobs.back().metrics.shuffle_bytes;
  }
  obs::SetEnabled(false);
  return pass;
}

// --- correctness gate --------------------------------------------------------

struct Expected {
  bool known = false;
  size_t patterns = 0;
  uint64_t checksum = 0;
};

class Gate {
 public:
  void Count(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Reference pattern counts and checksums recorded for given dataset sizes
// and seeds ("<dataset> <size> <seed> <job> <patterns> <checksum>" lines).
std::map<std::string, Expected> LoadReference(const std::string& path) {
  std::map<std::string, Expected> table;
  if (path.empty()) return table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string dataset, size, seed, job;
    Expected e;
    if (fields >> dataset >> size >> seed >> job >> e.patterns >> e.checksum) {
      e.known = true;
      table[dataset + " " + size + " " + seed + " " + job] = e;
    }
  }
  return table;
}

// Checks one job run against the expected result, and with `contract`
// against the raw shuffle metrics of the peer run too.
void CheckJob(Gate* gate, const std::string& where, const JobRun& run,
              const Expected& reference, const JobRun& peer, bool contract) {
  std::string why;
  if (!run.ok) {
    why = "error: " + run.error;
  } else if (!peer.ok) {
    why = "peer run failed: " + peer.error;
  } else if (run.patterns != peer.patterns || run.checksum != peer.checksum) {
    why = std::to_string(run.patterns) + " patterns vs. " +
          std::to_string(peer.patterns) + " from the peer run";
  } else if (reference.known && (run.patterns != reference.patterns ||
                                 run.checksum != reference.checksum)) {
    why = std::to_string(run.patterns) + " patterns vs. " +
          std::to_string(reference.patterns) + " in the reference";
  } else if (contract &&
             (run.metrics.shuffle_bytes != peer.metrics.shuffle_bytes ||
              run.metrics.shuffle_records != peer.metrics.shuffle_records ||
              run.metrics.reducer_bytes != peer.metrics.reducer_bytes)) {
    why = "raw shuffle metrics differ from the local in-memory run";
  }
  gate->Count(why.empty(), where + ": " + why);
}

// --- per-layer aggregation of a traced pass ----------------------------------

using Metrics = std::map<std::string, double>;

// Dataflow, spill and rpc metrics of one traced pass: DataflowMetrics summed
// over its jobs, span durations summed by name, and the
// proc.segment_bytes histogram's growth over the pass.
Metrics LayerMetricsOfPass(const Pass& pass, uint64_t segment_bytes) {
  Metrics m;
  std::map<std::string, double> span_s;
  double straggler_max = 0, straggler_mean = 0;
  double skew_max = 0, skew_mean = 0;
  for (const JobRun& job : pass.jobs) {
    const DataflowMetrics& dm = job.metrics;
    m["dataflow.map_s"] += dm.map_seconds;
    m["dataflow.reduce_s"] += dm.reduce_seconds;
    m["dataflow.map_output_records"] += dm.map_output_records;
    m["dataflow.shuffle_records"] += dm.shuffle_records;
    m["spill.files"] += dm.spill_files;
    m["spill.bytes_written"] += dm.spill_bytes_written;
    m["spill.merge_passes"] += dm.spill_merge_passes;
    m["rpc.task_attempts"] += dm.proc_task_attempts;
    m["rpc.task_retries"] += dm.proc_task_retries;
    if (!dm.reducer_bytes.empty()) {
      double sum = 0;
      for (uint64_t b : dm.reducer_bytes) sum += b;
      skew_max += *std::max_element(dm.reducer_bytes.begin(),
                                    dm.reducer_bytes.end());
      skew_mean += sum / dm.reducer_bytes.size();
    }
    // Local map workers emit `map_shard`; proc workers run the same shard
    // body inside a `map_task` span.
    std::vector<double> shard_s;
    for (const obs::TraceEvent& e : job.trace) {
      double s = e.dur_ns * 1e-9;
      span_s[e.name] += s;
      if (e.name == "map_shard" || e.name == "map_task") shard_s.push_back(s);
    }
    if (!shard_s.empty()) {
      double sum = 0;
      for (double s : shard_s) sum += s;
      straggler_max += *std::max_element(shard_s.begin(), shard_s.end());
      straggler_mean += sum / shard_s.size();
    }
  }
  auto span = [&](const char* name) {
    auto it = span_s.find(name);
    return it == span_s.end() ? 0.0 : it->second;
  };
  m["dataflow.map_shard_s"] = span("map_shard") + span("map_task");
  m["dataflow.combine_flush_s"] = span("combine_flush");
  m["dataflow.group_sweep_s"] = span("group_sweep");
  m["dataflow.map_straggler"] =
      straggler_mean > 0 ? straggler_max / straggler_mean : 0.0;
  m["dataflow.reducer_skew"] = skew_mean > 0 ? skew_max / skew_mean : 0.0;
  m["spill.run_write_s"] = span("spill_run_write");
  // Proc reduce workers emit neither an `external_merge` nor a
  // `group_sweep` span. On proc this is therefore the reduce workers' time
  // after their column arrived: the external merge or the in-memory sort
  // and sweep, plus reduce_fn and record encoding, so a reducer change
  // moves it too.
  m["spill.external_merge_s"] =
      span("external_merge") + span("reduce_task") - span("segment_stream");
  m["rpc.fork_s"] = span("fork_workers");
  m["rpc.segment_receive_s"] = span("segment_receive");
  m["rpc.segment_commit_s"] = span("segment_commit");
  m["rpc.segment_replay_s"] = span("segment_replay");
  m["rpc.segment_bytes"] = static_cast<double>(segment_bytes);
  return m;
}

// --- single-thread layer replay ----------------------------------------------
//
// Drives one job's inputs through the public core/nfa calls the miners make,
// timing every call from here, and mines the same patterns the distributed
// run must have found.

struct LayerReplay {
  double grid_build_s = 0, pivot_search_s = 0, rewrite_s = 0;
  double reduce_grid_build_s = 0, desq_dfs_s = 0, enumerate_candidates_s = 0;
  uint64_t sequences = 0, grid_edges = 0, pivots = 0, candidates = 0;
  uint64_t rewritten_items = 0, unrewritten_items = 0;
  double nfa_build_s = 0, minimize_s = 0, serialize_s = 0;
  double deserialize_s = 0, mine_s = 0;
  uint64_t runs = 0, states_before = 0, states_after = 0, nfa_bytes = 0;
};

StateGrid TimedGrid(const Sequence& T, const Fst& fst, const Dictionary& dict,
                    uint64_t sigma, LayerReplay* r) {
  GridOptions options;
  options.prune_sigma = sigma;
  auto start = obs::Now();
  StateGrid grid = StateGrid::Build(T, fst, dict, options);
  r->grid_build_s += obs::SecondsSince(start);
  r->grid_edges += grid.num_edges();
  return grid;
}

Sequence TimedPivots(const StateGrid& grid, LayerReplay* r) {
  auto start = obs::Now();
  Sequence pivots = FindPivotItems(grid);
  r->pivot_search_s += obs::SecondsSince(start);
  r->pivots += pivots.size();
  return pivots;
}

// D-SEQ: grid, pivots, rewrite per pivot; then per partition the reduce-side
// grids and pivot-restricted DESQ-DFS.
MiningResult ReplayDSeq(const Data& data, size_t j, LayerReplay* r) {
  const Fst& fst = data.fsts[j];
  const Dictionary& dict = data.db.dict;
  const uint64_t sigma = data.jobs[j].sigma;
  std::map<ItemId, std::vector<Sequence>> partitions;
  std::vector<Sequence> rewritten;
  for (const Sequence& T : data.db.sequences) {
    ++r->sequences;
    StateGrid grid = TimedGrid(T, fst, dict, sigma, r);
    if (!grid.HasAcceptingRun()) continue;
    Sequence pivots = TimedPivots(grid, r);
    if (pivots.empty()) continue;
    rewritten.clear();
    auto start = obs::Now();
    PivotRewriter rewriter(T, grid);
    for (ItemId k : pivots) rewritten.push_back(rewriter.Rewrite(k));
    r->rewrite_s += obs::SecondsSince(start);
    for (size_t i = 0; i < pivots.size(); ++i) {
      r->rewritten_items += rewritten[i].size();
      r->unrewritten_items += T.size();
      partitions[pivots[i]].push_back(std::move(rewritten[i]));
    }
  }
  MiningResult patterns;
  for (const auto& [pivot, sequences] : partitions) {
    std::vector<StateGrid> grids;
    GridOptions options;
    options.prune_sigma = sigma;
    auto start = obs::Now();
    for (const Sequence& s : sequences) {
      grids.push_back(StateGrid::Build(s, fst, dict, options));
    }
    r->reduce_grid_build_s += obs::SecondsSince(start);
    DesqDfsOptions local;
    local.sigma = sigma;
    local.pivot = pivot;
    local.early_stop = true;
    start = obs::Now();
    MiningResult found =
        MineDesqDfsGrids(grids, std::vector<uint64_t>(grids.size(), 1), local);
    r->desq_dfs_s += obs::SecondsSince(start);
    patterns.insert(patterns.end(), found.begin(), found.end());
  }
  Canonicalize(&patterns);
  return patterns;
}

// D-CAND: grid, pivots, run enumeration into per-pivot tries, Revuz
// minimization and serialization; identical NFAs aggregate per pivot (the
// weighted-value combiner); then deserialization and NFA mining.
MiningResult ReplayDCand(const Data& data, size_t j, LayerReplay* r) {
  const Fst& fst = data.fsts[j];
  const uint64_t sigma = data.jobs[j].sigma;
  std::map<ItemId, std::map<std::string, uint64_t>> partitions;
  std::vector<Sequence> output_sets;
  for (const Sequence& T : data.db.sequences) {
    ++r->sequences;
    StateGrid grid = TimedGrid(T, fst, data.db.dict, sigma, r);
    if (!grid.HasAcceptingRun()) continue;
    Sequence pivots = TimedPivots(grid, r);
    if (pivots.empty()) continue;
    std::vector<OutputNfa> nfas(pivots.size());
    auto start = obs::Now();
    ForEachAcceptingRun(
        grid, UINT64_MAX, [&](const std::vector<const StateGrid::Edge*>& run) {
          ++r->runs;
          output_sets.clear();
          for (const StateGrid::Edge* e : run) output_sets.push_back(e->out);
          for (ItemId k : PivotsOfOutputSets(output_sets).items) {
            auto it = std::lower_bound(pivots.begin(), pivots.end(), k);
            nfas[it - pivots.begin()].AddRun(run, k);
          }
        });
    r->nfa_build_s += obs::SecondsSince(start);
    for (size_t i = 0; i < pivots.size(); ++i) {
      OutputNfa& nfa = nfas[i];
      if (nfa.empty()) continue;
      r->states_before += nfa.num_states();
      start = obs::Now();
      nfa.Minimize();
      r->minimize_s += obs::SecondsSince(start);
      r->states_after += nfa.num_states();
      std::string bytes;
      start = obs::Now();
      SerializeNfaTo(nfa, &bytes);
      r->serialize_s += obs::SecondsSince(start);
      r->nfa_bytes += bytes.size();
      ++partitions[pivots[i]][bytes];
    }
  }
  MiningResult patterns;
  for (const auto& [pivot, weighted] : partitions) {
    std::vector<OutputNfa> nfas;
    std::vector<uint64_t> weights;
    auto start = obs::Now();
    for (const auto& [bytes, weight] : weighted) {
      nfas.push_back(DeserializeNfa(bytes));
      weights.push_back(weight);
    }
    r->deserialize_s += obs::SecondsSince(start);
    start = obs::Now();
    MiningResult found = MineNfas(nfas, weights, sigma, pivot);
    r->mine_s += obs::SecondsSince(start);
    patterns.insert(patterns.end(), found.begin(), found.end());
  }
  Canonicalize(&patterns);
  return patterns;
}

// SEMI-NAIVE: σ-pruned grid and candidate enumeration per sequence; the
// candidates are then counted here (the shuffle's job) and filtered by σ.
MiningResult ReplaySemiNaive(const Data& data, size_t j, LayerReplay* r) {
  const Fst& fst = data.fsts[j];
  const uint64_t sigma = data.jobs[j].sigma;
  std::unordered_map<std::string, uint64_t> support;
  std::vector<Sequence> candidates;
  std::string key;
  for (const Sequence& T : data.db.sequences) {
    ++r->sequences;
    StateGrid grid = TimedGrid(T, fst, data.db.dict, sigma, r);
    if (!grid.HasAcceptingRun()) continue;
    candidates.clear();
    auto start = obs::Now();
    bool complete = EnumerateCandidates(grid, kCandidateBudget, &candidates);
    r->enumerate_candidates_s += obs::SecondsSince(start);
    if (!complete) throw MiningBudgetError("candidate budget exceeded");
    r->candidates += candidates.size();
    for (const Sequence& c : candidates) {
      key.clear();
      PutSequence(&key, c);
      ++support[key];
    }
  }
  MiningResult patterns;
  for (const auto& [encoded, count] : support) {
    if (count < sigma) continue;
    PatternCount pc;
    size_t pos = 0;
    GetSequence(encoded, &pos, &pc.pattern);
    pc.frequency = count;
    patterns.push_back(std::move(pc));
  }
  Canonicalize(&patterns);
  return patterns;
}

Metrics ReplayMetrics(const LayerReplay& r) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  return {
      {"core.grid_build_s", r.grid_build_s},
      {"core.grid_edges", static_cast<double>(r.grid_edges)},
      {"core.pivot_search_s", r.pivot_search_s},
      {"core.pivots_per_seq", ratio(r.pivots, r.sequences)},
      {"core.rewrite_s", r.rewrite_s},
      {"core.rewrite_ratio", ratio(r.rewritten_items, r.unrewritten_items)},
      {"core.reduce_grid_build_s", r.reduce_grid_build_s},
      {"core.desq_dfs_s", r.desq_dfs_s},
      {"core.enumerate_candidates_s", r.enumerate_candidates_s},
      {"core.candidates", static_cast<double>(r.candidates)},
      {"nfa.build_s", r.nfa_build_s},
      {"nfa.runs", static_cast<double>(r.runs)},
      {"nfa.minimize_s", r.minimize_s},
      {"nfa.states_before", static_cast<double>(r.states_before)},
      {"nfa.states_after", static_cast<double>(r.states_after)},
      {"nfa.serialize_s", r.serialize_s},
      {"nfa.bytes", static_cast<double>(r.nfa_bytes)},
      {"nfa.deserialize_s", r.deserialize_s},
      {"nfa.mine_s", r.mine_s},
  };
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string UnitOf(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with("_s")) return "s";
  if (ends_with("bytes") || ends_with("bytes_written")) return "B";
  if (name == "core.pivots_per_seq" || name == "core.rewrite_ratio" ||
      name == "dataflow.map_straggler" || name == "dataflow.reducer_skew" ||
      name == "obs.trace_overhead") {
    return "ratio";
  }
  return "count";
}

double PeakRssMb() {
  // Forked proc workers are reaped by the coordinator, so RUSAGE_CHILDREN
  // holds the largest of them; ru_maxrss is in KiB on Linux.
  struct rusage self {}, children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self.ru_maxrss, children.ru_maxrss) / 1024.0;
}

void PrintResult(const std::string& workload, const Gate& gate, bool correct,
                 const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "\n%-34s %18s  %s   [%s]\n", "metric", "value", "unit",
               workload.c_str());
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "%-34s %18.6f  %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "%-34s %18.6f  %s   (%" PRIu64 " of %" PRIu64
               " jobs failed)\n",
               "failed_frac",
               gate.attempted() > 0
                   ? static_cast<double>(gate.failed()) / gate.attempted()
                   : 0.0,
               "ratio", gate.failed(), gate.attempted());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", gate.attempted(), gate.failed());
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage("unknown workload '" + args.workload + "'");
  fs::create_directories(args.spill_dir);
  if (!DirEmpty(args.spill_dir)) Usage("--spill-dir must be empty");
  const std::string& spill = args.spill_dir;
  const Backend in_memory;

  // Set-up, repeated; the last database is the one mined.
  std::vector<double> setup_s;
  Data data;
  for (int i = 0; i < kSetupRepeats; ++i) {
    auto start = obs::Now();
    data = Setup(*workload, args);
    setup_s.push_back(obs::SecondsSince(start));
  }
  std::fprintf(stderr, "%s: %zu sequences, %zu jobs, setup %.3fs\n",
               workload->name, data.db.size(), data.jobs.size(),
               Median(setup_s));

  Gate gate;
  const std::map<std::string, Expected> reference =
      LoadReference(args.reference);
  auto expected_of = [&](size_t j) {
    auto it = reference.find(data.tag + " " + data.jobs[j].name);
    return it == reference.end() ? Expected{} : it->second;
  };
  auto run_peer = [&] {
    Pass peer = RunPass(data, workload->peer, in_memory, spill, false);
    for (size_t j = 0; j < peer.jobs.size(); ++j) {
      const JobRun& run = peer.jobs[j];
      Expected e = expected_of(j);
      gate.Count(run.ok && (!e.known || (run.patterns == e.patterns &&
                                         run.checksum == e.checksum)),
                 std::string("peer ") + AlgoName(workload->peer) + " " +
                     data.jobs[j].name + ": " +
                     (run.ok ? "differs from the reference" : run.error));
    }
    return peer;
  };
  if (args.print_reference) {
    Pass peer = run_peer();
    for (size_t j = 0; j < peer.jobs.size(); ++j) {
      std::printf("%s %s %zu %" PRIu64 "\n", data.tag.c_str(),
                  data.jobs[j].name.c_str(), peer.jobs[j].patterns,
                  peer.jobs[j].checksum);
    }
    fs::remove_all(spill);
    return gate.failed() == 0 ? 0 : 1;
  }

  // Every pass is checked at the end, against the peer run, which comes
  // last so that peak_rss_mb sees only the workload's own jobs. The untimed
  // warm-up pass takes the cold-process cost off the timed passes. A deque,
  // so references to earlier passes stay valid as passes are added.
  std::deque<std::pair<std::string, Pass>> done;
  done.emplace_back("warm-up",
                    RunPass(data, workload->algo, workload->backend, spill,
                            false));
  const Pass& warmup = done.back().second;
  for (size_t j = 0; j < warmup.jobs.size(); ++j) {
    std::fprintf(stderr, "  %s %-3s %8zu patterns  %12" PRIu64 " B  %.3fs\n",
                 AlgoName(workload->algo), data.jobs[j].name.c_str(),
                 warmup.jobs[j].patterns, warmup.jobs[j].metrics.shuffle_bytes,
                 warmup.jobs[j].seconds);
  }
  const std::vector<JobRun> distributed = warmup.jobs;

  std::vector<Metric> out;
  const auto deadline_start = obs::Now();
  auto time_left = [&](size_t passes) {
    return passes < kMinPasses ||
           obs::SecondsSince(deadline_start) < args.seconds;
  };

  if (!args.trace) {
    // wall_s is the typical pass: the sum over jobs of each job's median
    // time, which a short burst of contention in one pass cannot move.
    std::vector<std::vector<double>> job_s(data.jobs.size());
    const uint64_t shuffle_bytes = warmup.shuffle_bytes;
    size_t passes = 0;
    while (time_left(passes++)) {
      done.emplace_back("timed", RunPass(data, workload->algo,
                                         workload->backend, spill, false));
      const Pass& pass = done.back().second;
      gate.Count(pass.shuffle_bytes == shuffle_bytes,
                 "timed pass: shuffle volume changed between passes");
      for (size_t j = 0; j < pass.jobs.size(); ++j) {
        job_s[j].push_back(pass.jobs[j].seconds);
      }
    }
    double wall_s = 0;
    for (size_t j = 0; j < job_s.size(); ++j) {
      wall_s += Median(job_s[j]);
      std::fprintf(stderr, "  %-3s median %.3fs over %zu passes\n",
                   data.jobs[j].name.c_str(), Median(job_s[j]),
                   job_s[j].size());
    }
    out = {{"wall_s", wall_s, "s"},
           {"setup_s", Median(setup_s), "s"},
           {"shuffle_bytes", static_cast<double>(shuffle_bytes), "B"},
           {"peak_rss_mb", PeakRssMb(), "MB"}};
  } else {
    // Untraced and traced passes alternate. On the proc workload a local
    // twin gives the transport cost; it gets the budget of all the proc
    // workers together (each proc worker has a budget of its own), so it
    // spills alike.
    const bool proc = workload->backend.backend == DataflowBackend::kProc;
    Backend twin = workload->backend;
    twin.backend = DataflowBackend::kLocal;
    twin.memory_budget *= kWorkers;
    obs::Histogram& segment_hist = obs::GetHistogram("proc.segment_bytes");
    std::vector<double> untraced_s, traced_s, twin_s;
    std::vector<Metrics> traced;
    while (time_left(traced.size())) {
      done.emplace_back("untraced", RunPass(data, workload->algo,
                                            workload->backend, spill, false));
      untraced_s.push_back(done.back().second.seconds);
      uint64_t segment_before = segment_hist.Sum();
      done.emplace_back("traced", RunPass(data, workload->algo,
                                          workload->backend, spill, true));
      Pass& pass = done.back().second;
      traced_s.push_back(pass.seconds);
      traced.push_back(
          LayerMetricsOfPass(pass, segment_hist.Sum() - segment_before));
      for (JobRun& job : pass.jobs) job.trace.clear();
      if (proc) {
        done.emplace_back("local twin",
                          RunPass(data, workload->algo, twin, spill, false));
        twin_s.push_back(done.back().second.seconds);
      }
    }
    std::fprintf(stderr, "%zu traced passes\n", traced.size());
    for (size_t i = 0; i < traced_s.size(); ++i) {
      std::fprintf(stderr, "  untraced %.3f  traced %.3f  twin %.3f\n",
                   untraced_s[i], traced_s[i], proc ? twin_s[i] : 0.0);
    }
    Metrics layer;
    for (const auto& [name, value] : traced.front()) {
      std::vector<double> values;
      for (const Metrics& m : traced) values.push_back(m.at(name));
      layer[name] = Median(values);
    }
    layer["rpc.transport_s"] =
        proc ? Median(untraced_s) - Median(twin_s) : 0.0;
    layer["obs.trace_overhead"] = Median(traced_s) / Median(untraced_s) - 1;

    // Layer replay, job by job. A replay that does not mine exactly the
    // distributed run's patterns fails the run, and with it these numbers.
    LayerReplay replay;
    for (size_t j = 0; j < data.jobs.size(); ++j) {
      MiningResult patterns;
      std::string error;
      try {
        switch (workload->algo) {
          case Algo::kDSeq:
            patterns = ReplayDSeq(data, j, &replay);
            break;
          case Algo::kDCand:
            patterns = ReplayDCand(data, j, &replay);
            break;
          case Algo::kSemiNaive:
            patterns = ReplaySemiNaive(data, j, &replay);
            break;
        }
      } catch (const std::exception& e) {
        error = e.what();
      }
      bool agrees = error.empty() &&
                    patterns.size() == distributed[j].patterns &&
                    bench::ResultChecksum(patterns) == distributed[j].checksum;
      gate.Count(agrees, "layer replay " + data.jobs[j].name +
                             " disagrees with the miner (" +
                             std::to_string(patterns.size()) + " vs. " +
                             std::to_string(distributed[j].patterns) +
                             " patterns) " + error);
    }
    for (const auto& [name, value] : ReplayMetrics(replay)) layer[name] = value;
    for (const auto& [name, value] : layer) {
      out.push_back({name, value, UnitOf(name)});
    }
  }

  const Pass peer = run_peer();
  for (const auto& [label, pass] : done) {
    for (size_t j = 0; j < pass.jobs.size(); ++j) {
      CheckJob(&gate,
               label + " " + AlgoName(workload->algo) + " " +
                   data.jobs[j].name,
               pass.jobs[j], expected_of(j), peer.jobs[j],
               workload->raw_shuffle_contract);
    }
  }

  fs::remove_all(spill);
  const bool correct = gate.failed() == 0;
  PrintResult(workload->name, gate, correct, out);
  return correct ? 0 : 1;
}
