// dseq command-line miner.
//
// Reads a sequence database from text files, compiles a pattern expression,
// and mines frequent subsequences with a selectable algorithm:
//
//   dseq_cli --sequences corpus.txt [--hierarchy edges.txt]
//            --pattern '.*(A)[(.^).*]*(b).*' --sigma 2
//            [--algorithm dseq|dcand|naive|semi-naive|desq-dfs|desq-count|
//                         prefix-span]
//            [--workers N] [--limit N] [--stats] [--compress] [--lambda N]
//            [--balance [--split-factor F]]
//            [--memory-budget N [--spill-dir DIR]]
//            [--backend local|proc]
//
// `--algorithm prefix-span` is the paper's MLlib baseline (Fig. 13): its
// constraint is (--sigma, --lambda), not a pattern expression. --compress
// runs the shuffle through the block codec; --stats then reports the
// compressed volume next to the raw one. --balance (dseq only) measures the
// per-pivot shuffle volume first and mines under a PartitionPlan — light
// pivots bundled, heavy pivots range-split and reconciled in one extra
// round — instead of hash partitioning; --stats then also prints the plan,
// the measured per-reducer balance and the metrics of each round.
//
// Out-of-core execution: --memory-budget N bounds the resident shuffle and
// combiner state of the distributed algorithms to N bytes. With --spill-dir
// DIR (created if missing) the run degrades gracefully — overflowing state
// is spilled to sorted runs in DIR and external-merged back during the
// reduce, with identical mined output; --stats reports the spill volume.
// Without --spill-dir the budget is a hard ceiling that fails with an
// actionable error.
//
// --backend proc runs every shuffle round of the distributed algorithms on
// forked worker processes exchanging segments over loopback TCP
// (src/rpc/proc_backend.h) instead of threads; the mined output and the raw
// shuffle metrics are identical to the default local backend.
//
// Input format: one sequence per line, whitespace-separated item names; the
// hierarchy file has one "child parent" pair per line. Output: one frequent
// sequence per line with its frequency, ordered by decreasing frequency.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/baselines/prefix_span.h"
#include "src/core/desq_count.h"
#include "src/core/desq_dfs.h"
#include "src/dist/dcand_miner.h"
#include "src/dist/dseq_miner.h"
#include "src/dist/naive.h"
#include "src/fst/compiler.h"
#include "src/io/dataset_io.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"
#include "src/rpc/proc_backend.h"
#include "src/util/thread_pool.h"

namespace {

// Upper bound of --workers. A run allocates workers x workers shuffle buckets
// and starts one thread (or, under --backend proc, one process) per worker
// and phase, so a typo such as --workers 100000 must fail at parse time.
constexpr int kMaxWorkers = 1024;

// Every --algorithm main() has a branch for.
const char* const kAlgorithms[] = {"dseq",       "dcand",    "naive",
                                   "semi-naive", "desq-dfs", "desq-count",
                                   "prefix-span"};

struct Args {
  std::string sequences;
  std::string hierarchy;
  std::string pattern;
  std::string algorithm = "dseq";
  uint64_t sigma = 2;
  int workers = 0;  // 0 = hardware default (an explicit --workers must be > 0)
  size_t limit = 0;  // 0 = print all
  bool stats = false;
  bool compress = false;
  uint32_t lambda = 5;  // prefix-span max pattern length
  bool lambda_set = false;
  bool balance = false;
  double split_factor = 1.0;
  bool split_factor_set = false;
  uint64_t memory_budget = 0;  // 0 = no budget
  std::string spill_dir;
  std::string backend = "local";
  int proc_timeout_ms = 0;  // 0 = no stall detection
  bool proc_timeout_set = false;
  int proc_max_attempts = 3;
  bool proc_max_attempts_set = false;
  int proc_deadline_ms = 0;  // 0 = no round deadline
  bool proc_deadline_set = false;
  std::string trace_out;     // Chrome trace-event JSON output path
  std::string metrics_json;  // metrics registry + dataflow counters path
};

[[noreturn]] void Usage(const char* message) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(
      stderr,
      "usage: dseq_cli --sequences FILE --pattern EXPR [options]\n"
      "  --sequences FILE   one sequence per line, item names\n"
      "  --hierarchy FILE   'child parent' lines (optional)\n"
      "  --pattern EXPR     pattern expression ('^' is the paper's ^)\n"
      "  --sigma N          minimum support (default 2)\n"
      "  --algorithm A      dseq | dcand | naive | semi-naive |\n"
      "                     desq-dfs | desq-count | prefix-span\n"
      "                     (default dseq)\n"
      "  --workers N        map/reduce workers, 1..%d (default: hardware)\n"
      "  --limit N          print at most N sequences (default: all)\n"
      "  --stats            print dataset and run statistics to stderr\n"
      "                     (per-round metrics for --balance runs)\n"
      "  --compress         block-compress the shuffle (distributed\n"
      "                     algorithms); --stats reports both volumes\n"
      "  --lambda N         prefix-span max pattern length (default 5)\n"
      "  --balance          dseq: measure per-pivot shuffle volume and mine\n"
      "                     under a partition plan (bundle light pivots,\n"
      "                     range-split heavy ones) instead of hashing\n"
      "  --split-factor F   split pivots heavier than F x the mean reducer\n"
      "                     load (default 1.0; requires --balance)\n"
      "  --memory-budget N  bound the resident shuffle + combiner state of\n"
      "                     the distributed algorithms to N bytes\n"
      "  --spill-dir DIR    spill overflowing state to sorted runs in DIR\n"
      "                     (created if missing; requires --memory-budget)\n"
      "  --backend B        local (threads, default) | proc (forked worker\n"
      "                     processes over a socket shuffle; distributed\n"
      "                     algorithms only, identical output)\n"
      "  --proc-timeout MS  proc backend: SIGKILL and retry a worker that\n"
      "                     makes no progress (frames or heartbeats) for MS\n"
      "                     milliseconds (default 0 = off)\n"
      "  --proc-max-attempts N\n"
      "                     proc backend: fail a task after N executions end\n"
      "                     in worker deaths (default 3)\n"
      "  --proc-deadline MS proc backend: fail any round that runs longer\n"
      "                     than MS milliseconds (default 0 = off)\n"
      "  --trace-out FILE   record spans and write the run's timeline as\n"
      "                     Chrome trace-event JSON (open in Perfetto; under\n"
      "                     --backend proc the workers' spans are merged in)\n"
      "  --metrics-json FILE\n"
      "                     write the run's metrics — dataflow counters plus\n"
      "                     the histogram/counter registry — as JSON\n",
      kMaxWorkers);
  std::exit(2);
}

// Strict numeric flag parsing: the whole value must be digits (so "abc",
// "-3", "4x", and "" all fail loudly instead of silently becoming 0).
uint64_t ParseUnsigned(const char* flag, const char* text, uint64_t max_value) {
  if (*text == '\0') Usage((std::string(flag) + " requires a number").c_str());
  uint64_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      Usage((std::string(flag) + ": '" + text +
             "' is not a valid number")
                .c_str());
    }
    uint64_t digit = static_cast<uint64_t>(*p - '0');
    if (value > (max_value - digit) / 10) {
      Usage((std::string(flag) + ": '" + text + "' is out of range").c_str());
    }
    value = value * 10 + digit;
  }
  return value;
}

double ParsePositiveDouble(const char* flag, const char* text) {
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value > 0.0)) {
    Usage((std::string(flag) + ": '" + text +
           "' is not a positive number")
              .c_str());
  }
  return value;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        Usage((std::string(flag) + " requires a value").c_str());
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--sequences") == 0) {
      args.sequences = need_value("--sequences");
    } else if (std::strcmp(argv[i], "--hierarchy") == 0) {
      args.hierarchy = need_value("--hierarchy");
    } else if (std::strcmp(argv[i], "--pattern") == 0) {
      args.pattern = need_value("--pattern");
    } else if (std::strcmp(argv[i], "--sigma") == 0) {
      args.sigma = ParseUnsigned("--sigma", need_value("--sigma"), UINT64_MAX);
    } else if (std::strcmp(argv[i], "--algorithm") == 0) {
      args.algorithm = need_value("--algorithm");
      if (std::find(std::begin(kAlgorithms), std::end(kAlgorithms),
                    args.algorithm) == std::end(kAlgorithms)) {
        Usage(("unknown algorithm: " + args.algorithm).c_str());
      }
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      args.workers = static_cast<int>(
          ParseUnsigned("--workers", need_value("--workers"), kMaxWorkers));
      if (args.workers <= 0) Usage("--workers must be positive");
    } else if (std::strcmp(argv[i], "--limit") == 0) {
      args.limit = ParseUnsigned("--limit", need_value("--limit"), UINT64_MAX);
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      args.stats = true;
    } else if (std::strcmp(argv[i], "--compress") == 0) {
      args.compress = true;
    } else if (std::strcmp(argv[i], "--lambda") == 0) {
      args.lambda = static_cast<uint32_t>(
          ParseUnsigned("--lambda", need_value("--lambda"), UINT32_MAX));
      args.lambda_set = true;
    } else if (std::strcmp(argv[i], "--balance") == 0) {
      args.balance = true;
    } else if (std::strcmp(argv[i], "--split-factor") == 0) {
      args.split_factor =
          ParsePositiveDouble("--split-factor", need_value("--split-factor"));
      args.split_factor_set = true;
    } else if (std::strcmp(argv[i], "--memory-budget") == 0) {
      args.memory_budget = ParseUnsigned(
          "--memory-budget", need_value("--memory-budget"), UINT64_MAX);
      if (args.memory_budget == 0) Usage("--memory-budget must be positive");
    } else if (std::strcmp(argv[i], "--spill-dir") == 0) {
      args.spill_dir = need_value("--spill-dir");
      if (args.spill_dir.empty()) Usage("--spill-dir requires a directory");
    } else if (std::strcmp(argv[i], "--backend") == 0) {
      args.backend = need_value("--backend");
      if (args.backend != "local" && args.backend != "proc") {
        Usage(("--backend: '" + args.backend +
               "' is not a backend (local | proc)")
                  .c_str());
      }
    } else if (std::strcmp(argv[i], "--proc-timeout") == 0) {
      args.proc_timeout_ms = static_cast<int>(ParseUnsigned(
          "--proc-timeout", need_value("--proc-timeout"), INT32_MAX));
      args.proc_timeout_set = true;
    } else if (std::strcmp(argv[i], "--proc-max-attempts") == 0) {
      args.proc_max_attempts = static_cast<int>(
          ParseUnsigned("--proc-max-attempts",
                        need_value("--proc-max-attempts"), INT32_MAX));
      if (args.proc_max_attempts == 0) {
        Usage("--proc-max-attempts must be positive");
      }
      args.proc_max_attempts_set = true;
    } else if (std::strcmp(argv[i], "--proc-deadline") == 0) {
      args.proc_deadline_ms = static_cast<int>(ParseUnsigned(
          "--proc-deadline", need_value("--proc-deadline"), INT32_MAX));
      args.proc_deadline_set = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      args.trace_out = need_value("--trace-out");
      if (args.trace_out.empty()) Usage("--trace-out requires a file path");
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      args.metrics_json = need_value("--metrics-json");
      if (args.metrics_json.empty()) {
        Usage("--metrics-json requires a file path");
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage(nullptr);
    } else {
      Usage((std::string("unknown flag: ") + argv[i]).c_str());
    }
  }
  if (args.sequences.empty()) Usage("--sequences is required");
  // PrefixSpan's constraint is (σ, λ), not a pattern expression.
  const bool is_prefix_span = args.algorithm == "prefix-span";
  if (args.pattern.empty() && !is_prefix_span) {
    Usage("--pattern is required");
  }
  if (!args.pattern.empty() && is_prefix_span) {
    Usage("--pattern does not apply to --algorithm prefix-span (use "
          "--sigma/--lambda)");
  }
  if (args.sigma == 0) Usage("--sigma must be positive");
  if (args.lambda == 0) Usage("--lambda must be positive");
  if (args.lambda_set && !is_prefix_span) {
    Usage("--lambda requires --algorithm prefix-span");
  }
  if (args.compress &&
      (args.algorithm == "desq-dfs" || args.algorithm == "desq-count")) {
    Usage("--compress requires a distributed (shuffling) algorithm");
  }
  if (args.balance && args.algorithm != "dseq") {
    Usage("--balance requires --algorithm dseq");
  }
  if (args.split_factor_set && !args.balance) {
    Usage("--split-factor requires --balance");
  }
  if (!args.spill_dir.empty() && args.memory_budget == 0) {
    Usage("--spill-dir requires --memory-budget");
  }
  if (args.memory_budget > 0 &&
      (args.algorithm == "desq-dfs" || args.algorithm == "desq-count")) {
    Usage("--memory-budget requires a distributed (shuffling) algorithm");
  }
  if (args.backend == "proc" &&
      (args.algorithm == "desq-dfs" || args.algorithm == "desq-count")) {
    Usage("--backend proc requires a distributed (shuffling) algorithm");
  }
  if (args.backend != "proc") {
    if (args.proc_timeout_set) Usage("--proc-timeout requires --backend proc");
    if (args.proc_max_attempts_set) {
      Usage("--proc-max-attempts requires --backend proc");
    }
    if (args.proc_deadline_set) {
      Usage("--proc-deadline requires --backend proc");
    }
  }
  return args;
}

void PrintPlan(const dseq::PartitionPlan& plan) {
  std::fprintf(stderr,
               "plan: %zu pivots packed onto %d reducers, %zu split",
               plan.assignments.size() + plan.splits.size(),
               plan.num_reducers, plan.splits.size());
  for (const dseq::PivotSplit& split : plan.splits) {
    std::fprintf(stderr, " [pivot %llu -> %d sub-partitions]",
                 static_cast<unsigned long long>(split.pivot),
                 split.num_subpartitions());
  }
  dseq::BalanceSummary planned = dseq::SummarizePlannedBalance(plan);
  if (planned.total_bytes > 0) {
    std::fprintf(stderr, ", planned reducer max/mean %.2f",
                 planned.max_to_mean_reducer_bytes);
  }
  std::fprintf(stderr, "\n");
}

// The options every distributed miner shares (each extends
// DistributedRunOptions and has a sigma). --compress also covers the spill
// files: compress_shuffle compresses spill runs too.
template <typename Options>
Options RunOptions(const Args& args, int workers) {
  Options options;
  options.sigma = args.sigma;
  options.num_map_workers = workers;
  options.num_reduce_workers = workers;
  options.compress_shuffle = args.compress;
  options.memory_budget_bytes = args.memory_budget;
  options.spill_dir = args.spill_dir;
  options.backend = args.backend == "proc" ? dseq::DataflowBackend::kProc
                                           : dseq::DataflowBackend::kLocal;
  options.proc_worker_timeout_ms = args.proc_timeout_ms;
  options.proc_max_task_attempts = args.proc_max_attempts;
  options.proc_round_deadline_ms = args.proc_deadline_ms;
  return options;
}

// Validates an output-file flag (--trace-out, --metrics-json) before any
// mining starts, mirroring the --spill-dir probe: prove the path can be
// opened for writing now (without clobbering an existing file), so a typo'd
// directory or a read-only target aborts up front rather than after the
// whole run has been traced.
void EnsureWritableFile(const char* flag, const std::string& path) {
  struct stat st;
  const bool existed = ::stat(path.c_str(), &st) == 0;
  if (existed && S_ISDIR(st.st_mode)) {
    throw std::runtime_error(std::string("cannot write ") + flag + " " + path +
                             ": is a directory");
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    throw std::runtime_error(std::string("cannot write ") + flag + " " + path +
                             ": " + std::strerror(errno));
  }
  std::fclose(f);
  if (!existed) ::unlink(path.c_str());
}

// Writes a whole file, failing loudly — the trace/metrics outputs are the
// run's deliverables, so a short write must not exit 0.
void WriteFileOrThrow(const char* flag, const std::string& path,
                      const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error(std::string("cannot write ") + flag + " " + path +
                             ": " + std::strerror(errno));
  }
  const bool wrote =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    throw std::runtime_error(std::string("cannot write ") + flag + " " + path +
                             ": " + std::strerror(errno));
  }
}

// Validates --spill-dir before any mining starts: creates the directory if
// it is missing (one level, like mkdir), rejects paths that exist but are
// not directories, and proves writability by creating and removing a probe
// file (an access(2) check would lie under root or ACLs). Failing here is
// the point — a broken spill target must abort the run up front, not
// minutes in when the first worker overflows its budget.
void EnsureSpillDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create --spill-dir " + dir + ": " +
                             std::strerror(errno));
  }
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0) {
    throw std::runtime_error("cannot stat --spill-dir " + dir + ": " +
                             std::strerror(errno));
  }
  if (!S_ISDIR(st.st_mode)) {
    throw std::runtime_error("--spill-dir " + dir +
                             " exists but is not a directory");
  }
  std::string probe = dir + "/.dseq_spill_probe_XXXXXX";
  std::vector<char> buf(probe.begin(), probe.end());
  buf.push_back('\0');
  int fd = ::mkstemp(buf.data());
  if (fd < 0) {
    throw std::runtime_error("--spill-dir " + dir + " is not writable: " +
                             std::strerror(errno));
  }
  ::close(fd);
  ::unlink(buf.data());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dseq;
  Args args = ParseArgs(argc, argv);
  int workers = args.workers > 0 ? args.workers : DefaultWorkers();
  const bool proc = args.backend == "proc";

  try {
    if (!args.spill_dir.empty()) EnsureSpillDir(args.spill_dir);
    if (!args.trace_out.empty()) {
      EnsureWritableFile("--trace-out", args.trace_out);
    }
    if (!args.metrics_json.empty()) {
      EnsureWritableFile("--metrics-json", args.metrics_json);
    }
    // Enabled before any mining (and before the proc backend forks, so the
    // workers inherit the flag and ship their spans back over kTrace).
    if (!args.trace_out.empty() || !args.metrics_json.empty()) {
      obs::SetEnabled(true);
    }
    SequenceDatabase db =
        ReadTextDatabaseFromFiles(args.sequences, args.hierarchy);
    if (args.stats) {
      std::fprintf(stderr,
                   "database: %zu sequences, %zu items, mean length %.1f\n",
                   db.size(), db.dict.size(), db.MeanSequenceLength());
    }
    Fst fst;
    if (!args.pattern.empty()) {
      fst = CompileFst(args.pattern, db.dict);
      if (args.stats) {
        std::fprintf(stderr, "fst: %zu states, %zu transitions\n",
                     fst.num_states(), fst.num_transitions());
      }
    }

    // The distributed branches only choose the miner: every one returns a
    // DistributedResult, reported by one renderer below.
    DistributedResult result;
    bool distributed = true;
    PartitionPlan plan;
    if (args.algorithm == "dseq" && args.balance) {
      auto options = RunOptions<DSeqBalanceOptions>(args, workers);
      options.split_factor = args.split_factor;
      result = MineDSeqBalanced(db.sequences, fst, db.dict, options, &plan);
    } else if (args.algorithm == "dseq") {
      result = MineDSeq(db.sequences, fst, db.dict,
                        RunOptions<DSeqOptions>(args, workers));
    } else if (args.algorithm == "dcand") {
      result = MineDCand(db.sequences, fst, db.dict,
                         RunOptions<DCandOptions>(args, workers));
    } else if (args.algorithm == "naive" || args.algorithm == "semi-naive") {
      auto options = RunOptions<NaiveOptions>(args, workers);
      options.semi_naive = args.algorithm == "semi-naive";
      result = MineNaive(db.sequences, fst, db.dict, options);
    } else if (args.algorithm == "prefix-span") {
      auto options = RunOptions<PrefixSpanOptions>(args, workers);
      options.lambda = args.lambda;
      result = MinePrefixSpan(db.sequences, db.dict, options);
    } else if (args.algorithm == "desq-dfs") {
      distributed = false;
      DesqDfsOptions options;
      options.sigma = args.sigma;
      result.patterns = MineDesqDfs(db.sequences, fst, db.dict, options);
    } else {  // desq-count; ParseArgs rejected every other name
      distributed = false;
      DesqCountOptions options;
      options.sigma = args.sigma;
      options.num_workers = workers;
      result.patterns = MineDesqCount(db.sequences, fst, db.dict, options);
    }
    if (args.stats && distributed) {
      if (args.balance) PrintPlan(plan);
      std::fputs(obs::RenderStats(result.round_metrics, proc).c_str(), stderr);
    }

    MiningResult& patterns = result.patterns;
    std::sort(patterns.begin(), patterns.end(),
              [](const PatternCount& a, const PatternCount& b) {
                if (a.frequency != b.frequency) {
                  return a.frequency > b.frequency;
                }
                return a.pattern < b.pattern;
              });
    size_t shown = 0;
    for (const PatternCount& pc : patterns) {
      if (args.limit > 0 && shown >= args.limit) break;
      std::printf("%llu\t%s\n",
                  static_cast<unsigned long long>(pc.frequency),
                  db.FormatSequence(pc.pattern).c_str());
      ++shown;
    }
    if (args.stats) {
      std::fprintf(stderr, "frequent sequences: %zu (printed %zu)\n",
                   patterns.size(), shown);
    }
    if (!args.trace_out.empty()) {
      WriteFileOrThrow("--trace-out", args.trace_out, obs::ChromeTraceJson());
    }
    if (!args.metrics_json.empty()) {
      WriteFileOrThrow("--metrics-json", args.metrics_json,
                       obs::MetricsReportJson(
                           distributed ? &result.metrics : nullptr, proc));
    }
  } catch (const ShuffleOverflowError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::fprintf(stderr,
                 "hint: raise --memory-budget, or add --spill-dir DIR to "
                 "spill overflowing shuffle state to disk\n");
    return 1;
  } catch (const ProcTaskFailedError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::fprintf(stderr,
                 "hint: every execution of this task killed its worker; if "
                 "the failures are transient, raise --proc-max-attempts or "
                 "--proc-timeout\n");
    return 1;
  } catch (const ProcDeadlineError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::fprintf(stderr,
                 "hint: raise --proc-deadline (or drop it) if the round is "
                 "legitimately slow\n");
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
