// Regenerates the checked-in seed corpora under fuzz/corpus/<target>/.
//
// Seeds are produced by the real encoders (PutVarint/PutSequence,
// SerializeNfa, CompressBlock, SpillWriter, EncodeWireSnapshot, the
// miners' map functions), so every fuzz target starts
// from well-formed inputs that reach deep into its decoder before the
// fuzzer begins mutating — plus a few deliberately malformed inputs that
// pin the rejection paths. Usage: make_fuzz_corpus <corpus root>.
#include <sys/stat.h>

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "fuzz/reduce_fixture.h"
#include "src/dist/partition_plan.h"

#include "src/nfa/output_nfa.h"
#include "src/nfa/serializer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rpc/frame.h"
#include "src/spill/spill_file.h"
#include "src/util/block_codec.h"
#include "src/util/varint.h"

namespace {

std::string g_root;

void MakeDir(const std::string& path) {
  if (mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    std::perror(("mkdir " + path).c_str());
    std::exit(1);
  }
}

void WriteSeed(const std::string& target, const std::string& name,
               const std::string& bytes) {
  MakeDir(g_root + "/" + target);
  std::string path = g_root + "/" + target + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("%s (%zu bytes)\n", path.c_str(), bytes.size());
}

std::string Varint(uint64_t v) {
  std::string out;
  dseq::PutVarint(&out, v);
  return out;
}

void VarintSeeds() {
  WriteSeed("fuzz_varint", "single_small", Varint(5));
  WriteSeed("fuzz_varint", "single_max", Varint(~uint64_t{0}));
  WriteSeed("fuzz_varint", "stream",
            Varint(0) + Varint(127) + Varint(128) + Varint(300) +
                Varint(1u << 20));
  std::string seq;
  dseq::PutSequence(&seq, dseq::Sequence{3, 1, 4, 1, 5, 9, 2, 6});
  WriteSeed("fuzz_varint", "sequence", seq);
  WriteSeed("fuzz_varint", "sequence_then_varint", seq + Varint(42));
  // A ten-byte varint cut short: the truncation rejection path.
  WriteSeed("fuzz_varint", "truncated", std::string(3, '\x80'));
}

void NfaSeeds() {
  using Labels = std::vector<dseq::Sequence>;
  {
    dseq::OutputNfa nfa;
    nfa.AddLabelString(Labels{{1}, {2}});
    nfa.Minimize();
    WriteSeed("fuzz_nfa", "chain", dseq::SerializeNfa(nfa));
  }
  {
    // Shared prefix + shared suffix: minimization produces a re-visited
    // target, exercising serializer rule 2 on the way in.
    dseq::OutputNfa nfa;
    nfa.AddLabelString(Labels{{1}, {2}, {5}});
    nfa.AddLabelString(Labels{{1}, {3}, {5}});
    nfa.AddLabelString(Labels{{1, 4}, {2}});
    nfa.Minimize();
    WriteSeed("fuzz_nfa", "dag", dseq::SerializeNfa(nfa));
  }
  {
    // Multi-item output sets (the hierarchy case).
    dseq::OutputNfa nfa;
    nfa.AddLabelString(Labels{{1, 2, 3}, {7}});
    nfa.AddLabelString(Labels{{1, 2, 3}});
    nfa.Minimize();
    WriteSeed("fuzz_nfa", "output_sets", dseq::SerializeNfa(nfa));
  }
  WriteSeed("fuzz_nfa", "malformed", "\xff\xff\xff");
  // A {5} self-loop on the root: well-formed records, rejected as cyclic.
  WriteSeed("fuzz_nfa", "self_loop", std::string("\x01\x02\x01\x05\x00", 5));
  // Explicit sources number the states out of DFS order; written back by
  // id instead of by visit order, they re-parse as a cycle.
  WriteSeed("fuzz_nfa", "dfs_order",
            std::string("\x06\x00\x01\x04\x01\x00\x01\x02\x04\x01\x05\x03"
                        "\x01\x01\x03\x03\x01\x00\x02\x01\x03\x02\x01\x02"
                        "\x03",
                        25));
}

void BlockCodecSeeds() {
  const std::string raw =
      "the quick brown fox jumps over the lazy dog -- the quick brown fox "
      "jumps again, and again, and again, and again";
  WriteSeed("fuzz_block_codec", "raw_text", "\x01" + raw);
  WriteSeed("fuzz_block_codec", "raw_runs",
            "\x01" + std::string(200, 'a') + std::string(100, 'b'));
  WriteSeed("fuzz_block_codec", "block_valid",
            std::string(1, '\0') + dseq::CompressBlock(raw));
  WriteSeed("fuzz_block_codec", "block_garbage",
            std::string(1, '\0') + "\x40garbage-after-big-length-prefix");
}

std::string SpillRunBytes(bool compress) {
  static char templ_storage[] = "/tmp/dseq_corpus_XXXXXX";
  static std::string dir = [] {
    char* made = mkdtemp(templ_storage);
    if (made == nullptr) {
      std::perror("mkdtemp");
      std::exit(1);
    }
    return std::string(made);
  }();
  std::string bytes;
  {
    dseq::SpillFile file = dseq::SpillFile::Create(dir);
    dseq::SpillWriter writer(&file, compress, /*stats=*/nullptr);
    writer.Append("apple", "1");
    writer.Append("banana", "22");
    writer.Append("cherry", std::string(64, 'x'));
    writer.Finish();
    std::ifstream in(file.path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }  // SpillFile removes its backing file here
  return bytes;
}

void RpcFrameSeeds() {
  // fuzz_rpc_frame's first input byte selects the Append chunk size; the
  // seeds pair real AppendFrame output (chunk 1 = byte-by-byte trickle,
  // chunk 64 = bulk) with the rejection paths the decoder must pin.
  std::string stream;
  dseq::rpc::AppendFrame(&stream, dseq::rpc::MsgType::kHello, Varint(3));
  dseq::rpc::AppendFrame(&stream, dseq::rpc::MsgType::kMapTask,
                         Varint(0) + Varint(0) + Varint(25));
  dseq::rpc::AppendFrame(&stream, dseq::rpc::MsgType::kSegment,
                         Varint(0) + Varint(1) + Varint(1) + "payload");
  dseq::rpc::AppendFrame(&stream, dseq::rpc::MsgType::kShutdown, "");
  WriteSeed("fuzz_rpc_frame", "stream_trickle", std::string(1, '\0') + stream);
  WriteSeed("fuzz_rpc_frame", "stream_bulk", std::string(1, '\x3f') + stream);
  // Length prefix over the frame cap: rejected before any buffering.
  WriteSeed("fuzz_rpc_frame", "oversize_length",
            std::string(1, '\x07') +
                Varint(static_cast<uint64_t>(dseq::rpc::MsgType::kSegment)) +
                Varint(dseq::rpc::kMaxFramePayloadBytes + 1));
  // No such message type.
  WriteSeed("fuzz_rpc_frame", "bad_type",
            std::string(1, '\x07') + Varint(99) + Varint(0));
  // A frame cut mid-payload: must stay kNeedMore, never a frame.
  std::string one_frame;
  dseq::rpc::AppendFrame(&one_frame, dseq::rpc::MsgType::kReduceTask,
                         std::string(40, 'r'));
  WriteSeed("fuzz_rpc_frame", "truncated",
            std::string(1, '\0') + one_frame.substr(0, one_frame.size() / 2));
  // Type 9, a retired liveness probe: malformed, and so is the stream after
  // it.
  std::string after;
  dseq::rpc::AppendFrame(&after, dseq::rpc::MsgType::kShutdown, "");
  WriteSeed("fuzz_rpc_frame", "retired_ping",
            std::string(1, '\x07') + Varint(9) + Varint(0) + after);
}

void TraceSnapshotSeeds() {
  // A worker's kTrace payload: two spans (one stamped with a worker
  // ordinal, one without), a counter and a histogram delta.
  dseq::obs::SetEnabled(true);
  dseq::obs::SetCurrentRound(1);
  dseq::obs::EmitSpan("worker", "map_task", 1000, 5000);
  dseq::obs::SetProcessOrdinal(2);
  dseq::obs::EmitSpan("engine", "map_shard", 1200, 4800);
  dseq::obs::GetCounter("seed.records").Add(42);
  dseq::obs::Histogram& hist = dseq::obs::GetHistogram("seed.record_bytes");
  hist.Observe(0);
  hist.Observe(300);
  const std::string snapshot = dseq::obs::EncodeWireSnapshot();
  // The largest process ordinal a snapshot can carry.
  dseq::obs::SetProcessOrdinal(INT_MAX);
  dseq::obs::EmitSpan("worker", "reduce_task", 6000, 9000);
  const std::string max_ordinal = dseq::obs::EncodeWireSnapshot();
  // No span and no metric delta: version byte, count 0, registry block.
  const std::string empty = dseq::obs::EncodeWireSnapshot();
  dseq::obs::SetEnabled(false);
  WriteSeed("fuzz_trace_snapshot", "snapshot", snapshot);
  WriteSeed("fuzz_trace_snapshot", "max_ordinal", max_ordinal);
  // Cut mid-span: the truncation rejection path.
  WriteSeed("fuzz_trace_snapshot", "truncated",
            snapshot.substr(0, snapshot.size() / 2));
  // The span count is a varint that never ends within 64 bits.
  WriteSeed("fuzz_trace_snapshot", "bad_varint",
            snapshot.substr(0, 1) + std::string(11, '\xff'));
  // One span starting at 2^63, beyond int64: rejected, not exported as a
  // negative time. Spliced into an empty snapshot's span count.
  std::string wide_start = empty.substr(0, 1) + Varint(1);
  for (std::string s : {"worker", "map_task"}) {
    wide_start += Varint(s.size()) + s;
  }
  wide_start += Varint(uint64_t{1} << 63) + Varint(10) + Varint(0) +
                Varint(0) + Varint(0);
  WriteSeed("fuzz_trace_snapshot", "start_2_63",
            wide_start + empty.substr(2));
}

// Every record a miner's map emits over the fixture's database, by key.
using Partitions = std::map<std::string, std::vector<std::string>>;

template <typename Map>
Partitions MapFixture(Map map) {
  Partitions partitions;
  for (const dseq::Sequence& T : dseq::fuzz::Fixture().db.sequences) {
    map(T, [&](std::string_view key, std::string_view value) {
      partitions[std::string(key)].emplace_back(value);
    });
  }
  return partitions;
}

// The partition with the most records.
const Partitions::value_type& Largest(const Partitions& partitions) {
  const Partitions::value_type* best = &*partitions.begin();
  for (const auto& p : partitions) {
    if (p.second.size() > best->second.size()) best = &p;
  }
  return *best;
}

// Per miner: a valid partition, the same with weighted records, under a
// sub-partition key, and under pivot 0 (kNoItem, no partition).
void ReduceSeeds() {
  namespace fx = dseq::fuzz;
  const dseq::StepTable& table = fx::Fixture().table;
  const std::string pivot0 = Varint(dseq::kNoItem);
  auto write = [](const char* miner, const char* name, uint8_t selector,
                  const std::string& key,
                  const std::vector<std::string>& values) {
    WriteSeed("fuzz_reduce", std::string(miner) + "_" + name,
              fx::EncodeReduceInput(selector, key, values));
  };

  dseq::NaiveOptions naive;
  naive.sigma = fx::kSigma;
  naive.semi_naive = true;  // the fixture's table is σ-pruned
  const Partitions naive_parts =
      MapFixture([&](const dseq::Sequence& T, const auto& emit) {
        dseq::MapNaiveInput(T, table, naive, emit);
      });
  const auto& [candidate, counts] = Largest(naive_parts);
  write("naive", "valid", fx::kNaive, candidate, counts);
  write("naive", "weighted", fx::kNaive, candidate, {Varint(3)});
  write("naive", "subpartition", fx::kNaive,
        dseq::EncodeSubpartitionKey(1, 1), counts);
  write("naive", "pivot0", fx::kNaive, pivot0, counts);

  dseq::DSeqOptions dseq_options;
  dseq_options.sigma = fx::kSigma;
  const Partitions dseq_parts =
      MapFixture([&](const dseq::Sequence& T, const auto& emit) {
        dseq::MapDSeqInput(T, table, dseq_options, emit);
      });
  const auto& [dseq_key, rewrites] = Largest(dseq_parts);
  std::vector<std::string> weighted_rewrites;
  for (size_t i = 0; i < rewrites.size(); ++i) {
    weighted_rewrites.push_back(Varint(i + 1) + rewrites[i]);
  }
  write("dseq", "valid", fx::kDSeq, dseq_key, rewrites);
  write("dseq", "weighted", fx::kDSeq | fx::kWeighted, dseq_key,
        weighted_rewrites);
  write("dseq", "subpartition", fx::kDSeq,
        dseq::EncodeSubpartitionKey(dseq::DecodePivotKey(dseq_key), 0),
        rewrites);
  write("dseq", "pivot0", fx::kDSeq, pivot0, rewrites);

  dseq::DCandOptions dcand_options;
  dcand_options.sigma = fx::kSigma;
  const Partitions dcand_parts =
      MapFixture([&](const dseq::Sequence& T, const auto& emit) {
        dseq::MapDCandInput(T, table, dcand_options, emit);
      });
  const auto& [dcand_key, nfas] = Largest(dcand_parts);
  // Each map record is varint(1) + NFA; reweight the first.
  std::vector<std::string> weighted_nfas = nfas;
  weighted_nfas.front() = Varint(3) + nfas.front().substr(1);
  write("dcand", "valid", fx::kDCand, dcand_key, nfas);
  write("dcand", "weighted", fx::kDCand, dcand_key, weighted_nfas);
  write("dcand", "subpartition", fx::kDCand,
        dseq::EncodeSubpartitionKey(dseq::DecodePivotKey(dcand_key), 0), nfas);
  write("dcand", "pivot0", fx::kDCand, pivot0, nfas);
}

void SpillRunSeeds() {
  std::string raw_run = SpillRunBytes(/*compress=*/false);
  std::string compressed_run = SpillRunBytes(/*compress=*/true);
  WriteSeed("fuzz_spill_run", "raw_run", std::string(1, '\0') + raw_run);
  WriteSeed("fuzz_spill_run", "compressed_run", "\x01" + compressed_run);
  // Truncated mid-block: the torn-write rejection path.
  WriteSeed("fuzz_spill_run", "truncated_run",
            std::string(1, '\0') + raw_run.substr(0, raw_run.size() / 2));
  // A run read with the wrong compression flag.
  WriteSeed("fuzz_spill_run", "flag_mismatch", "\x01" + raw_run);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus root>\n", argv[0]);
    return 1;
  }
  g_root = argv[1];
  MakeDir(g_root);
  VarintSeeds();
  NfaSeeds();
  BlockCodecSeeds();
  SpillRunSeeds();
  RpcFrameSeeds();
  TraceSnapshotSeeds();
  ReduceSeeds();
  return 0;
}
