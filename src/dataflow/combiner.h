// The map-side combiner of the dataflow engine (the `combine` step of
// paper Alg. 1).
//
// Both shuffle aggregations of the paper are one operation: a value is
// varint(weight) + payload, and the weights of identical (key, payload)
// records are summed. A count is a weight with an empty payload (NAIVE /
// SEMI-NAIVE candidate counts, MineDSeqBalanced's split supports); D-CAND's
// weighted NFAs (Sec. VI-A) and D-SEQ's aggregated rewrites carry the
// payload.
//
// Records aggregate into an open-addressing table (power-of-two capacity,
// linear probing, growth at 7/8 load) whose slots view their (key, payload)
// bytes in a StringArena: one bulk copy per distinct record instead of a
// heap allocation per Add.
//
// Out-of-core: under a memory budget the combiner charges its table and
// arena against the round's MemoryBudget. When the budget runs out it
// spills the table as a sorted partial run (or throws ShuffleOverflowError
// when spilling is disabled), and Flush external-merges the runs, so the
// emitted records are exactly the fully-combined output of the in-memory
// path. A budgeted flush always emits in strictly increasing (key, payload)
// order; the unbudgeted flush emits in table order, with no sort. Either
// way RunMapShard stable-sorts each bucket by key when it seals it.
//
// The budgeted sort (every spill and the final flush) sorts 16-byte
// entries of (key prefix, slot): the first 8 key bytes as a big-endian,
// zero-padded integer. Different prefixes order as their keys do, so most
// comparisons read no slot; equal prefixes (a shared first 8 bytes, or a
// short key against the same key plus 0x00 bytes) fall back to the full
// (key, payload) comparison. The order is thus exactly (key, payload)
// order, and the spilled runs and their merge keep it.
#ifndef DSEQ_DATAFLOW_COMBINER_H_
#define DSEQ_DATAFLOW_COMBINER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/dataflow/engine.h"
#include "src/spill/memory_budget.h"
#include "src/spill/spill_file.h"
#include "src/util/arena.h"

namespace dseq {

class Combiner {
 public:
  /// One combiner per map worker and round. `options` supplies the spill
  /// configuration (spill_dir, compress_shuffle) and the round index for
  /// error messages, which also name `map_worker`.
  /// `budget` and `stats` are the round's shared ones; neither is null and
  /// all three outlive the combiner. The combiner is budgeted exactly when
  /// budget->enabled().
  Combiner(const DataflowOptions& options, MemoryBudget* budget,
           SpillStats* stats, int map_worker);
  ~Combiner();
  Combiner(const Combiner&) = delete;
  Combiner& operator=(const Combiner&) = delete;

  /// Adds one record; copies what it keeps. Throws std::invalid_argument
  /// when `value` lacks its varint weight prefix, std::overflow_error when
  /// the (key, payload)'s weight sum would exceed uint64.
  void Add(std::string_view key, std::string_view value);

  /// Emits every distinct (key, payload) once as (key, varint(weight sum) +
  /// payload), then leaves the combiner empty and reusable.
  void Flush(const EmitFn& emit);

 private:
  // The budget charges slots × sizeof(Slot), so the slot size sets when a
  // budgeted combiner spills: keep it at 40 bytes on LP64.
  struct Slot {
    std::string_view record;  // key bytes, then payload bytes (interned)
    size_t hash = 0;
    uint64_t sum = 0;
    uint32_t key_size = 0;
    bool used = false;

    std::string_view key() const { return {record.data(), key_size}; }
    std::string_view payload() const {
      return {record.data() + key_size, record.size() - key_size};
    }
  };
  static_assert(sizeof(void*) != 8 || sizeof(Slot) == 40,
                "Slot size is part of the budget's spill timing");

  // A budgeted flush's sort entry: the slot's first 8 key bytes read
  // big-endian and zero-padded, so integer order on prefixes is byte order
  // on keys wherever the prefixes differ.
  struct SortEntry {
    uint64_t prefix;
    const Slot* slot;
  };

  void Grow();
  std::vector<SortEntry> SortedSlots() const;
  std::vector<std::pair<std::string_view, std::string_view>> RunRecords(
      StringArena* scratch) const;
  void ChargeResident();
  void Spill();
  void FlushExternal(const EmitFn& emit);
  void Reset();

  const DataflowOptions& options_;
  MemoryBudget* const budget_;
  SpillStats* const stats_;
  const int map_worker_;

  std::vector<Slot> slots_;
  size_t size_ = 0;
  StringArena arena_;

  uint64_t charged_ = 0;
  uint64_t records_since_spill_ = 0;
  bool overdraft_ = false;
  std::vector<SpillFile> runs_;  // sorted partial runs, oldest first
};

/// The merge key of the combiner's spilled runs: the key with each 0x00
/// escaped as 0x00 0x01, then — only when the payload is not empty — the
/// terminator 0x00 0x00 and the payload. It orders exactly like (key,
/// payload) compared pairwise, so runs, the k-way merge and the budgeted
/// flush share one order; and a count's composite is its key whenever the
/// key holds no 0x00, so count runs cost no extra bytes.
void AppendCompositeKey(std::string* out, std::string_view key,
                        std::string_view payload);

/// Inverse of AppendCompositeKey: returns (key, payload). The payload, and
/// the key unless it held an escaped 0x00, view `composite`; an escaped key
/// is unescaped into `*scratch` and views it. Throws std::runtime_error on
/// bytes AppendCompositeKey cannot produce.
std::pair<std::string_view, std::string_view> SplitCompositeKey(
    std::string_view composite, std::string* scratch);

}  // namespace dseq

#endif  // DSEQ_DATAFLOW_COMBINER_H_
