// DESQ-DFS: pattern-growth mining under flexible constraints.
//
// Sequential baseline (Beedkar & Gemulla, ICDM'16; paper Tab. V) and — in
// its pivot-restricted form — the one local miner of both partitioned
// algorithms: D-SEQ's rewritten sequences (paper Sec. V-C) and D-CAND's
// weighted candidate NFAs (Sec. VI-B). Mining starts from the empty prefix
// and extends it one output item at a time. Each search-tree node has a
// projected database of postings (sequence, last-read position, FST state)
// from which the prefix can be produced; a sequence supports the prefix if
// some posting can reach the end of the sequence in a final state via
// ε-output transitions only.
//
// The miner reads its sequences from a DfsInput: one flat, append-only
// store of their pruned position–state grids (coordinates, edges, labels).
// It indexes coordinates and their out-edges as StateGrid does (one offset
// per coordinate into one edge array), but keeps only each sequence's live
// coordinates, numbered from its root (local 0), every label in one item
// array instead of an output vector per edge, and many sequences in one
// store. Add(T, weight) builds a sequence straight from the job's step
// table (StepTable, src/core/grid.h) with the walk StateGrid::Build also
// runs: backward over the table's cells for every coordinate's liveness
// bits, cut to the store's pivot; then forward from the root over the live
// coordinates it reaches, appending their edges. No grid and no buffer of
// pending edges is built.
// D-CAND's NFAs decode into the same store: an NFA state is a coordinate,
// an NFA edge a labeled edge, and a final state is ε-accepting.
//
// Pivot restriction (local mining at partition P_k), with a store built for
// pivot k:
//  * every output set is cut to its items <= k (TestPivotEdge's label), and
//    an edge left with no item is dropped, so items larger than the pivot
//    are never used to extend a prefix;
//  * only the edges whose target lies on an accepting run that can still
//    end with k output are kept (the seen-k bits kLiveSeen/kLiveUnseen of
//    pivot.h), and a sequence whose first coordinate cannot reach such a
//    run is not stored;
//  * only sequences containing the pivot item are output;
//  * early stopping (Sec. V-C, exact form): a posting is kept only if its
//    coordinate is live for the prefix — kLiveSeen when the prefix holds k,
//    kLiveUnseen (an accepting suffix that outputs k) when it does not. A
//    sequence therefore stops extending a pivot-free prefix as soon as it
//    can no longer produce k.
#ifndef DSEQ_CORE_DESQ_DFS_H_
#define DSEQ_CORE_DESQ_DFS_H_

#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/grid.h"
#include "src/core/mining.h"
#include "src/dict/dictionary.h"
#include "src/fst/fst.h"
#include "src/util/common.h"

namespace dseq {

/// Thrown when a configured memory budget is exceeded (used by benches to
/// reproduce the paper's OOM entries faithfully instead of thrashing).
class MiningBudgetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct DesqDfsOptions {
  /// Support threshold of the mined patterns.
  uint64_t sigma = 1;

  /// If not kNoItem: mine only sequences whose pivot (max item) equals this
  /// item; larger items are never expanded.
  ItemId pivot = kNoItem;

  /// Early-stopping heuristic for pivot-restricted mining (Sec. V-C): prune
  /// postings whose coordinate is not live for the prefix (see above). Off,
  /// the miner keeps every posting the store's edges produce.
  bool early_stop = true;

  /// If > 0: abort with MiningBudgetError when the total number of live grid
  /// edges across all sequences exceeds this bound (OOM emulation).
  uint64_t max_total_grid_edges = 0;
};

/// Work counters of one DESQ-DFS call.
struct DesqDfsStats {
  uint64_t expansions = 0;       // search-tree nodes expanded
  uint64_t postings_pruned = 0;  // child postings cut by early stopping
};

/// The sequences one DESQ-DFS call mines, as one flat store of their pruned
/// position–state grids. Live means "on an accepting run that can still
/// output the pivot" (the seen-k bits kLiveSeen/kLiveUnseen, pivot.h) with
/// a pivot, and "on an accepting run" without. A sequence is stored only if
/// its root is live, and then only its live coordinates that the root
/// reaches over kept edges: a coordinate (i, q) of a sequence of length n,
/// or a state of an NFA fed by AddNfa, is numbered by its rank among those
/// in the order of i * num_states + q (of a topological order of the NFA),
/// so the root is local 0 and every edge leads to a larger index. Per
/// coordinate the store keeps two liveness bits, an ε-accept bit and a
/// range of out-edges (CSR), and per edge its target coordinate and a range
/// of a single label array: the step table's pool when fed by Add(T,
/// weight), its own otherwise. An edge is kept iff its label cut to the
/// pivot is not emptied and its target is live; identical (from, to, cut
/// label) edges are kept once. With no pivot, the edges kept per sequence
/// are exactly StateGrid's, so num_edges() equals the sum of
/// StateGrid::num_edges() (the budget of DesqDfsOptions::max_total_grid_edges
/// does not depend on the store).
class DfsInput {
 public:
  /// A store fed by Add(T, weight), which walks `table` (it must outlive
  /// the store). The table's prune_sigma removes infrequent items; it is
  /// apart from the support threshold the store is later mined with.
  /// `pivot` is kNoItem or the partition's pivot k.
  DfsInput(const StepTable& table, ItemId pivot);

  /// A store fed by Add(const StateGrid&, weight) and AddNfa.
  explicit DfsInput(ItemId pivot);

  /// Stores the pruned grid of `T` with the given multiplicity, read off the
  /// step table in two passes: its walk for the pivot (StepTable::Walk),
  /// every coordinate's liveness and ε-accept bits; then forward from the
  /// root, the live coordinates it reaches and their edges into live
  /// targets. A sequence whose root
  /// is not live is not stored. Throws std::invalid_argument on an item the
  /// table does not hold and std::length_error when the sequence or the
  /// store outgrows the 32-bit index range; the store is then unchanged.
  void Add(const Sequence& T, uint64_t weight = 1);

  /// Stores an already built (σ-pruned) grid, cut to the pivot like
  /// Add(T, weight): its edges are cut, sorted and deduplicated, then one
  /// backward pass sets the bits and a forward one keeps what the root
  /// reaches. Throws std::length_error, leaving the store unchanged, when
  /// the store outgrows its index range.
  void Add(const StateGrid& grid, uint64_t weight = 1);

  /// Decodes one serialized NFA (serializer.h) starting at `*pos` and
  /// stores it with the given multiplicity, each label cut to the pivot;
  /// advances `*pos` past it. A sequence is an accepted label string, so an
  /// NFA counts once for a pattern it accepts along several paths. Throws
  /// NfaParseError exactly where DeserializeNfa does, cycles included, and
  /// std::length_error as Add(const StateGrid&, weight) does. An NFA with
  /// no accepting path that outputs the pivot is not stored.
  void AddNfa(std::string_view bytes, size_t* pos, uint64_t weight);

  ItemId pivot() const { return pivot_; }

  /// Sequences stored (those with a live run).
  size_t num_sequences() const { return weights_.size(); }

  /// Edges kept over all stored sequences.
  uint64_t num_edges() const { return edges_.size(); }

  /// Edges out of stored coordinates that the pivot cut empties (no item
  /// <= k) or that lead to a dead coordinate. A table-fed store counts one
  /// per FST transition; unstored sequences and coordinates count nothing.
  uint64_t num_dropped_edges() const { return dropped_edges_; }

 private:
  friend class DfsMiner;

  // A stored edge: target coordinate (local to its sequence) and its label,
  // Labels()[label_begin, label_begin + label_size); label_size 0 is ε.
  struct Edge {
    uint32_t target;
    uint32_t label_begin;
    uint32_t label_size;
  };
  // An edge of the NFA or grid being added, before the backward pass.
  struct PendingEdge {
    uint32_t from;
    uint32_t target;
    uint32_t label_begin;  // into pending_labels_
    uint32_t label_size;
  };
  // Where the sequence being appended begins in each array.
  struct Mark {
    size_t coord;
    size_t edge;
    size_t label;
    uint64_t dropped;
  };

  // The item array labels index: the step table's pool for a table-fed
  // store (its labels are prefixes of the table's output sets), labels_
  // otherwise.
  const ItemId* Labels() const {
    return table_ != nullptr ? table_->label_pool() : labels_.data();
  }

  // Adds one pending edge between two coordinates with output `out`, cut
  // to the pivot; an edge the cut empties is only noted in cut_from_.
  void AddPending(size_t from, size_t target, Span<ItemId> out);
  // Sorts the pending edges by (from, to, label) and deduplicates them.
  void SealPending();
  // The backward pass and the forward append of the pending sequence,
  // rooted at coordinate `root`. The pending edges are sorted by source
  // and lead to larger coordinates, and scratch_ holds one entry per
  // coordinate, the accepting ones seeded.
  void Commit(size_t root, uint64_t weight);
  Mark BeginAppend() const {
    return Mark{bits_.size(), edges_.size(), labels_.size(), dropped_edges_};
  }
  // Ends the sequence appended since `at`: rewrites its edges' targets
  // from pending coordinates to local ones (remap_) and records it, or,
  // past the index range, rolls the store back to `at` and throws
  // std::length_error.
  void FinishAppend(const Mark& at, uint64_t weight);

  const StepTable* table_ = nullptr;
  ItemId pivot_;
  ItemId bound_;  // largest item kept on a label

  // Per stored sequence: weight and first global coordinate.
  std::vector<uint64_t> weights_;
  std::vector<uint64_t> coord_begin_;
  // Per global coordinate: liveness / ε-accept bits, and the out-edge range
  // [edge_begin_[c], edge_begin_[c + 1]) (one trailing sentinel).
  std::vector<uint8_t> bits_;
  std::vector<uint32_t> edge_begin_;
  std::vector<Edge> edges_;
  std::vector<ItemId> labels_;  // empty when table-fed
  uint64_t dropped_edges_ = 0;

  // Scratch of the sequence being added: per coordinate its bits while it
  // is built and its local index once stored.
  std::vector<uint8_t> scratch_;
  std::vector<uint32_t> remap_;
  // Scratch of Add(T, weight): the walk's steps.
  std::vector<StepTable::WalkStep> steps_;
  // Scratch of the NFA or grid being added, and the sources of its edges
  // the pivot cut emptied.
  std::vector<PendingEdge> pending_;
  std::vector<ItemId> pending_labels_;
  std::vector<uint32_t> cut_from_;
  // Scratch of the NFA being added: every decoded edge (sorted into a CSR
  // by source, arc_begin_) and final state, and Kahn's order as ranks.
  std::vector<std::pair<StateId, StateId>> arcs_;
  std::vector<StateId> finals_;
  std::vector<uint32_t> arc_begin_;
  std::vector<uint32_t> in_degree_;
  std::vector<StateId> ready_;
  std::vector<uint32_t> rank_;
};

/// Mines the sequences of `input` with threshold `options.sigma`.
/// `options.pivot` must be the store's pivot (std::invalid_argument
/// otherwise); `options.max_total_grid_edges` is checked while a store is
/// filled (MineDesqDfs over sequences), not here. `stats` (may be null) receives the call's work counters.
/// Result is canonicalized.
MiningResult MineDesqDfs(const DfsInput& input, const DesqDfsOptions& options,
                         DesqDfsStats* stats = nullptr);

/// Mines all frequent subsequences of `db` under the FST with threshold
/// `options.sigma`: one step table σ-pruned at `options.sigma`, one
/// DfsInput over it with `options.pivot`, then pattern growth. Result is
/// canonicalized (sorted by pattern).
MiningResult MineDesqDfs(const std::vector<Sequence>& db, const Fst& fst,
                         const Dictionary& dict, const DesqDfsOptions& options);

/// Same, over pre-built grids, grid i counting with multiplicity
/// weights[i]: an adapter that adds each grid to a DfsInput.
MiningResult MineDesqDfsGrids(const std::vector<StateGrid>& grids,
                              const std::vector<uint64_t>& weights,
                              const DesqDfsOptions& options);

}  // namespace dseq

#endif  // DSEQ_CORE_DESQ_DFS_H_
