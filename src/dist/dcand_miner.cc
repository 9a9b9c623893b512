#include "src/dist/dcand_miner.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "src/core/grid.h"
#include "src/core/pivot.h"
#include "src/nfa/serializer.h"

namespace dseq {
namespace {

// Pattern growth over weighted NFAs: the candidate partition's local miner.
// Mirrors the DESQ-DFS posting structure with (nfa, state) postings; the
// NFAs are acyclic, so expansion terminates without position tracking.
class NfaMiner {
 public:
  NfaMiner(const std::vector<OutputNfa>& nfas,
           const std::vector<uint64_t>& weights, uint64_t sigma, ItemId pivot,
           MiningResult* out)
      : nfas_(nfas), weights_(weights), sigma_(sigma), pivot_(pivot),
        out_(out) {}

  void Run() {
    std::vector<Posting> roots;
    for (uint32_t n = 0; n < nfas_.size(); ++n) {
      if (!nfas_[n].empty()) roots.push_back(Posting{n, 0});
    }
    Expand(roots, /*has_pivot=*/false);
  }

 private:
  struct Posting {
    uint32_t nfa;
    StateId state;

    bool operator<(const Posting& o) const {
      if (nfa != o.nfa) return nfa < o.nfa;
      return state < o.state;
    }
    bool operator==(const Posting& o) const {
      return nfa == o.nfa && state == o.state;
    }
  };

  // Total weight of distinct NFAs in the postings: an upper bound on the
  // support of the prefix and all of its extensions.
  uint64_t PotentialSupport(const std::vector<Posting>& postings) const {
    uint64_t total = 0;
    uint32_t prev = UINT32_MAX;
    for (const Posting& p : postings) {
      if (p.nfa != prev) {
        total += weights_[p.nfa];
        prev = p.nfa;
      }
    }
    return total;
  }

  // Weight of distinct NFAs with a final-state posting: each NFA counts a
  // candidate once, regardless of how many accepting paths produce it.
  uint64_t Support(const std::vector<Posting>& postings) const {
    uint64_t support = 0;
    uint32_t prev = UINT32_MAX;
    bool counted = false;
    for (const Posting& p : postings) {
      if (p.nfa != prev) {
        prev = p.nfa;
        counted = false;
      }
      if (counted) continue;
      if (nfas_[p.nfa].IsFinal(p.state)) {
        support += weights_[p.nfa];
        counted = true;
      }
    }
    return support;
  }

  void Expand(const std::vector<Posting>& postings, bool has_pivot) {
    if (PotentialSupport(postings) < sigma_) return;
    if (!prefix_.empty() && has_pivot) {
      uint64_t support = Support(postings);
      if (support >= sigma_) {
        out_->push_back(PatternCount{prefix_, support});
      }
    }

    std::map<ItemId, std::vector<Posting>> children;
    for (const Posting& p : postings) {
      const OutputNfa& nfa = nfas_[p.nfa];
      for (const OutputNfa::Edge& e : nfa.EdgesOf(p.state)) {
        for (ItemId w : nfa.Label(e.label)) {
          if (w > pivot_) continue;
          children[w].push_back(Posting{p.nfa, e.target});
        }
      }
    }
    for (auto& [w, child] : children) {
      std::sort(child.begin(), child.end());
      child.erase(std::unique(child.begin(), child.end()), child.end());
      prefix_.push_back(w);
      Expand(child, has_pivot || w == pivot_);
      prefix_.pop_back();
    }
  }

  const std::vector<OutputNfa>& nfas_;
  const std::vector<uint64_t>& weights_;
  uint64_t sigma_;
  ItemId pivot_;
  MiningResult* out_;
  Sequence prefix_;
};

}  // namespace

MiningResult MineNfas(const std::vector<OutputNfa>& nfas,
                      const std::vector<uint64_t>& weights, uint64_t sigma,
                      ItemId pivot) {
  MiningResult result;
  NfaMiner miner(nfas, weights, sigma, pivot, &result);
  miner.Run();
  Canonicalize(&result);
  return result;
}

DistributedResult MineDCand(const std::vector<Sequence>& db, const Fst& fst,
                            const Dictionary& dict,
                            const DCandOptions& options) {
  GridOptions grid_options;
  grid_options.prune_sigma = options.sigma;

  MapFn map_fn = [&](size_t index, const EmitFn& emit) {
    StateGrid grid = StateGrid::Build(db[index], fst, dict, grid_options);
    if (!grid.HasAcceptingRun()) return;
    Sequence pivots = FindPivotItems(grid);
    if (pivots.empty()) return;

    // One NFA per pivot partition, built from the grid (no run is
    // enumerated); the unminimized ablation ships the equivalent trie.
    PivotNfaBuilder builder(grid, options.max_nfa_states_per_sequence);
    std::string value;
    for (ItemId pivot : pivots) {
      OutputNfa nfa;
      if (!builder.Build(pivot, &nfa) ||
          (!options.minimize_nfas && !builder.Unfold(&nfa))) {
        throw MiningBudgetError(
            "D-CAND NFA construction exceeded its per-sequence state budget");
      }
      if (nfa.empty()) continue;
      if (options.minimize_nfas) {
        nfa.Minimize();
      } else {
        nfa.Canonicalize();
      }
      value.clear();
      PutVarint(&value, 1);
      SerializeNfaTo(nfa, &value);
      emit(EncodePivotKey(pivot), value);
    }
  };

  PartitionReduceFn reduce_fn = [&](std::string_view key,
                                    std::vector<std::string_view>& values,
                                    MiningResult& out) {
    ItemId pivot = DecodePivotKey(key);
    std::vector<OutputNfa> nfas;
    nfas.reserve(values.size());
    std::vector<uint64_t> weights;
    weights.reserve(values.size());
    for (std::string_view v : values) {
      size_t pos = 0;
      uint64_t weight = 0;
      if (!GetVarint(v, &pos, &weight) || weight == 0) {
        throw NfaParseError("malformed weighted NFA record");
      }
      nfas.push_back(DeserializeNfa(v, &pos));
      if (pos != v.size()) {
        throw NfaParseError("trailing bytes after NFA record");
      }
      weights.push_back(weight);
    }
    MiningResult local = MineNfas(nfas, weights, options.sigma, pivot);
    out.insert(out.end(), std::make_move_iterator(local.begin()),
               std::make_move_iterator(local.end()));
  };

  return RunDistributedMining(db.size(), map_fn, options.aggregate_nfas,
                              reduce_fn, options);
}

}  // namespace dseq
