#include "src/baselines/gap_miner.h"

#include <algorithm>
#include <map>

namespace dseq {
namespace {

// Frequent "pick items" of an input item: the item and (with hierarchies)
// its ancestors, restricted to frequent items. Sorted ascending.
Sequence FrequentAncestors(ItemId t, const Dictionary& dict, uint64_t sigma,
                           bool use_hierarchy) {
  Sequence result;
  if (use_hierarchy) {
    for (ItemId a : dict.Ancestors(t)) {
      if (dict.DocFrequency(a) >= sigma) result.push_back(a);
    }
  } else if (dict.DocFrequency(t) >= sigma) {
    result.push_back(t);
  }
  return result;
}

// Local pattern-growth miner for one partition (pivot k).
class LocalGapMiner {
 public:
  LocalGapMiner(const std::vector<Sequence>& sequences,
                const Dictionary& dict, const GapMinerOptions& options,
                ItemId pivot, MiningResult* out)
      : options_(options), pivot_(pivot), out_(out) {
    fanc_.resize(sequences.size());
    last_pivot_pos_.assign(sequences.size(), -1);
    for (size_t s = 0; s < sequences.size(); ++s) {
      const Sequence& T = sequences[s];
      fanc_[s].resize(T.size());
      for (size_t p = 0; p < T.size(); ++p) {
        Sequence items = FrequentAncestors(T[p], dict, options.sigma,
                                           options.use_hierarchy);
        // Items above the pivot can only produce larger pivots.
        items.erase(std::upper_bound(items.begin(), items.end(), pivot),
                    items.end());
        if (std::binary_search(items.begin(), items.end(), pivot)) {
          last_pivot_pos_[s] = static_cast<int64_t>(p);
        }
        fanc_[s][p] = std::move(items);
      }
    }
  }

  void Run() {
    // Root: first pick may be anywhere.
    std::vector<Posting> roots;
    for (uint32_t s = 0; s < fanc_.size(); ++s) {
      if (last_pivot_pos_[s] >= 0) {
        roots.push_back(Posting{s, UINT32_MAX});  // sentinel: no pick yet
      }
    }
    Expand(roots, /*has_pivot=*/false);
  }

 private:
  struct Posting {
    uint32_t seq;
    uint32_t last_pos;  // UINT32_MAX at the root (no position picked yet)

    bool operator<(const Posting& o) const {
      if (seq != o.seq) return seq < o.seq;
      return last_pos < o.last_pos;
    }
    bool operator==(const Posting& o) const {
      return seq == o.seq && last_pos == o.last_pos;
    }
  };

  static size_t DistinctSequences(const std::vector<Posting>& postings) {
    size_t count = 0;
    uint32_t prev = UINT32_MAX;
    for (const Posting& p : postings) {
      if (p.seq != prev) {
        ++count;
        prev = p.seq;
      }
    }
    return count;
  }

  void Expand(const std::vector<Posting>& postings, bool has_pivot) {
    size_t distinct = DistinctSequences(postings);
    if (distinct < options_.sigma) return;
    if (has_pivot && prefix_.size() >= options_.min_length) {
      out_->push_back(PatternCount{prefix_, distinct});
    }
    if (prefix_.size() >= options_.lambda) return;

    std::map<ItemId, std::vector<Posting>> children;
    for (const Posting& p : postings) {
      const auto& fanc = fanc_[p.seq];
      size_t begin = p.last_pos == UINT32_MAX ? 0 : p.last_pos + 1;
      size_t end = p.last_pos == UINT32_MAX
                       ? fanc.size()
                       : std::min<size_t>(fanc.size(),
                                          p.last_pos + 1 + options_.gamma + 1);
      for (size_t j = begin; j < end; ++j) {
        for (ItemId w : fanc[j]) {
          bool child_has_pivot = has_pivot || w == pivot_;
          if (!child_has_pivot &&
              static_cast<int64_t>(j) >= last_pivot_pos_[p.seq]) {
            // Early stopping: the pivot can no longer be picked after j.
            continue;
          }
          children[w].push_back(Posting{p.seq, static_cast<uint32_t>(j)});
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

  const GapMinerOptions& options_;
  ItemId pivot_;
  MiningResult* out_;
  std::vector<std::vector<Sequence>> fanc_;
  std::vector<int64_t> last_pivot_pos_;
  Sequence prefix_;
};

}  // namespace

DistributedResult MineGapConstrained(const std::vector<Sequence>& db,
                                     const Dictionary& dict,
                                     const GapMinerOptions& options) {
  uint32_t reach = (options.gamma + 1) * (options.lambda - 1);

  MapFn map_fn = [&](size_t index, const EmitFn& emit) {
    const Sequence& T = db[index];
    size_t n = T.size();
    if (n == 0) return;
    std::vector<Sequence> fanc(n);
    for (size_t p = 0; p < n; ++p) {
      fanc[p] = FrequentAncestors(T[p], dict, options.sigma,
                                  options.use_hierarchy);
    }
    // Pivot items: k is a pivot iff some position can pick k and another
    // position within gap reach can pick an item <= k (exact for
    // min_length == 2; a superset otherwise, which only costs shuffle).
    std::map<ItemId, std::pair<size_t, size_t>> pivot_spans;  // k -> [lo, hi]
    for (size_t p = 0; p < n; ++p) {
      for (ItemId k : fanc[p]) {
        // Length-1 candidates have no partner requirement.
        bool partner = options.min_length <= 1;
        size_t lo = p > options.gamma ? p - options.gamma - 1 : 0;
        size_t hi = std::min(n - 1, p + options.gamma + 1);
        for (size_t q = lo; q <= hi && !partner; ++q) {
          if (q == p || fanc[q].empty()) continue;
          if (fanc[q].front() <= k) partner = true;
        }
        if (!partner) continue;
        auto [it, inserted] = pivot_spans.emplace(k, std::make_pair(p, p));
        if (!inserted) {
          it->second.first = std::min(it->second.first, p);
          it->second.second = std::max(it->second.second, p);
        }
      }
    }
    // Rewritten sequence for pivot k: the window around k-producing
    // positions that any candidate containing k can reach.
    for (const auto& [k, span] : pivot_spans) {
      size_t lo = span.first > reach ? span.first - reach : 0;
      size_t hi = std::min(n - 1, span.second + reach);
      std::string value;
      PutSequence(&value, Sequence(T.begin() + lo, T.begin() + hi + 1));
      emit(EncodePivotKey(k), std::move(value));
    }
  };

  PartitionReduceFn reduce_fn = [&](std::string_view key,
                                    std::vector<std::string_view>& values,
                                    MiningResult& out) {
    ItemId pivot = DecodePivotKey(key);
    std::vector<Sequence> sequences;
    sequences.reserve(values.size());
    Sequence seq;
    for (std::string_view v : values) {
      size_t pos = 0;
      GetSequence(v, &pos, &seq);
      sequences.push_back(seq);
    }
    MiningResult local;
    LocalGapMiner miner(sequences, dict, options, pivot, &local);
    miner.Run();
    out.insert(out.end(), std::make_move_iterator(local.begin()),
               std::make_move_iterator(local.end()));
  };

  return RunDistributedMining(db.size(), map_fn, /*combine=*/false, reduce_fn,
                              options);
}

}  // namespace dseq
