#include "src/baselines/prefix_span.h"

#include <map>
#include <utility>

namespace dseq {
namespace {

// Sequential PrefixSpan over a projected database of suffixes.
class LocalPrefixSpan {
 public:
  LocalPrefixSpan(const std::vector<Sequence>& suffixes, uint64_t sigma,
                  uint32_t remaining, const Sequence& prefix,
                  MiningResult* out)
      : suffixes_(suffixes), sigma_(sigma), out_(out) {
    // Projections reference (suffix index, offset).
    std::vector<std::pair<uint32_t, uint32_t>> projections;
    projections.reserve(suffixes.size());
    for (uint32_t i = 0; i < suffixes.size(); ++i) projections.emplace_back(i, 0);
    prefix_ = prefix;
    Grow(projections, remaining);
  }

 private:
  void Grow(const std::vector<std::pair<uint32_t, uint32_t>>& projections,
            uint32_t remaining) {
    if (remaining == 0) return;
    // Count the distinct-sequence frequency of every item in the projected
    // database and record its first occurrence per sequence.
    std::map<ItemId, std::vector<std::pair<uint32_t, uint32_t>>> extensions;
    for (const auto& [seq, offset] : projections) {
      const Sequence& T = suffixes_[seq];
      // First occurrence of each item in T[offset..].
      std::map<ItemId, uint32_t> first;
      for (uint32_t j = offset; j < T.size(); ++j) {
        first.emplace(T[j], j);
      }
      for (const auto& [w, j] : first) {
        extensions[w].emplace_back(seq, j + 1);
      }
    }
    for (auto& [w, projected] : extensions) {
      if (projected.size() < sigma_) continue;
      prefix_.push_back(w);
      out_->push_back(PatternCount{prefix_, projected.size()});
      Grow(projected, remaining - 1);
      prefix_.pop_back();
    }
  }

  const std::vector<Sequence>& suffixes_;
  uint64_t sigma_;
  MiningResult* out_;
  Sequence prefix_;
};

}  // namespace

DistributedResult MinePrefixSpan(const std::vector<Sequence>& db,
                                 const Dictionary& dict,
                                 const PrefixSpanOptions& options) {
  // lambda bounds the output length; 0 admits no pattern at all (and would
  // otherwise underflow the `lambda - 1` recursion depth below).
  if (options.lambda == 0) return {};

  MapFn map_fn = [&](size_t index, const EmitFn& emit) {
    const Sequence& T = db[index];
    // First occurrence of each frequent item; emit the projected suffix.
    std::map<ItemId, uint32_t> first;
    for (uint32_t j = 0; j < T.size(); ++j) {
      if (dict.DocFrequency(T[j]) < options.sigma) continue;
      first.emplace(T[j], j);
    }
    for (const auto& [w, j] : first) {
      std::string value;
      PutSequence(&value, Sequence(T.begin() + j + 1, T.end()));
      emit(EncodePivotKey(w), std::move(value));
    }
  };

  PartitionReduceFn reduce_fn = [&](std::string_view key,
                                    std::vector<std::string_view>& values,
                                    MiningResult& out) {
    ItemId w = DecodePivotKey(key);
    if (values.size() < options.sigma) return;
    out.push_back(PatternCount{Sequence{w}, values.size()});
    std::vector<Sequence> suffixes;
    suffixes.reserve(values.size());
    Sequence seq;
    for (std::string_view v : values) {
      size_t pos = 0;
      GetSequence(v, &pos, &seq);
      suffixes.push_back(seq);
    }
    LocalPrefixSpan(suffixes, options.sigma, options.lambda - 1, Sequence{w},
                    &out);
  };

  return RunDistributedMining(db.size(), map_fn, /*combine=*/false, reduce_fn,
                              options);
}

}  // namespace dseq
