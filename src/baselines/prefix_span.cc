#include "src/baselines/prefix_span.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <stdexcept>

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

DistributedResult MineChainedPrefixSpan(const std::vector<Sequence>& db,
                                        const Dictionary& dict,
                                        const PrefixSpanOptions& options) {
  if (options.lambda == 0) return {};  // as in MinePrefixSpan

  DataflowJob job(options);
  const uint64_t sigma = options.sigma;
  const uint32_t lambda = options.lambda;

  // Shared reduce of every round r: key = serialized length-r prefix, values
  // = the projected suffixes of the input sequences supporting it. Surviving
  // prefixes are output and, below lambda, extended by one item: the
  // extension records are next round's map input.
  //
  // Both outputs leave the reduce as boundary records (the only channel that
  // survives the proc backend's forked reducers), distinguished by a
  // one-byte tag: 'P' = mined pattern, 'E' = extension. The driver strips
  // the tag before extensions re-enter a shuffle, so round metrics are
  // unchanged by the tagging.
  ReduceFn reduce_fn = [sigma, lambda](int /*worker*/, std::string_view key,
                                       std::vector<std::string_view>& values,
                                       const EmitFn& emit) {
    if (values.size() < sigma) return;
    size_t pos = 0;
    Sequence prefix;
    if (!GetSequence(key, &pos, &prefix) || pos != key.size()) {
      throw std::invalid_argument("malformed chained PrefixSpan prefix key");
    }
    std::string pattern_key(1, 'P');
    pattern_key.append(key);
    std::string pattern_value;
    PutVarint(&pattern_value, values.size());
    emit(pattern_key, pattern_value);
    if (prefix.size() >= lambda) return;

    Sequence extended = prefix;
    extended.push_back(kNoItem);
    Sequence suffix;
    for (std::string_view v : values) {
      size_t vpos = 0;
      if (!GetSequence(v, &vpos, &suffix) || vpos != v.size()) {
        throw std::invalid_argument("malformed chained PrefixSpan suffix");
      }
      // First occurrence of each item in the projected suffix (exactly
      // LocalPrefixSpan::Grow's projection step).
      std::map<ItemId, uint32_t> first;
      for (uint32_t j = 0; j < suffix.size(); ++j) first.emplace(suffix[j], j);
      for (const auto& [w, j] : first) {
        extended.back() = w;
        std::string next_key(1, 'E');
        PutSequence(&next_key, extended);
        std::string next_value;
        PutSequence(&next_value,
                    Sequence(suffix.begin() + j + 1, suffix.end()));
        emit(std::move(next_key), std::move(next_value));
      }
    }
  };

  // Round 1: seed with the singleton prefixes of frequent items, one
  // projected suffix per (sequence, item) first occurrence — the same map
  // phase as the collapsed baseline, keyed by serialized prefix.
  MapFn seed_map = [&db, &dict, sigma](size_t index, const EmitFn& emit) {
    const Sequence& T = db[index];
    std::map<ItemId, uint32_t> first;
    for (uint32_t j = 0; j < T.size(); ++j) {
      if (dict.DocFrequency(T[j]) < sigma) continue;
      first.emplace(T[j], j);
    }
    for (const auto& [w, j] : first) {
      std::string key;
      PutSequence(&key, Sequence{w});
      std::string value;
      PutSequence(&value, Sequence(T.begin() + j + 1, T.end()));
      emit(std::move(key), std::move(value));
    }
  };
  job.RunRound(db.size(), seed_map, /*combine=*/false, reduce_fn);

  // Partitions a round's boundary records: patterns accumulate into
  // `patterns`, extensions (tag stripped, emission order preserved — the
  // record order the pre-tagging driver re-shuffled) become the next
  // round's map input.
  MiningResult patterns;
  std::vector<Record> extensions;
  auto harvest = [&] {
    extensions.clear();
    for (Record& record : job.TakeRecords()) {
      if (record.key.empty() ||
          (record.key[0] != 'P' && record.key[0] != 'E')) {
        throw std::invalid_argument("malformed chained PrefixSpan record tag");
      }
      const char tag = record.key[0];
      record.key.erase(0, 1);
      if (tag == 'E') {
        extensions.push_back(std::move(record));
        continue;
      }
      PatternCount mined;
      size_t pos = 0;
      if (!GetSequence(record.key, &pos, &mined.pattern) ||
          pos != record.key.size()) {
        throw std::invalid_argument("malformed chained PrefixSpan pattern");
      }
      pos = 0;
      if (!GetVarint(record.value, &pos, &mined.frequency) ||
          pos != record.value.size()) {
        throw std::invalid_argument("malformed chained PrefixSpan support");
      }
      patterns.push_back(std::move(mined));
    }
  };
  harvest();

  // Rounds 2..lambda: the identity map re-shuffles each extension record to
  // the reducer owning its grown prefix.
  while (!extensions.empty()) {
    MapFn repartition = [&extensions](size_t index, const EmitFn& emit) {
      emit(extensions[index].key, extensions[index].value);
    };
    job.RunRound(extensions.size(), repartition, /*combine=*/false,
                 reduce_fn);
    harvest();
  }

  Canonicalize(&patterns);
  return MakeChainedResult(std::move(patterns), job);
}

}  // namespace dseq
