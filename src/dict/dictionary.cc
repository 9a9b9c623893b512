#include "src/dict/dictionary.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/util/thread_pool.h"

namespace dseq {

ItemId DictionaryBuilder::AddItem(const std::string& name) {
  if (by_name_.count(name) > 0) {
    throw std::invalid_argument("duplicate item name: " + name);
  }
  names_.push_back(name);
  parents_.emplace_back();
  ItemId id = static_cast<ItemId>(names_.size());
  by_name_[name] = id;
  return id;
}

ItemId DictionaryBuilder::GetOrAddItem(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  return AddItem(name);
}

void DictionaryBuilder::AddParent(ItemId child, ItemId parent) {
  if (child == kNoItem || parent == kNoItem || child > names_.size() ||
      parent > names_.size()) {
    throw std::invalid_argument("AddParent: unknown item id");
  }
  if (child == parent) {
    throw std::invalid_argument("AddParent: self-loop on " + names_[child - 1]);
  }
  auto& ps = parents_[child - 1];
  if (std::find(ps.begin(), ps.end(), parent) == ps.end()) {
    ps.push_back(parent);
  }
}

Dictionary DictionaryBuilder::Build() const {
  Dictionary dict;
  dict.names_ = names_;
  dict.parents_ = parents_;
  dict.by_name_ = by_name_;
  dict.doc_freq_.assign(names_.size(), 0);
  dict.BuildDerivedData();
  return dict;
}

void Dictionary::BuildDerivedData() {
  size_t n = names_.size();
  // Compute ancestors via memoized DFS; state: 0 = unvisited, 1 = in
  // progress (cycle detection), 2 = done.
  ancestors_.assign(n, {});
  std::vector<uint8_t> state(n, 0);
  std::vector<ItemId> stack;
  for (ItemId root = 1; root <= n; ++root) {
    if (state[root - 1] == 2) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      ItemId w = stack.back();
      if (state[w - 1] == 2) {
        stack.pop_back();
        continue;
      }
      if (state[w - 1] == 0) {
        state[w - 1] = 1;
        bool ready = true;
        for (ItemId p : parents_[w - 1]) {
          if (state[p - 1] == 1) {
            throw std::invalid_argument("hierarchy cycle involving item " +
                                        names_[w - 1]);
          }
          if (state[p - 1] == 0) {
            stack.push_back(p);
            ready = false;
          }
        }
        if (!ready) continue;
      }
      // All parents done: union their ancestor sets plus self.
      std::vector<ItemId>& anc = ancestors_[w - 1];
      anc.push_back(w);
      for (ItemId p : parents_[w - 1]) {
        const auto& pa = ancestors_[p - 1];
        anc.insert(anc.end(), pa.begin(), pa.end());
      }
      std::sort(anc.begin(), anc.end());
      anc.erase(std::unique(anc.begin(), anc.end()), anc.end());
      state[w - 1] = 2;
      stack.pop_back();
    }
  }
}

ItemId Dictionary::ItemByName(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoItem : it->second;
}

bool Dictionary::IsAncestorOrSelf(ItemId anc, ItemId item) const {
  const auto& a = ancestors_[item - 1];
  return std::binary_search(a.begin(), a.end(), anc);
}

void Dictionary::ComputeDocFrequencies(const std::vector<Sequence>& db,
                                       int num_workers) {
  size_t n = size();
  std::vector<std::vector<uint64_t>> doc_parts;
  int workers = std::max(1, num_workers);
  doc_parts.assign(workers, std::vector<uint64_t>(n, 0));

  ParallelShards(db.size(), workers, [&](int w, size_t begin, size_t end) {
    std::vector<uint64_t>& doc = doc_parts[w];
    // Stamp array avoids clearing a seen-set per sequence.
    std::vector<uint32_t> stamp(n + 1, 0);
    uint32_t cur = 0;
    for (size_t s = begin; s < end; ++s) {
      ++cur;
      for (ItemId t : db[s]) {
        for (ItemId a : Ancestors(t)) {
          if (stamp[a] != cur) {
            stamp[a] = cur;
            ++doc[a - 1];
          }
        }
      }
    }
  });

  doc_freq_.assign(n, 0);
  for (int w = 0; w < workers; ++w) {
    for (size_t i = 0; i < n; ++i) doc_freq_[i] += doc_parts[w][i];
  }
}

Dictionary Dictionary::RecodeByFrequency(std::vector<Sequence>* db,
                                         std::vector<ItemId>* old_to_new) const {
  size_t n = size();
  std::vector<ItemId> order(n);
  std::iota(order.begin(), order.end(), 1);
  std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
    if (doc_freq_[a - 1] != doc_freq_[b - 1]) {
      return doc_freq_[a - 1] > doc_freq_[b - 1];
    }
    return a < b;
  });
  std::vector<ItemId> to_new(n + 1, kNoItem);
  for (size_t i = 0; i < n; ++i) to_new[order[i]] = static_cast<ItemId>(i + 1);

  Dictionary dict;
  dict.names_.resize(n);
  dict.parents_.resize(n);
  dict.doc_freq_.resize(n);
  for (ItemId old = 1; old <= n; ++old) {
    ItemId nw = to_new[old];
    dict.names_[nw - 1] = names_[old - 1];
    dict.doc_freq_[nw - 1] = doc_freq_[old - 1];
    dict.by_name_[names_[old - 1]] = nw;
    std::vector<ItemId> ps;
    ps.reserve(parents_[old - 1].size());
    for (ItemId p : parents_[old - 1]) ps.push_back(to_new[p]);
    std::sort(ps.begin(), ps.end());
    dict.parents_[nw - 1] = std::move(ps);
  }
  dict.BuildDerivedData();

  if (db != nullptr) {
    for (Sequence& seq : *db) {
      for (ItemId& t : seq) t = to_new[t];
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(to_new);
  return dict;
}

bool Dictionary::IsForest() const {
  for (const auto& ps : parents_) {
    if (ps.size() > 1) return false;
  }
  return true;
}

double Dictionary::MeanAncestors() const {
  if (size() == 0) return 0.0;
  size_t total = 0;
  for (const auto& a : ancestors_) total += a.size() - 1;  // exclude self
  return static_cast<double>(total) / static_cast<double>(size());
}

size_t Dictionary::MaxAncestors() const {
  size_t mx = 0;
  for (const auto& a : ancestors_) mx = std::max(mx, a.size() - 1);
  return mx;
}

}  // namespace dseq
