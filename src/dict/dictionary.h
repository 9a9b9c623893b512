// Vocabulary and item hierarchy (paper Sec. II).
//
// Items are arranged in a directed acyclic graph expressing generalization
// (e.g. a word generalizes to its lemma and its part-of-speech tag). The
// dictionary stores, for each item, its name, parents, document frequency
// f(w,D), and the precomputed sorted ancestor set anc(w) (including w
// itself).
//
// After `RecodeByFrequency`, item ids are *fids*: assigned in order of
// decreasing document frequency (ties broken by previous id). This realizes
// the paper's total order `<` on items: w1 < w2 iff fid(w1) < fid(w2), so a
// sequence's pivot item (its least frequent item) is simply its maximum fid.
#ifndef DSEQ_DICT_DICTIONARY_H_
#define DSEQ_DICT_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/common.h"

namespace dseq {

class Dictionary;

/// Incremental builder for a Dictionary. Item ids are assigned starting at 1
/// in insertion order; hierarchy edges may reference items in any order.
class DictionaryBuilder {
 public:
  /// Adds an item with the given name; returns its id. The name must be new.
  ItemId AddItem(const std::string& name);

  /// Returns the id for `name`, adding the item if it does not exist yet.
  ItemId GetOrAddItem(const std::string& name);

  /// Declares that `child` generalizes directly to `parent` (child => parent).
  void AddParent(ItemId child, ItemId parent);

  /// Finalizes the dictionary. Throws std::invalid_argument if the hierarchy
  /// contains a cycle or references unknown items.
  Dictionary Build() const;

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<ItemId>> parents_;
  std::unordered_map<std::string, ItemId> by_name_;
};

/// Immutable vocabulary + hierarchy. See file comment.
class Dictionary {
 public:
  Dictionary() = default;

  /// Number of items. Valid ids are 1..size().
  size_t size() const { return names_.size(); }

  const std::string& Name(ItemId w) const { return names_[w - 1]; }

  /// Returns the id for `name`, or kNoItem if unknown.
  ItemId ItemByName(const std::string& name) const;

  const std::vector<ItemId>& Parents(ItemId w) const {
    return parents_[w - 1];
  }

  /// Ancestors of `w` including `w` itself, sorted ascending by id.
  const std::vector<ItemId>& Ancestors(ItemId w) const {
    return ancestors_[w - 1];
  }

  /// True iff `anc` is an ancestor of `item` or equal to it (item =>* anc).
  bool IsAncestorOrSelf(ItemId anc, ItemId item) const;

  /// Document frequency f(w,D): number of input sequences containing an item
  /// that generalizes to w (computed by ComputeDocFrequencies).
  uint64_t DocFrequency(ItemId w) const { return doc_freq_[w - 1]; }

  /// Computes document frequencies over `db` (sequences of item ids of
  /// *this* dictionary). Frequencies of ancestors are included: a sequence
  /// containing t counts once for every item in anc(t).
  void ComputeDocFrequencies(const std::vector<Sequence>& db,
                             int num_workers = 1);

  /// Returns a new dictionary whose ids are assigned by decreasing document
  /// frequency (fids) and rewrites `db` (and any id in the hierarchy) to the
  /// new ids. `old_to_new`, if non-null, receives the id mapping (indexed by
  /// old id; entry 0 unused).
  Dictionary RecodeByFrequency(std::vector<Sequence>* db,
                               std::vector<ItemId>* old_to_new = nullptr) const;

  /// True if no item has more than one parent (forest-shaped hierarchy).
  bool IsForest() const;

  /// Hierarchy statistics for Table II.
  double MeanAncestors() const;
  size_t MaxAncestors() const;

 private:
  friend class DictionaryBuilder;

  void BuildDerivedData();  // ancestors; validates acyclicity

  std::vector<std::string> names_;
  std::vector<std::vector<ItemId>> parents_;
  std::vector<std::vector<ItemId>> ancestors_;
  std::vector<uint64_t> doc_freq_;
  std::unordered_map<std::string, ItemId> by_name_;
};

}  // namespace dseq

#endif  // DSEQ_DICT_DICTIONARY_H_
