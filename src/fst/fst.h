// Finite state transducer for subsequence predicates (paper Sec. IV).
//
// An FST "translates" an input sequence T into its candidate subsequences
// Gπ(T). Transitions are labeled compactly with an *input predicate* (which
// items the transition matches) and an *output operation* (which item set it
// emits for a matched item). Output items are always ancestors of the input
// item (or the input itself), or ε.
//
// The FST produced by `CompileFst` consumes exactly one input item per
// transition (ε-transitions from Thompson construction are eliminated), so a
// run for T = t1..tn is a sequence of n transitions — the structure that the
// position–state grid of Sec. V-A builds on.
#ifndef DSEQ_FST_FST_H_
#define DSEQ_FST_FST_H_

#include <cstdint>
#include <vector>

#include "src/dict/dictionary.h"
#include "src/util/common.h"

namespace dseq {

/// Which input items a transition accepts.
enum class InputKind : uint8_t {
  kAny,          // any item (pattern '.')
  kDescendants,  // any descendant of in_item, incl. itself (pattern 'w')
  kExact,        // exactly in_item (pattern 'w=')
};

/// Which items a transition outputs for a matched input item t.
enum class OutputKind : uint8_t {
  kEpsilon,         // no output (uncaptured expressions)
  kSelf,            // { t }                        -- '(w)', '(.)'
  kAncestors,       // anc(t)                       -- '(.^)'
  kAncestorsUpTo,   // anc(t) ∩ desc(out_item)      -- '(w^)'
  kConstant,        // { out_item }                 -- '(w^=)'
};

/// One FST transition. `in_item` / `out_item` are meaningful only for the
/// kinds that reference an item.
struct Transition {
  StateId from = 0;
  StateId to = 0;
  InputKind in_kind = InputKind::kAny;
  ItemId in_item = kNoItem;
  OutputKind out_kind = OutputKind::kEpsilon;
  ItemId out_item = kNoItem;

  bool operator==(const Transition& o) const {
    return from == o.from && to == o.to && in_kind == o.in_kind &&
           in_item == o.in_item && out_kind == o.out_kind &&
           out_item == o.out_item;
  }
};

/// Immutable ε-free FST. States are 0..num_states()-1.
class Fst {
 public:
  Fst() = default;
  Fst(StateId initial, std::vector<bool> final_states,
      std::vector<std::vector<Transition>> transitions_by_state);

  StateId initial() const { return initial_; }
  size_t num_states() const { return final_.size(); }
  bool IsFinal(StateId q) const { return final_[q]; }
  const std::vector<Transition>& From(StateId q) const { return from_[q]; }
  size_t num_transitions() const;

  /// True iff the transition's input predicate matches item t.
  bool Matches(const Transition& tr, ItemId t, const Dictionary& dict) const;

  /// Computes the output set of `tr` for matched input `t` into `*out`
  /// (sorted ascending). Empty result means ε. Asserts Matches(tr, t).
  void ComputeOutput(const Transition& tr, ItemId t, const Dictionary& dict,
                     Sequence* out) const;

 private:
  StateId initial_ = 0;
  std::vector<bool> final_;
  std::vector<std::vector<Transition>> from_;
};

}  // namespace dseq

#endif  // DSEQ_FST_FST_H_
