#include "src/fst/fst.h"

#include <cassert>

namespace dseq {

Fst::Fst(StateId initial, std::vector<bool> final_states,
         std::vector<std::vector<Transition>> transitions_by_state)
    : initial_(initial),
      final_(std::move(final_states)),
      from_(std::move(transitions_by_state)) {
  assert(from_.size() == final_.size());
  assert(initial_ < final_.size());
}

size_t Fst::num_transitions() const {
  size_t total = 0;
  for (const auto& ts : from_) total += ts.size();
  return total;
}

bool Fst::Matches(const Transition& tr, ItemId t,
                  const Dictionary& dict) const {
  switch (tr.in_kind) {
    case InputKind::kAny:
      return true;
    case InputKind::kDescendants:
      return dict.IsAncestorOrSelf(tr.in_item, t);
    case InputKind::kExact:
      return t == tr.in_item;
  }
  return false;
}

void Fst::ComputeOutput(const Transition& tr, ItemId t, const Dictionary& dict,
                        Sequence* out) const {
  out->clear();
  switch (tr.out_kind) {
    case OutputKind::kEpsilon:
      return;
    case OutputKind::kSelf:
      out->push_back(t);
      return;
    case OutputKind::kAncestors: {
      const auto& anc = dict.Ancestors(t);
      out->assign(anc.begin(), anc.end());
      return;
    }
    case OutputKind::kAncestorsUpTo: {
      // anc(t) restricted to descendants of out_item (incl. out_item).
      for (ItemId a : dict.Ancestors(t)) {
        if (dict.IsAncestorOrSelf(tr.out_item, a)) out->push_back(a);
      }
      return;
    }
    case OutputKind::kConstant:
      out->push_back(tr.out_item);
      return;
  }
}

}  // namespace dseq
