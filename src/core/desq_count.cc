#include "src/core/desq_count.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/core/candidates.h"
#include "src/core/desq_dfs.h"
#include "src/core/grid.h"
#include "src/util/thread_pool.h"
#include "src/util/varint.h"

namespace dseq {

MiningResult MineDesqCount(const std::vector<Sequence>& db, const Fst& fst,
                           const Dictionary& dict,
                           const DesqCountOptions& options) {
  const StepTable table(fst, dict, options.sigma);
  int workers = std::max(1, options.num_workers);

  // Counts by candidate key (PutSequence bytes); only the frequent keys are
  // decoded.
  using CountMap = std::unordered_map<std::string, uint64_t>;
  std::vector<CountMap> partial(workers);
  ParallelShards(db.size(), workers, [&](int w, size_t begin, size_t end) {
    CountMap& counts = partial[w];
    auto count = [&counts](std::string_view key) {
      ++counts[std::string(key)];
    };
    for (size_t s = begin; s < end; ++s) {
      StateGrid grid = StateGrid::Build(db[s], table);
      if (!ForEachCandidateKey(grid, options.candidates_per_sequence_budget,
                               count)) {
        throw MiningBudgetError(
            "DESQ-COUNT: candidate budget exceeded for one sequence");
      }
    }
  });

  CountMap& total = partial[0];
  for (int w = 1; w < workers; ++w) {
    for (auto& [key, count] : partial[w]) total[key] += count;
    partial[w].clear();
  }

  MiningResult result;
  for (const auto& [key, count] : total) {
    if (count < options.sigma) continue;
    PatternCount mined{{}, count};
    size_t pos = 0;
    GetSequence(key, &pos, &mined.pattern);
    result.push_back(std::move(mined));
  }
  Canonicalize(&result);
  return result;
}

}  // namespace dseq
