#include "src/fault/fault_injection.h"

#ifdef DSEQ_FAULT_INJECTION_ENABLED
#include <array>
#include <atomic>
#include <random>

#include "src/util/common.h"
#include "src/util/sync.h"
#endif

namespace dseq {
namespace fault {

namespace {

struct SiteNameEntry {
  Site site;
  const char* name;
};

constexpr SiteNameEntry kSiteNames[] = {
    {Site::kSocketRead, "socket.read"},
    {Site::kSocketWrite, "socket.write"},
    {Site::kSocketSendFrame, "socket.send_frame"},
    {Site::kSpillWrite, "spill.write"},
    {Site::kSpillRead, "spill.read"},
    {Site::kWorkerMessage, "worker.message"},
    {Site::kWorkerCommit, "worker.before_commit"},
};
static_assert(sizeof(kSiteNames) / sizeof(kSiteNames[0]) == kNumSites,
              "site name registry out of sync with Site enum");

}  // namespace

const char* SiteName(Site site) {
  for (const SiteNameEntry& entry : kSiteNames) {
    if (entry.site == site) return entry.name;
  }
  return "unknown";
}

bool SiteFromName(const std::string& name, Site* site) {
  for (const SiteNameEntry& entry : kSiteNames) {
    if (name == entry.name) {
      *site = entry.site;
      return true;
    }
  }
  return false;
}

#ifdef DSEQ_FAULT_INJECTION_ENABLED

namespace {

struct RuleState {
  FaultRule rule;
  uint64_t fired = 0;
};

// All mutable state lives behind one mutex; Evaluate is called from every
// thread that hits a site, the local engine's worker threads included. The atomic fast-path flag
// keeps unconfigured enabled builds to a single load per site hit.
struct GlobalState {
  Mutex mu;
  bool configured DSEQ_GUARDED_BY(mu) = false;
  uint64_t seed DSEQ_GUARDED_BY(mu) = 0;
  int scope DSEQ_GUARDED_BY(mu) = kCoordinator;
  std::vector<RuleState> rules DSEQ_GUARDED_BY(mu);
  std::array<uint64_t, kNumSites> hits DSEQ_GUARDED_BY(mu) = {};
  uint64_t total_fires DSEQ_GUARDED_BY(mu) = 0;
  std::mt19937_64 rng DSEQ_GUARDED_BY(mu);
};

GlobalState& State() {
  static NoDestructor<GlobalState> state;
  return *state;
}

// Fast-path flag checked before taking GlobalState::mu. The release store in
// Configure/Reset pairs with the acquire load in Evaluate so a thread that
// observes `armed == true` also observes the configuration made before the
// store; the mutex then orders everything else. A thread that misses a
// just-set flag harmlessly skips one evaluation.
std::atomic<bool>& Armed() {
  static std::atomic<bool> armed{false};
  return armed;
}

uint64_t MixSeed(uint64_t seed, int scope) {
  // splitmix64-style finalizer over seed ^ scope so per-worker streams are
  // decorrelated even for small seeds.
  uint64_t z = seed ^ (uint64_t{0x9E3779B97F4A7C15} * static_cast<uint64_t>(scope + 2));
  z = (z ^ (z >> 30)) * uint64_t{0xBF58476D1CE4E5B9};
  z = (z ^ (z >> 27)) * uint64_t{0x94D049BB133111EB};
  return z ^ (z >> 31);
}

}  // namespace

void Configure(const FaultSchedule& schedule) {
  GlobalState& state = State();
  MutexLock lock(state.mu);
  state.configured = true;
  state.seed = schedule.seed;
  state.rules.clear();
  state.rules.reserve(schedule.rules.size());
  for (const FaultRule& rule : schedule.rules) state.rules.push_back(RuleState{rule, 0});
  state.hits.fill(0);
  state.total_fires = 0;
  state.rng.seed(MixSeed(schedule.seed, state.scope));
  Armed().store(true, std::memory_order_release);
}

void Reset() {
  GlobalState& state = State();
  MutexLock lock(state.mu);
  state.configured = false;
  state.rules.clear();
  state.hits.fill(0);
  state.total_fires = 0;
  Armed().store(false, std::memory_order_release);
}

void SetProcessScope(int scope) {
  GlobalState& state = State();
  MutexLock lock(state.mu);
  state.scope = scope;
  if (state.configured) state.rng.seed(MixSeed(state.seed, scope));
}

Fault Evaluate(Site site, uint64_t detail) {
  if (!Armed().load(std::memory_order_acquire)) return Fault{};
  GlobalState& state = State();
  MutexLock lock(state.mu);
  if (!state.configured) return Fault{};
  const uint64_t hit = ++state.hits[static_cast<int>(site)];
  for (RuleState& rs : state.rules) {
    const FaultRule& rule = rs.rule;
    if (rule.site != site || rule.action == Action::kNone) continue;
    if (rule.scope != kAnyProcess && rule.scope != state.scope) continue;
    if (rule.detail != kAnyDetail && rule.detail != detail) continue;
    if (rule.max_fires > 0 && rs.fired >= rule.max_fires) continue;
    bool fire;
    if (rule.nth > 0) {
      fire = hit == rule.nth;
    } else {
      std::uniform_real_distribution<double> dist(0.0, 1.0);
      fire = rule.probability > 0.0 && dist(state.rng) < rule.probability;
    }
    if (!fire) continue;
    ++rs.fired;
    ++state.total_fires;
    return Fault{rule.action, rule.param};
  }
  return Fault{};
}

uint64_t SiteHits(Site site) {
  GlobalState& state = State();
  MutexLock lock(state.mu);
  return state.hits[static_cast<int>(site)];
}

uint64_t TotalFires() {
  GlobalState& state = State();
  MutexLock lock(state.mu);
  return state.total_fires;
}

#endif  // DSEQ_FAULT_INJECTION_ENABLED

}  // namespace fault
}  // namespace dseq
