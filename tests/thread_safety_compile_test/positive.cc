// Reference snippet for correctly annotated synchronization: must compile
// warning-clean on every supported compiler, and under Clang with
// -Werror=thread-safety (the negative snippets next to it must NOT). It
// exercises every construct the repo uses: GUARDED_BY members behind
// MutexLock, a REQUIRES helper, PT_GUARDED_BY, EXCLUDES, and the manual
// try_lock/unlock path.
#include <cstdint>

#include "src/util/sync.h"

namespace {

class AnnotatedCounter {
 public:
  void Add(uint64_t n) DSEQ_EXCLUDES(mu_) {
    dseq::MutexLock lock(mu_);
    AddLocked(n);
  }

  bool TryAdd(uint64_t n) DSEQ_EXCLUDES(mu_) {
    if (!mu_.try_lock()) return false;
    AddLocked(n);
    mu_.unlock();
    return true;
  }

  void SetSink(uint64_t* sink) DSEQ_EXCLUDES(mu_) {
    dseq::MutexLock lock(mu_);
    sink_ = sink;
    if (sink_ != nullptr) *sink_ = value_;
  }

  uint64_t Value() DSEQ_EXCLUDES(mu_) {
    dseq::MutexLock lock(mu_);
    return value_;
  }

 private:
  void AddLocked(uint64_t n) DSEQ_REQUIRES(mu_) {
    value_ += n;
    if (sink_ != nullptr) *sink_ = value_;
  }

  dseq::Mutex mu_;
  uint64_t value_ DSEQ_GUARDED_BY(mu_) = 0;
  uint64_t* sink_ DSEQ_GUARDED_BY(mu_) DSEQ_PT_GUARDED_BY(mu_) = nullptr;
};

}  // namespace

int main() {
  AnnotatedCounter counter;
  counter.Add(1);
  (void)counter.TryAdd(2);
  uint64_t sink = 0;
  counter.SetSink(&sink);
  return counter.Value() == 0 ? 1 : 0;
}
