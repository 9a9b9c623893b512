// Annotated synchronization primitives: the only sanctioned way to lock in
// this repo (tools/lint_dseq.py rule `raw-sync-primitive` bans bare
// std::mutex/std::lock_guard/std::condition_variable everywhere else).
//
// dseq::Mutex / dseq::MutexLock wrap the std primitives and
// carry Clang Thread Safety Analysis attributes, so the locking contract of
// every synchronized structure is machine-checked at compile time:
//
//   - a member annotated DSEQ_GUARDED_BY(mu) cannot be read or written
//     without holding `mu`;
//   - a function annotated DSEQ_REQUIRES(mu) cannot be called without it;
//   - double acquisition, unlock-without-lock, and leaked locks are errors.
//
// Build the whole tree with the analysis as errors via
//
//   cmake -B build-ts -S . -DCMAKE_CXX_COMPILER=clang++ -DDSEQ_THREAD_SAFETY=ON
//
// (-Wthread-safety -Wthread-safety-beta -Werror=thread-safety; the CI
// `thread-safety` job does exactly this, and tests/thread_safety_compile_test
// proves the analysis rejects the canonical violations). On non-Clang
// compilers every macro expands to nothing and the wrappers are plain RAII
// over the std primitives — zero cost, identical behavior.
#ifndef DSEQ_UTIL_SYNC_H_
#define DSEQ_UTIL_SYNC_H_

#include <mutex>

// Attribute plumbing: GNU-style attributes guarded by __has_attribute so the
// macros vanish on GCC/MSVC and on Clang versions predating the analysis.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define DSEQ_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef DSEQ_THREAD_ANNOTATION
#define DSEQ_THREAD_ANNOTATION(x)
#endif

/// Marks a class as a lockable capability (mutex-like).
#define DSEQ_CAPABILITY(x) DSEQ_THREAD_ANNOTATION(capability(x))
/// Marks an RAII class that acquires in its constructor, releases in its
/// destructor (MutexLock below).
#define DSEQ_SCOPED_CAPABILITY DSEQ_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only while holding the named mutex.
#define DSEQ_GUARDED_BY(x) DSEQ_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is guarded by the named mutex (the pointer
/// itself may be read freely).
#define DSEQ_PT_GUARDED_BY(x) DSEQ_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function that must be called with the named mutex(es) held; still held on
/// return (the contract of _locked helpers).
#define DSEQ_REQUIRES(...) \
  DSEQ_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function that acquires the named mutex(es) (or `this` when empty).
#define DSEQ_ACQUIRE(...) \
  DSEQ_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function that releases the named mutex(es) (or `this` when empty).
#define DSEQ_RELEASE(...) \
  DSEQ_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function that acquires on success only (returns `true` when it did).
#define DSEQ_TRY_ACQUIRE(...) \
  DSEQ_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Function that must be called with the named mutex(es) NOT held
/// (deadlock-prevention: it acquires them itself).
#define DSEQ_EXCLUDES(...) DSEQ_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Lock-ordering declarations between mutexes.
#define DSEQ_ACQUIRED_BEFORE(...) \
  DSEQ_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define DSEQ_ACQUIRED_AFTER(...) \
  DSEQ_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
/// Runtime assertion that the calling thread holds the capability; informs
/// the analysis without acquiring.
#define DSEQ_ASSERT_CAPABILITY(x) \
  DSEQ_THREAD_ANNOTATION(assert_capability(x))
/// Function returning a reference to the mutex guarding its result.
#define DSEQ_RETURN_CAPABILITY(x) DSEQ_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: disables the analysis inside one function. Every use must
/// carry a comment explaining why the contract holds anyway.
#define DSEQ_NO_THREAD_SAFETY_ANALYSIS \
  DSEQ_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace dseq {

/// std::mutex with the capability attribute. Prefer MutexLock over manual
/// lock()/unlock() pairs; the manual API exists for the rare split-scope
/// pattern and stays fully analysis-checked.
class DSEQ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DSEQ_ACQUIRE() { mu_.lock(); }
  void unlock() DSEQ_RELEASE() { mu_.unlock(); }
  bool try_lock() DSEQ_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII scope lock over a Mutex (the std::lock_guard of this repo).
class DSEQ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DSEQ_ACQUIRE(mu) : mu_(&mu) { mu_->lock(); }
  ~MutexLock() DSEQ_RELEASE() { mu_->unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace dseq

#endif  // DSEQ_UTIL_SYNC_H_
