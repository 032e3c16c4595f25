// Thread-safety annotation layer (Clang thread-safety analysis).
//
// The sharded multi-ring federation (ROADMAP) runs one shard — one engine,
// one scheduler, one journal — per worker thread, with the process-wide
// MetricRegistry as the only sanctioned cross-shard state.  That contract
// is machine-checked on two levels:
//
//   1. Clang builds compile with `-Wthread-safety -Werror`, so every mutex
//      acquisition is checked against the WRT_GUARDED_BY / WRT_REQUIRES
//      annotations below (GCC compiles the macros to nothing; CI runs the
//      Clang leg).
//   2. `tools/wrt_lint` enforces the textual half: shared types register
//      with `// wrt-lint-shared-type(Name)` and every field must then be
//      atomic, const, a mutex, or carry a WRT_GUARDED_BY annotation
//      (rule `unguarded-shared-field`); mutable globals are banned
//      (`mutable-global-state`) and engine code may not hold raw handles
//      into another shard (`cross-shard-handle`).
//
// The macro set mirrors clang's attribute names with a WRT_ prefix so the
// annotations read as repo vocabulary and compile away on any toolchain
// without the attributes.  See DESIGN.md "Concurrency model & shard-safety
// contract" for which state is shared and which is shard-local.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define WRT_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef WRT_THREAD_ANNOTATION_
#define WRT_THREAD_ANNOTATION_(x)  // no-op: GCC / MSVC / old Clang
#endif

/// Class is a lockable capability (mutex wrappers).
#define WRT_CAPABILITY(x) WRT_THREAD_ANNOTATION_(capability(x))

/// RAII type that acquires a capability in its constructor and releases it
/// in its destructor (lock_guard wrappers).
#define WRT_SCOPED_CAPABILITY WRT_THREAD_ANNOTATION_(scoped_lockable)

/// Field or variable may only be read/written while holding `x`.
#define WRT_GUARDED_BY(x) WRT_THREAD_ANNOTATION_(guarded_by(x))

/// Pointee (not the pointer itself) is protected by `x`.
#define WRT_PT_GUARDED_BY(x) WRT_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function requires the listed capabilities held exclusively on entry.
#define WRT_REQUIRES(...) \
  WRT_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities and does not release them.
#define WRT_ACQUIRE(...) \
  WRT_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (which must be held on entry).
#define WRT_RELEASE(...) \
  WRT_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function must NOT be called with the listed capabilities held
/// (deadlock-by-reentry guard).
#define WRT_EXCLUDES(...) WRT_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function acquires the capability iff it returns `result`.
#define WRT_TRY_ACQUIRE(result, ...) \
  WRT_THREAD_ANNOTATION_(try_acquire_capability(result, __VA_ARGS__))

/// Escape hatch: the analysis is wrong or intentionally bypassed here; a
/// comment explaining why is mandatory at every use site.
#define WRT_NO_THREAD_SAFETY_ANALYSIS \
  WRT_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// Documentation marker (expands to nothing on every compiler): instances
/// of this class are confined to a single shard/worker thread — no internal
/// locking, callers must not share one across threads.  The federation
/// contract in one word; place it on the class, right before the name:
///
///   class WRT_SHARD_CONFINED Scheduler { ... };
///
/// Cross-thread use of a shard-confined type is a bug even where TSan
/// happens not to observe a race.
#define WRT_SHARD_CONFINED

#include <mutex>

namespace wrt::util {

/// std::mutex with the capability annotations the analysis needs —
/// libstdc++'s mutex carries no attributes, so guarding a field with a bare
/// std::mutex silences nothing and proves nothing.  Every lock guarding
/// shared state in this repo must be a util::Mutex so Clang can see
/// acquire/release pairs.
class WRT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() WRT_ACQUIRE() { mutex_.lock(); }
  void unlock() WRT_RELEASE() { mutex_.unlock(); }
  [[nodiscard]] bool try_lock() WRT_TRY_ACQUIRE(true) {
    return mutex_.try_lock();
  }

 private:
  std::mutex mutex_;
};

/// Scoped lock over util::Mutex (annotated std::lock_guard equivalent).
class WRT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) WRT_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() WRT_RELEASE() { mutex_.unlock(); }

 private:
  Mutex& mutex_;
};

}  // namespace wrt::util
