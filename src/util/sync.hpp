// Annotated synchronization primitives (docs/CONCURRENCY.md).
//
// util::Mutex / util::MutexLock / util::CondVar are the only lock types the
// concurrent layers (src/pipeline, src/net) use.
// They are zero-overhead inline shims over the std primitives whose single
// purpose is to carry the Clang Thread Safety Analysis attributes
// (util/thread_annotations.hpp): a std::mutex is opaque to the analysis,
// while a util::Mutex is a capability it can track through every lock,
// unlock, wait, and guarded member access.
//
// Differences from the std types, chosen for analyzability:
//   * MutexLock is a scoped capability (lock_guard ergonomics) that also
//     supports early unlock()/relock() — the queue's unlock-before-notify
//     pattern — which std::lock_guard cannot express and std::unique_lock
//     expresses in a way the analysis cannot see.
//   * CondVar::wait takes the Mutex itself (Abseil style), not a lock
//     object, so the wait can carry CSCV_REQUIRES(mu): held on entry, held
//     again on return. Waits are written as explicit while-loops at the
//     call site; the predicate-lambda overloads of std::condition_variable
//     are deliberately absent (a lambda body is a separate function to the
//     analysis, so guarded reads inside one cannot be checked).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace cscv::util {

/// Annotated std::mutex. BasicLockable, so it also works directly with
/// std::scoped_lock and condition_variable_any.
class CSCV_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CSCV_ACQUIRE() { mu_.lock(); }
  void unlock() CSCV_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() CSCV_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
  friend class CondVar;
};

/// RAII lock over a util::Mutex. Scoped-capability ergonomics of
/// std::lock_guard plus explicit unlock()/relock() for the
/// unlock-before-notify pattern; the destructor releases only if held.
class CSCV_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CSCV_ACQUIRE(mu) : mu_(mu), held_(true) { mu_.lock(); }
  ~MutexLock() CSCV_RELEASE() {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases before scope end (then e.g. notify without the lock held).
  void unlock() CSCV_RELEASE() {
    mu_.unlock();
    held_ = false;
  }
  /// Re-acquires after an early unlock().
  void lock() CSCV_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

/// Condition variable over util::Mutex. Waits name the mutex explicitly so
/// the analysis can require it held; notify never needs (and never takes)
/// the lock. No predicate overloads on purpose — write the while-loop at
/// the call site where the analysis can see the guarded reads:
///
///   MutexLock lock(mu_);
///   while (!ready_condition_on_guarded_state) cv_.wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks; `mu` is held again on return.
  /// Spurious wakeups happen — always wait in a condition loop.
  void wait(Mutex& mu) CSCV_REQUIRES(mu) { cv_.wait(mu.mu_); }

  /// wait() with a deadline; std::cv_status::timeout once `deadline` has
  /// passed. Loop on the condition with a deadline fixed up front so
  /// spurious wakeups neither return early nor extend the total wait.
  template <typename Clock, typename Duration>
  std::cv_status wait_until(Mutex& mu,
                            const std::chrono::time_point<Clock, Duration>& deadline)
      CSCV_REQUIRES(mu) {
    return cv_.wait_until(mu.mu_, deadline);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace cscv::util
