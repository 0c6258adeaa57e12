// Debug-build lock-order enforcement for the serving runtime.
//
// One rule is left: a thread never holds two module mutexes
// (ServeModule::mu_) at once. A module hands requests to its successors
// through an outbox drained after its own lock is released, and a request's
// fate is a compare-and-swap that takes no lock (runtime/request.h). The
// broker backlog's mutex and BackendFleet's are leaves: they never acquire
// another lock, so they are deliberately unguarded.
//
// Instantiate a ModuleLockGuard immediately BEFORE acquiring a module mutex,
// so a violation throws while the offending thread still holds only its
// first module lock — an ordering bug surfaces as a CheckError in the
// debug/asan/tsan presets instead of a silent deadlock. Release builds
// compile the guard away entirely.
#ifndef PARD_COMMON_LOCK_ORDER_H_
#define PARD_COMMON_LOCK_ORDER_H_

#include "common/check.h"

namespace pard {

#ifndef NDEBUG

class ModuleLockGuard {
 public:
  ModuleLockGuard() {
    PARD_CHECK_MSG(!Held(), "lock-order violation: acquiring a module mutex while holding one");
    Held() = true;
  }

  ~ModuleLockGuard() { Held() = false; }

  ModuleLockGuard(const ModuleLockGuard&) = delete;
  ModuleLockGuard& operator=(const ModuleLockGuard&) = delete;

 private:
  // Whether this thread holds a module mutex.
  static bool& Held() {
    thread_local bool held = false;
    return held;
  }
};

#else  // NDEBUG

class ModuleLockGuard {
 public:
  // User-provided, so an unused guard raises no warning.
  ModuleLockGuard() {}
};

#endif  // NDEBUG

}  // namespace pard

#endif  // PARD_COMMON_LOCK_ORDER_H_
