// Debug-build lock-order enforcement for the serving runtime.
//
// The serve-side locks form a strict hierarchy; a thread may only acquire a
// lock whose rank is STRICTLY GREATER than every lock it already holds:
//
//   kModule (1)  ServeModule::mu_ — the module's ModuleRuntime (its
//                admission RNG included), workers, timer and outbox.
//   kFate (2)    ServeRuntime striped request-fate mutexes.
//
// Two module locks are never held at once: a module hands requests to its
// successors through an outbox drained after its own lock is released.
// (BackendFleet's internal mutex is a leaf: it never acquires another lock,
// so it is deliberately unranked.) Instantiate a LockOrderGuard immediately
// BEFORE acquiring the mutex it describes, so a violation throws while the
// offending thread still holds only the lower-ranked locks — an ordering
// bug surfaces as a CheckError in the debug/asan/tsan presets instead of a
// silent deadlock. Release builds compile the guard away entirely.
#ifndef PARD_COMMON_LOCK_ORDER_H_
#define PARD_COMMON_LOCK_ORDER_H_

#include "common/check.h"

namespace pard {

enum class LockRank : int {
  kModule = 1,
  kFate = 2,
};

#ifndef NDEBUG

namespace lock_order_internal {
// Per-thread stack of held ranks. Depth 8 is far above the deepest legal
// chain (module -> fate is 2).
inline constexpr int kMaxHeld = 8;
struct HeldRanks {
  int ranks[kMaxHeld];
  int depth = 0;
};
inline HeldRanks& Held() {
  thread_local HeldRanks held;
  return held;
}
}  // namespace lock_order_internal

class LockOrderGuard {
 public:
  explicit LockOrderGuard(LockRank rank) {
    auto& held = lock_order_internal::Held();
    PARD_CHECK_MSG(held.depth < lock_order_internal::kMaxHeld,
                   "lock-order stack overflow (rank " << static_cast<int>(rank) << ")");
    if (held.depth > 0) {
      const int top = held.ranks[held.depth - 1];
      PARD_CHECK_MSG(static_cast<int>(rank) > top,
                     "lock-order violation: acquiring rank "
                         << static_cast<int>(rank) << " while holding rank " << top);
    }
    held.ranks[held.depth++] = static_cast<int>(rank);
  }

  ~LockOrderGuard() {
    auto& held = lock_order_internal::Held();
    --held.depth;
  }

  LockOrderGuard(const LockOrderGuard&) = delete;
  LockOrderGuard& operator=(const LockOrderGuard&) = delete;
};

#else  // NDEBUG

class LockOrderGuard {
 public:
  explicit LockOrderGuard(LockRank rank) { (void)rank; }
};

#endif  // NDEBUG

}  // namespace pard

#endif  // PARD_COMMON_LOCK_ORDER_H_
