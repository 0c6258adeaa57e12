// Block arena for request records.
//
// Every injected request lives until the end of the run (the runtime's
// request log and the post-run analysis both hold it), so per-request heap
// traffic is pure overhead on the ingress hot path. The arena hands out
// bump-pointer storage in 64 KiB blocks instead: NewRequest packs one
// request into a single record — its shared_ptr control block and Request
// (through ArenaAllocator and std::allocate_shared), then one HopRecord slot
// per module — so injecting makes one heap call per block, not per request.
// Each allocation is aligned to its own type (8 B for both parts), not
// max_align_t, so nothing is lost to rounding: a request through a 5-module
// pipeline costs 32 + 88 + 5 x 48 = 360 B with libstdc++ on LP64.
//
// RequestLifecycle owns the run's arena and allocates for both substrates:
// the simulator's event loop and serve's load-generator thread, its only
// injecting thread.
//
// Lifetime: each allocator copy keeps a shared_ptr to the arena, and
// allocate_shared stores an allocator copy inside the control block — the
// arena therefore outlives the last surviving RequestPtr automatically, even
// when the analysis outlives the runtime that injected the requests. The hop
// slots live in the same arena, so they last exactly as long. Deallocation is
// a no-op and no destructor runs (memory returns when the arena dies), which
// matches the requests' run-long lifetime. Not thread-safe: one injecting
// thread per arena; sharded runs use one arena per shard.
#ifndef PARD_RUNTIME_REQUEST_ARENA_H_
#define PARD_RUNTIME_REQUEST_ARENA_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "runtime/request.h"

namespace pard {

class RequestArena {
 public:
  // `align` must be a power of two no larger than alignof(max_align_t).
  void* Allocate(std::size_t bytes, std::size_t align) {
    if (bytes > kBlockBytes) {
      // Oversized one-off: give it a dedicated block, keep the current one.
      blocks_.push_back(std::make_unique<unsigned char[]>(bytes));
      return blocks_.back().get();
    }
    std::size_t offset = (offset_ + align - 1) & ~(align - 1);
    if (offset + bytes > kBlockBytes) {
      blocks_.push_back(std::make_unique<unsigned char[]>(kBlockBytes));
      current_ = blocks_.back().get();
      offset = 0;
    }
    offset_ = offset + bytes;
    return current_ + offset;
  }

 private:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  std::vector<std::unique_ptr<unsigned char[]>> blocks_;
  unsigned char* current_ = nullptr;
  std::size_t offset_ = kBlockBytes;
};

template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(std::shared_ptr<RequestArena> arena) : arena_(std::move(arena)) {}

  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->Allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) {}  // Freed wholesale with the arena.

  const std::shared_ptr<RequestArena>& arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>& other) const {
    return !(*this == other);
  }

 private:
  std::shared_ptr<RequestArena> arena_;
};

// A fresh request with `num_hops` default hop slots, allocated from `arena`
// as one record.
inline RequestPtr NewRequest(const std::shared_ptr<RequestArena>& arena, int num_hops) {
  RequestPtr req = std::allocate_shared<Request>(ArenaAllocator<Request>(arena));
  const auto n = static_cast<std::size_t>(num_hops);
  auto* slots = static_cast<HopRecord*>(arena->Allocate(n * sizeof(HopRecord), alignof(HopRecord)));
  std::uninitialized_value_construct_n(slots, n);
  req->hops = HopSlots(slots, n);
  return req;
}

}  // namespace pard

#endif  // PARD_RUNTIME_REQUEST_ARENA_H_
