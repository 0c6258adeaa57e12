// Block arena for request records.
//
// Every injected request lives until the end of the run (the runtime's
// request log and the post-run analysis both hold it), so per-request heap
// traffic is pure overhead on the ingress hot path. The arena hands out
// bump-pointer storage in 64 KiB blocks instead: NewRequest packs one
// request into a single allocation — the Request, then one HopRecord slot
// per module — so injecting makes one heap call per block, not per request.
// A record is aligned to its own types (8 B for both parts), not
// max_align_t, so nothing is lost to rounding: a request through a 5-module
// pipeline costs 72 + 5 x 40 = 272 B, 240 records per block.
//
// RequestLifecycle owns the run's arena and allocates for both substrates:
// the simulator's event loop and the thread running serve's RunTrace, its
// only injecting thread.
//
// Lifetime: the arena is the one owner of every request it holds. NewRequest
// returns a RequestPtr built with shared_ptr's aliasing constructor: it
// points at the request but shares the arena's control block, so a request
// costs no control block of its own, and the arena outlives the last
// surviving RequestPtr automatically, even when the analysis outlives the
// runtime that injected the requests. The hop slots live in the same arena,
// so they last exactly as long. No destructor runs (memory returns when the
// arena dies), which matches the requests' run-long lifetime. Not
// thread-safe: one injecting thread per arena, and one arena per run.
#ifndef PARD_RUNTIME_REQUEST_ARENA_H_
#define PARD_RUNTIME_REQUEST_ARENA_H_

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "runtime/request.h"

namespace pard {

class RequestArena {
 public:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

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
  std::vector<std::unique_ptr<unsigned char[]>> blocks_;
  unsigned char* current_ = nullptr;
  std::size_t offset_ = kBlockBytes;
};

// A fresh request with `num_hops` default hop slots, allocated from `arena`
// as one record and owned by the arena.
inline RequestPtr NewRequest(const std::shared_ptr<RequestArena>& arena, int num_hops) {
  static_assert(alignof(HopRecord) <= alignof(Request) && sizeof(Request) % alignof(HopRecord) == 0,
                "hop slots follow the request unpadded");
  const auto n = static_cast<std::size_t>(num_hops);
  void* record = arena->Allocate(sizeof(Request) + n * sizeof(HopRecord), alignof(Request));
  auto* req = ::new (record) Request();
  auto* slots = reinterpret_cast<HopRecord*>(static_cast<unsigned char*>(record) + sizeof(Request));
  std::uninitialized_value_construct_n(slots, n);
  req->hops = HopSlots(slots, n);
  return RequestPtr(arena, req);
}

}  // namespace pard

#endif  // PARD_RUNTIME_REQUEST_ARENA_H_
