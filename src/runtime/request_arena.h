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
// pipeline costs a 48 B header plus 5 x 40 B of slots = 248 B, 264 records
// per block. The request's `hops` view finds the slots by position, right
// after the header, so NewRequest is the only way to make a request with
// hops. A pipeline has at most 255 modules, so the largest record,
// 48 + 255 x 40 = 10,248 B, fits a block with room to spare.
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
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/check.h"
#include "runtime/request.h"

namespace pard {

class RequestArena {
 public:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  // `align` must be a power of two no larger than alignof(max_align_t), and
  // `bytes` at most kBlockBytes.
  void* Allocate(std::size_t bytes, std::size_t align) {
    PARD_CHECK(bytes <= kBlockBytes);
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

// A fresh request with `num_hops` (at most UINT8_MAX) default hop slots,
// allocated from `arena` as one record and owned by the arena.
inline RequestPtr NewRequest(const std::shared_ptr<RequestArena>& arena, int num_hops) {
  static_assert(alignof(HopRecord) <= alignof(Request) && sizeof(Request) % alignof(HopRecord) == 0,
                "hop slots follow the request unpadded");
  PARD_CHECK(num_hops >= 0 && num_hops <= UINT8_MAX);
  const auto n = static_cast<std::size_t>(num_hops);
  void* record = arena->Allocate(sizeof(Request) + n * sizeof(HopRecord), alignof(Request));
  auto* req = ::new (record) Request();
  req->hops.size_ = static_cast<std::uint8_t>(n);
  std::uninitialized_value_construct_n(req->hops.begin(), n);
  return RequestPtr(arena, req);
}

}  // namespace pard

#endif  // PARD_RUNTIME_REQUEST_ARENA_H_
