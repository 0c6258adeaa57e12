// Pins the simulator's zero-allocation guarantees: once the slab, free list
// and bucket structures reach their high-water mark, scheduling, cancelling
// and firing events must not touch the heap, and a stream of instants
// (ScheduleStream) never takes a slot at all. Injecting a request takes its
// record from the run's arena, so it makes no heap call of its own either,
// and the end-of-run record check makes none on a clean log.
//
// The whole test binary counts global operator new calls; the steady-state
// section asserts the counter does not move. Keep this suite out of
// sanitizer presets — ASan/TSan own the allocator there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "baselines/naive_policy.h"
#include "pipeline/apps.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/request_lifecycle.h"
#include "sim/simulation.h"
#include "trace/arrival_generator.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
// The request arena takes its blocks with new[] (std::make_unique<unsigned
// char[]>) and the request log grows with scalar new, so new[] calls of the
// block size count the arena's blocks alone.
std::atomic<std::uint64_t> g_arena_blocks{0};
}  // namespace

// The replaced operators pair std::malloc with std::free consistently; GCC's
// -Wmismatched-new-delete heuristic cannot see through the replacement.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) {
  if (size == pard::RequestArena::kBlockBytes) {
    ++g_arena_blocks;
  }
  return ::operator new(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pard {
namespace {

// One steady-state round: schedule two events (32-byte capture, like the
// runtime's delivery lambdas), cancel one, fire one. Pending depth stays at
// `depth`, so a warmed kernel must serve the whole round from the slab.
void Churn(Simulation& sim, std::vector<EventId>& ring, std::size_t& head, SimTime& horizon,
           std::uint64_t& sink, int rounds) {
  struct Payload {
    std::uint64_t* sink;
    std::uint64_t a, b, c;
  };
  const Payload payload{&sink, 1, 2, 3};
  for (int i = 0; i < rounds; ++i) {
    horizon += 7;
    sim.ScheduleAt(horizon, [payload] { *payload.sink += payload.a; });
    const EventId doomed = sim.ScheduleAt(horizon, [payload] { *payload.sink += payload.b; });
    sim.Cancel(ring[head]);
    ring[head] = doomed;
    head = (head + 1) % ring.size();
    sim.Step();
  }
}

TEST(SimulationAllocation, SteadyStateEventLoopIsAllocationFree) {
  Simulation sim;
  constexpr int kDepth = 512;
  std::uint64_t sink = 0;
  SimTime horizon = 0;
  std::vector<EventId> ring(kDepth, 0);
  std::size_t head = 0;
  for (int i = 0; i < kDepth; ++i) {
    horizon += 7;
    sim.ScheduleAt(horizon, [&sink] { ++sink; });
    ring[static_cast<std::size_t>(i)] = sim.ScheduleAt(horizon, [&sink] { ++sink; });
  }
  // Warm-up: let the slab, free list and internal vectors reach their
  // high-water mark for this working set.
  Churn(sim, ring, head, horizon, sink, 4 * kDepth);

  const std::uint64_t before = g_allocations.load();
  Churn(sim, ring, head, horizon, sink, 8 * kDepth);
  const std::uint64_t after = g_allocations.load();

  EXPECT_EQ(after - before, 0u)
      << "steady-state schedule/cancel/fire performed heap allocations";
  EXPECT_GT(sink, 0u);
}

// Brings a kernel's slab and free list to a small working set and runs a
// short stream through it.
void Warm(Simulation& sim, std::uint64_t& sink) {
  for (SimTime t = 1; t <= 16; ++t) {
    sim.ScheduleAt(t, [&sink] { ++sink; });
  }
  const std::vector<SimTime> warm = {16, 17};
  sim.ScheduleStream(warm, [&sink] { ++sink; });
  sim.Run();
}

TEST(SimulationAllocation, StreamedInstantsTakeNoSlots) {
  // 100k instants in pairs that share a tick, spread over ~50 s so that as
  // events they would reach every wheel level a long trace touches.
  std::vector<SimTime> times(100000);
  for (std::size_t i = 0; i < times.size(); ++i) {
    times[i] = 100 + static_cast<SimTime>(i / 2) * 997;
  }
  std::uint64_t sink = 0;

  Simulation streamed;
  Warm(streamed, sink);
  std::uint64_t before = g_allocations.load();
  streamed.ScheduleStream(times, [&sink] { ++sink; });
  EXPECT_EQ(streamed.PendingEvents(), times.size());
  streamed.Run();
  EXPECT_EQ(g_allocations.load() - before, 0u) << "streaming instants allocated";
  EXPECT_EQ(streamed.ExecutedEvents(), 18 + times.size());

  // The same instants as events each hold a slot until they fire.
  Simulation scheduled;
  Warm(scheduled, sink);
  before = g_allocations.load();
  for (SimTime t : times) {
    scheduled.ScheduleAt(t, [&sink] { ++sink; });
  }
  EXPECT_GT(g_allocations.load() - before, 0u) << "scheduling 100k events did not grow the slab";
  scheduled.Run();
  EXPECT_EQ(sink, 2 * (18 + times.size()));
}

TEST(SimulationAllocation, InlineCallbackHoldsRuntimeSizedCaptures) {
  // The runtime's largest capture (shared_ptr + scalars + this) must fit the
  // inline buffer, or every Deliver() would allocate.
  struct DeliverSized {
    void* runtime;
    std::shared_ptr<int> req;
    int module_id;
    void operator()() {}
  };
  static_assert(sizeof(DeliverSized) <= InlineCallback::kInlineSize,
                "runtime delivery capture must stay inline");

  Simulation sim;
  auto payload = std::make_shared<int>(7);
  // Warm the slab so the measured schedule reuses a freed slot.
  for (int i = 0; i < 4; ++i) {
    sim.ScheduleAt(i + 1, DeliverSized{nullptr, payload, i});
  }
  sim.Run();
  const std::uint64_t before = g_allocations.load();
  sim.ScheduleAt(10, DeliverSized{nullptr, payload, 4});
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "inline-sized callback construction allocated";
  sim.Run();
}

// Heap calls made by injecting `count` requests into a warmed lifecycle:
// only the arena's 64 KiB blocks and the request log's growth remain, a few
// hundred calls for 100k requests.
struct InjectionCost {
  std::uint64_t calls = 0;
  std::uint64_t arena_blocks = 0;
};

InjectionCost InjectionAllocations(const PipelineSpec& spec, bool dynamic_paths, int count) {
  RuntimeOptions options;
  options.dynamic_paths = dynamic_paths;
  RequestLifecycle lifecycle(spec, options);
  SimTime now = 0;
  for (int i = 0; i < 1000; ++i) {
    lifecycle.Inject(lifecycle.NewRequest(), ++now);
  }
  const std::uint64_t calls_before = g_allocations.load();
  const std::uint64_t blocks_before = g_arena_blocks.load();
  for (int i = 0; i < count; ++i) {
    lifecycle.Inject(lifecycle.NewRequest(), ++now);
  }
  InjectionCost cost;
  cost.calls = g_allocations.load() - calls_before;
  cost.arena_blocks = g_arena_blocks.load() - blocks_before;
  EXPECT_EQ(lifecycle.requests().back()->dynamic_path, dynamic_paths);
  return cost;
}

TEST(RequestAllocation, InjectionMakesNoHeapCallPerRequest) {
  constexpr int kRequests = 100000;
  // lv, then the da fork/merge DAG drawing a path per request: branch
  // choices and expected arrivals land in the hop slots, not in per-request
  // vectors.
  for (const bool dag : {false, true}) {
    const PipelineSpec spec = dag ? MakeDagLiveVideo() : MakeLiveVideo();
    ASSERT_EQ(spec.NumModules(), 5);
    const InjectionCost cost = InjectionAllocations(spec, dag, kRequests);
    EXPECT_LT(cost.calls, kRequests / 100u) << spec.app_name();
    // A 5-module record is 72 + 5 x 40 = 272 B, 240 to a block, so 100k
    // requests fill at most ceil(100000 / 240) = 417 blocks and need at
    // least 100000 x 272 B / 64 KiB = 415.
    EXPECT_LE(cost.arena_blocks, 417u) << spec.app_name();
    EXPECT_GE(cost.arena_blocks, 415u) << spec.app_name();
  }
}

TEST(RequestAllocation, CheckingAFinishedRunMakesNoHeapCall) {
  NaivePolicy policy;
  RuntimeOptions options;
  options.fixed_workers = {1, 1, 1, 1, 1};
  options.dynamic_paths = true;
  PipelineRuntime rt(MakeDagLiveVideo(), options, &policy, 100.0);
  rt.RunTrace(GenerateUniformArrivals(100.0, 0, SecToUs(5)));
  ASSERT_GT(rt.requests().size(), 400u);
  const std::uint64_t before = g_allocations.load();
  CheckRunInvariants(rt.requests(), rt.spec(), 0);
  EXPECT_EQ(g_allocations.load() - before, 0u) << "the record check allocated on a clean log";
}

}  // namespace
}  // namespace pard
