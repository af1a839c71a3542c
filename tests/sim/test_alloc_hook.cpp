// Zero-allocation proof for the event core's steady state. This file
// installs a counting global operator new/delete (binary-wide, so the
// counters simply tick in the background for the other suites in this
// binary) and pins the hot paths to zero allocations per event once the
// pools have warmed up:
//   - schedule/cancel/fire timer churn (slab + freelist + 64B SBO actions)
//   - SimNetwork DataMsg dispatch and broadcast (pooled envelopes)
// Under ASan/TSan the allocator is the sanitizer's, so the raw counter
// assertions are skipped there and the pool-stats invariants (no slab
// growth, no SBO overflow) carry the test instead.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "testing_topologies.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SMRP_ALLOC_HOOK_ACTIVE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SMRP_ALLOC_HOOK_ACTIVE 0
#else
#define SMRP_ALLOC_HOOK_ACTIVE 1
#endif
#else
#define SMRP_ALLOC_HOOK_ACTIVE 1
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

#if SMRP_ALLOC_HOOK_ACTIVE

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // SMRP_ALLOC_HOOK_ACTIVE

namespace smrp::sim {
namespace {

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocHook, SteadyStateTimerChurnAllocatesNothing) {
  Simulator s;
  // Warm-up: reach the peak concurrent-event footprint so the slab,
  // freelist, and the ready/far heap storage are all at capacity.
  auto churn = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const EventId keep = s.schedule(0.25 + (i % 7) * 0.5, [] {});
      const EventId drop = s.schedule(2000.0 + i, [] {});  // far heap
      s.schedule(0.1, [&s] { s.schedule(0.2, [] {}); });   // reentrant
      s.cancel(drop);
      s.run_until(s.now() + 1.0);
      (void)keep;
    }
  };
  churn(2000);
  const auto warm = s.pool_stats();

  const std::uint64_t before = allocation_count();
  churn(2000);
  const std::uint64_t after = allocation_count();
  const auto steady = s.pool_stats();

  EXPECT_EQ(steady.slots, warm.slots) << "slab grew after warm-up";
  EXPECT_EQ(steady.heap_actions, 0u) << "an action overflowed the 64B SBO";
#if SMRP_ALLOC_HOOK_ACTIVE
  EXPECT_EQ(after - before, 0u)
      << "steady-state schedule/cancel/fire path allocated";
#else
  (void)before;
  (void)after;
#endif
}

TEST(AllocHook, MessageDispatchAndBroadcastAllocateNothing) {
  net::Graph graph = testing::grid3x3();
  Simulator simulator;
  SimNetwork network(simulator, graph);
  std::uint64_t received = 0;
  for (NodeId n = 0; n < graph.node_count(); ++n) {
    network.set_handler(
        n, [&received](NodeId, const Message&) { ++received; });
  }
  auto flood = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      network.send(0, 1, DataMsg{static_cast<std::uint64_t>(i)});
      network.send(4, 5, DataMsg{static_cast<std::uint64_t>(i)});
      network.broadcast(4, DataMsg{static_cast<std::uint64_t>(i)});
      simulator.run_all();
    }
  };
  flood(500);
  const auto warm_env = network.pool_stats();
  const auto warm_sim = simulator.pool_stats();

  const std::uint64_t before = allocation_count();
  flood(500);
  const std::uint64_t after = allocation_count();

  EXPECT_GT(received, 0u);
  EXPECT_EQ(network.pool_stats().envelopes, warm_env.envelopes)
      << "envelope slab grew after warm-up";
  EXPECT_EQ(simulator.pool_stats().slots, warm_sim.slots);
  EXPECT_EQ(simulator.pool_stats().heap_actions, 0u)
      << "a dispatch closure overflowed the 64B SBO";
#if SMRP_ALLOC_HOOK_ACTIVE
  EXPECT_EQ(after - before, 0u) << "per-hop dispatch allocated";
#else
  (void)before;
  (void)after;
#endif
}

}  // namespace
}  // namespace smrp::sim
