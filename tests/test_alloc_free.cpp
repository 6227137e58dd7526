// Allocation accounting for the event engine and the packet path: after
// warmup, the schedule/fire, timer-rearm, cancel and forwarding cycles must
// not touch the heap at all. Counts every global operator new (calls and
// bytes) by replacing it, so any hidden allocation on the hot path — a
// std::function fallback, a node-based container, a vector regrowth —
// fails the test instead of shipping as a per-event cost, and a table sized
// by the wrong quantity fails on its byte count. The counters are shared
// with the rest of the test binary through alloc_counter.hpp.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>

#include "alloc_counter.hpp"
#include "net/node.hpp"
#include "net/queue.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n > 0 ? n : 1);
}
}  // namespace

// Replacements for the throwing, nothrow and sized forms. The nothrow forms
// are replaced too: the library's defaults would route through the throwing
// ones, but a sanitizer runtime supplies its own, whose blocks then reach
// the free()-based deletes below as a mismatch (std::stable_sort's
// temporary buffer takes that path). Aligned forms are left alone — the
// engine never over-aligns (EventCallback rejects captures aligned beyond 8).
void* operator new(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

std::uint64_t mltcp::alloc_stats::count() { return g_alloc_count.load(); }
std::uint64_t mltcp::alloc_stats::bytes() { return g_alloc_bytes.load(); }

namespace mltcp {
namespace {

/// Packet-scale capture: the size class of the propagation-delivery closures
/// the simulator schedules three times per packet (Node* + 72-byte Packet).
struct PacketScaleCapture {
  std::int64_t payload[9];
  std::int64_t* sink;
  void operator()() const { *sink += payload[0]; }
};
static_assert(sizeof(PacketScaleCapture) == 80);
static_assert(sizeof(PacketScaleCapture) <= sim::kInlineCallbackCapacity);
static_assert(std::is_trivially_copyable_v<PacketScaleCapture>);

TEST(AllocFree, CounterSeesHeapFallback) {
  // Negative control: an oversized capture must take the heap path, proving
  // the counter actually observes engine allocations.
  sim::EventQueue q;
  struct Oversized {
    char bytes[sim::kInlineCallbackCapacity + 8];
    void operator()() const {}
  };
  const std::uint64_t before = g_alloc_count.load();
  q.schedule(1, Oversized{});
  q.pop_and_run();
  EXPECT_GT(g_alloc_count.load(), before);
}

TEST(AllocFree, OneShotScheduleFireCycleIsAllocationFree) {
  sim::EventQueue q;
  std::int64_t sink = 0;
  const auto cycle = [&q, &sink](int iters) {
    sim::SimTime now = 0;
    for (int i = 0; i < iters; ++i) {
      PacketScaleCapture c{};
      c.payload[0] = i;
      c.sink = &sink;
      q.schedule(now + 1 + (i * 37) % 101, c);
      if (i >= 32) now = q.pop_and_run();  // hold ~32 in flight
    }
    while (!q.empty()) q.pop_and_run();
  };
  cycle(4096);  // warmup: heap, slot chunks and free list reach steady state
  const std::uint64_t before = g_alloc_count.load();
  cycle(4096);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "schedule/fire cycle allocated on the steady-state path";
  EXPECT_GT(sink, 0);
}

TEST(AllocFree, TimerRearmStormIsAllocationFree) {
  sim::EventQueue q;
  std::int64_t fired = 0;
  sim::QueueTimer rto(q, [&fired] { ++fired; });
  sim::SimTime now = 0;
  const auto cycle = [&](int iters) {
    for (int i = 0; i < iters; ++i) {
      rto.arm(now + 1'000'000);
      q.schedule(now + 1, [] {});
      now = q.pop_and_run();
    }
  };
  cycle(20'000);  // warmup covers lazy-compaction growth and shrink cycles
  const std::uint64_t before = g_alloc_count.load();
  cycle(20'000);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "timer rearm allocated";
  EXPECT_EQ(fired, 0);
  rto.cancel();
  while (!q.empty()) q.pop_and_run();
}

TEST(AllocFree, CancelHeavyCycleIsAllocationFree) {
  sim::EventQueue q;
  sim::SimTime now = 0;
  const auto cycle = [&](int iters) {
    for (int i = 0; i < iters; ++i) {
      const sim::EventId id = q.schedule(now + 1'000'000, [] {});
      q.cancel(id);
      q.schedule(now + 1, [] {});
      now = q.pop_and_run();
    }
  };
  cycle(20'000);
  const std::uint64_t before = g_alloc_count.load();
  cycle(20'000);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "cancel/reschedule cycle allocated";
  EXPECT_TRUE(q.empty());
}

/// Allocations counted while two hosts bounce bursts of `burst` packets
/// across a switch, after warmup rounds have brought the rings, the
/// event-engine slots and the route tables to their working sizes.
struct BounceResult {
  int rounds = 0;
  std::uint64_t allocs = 0;
  std::int64_t forwarded = 0;
  std::int64_t routeless = 0;
};

BounceResult bounce(const net::QueueFactory& qf, int burst_size) {
  sim::Simulator sim;
  net::Topology topo(sim);
  net::Host* a = topo.add_host("a");
  net::Host* b = topo.add_host("b");
  net::Switch* s = topo.add_switch("s");
  topo.connect(*a, *s, 1e9, sim::microseconds(5), qf);
  topo.connect(*s, *b, 1e9, sim::microseconds(5), qf);
  topo.build_routes();

  constexpr int kWarmupRounds = 512;
  constexpr int kMeasuredRounds = 512;
  BounceResult r;
  int pending = 0;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  const auto burst = [&](net::Host& from, net::NodeId to) {
    for (int i = 0; i < burst_size; ++i) {
      net::Packet p;
      p.flow = 1;
      p.dst = to;
      p.seq = r.rounds * burst_size + i;
      from.send(p);
    }
  };
  const auto on_burst_done = [&](net::Host& replier, net::NodeId to) {
    if (++pending < burst_size) return;
    pending = 0;
    ++r.rounds;
    if (r.rounds == kWarmupRounds) before = g_alloc_count.load();
    if (r.rounds == kWarmupRounds + kMeasuredRounds) {
      after = g_alloc_count.load();
      return;  // Stop bouncing; the simulator drains and finishes.
    }
    burst(replier, to);
  };
  a->register_flow(1, [&](const net::Packet&) { on_burst_done(*a, b->id()); });
  b->register_flow(1, [&](const net::Packet&) { on_burst_done(*b, a->id()); });

  burst(*a, b->id());
  sim.run();
  EXPECT_EQ(r.rounds, kWarmupRounds + kMeasuredRounds);
  r.allocs = after - before;
  r.forwarded = s->forwarded_packets();
  r.routeless = s->routeless_drops();
  return r;
}

TEST(AllocFree, ForwardingPathSteadyStateIsAllocationFree) {
  // The full packet path — Host::send, queue admission (ring storage under
  // a busy transmitter), transmission timer, propagation closure, switch
  // forwarding, handler demux — must run allocation-free once the rings,
  // the event-engine slots and the route tables have reached their working
  // sizes. Bursts of 4 keep the link busy so packets actually rest in the
  // PacketRing instead of taking the idle-transmitter bypass.
  constexpr int kBurst = 4;
  const BounceResult r = bounce(net::make_droptail_factory(64 * 1500), kBurst);
  EXPECT_EQ(r.allocs, 0u)
      << "forwarding path allocated on the steady-state path";
  EXPECT_EQ(r.forwarded, static_cast<std::int64_t>(r.rounds) * kBurst);
  EXPECT_EQ(r.routeless, 0);
}

TEST(AllocFree, DrrIdleTransmitterIsAllocationFree) {
  // One packet at a time: every send reaches an idle transmitter, so DRR
  // takes its enqueue_dequeue bypass and must not build per-flow state
  // (a map node and a FIFO) for a packet that leaves at once.
  const BounceResult r = bounce(net::make_drr_factory(64 * 1500), 1);
  EXPECT_EQ(r.allocs, 0u) << "DRR idle-transmitter path allocated";
  EXPECT_EQ(r.forwarded, static_cast<std::int64_t>(r.rounds));
  EXPECT_EQ(r.routeless, 0);
}

TEST(AllocFree, HostDemuxIsSizedToRegisteredFlows) {
  // Flow ids are dense across the fabric, so one host's ids are sparse: a
  // host that terminates flows 0 and 1,000,000 must not pay for the ids
  // between them.
  net::Host h(0, "h");
  int hits = 0;
  const std::uint64_t before = g_alloc_bytes.load();
  h.register_flow(0, [&hits](const net::Packet&) { ++hits; });
  h.register_flow(1'000'000, [&hits](const net::Packet&) { ++hits; });
  const std::uint64_t bytes = g_alloc_bytes.load() - before;
  EXPECT_LT(bytes, 64u * 1024u) << "demux allocated " << bytes << " bytes";
  net::Packet p;
  p.flow = 1'000'000;
  h.receive(p);
  p.flow = 0;
  h.receive(p);
  EXPECT_EQ(hits, 2);
}

}  // namespace
}  // namespace mltcp
