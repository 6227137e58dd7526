#include <gtest/gtest.h>

#include "net/queue.hpp"

namespace mltcp::net {
namespace {

Packet flow_packet(FlowId flow, std::int32_t size = 1500, bool ecn = false) {
  Packet p;
  p.type = PacketType::kData;
  p.flow = flow;
  p.size_bytes = size;
  p.ecn_capable = ecn;
  return p;
}

// -------------------------------------------------------------------- DRR

TEST(DrrQueue, SingleFlowBehavesFifo) {
  DrrQueue q(100 * 1500);
  for (int i = 0; i < 3; ++i) {
    Packet p = flow_packet(1);
    p.seq = i;
    ASSERT_TRUE(q.enqueue(p, 0));
  }
  for (int i = 0; i < 3; ++i) EXPECT_EQ(q.dequeue(0)->seq, i);
  EXPECT_TRUE(q.empty());
}

TEST(DrrQueue, InterleavesBackloggedFlows) {
  DrrQueue q(100 * 1500, 1500);
  for (int i = 0; i < 4; ++i) q.enqueue(flow_packet(1), 0);
  for (int i = 0; i < 4; ++i) q.enqueue(flow_packet(2), 0);
  int flow1_in_first_half = 0;
  for (int i = 0; i < 4; ++i) {
    if (q.dequeue(0)->flow == 1) ++flow1_in_first_half;
  }
  // Round-robin service: the first half of departures is split evenly.
  EXPECT_EQ(flow1_in_first_half, 2);
}

TEST(DrrQueue, ByteFairWithUnequalPacketSizes) {
  // Flow 1 sends 300 B packets, flow 2 sends 1500 B packets. DRR must give
  // both roughly the same bytes, i.e. serve ~5 small per 1 big.
  DrrQueue q(1000 * 1500, 1500);
  for (int i = 0; i < 100; ++i) q.enqueue(flow_packet(1, 300), 0);
  for (int i = 0; i < 20; ++i) q.enqueue(flow_packet(2, 1500), 0);
  std::int64_t bytes1 = 0;
  std::int64_t bytes2 = 0;
  for (int i = 0; i < 60; ++i) {
    const auto p = q.dequeue(0);
    ASSERT_TRUE(p.has_value());
    (p->flow == 1 ? bytes1 : bytes2) += p->size_bytes;
  }
  EXPECT_NEAR(static_cast<double>(bytes1) / static_cast<double>(bytes2), 1.0,
              0.25);
}

TEST(DrrQueue, DropsWhenFull) {
  DrrQueue q(2 * 1500);
  EXPECT_TRUE(q.enqueue(flow_packet(1), 0));
  EXPECT_TRUE(q.enqueue(flow_packet(2), 0));
  EXPECT_FALSE(q.enqueue(flow_packet(3), 0));
  EXPECT_EQ(q.stats().dropped_packets, 1);
}

TEST(DrrQueue, TracksActiveFlows) {
  DrrQueue q(100 * 1500);
  q.enqueue(flow_packet(1), 0);
  q.enqueue(flow_packet(2), 0);
  EXPECT_EQ(q.active_flows(), 2u);
  q.dequeue(0);
  q.dequeue(0);
  EXPECT_EQ(q.active_flows(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(DrrQueue, IdleBypassMatchesEnqueueThenDequeue) {
  // On an empty queue enqueue_dequeue skips building per-flow state; it
  // must be indistinguishable from enqueue() + dequeue(), and leave the
  // queue serving a later backlog exactly as the two-call path does.
  constexpr std::int64_t kQuantum = 1500;
  constexpr std::int64_t kCapacity = 4 * 1500;
  for (const std::int32_t size : {700, 1500, 2200, 4 * 1500 + 1}) {
    SCOPED_TRACE(size);
    DrrQueue bypass(kCapacity, kQuantum);
    DrrQueue two_call(kCapacity, kQuantum);
    Packet p = flow_packet(9, size);
    p.seq = 42;
    const std::optional<Packet> a = bypass.enqueue_dequeue(p, 0);
    std::optional<Packet> b;
    if (two_call.enqueue(p, 0)) b = two_call.dequeue(0);
    ASSERT_EQ(a.has_value(), b.has_value());
    EXPECT_EQ(a.has_value(), size <= kCapacity);
    if (a) {
      EXPECT_EQ(a->flow, b->flow);
      EXPECT_EQ(a->seq, b->seq);
      EXPECT_EQ(a->size_bytes, b->size_bytes);
    }
    EXPECT_EQ(bypass.stats().enqueued_packets,
              two_call.stats().enqueued_packets);
    EXPECT_EQ(bypass.stats().dropped_packets,
              two_call.stats().dropped_packets);
    EXPECT_EQ(bypass.stats().max_backlog_bytes,
              two_call.stats().max_backlog_bytes);
    EXPECT_EQ(bypass.active_flows(), two_call.active_flows());
    EXPECT_EQ(bypass.active_flows(), 0u);
    EXPECT_TRUE(bypass.empty());

    // A backlog built afterwards (flow 9 again among others) dequeues in
    // the same order; an arrival on the backlogged queue goes through the
    // bypass entry point on one queue and the two calls on the other.
    const std::int32_t sizes[] = {300, 1500, 2200};
    for (int i = 0; i < 9; ++i) {
      Packet q = flow_packet(7 + i % 3, sizes[i % 3]);
      q.seq = i;
      EXPECT_EQ(bypass.enqueue(q, 0), two_call.enqueue(q, 0));
    }
    Packet late = flow_packet(9, 300);
    late.seq = 100;
    const std::optional<Packet> c = bypass.enqueue_dequeue(late, 0);
    std::optional<Packet> d;
    if (two_call.enqueue(late, 0)) d = two_call.dequeue(0);
    ASSERT_EQ(c.has_value(), d.has_value());
    if (c) {
      EXPECT_EQ(c->seq, d->seq);
    }
    EXPECT_EQ(bypass.active_flows(), two_call.active_flows());
    while (!two_call.empty()) {
      const std::optional<Packet> x = bypass.dequeue(0);
      const std::optional<Packet> y = two_call.dequeue(0);
      ASSERT_TRUE(x.has_value() && y.has_value());
      EXPECT_EQ(x->flow, y->flow);
      EXPECT_EQ(x->seq, y->seq);
    }
    EXPECT_TRUE(bypass.empty());
    EXPECT_EQ(bypass.stats().enqueued_packets,
              two_call.stats().enqueued_packets);
    EXPECT_EQ(bypass.stats().dropped_packets,
              two_call.stats().dropped_packets);
    EXPECT_EQ(bypass.stats().max_backlog_bytes,
              two_call.stats().max_backlog_bytes);
  }
}

// -------------------------------------------------------------------- RED

RedQueue::Config red_config() {
  RedQueue::Config cfg;
  cfg.capacity_bytes = 100 * 1500;
  cfg.min_threshold_bytes = 10 * 1500;
  cfg.max_threshold_bytes = 40 * 1500;
  cfg.max_probability = 0.5;
  cfg.ewma_weight = 1.0;  // track the instantaneous queue in tests
  return cfg;
}

TEST(RedQueue, NoEarlyDropBelowMinThreshold) {
  RedQueue q(red_config());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(q.enqueue(flow_packet(1), 0)) << i;
  }
  EXPECT_EQ(q.stats().dropped_packets, 0);
}

TEST(RedQueue, DropsRampBetweenThresholds) {
  RedQueue q(red_config());
  int dropped = 0;
  for (int i = 0; i < 40; ++i) {
    if (!q.enqueue(flow_packet(1), 0)) ++dropped;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_LT(dropped, 35);
}

TEST(RedQueue, MarksInsteadOfDroppingWhenConfigured) {
  RedQueue::Config cfg = red_config();
  cfg.mark_instead_of_drop = true;
  RedQueue q(cfg);
  for (int i = 0; i < 40; ++i) q.enqueue(flow_packet(1, 1500, true), 0);
  EXPECT_GT(q.stats().marked_packets, 0);
  EXPECT_EQ(q.stats().dropped_packets, 0);
  // The marks must be visible on dequeued packets.
  int marked = 0;
  while (auto p = q.dequeue(0)) {
    if (p->ce) ++marked;
  }
  EXPECT_EQ(marked, q.stats().marked_packets);
}

TEST(RedQueue, NonEcnPacketsAreDroppedNotMarked) {
  RedQueue::Config cfg = red_config();
  cfg.mark_instead_of_drop = true;
  RedQueue q(cfg);
  int dropped = 0;
  for (int i = 0; i < 40; ++i) {
    if (!q.enqueue(flow_packet(1, 1500, false), 0)) ++dropped;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(q.stats().marked_packets, 0);
}

TEST(RedQueue, HardCapacityStillEnforced) {
  RedQueue::Config cfg = red_config();
  cfg.min_threshold_bytes = 90 * 1500;
  cfg.max_threshold_bytes = 99 * 1500;
  RedQueue q(cfg);
  int admitted = 0;
  for (int i = 0; i < 200; ++i) {
    if (q.enqueue(flow_packet(1), 0)) ++admitted;
  }
  EXPECT_LE(admitted, 100);
}

TEST(RedQueue, FactoryProducesIndependentQueues) {
  auto factory = make_red_factory(red_config());
  auto q1 = factory();
  auto q2 = factory();
  q1->enqueue(flow_packet(1), 0);
  EXPECT_EQ(q2->backlog_bytes(), 0);
}

}  // namespace
}  // namespace mltcp::net
