// Flow-level backend tests: the max-min allocation must reproduce the
// analytic fair shares (weighted by MLTCP's aggressiveness function), route
// resolution must agree with the packet backend's ECMP hash, faults must
// stall/derate/reroute fluid flows the way they kill packets, channels must
// keep connection FIFO semantics, campaign output must stay byte-identical
// across thread counts, and a small-topology run must land within a stated
// tolerance of the packet backend.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "core/aggressiveness.hpp"
#include "core/mltcp.hpp"
#include "flowsim/flow_simulator.hpp"
#include "net/topology.hpp"
#include "pdes/partition.hpp"
#include "pdes/sharded_runner.hpp"
#include "runner/campaign.hpp"
#include "runner/sinks.hpp"
#include "scenario/engine.hpp"
#include "scenario/scenario.hpp"
#include "sim/indexed_heap.hpp"
#include "sim/simulator.hpp"
#include "tcp/reno.hpp"
#include "traffic/jobs.hpp"
#include "traffic/pattern.hpp"
#include "traffic/source.hpp"
#include "workload/cluster.hpp"

namespace mltcp {
namespace {

tcp::CcFactory reno() {
  return [] { return std::make_unique<tcp::RenoCC>(); };
}

/// Dumbbell world with the flow-level backend installed.
struct FluidRig {
  sim::Simulator sim;
  net::Dumbbell d;
  std::unique_ptr<flowsim::FlowSimulator> fs;
  workload::Cluster cluster{sim};

  explicit FluidRig(int hosts_per_side = 2,
                    flowsim::FlowSimConfig cfg = {}) {
    net::DumbbellConfig dc;
    dc.hosts_per_side = hosts_per_side;
    d = net::make_dumbbell(sim, dc);
    fs = std::make_unique<flowsim::FlowSimulator>(sim, *d.topology, cfg);
    cluster.set_backend(fs.get());
  }
};

// ------------------------------------------------------------ max-min core

TEST(FlowsimMaxMin, EqualShareOnSharedBottleneck) {
  FluidRig rig;
  workload::Channel* a =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  workload::Channel* b =
      rig.cluster.add_channel({rig.d.left[1], rig.d.right[1], 0}, reno());

  const std::int64_t bytes = 10'000'000;
  sim::SimTime done_a = -1;
  sim::SimTime done_b = -1;
  a->send_message(bytes, [&](sim::SimTime t) { done_a = t; });
  b->send_message(bytes, [&](sim::SimTime t) { done_b = t; });
  rig.sim.run_until(sim::seconds(5));

  ASSERT_GT(done_a, 0);
  ASSERT_GT(done_b, 0);
  // Two equal flows split the 1 Gb/s bottleneck: 10 MB at 0.5 Gb/s = 160 ms
  // (plus microseconds of propagation).
  const double expect = 8.0 * static_cast<double>(bytes) / 0.5e9;
  EXPECT_NEAR(sim::to_seconds(done_a), expect, 0.01 * expect);
  EXPECT_NEAR(sim::to_seconds(done_b), expect, 0.01 * expect);
}

TEST(FlowsimMaxMin, NonBottleneckedFlowsRunAtAccessRate) {
  // Opposite directions: each flow has its own bottleneck direction, so
  // both run at the full 1 Gb/s.
  FluidRig rig;
  workload::Channel* fwd =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  workload::Channel* rev =
      rig.cluster.add_channel({rig.d.right[1], rig.d.left[1], 0}, reno());
  sim::SimTime done_f = -1;
  sim::SimTime done_r = -1;
  fwd->send_message(10'000'000, [&](sim::SimTime t) { done_f = t; });
  rev->send_message(10'000'000, [&](sim::SimTime t) { done_r = t; });
  rig.sim.run_until(sim::seconds(5));
  const double expect = 8.0 * 10'000'000 / 1e9;
  ASSERT_GT(done_f, 0);
  ASSERT_GT(done_r, 0);
  EXPECT_NEAR(sim::to_seconds(done_f), expect, 0.01 * expect);
  EXPECT_NEAR(sim::to_seconds(done_r), expect, 0.01 * expect);
}

TEST(FlowsimMaxMin, WeightedShareFollowsAggressivenessFunction) {
  // A constant-F MLTCP channel against a plain one: the fluid allocation
  // must split the bottleneck F : 1.
  FluidRig rig;
  auto f3 = std::make_shared<core::CustomAggressiveness>(
      [](double) { return 3.0; }, "const3");
  workload::Channel* heavy = rig.cluster.add_channel(
      {rig.d.left[0], rig.d.right[0], 0},
      core::mltcp_reno_factory(core::MltcpConfig{}, f3));
  workload::Channel* light =
      rig.cluster.add_channel({rig.d.left[1], rig.d.right[1], 0}, reno());

  heavy->send_message(50'000'000, [](sim::SimTime) {});
  light->send_message(50'000'000, [](sim::SimTime) {});
  rig.sim.run_until(sim::milliseconds(50));

  const auto rates = rig.fs->current_rates();
  ASSERT_EQ(rates.size(), 2u);
  const double heavy_rate =
      rates[0].flow == heavy->id() ? rates[0].rate_bps : rates[1].rate_bps;
  const double light_rate =
      rates[0].flow == light->id() ? rates[0].rate_bps : rates[1].rate_bps;
  EXPECT_NEAR(heavy_rate, 0.75e9, 1e6);
  EXPECT_NEAR(light_rate, 0.25e9, 1e6);
}

TEST(FlowsimMaxMin, LinearRampRaisesWeightWithProgress) {
  // The paper's linear F: a flow further into its message carries a higher
  // weight. Start one flow half a message ahead of the other and compare
  // the weights the allocator assigns.
  FluidRig rig;
  const core::MltcpConfig cfg;
  workload::Channel* ahead = rig.cluster.add_channel(
      {rig.d.left[0], rig.d.right[0], 0}, core::mltcp_reno_factory(cfg));
  workload::Channel* behind = rig.cluster.add_channel(
      {rig.d.left[1], rig.d.right[1], 0}, core::mltcp_reno_factory(cfg));

  ahead->send_message(10'000'000, [](sim::SimTime) {});
  rig.sim.run_until(sim::milliseconds(60));  // ~60% through at full rate.
  behind->send_message(10'000'000, [](sim::SimTime) {});
  rig.sim.run_until(sim::milliseconds(80));

  const auto rates = rig.fs->current_rates();
  ASSERT_EQ(rates.size(), 2u);
  const flowsim::FlowRate& ra =
      rates[0].flow == ahead->id() ? rates[0] : rates[1];
  const flowsim::FlowRate& rb =
      rates[0].flow == behind->id() ? rates[0] : rates[1];
  EXPECT_GT(ra.weight, rb.weight)
      << "F(bytes_ratio) must favor the flow closer to completion";
  EXPECT_GT(ra.rate_bps, rb.rate_bps);
}

TEST(FlowsimMaxMin, ChannelIsFifoLikeAConnection) {
  FluidRig rig;
  workload::Channel* ch =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  std::vector<int> order;
  sim::SimTime first = -1;
  sim::SimTime second = -1;
  ch->send_message(10'000'000, [&](sim::SimTime t) {
    order.push_back(1);
    first = t;
  });
  ch->send_message(10'000'000, [&](sim::SimTime t) {
    order.push_back(2);
    second = t;
  });
  rig.sim.run_until(sim::seconds(5));
  ASSERT_EQ(order, (std::vector<int>{1, 2}));
  // Sole flow on the bottleneck: each message serializes at 1 Gb/s, the
  // second strictly after the first.
  const double one = 8.0 * 10'000'000 / 1e9;
  EXPECT_NEAR(sim::to_seconds(first), one, 0.01 * one);
  EXPECT_NEAR(sim::to_seconds(second), 2 * one, 0.01 * one);
}

// ------------------------------------------------------------ message pool

/// Completion instant of one `bytes` message posted at time 0 on an idle
/// channel that has the dumbbell bottleneck to itself.
sim::SimTime lone_message_instant(std::int64_t bytes) {
  FluidRig rig;
  workload::Channel* ch =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  sim::SimTime done = -1;
  ch->send_message(bytes, [&done](sim::SimTime t) { done = t; });
  rig.sim.run_until(sim::seconds(5));
  return done;
}

TEST(FlowsimMessagePool, QueuedMessagesCompleteInFifoOrderAtSerialInstants) {
  // Four messages queued at once on one channel: each starts the instant
  // its predecessor completes, so the gaps between completions are exactly
  // the lone-message instants, in posting order.
  const std::vector<std::int64_t> sizes = {3'000'000, 1'000'000, 2'500'000,
                                           500'000};
  FluidRig rig;
  workload::Channel* ch =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  std::vector<std::size_t> order;
  std::vector<sim::SimTime> at;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ch->send_message(sizes[i], [&order, &at, i](sim::SimTime t) {
      order.push_back(i);
      at.push_back(t);
    });
  }
  rig.sim.run_until(sim::seconds(5));
  ASSERT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  sim::SimTime prev = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(at[i] - prev, lone_message_instant(sizes[i]))
        << "message " << i << " did not start when its predecessor ended";
    prev = at[i];
  }
  EXPECT_EQ(rig.fs->message_pool_size(), sizes.size());
}

TEST(FlowsimMessagePool, CallbackPostsJoinTheSameTimestampsAllocation) {
  // Reference: two equal messages on two channels, posted together at 0.
  constexpr std::int64_t kBytes = 4'000'000;
  sim::SimTime pair_instant = -1;
  std::int64_t pair_recomputes = 0;
  {
    FluidRig rig;
    workload::Channel* a =
        rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
    workload::Channel* b =
        rig.cluster.add_channel({rig.d.left[1], rig.d.right[1], 0}, reno());
    a->send_message(kBytes, [&](sim::SimTime t) { pair_instant = t; });
    b->send_message(kBytes, [](sim::SimTime) {});
    rig.sim.run_until(sim::seconds(5));
    pair_recomputes = rig.fs->stats().recomputes;
  }
  ASSERT_GT(pair_instant, 0);

  // The same pair, posted from inside a completion callback: one post on
  // the completing channel itself, one on another channel. Both must start
  // in the pass that runs the callback, so the rest of the run replays the
  // reference exactly, shifted by the callback's instant.
  FluidRig rig;
  workload::Channel* a =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  workload::Channel* b =
      rig.cluster.add_channel({rig.d.left[1], rig.d.right[1], 0}, reno());
  sim::SimTime posted_at = -1;
  std::int64_t recomputes_at_post = 0;
  sim::SimTime done_a = -1;
  sim::SimTime done_b = -1;
  a->send_message(1'000'000, [&](sim::SimTime t) {
    posted_at = t;
    recomputes_at_post = rig.fs->stats().recomputes;
    a->send_message(kBytes, [&](sim::SimTime u) { done_a = u; });
    b->send_message(kBytes, [&](sim::SimTime u) { done_b = u; });
  });
  rig.sim.run_until(sim::seconds(5));
  ASSERT_GT(posted_at, 0);
  EXPECT_EQ(done_a, posted_at + pair_instant)
      << "the self-post did not start in the callback's allocation";
  EXPECT_EQ(done_b, posted_at + pair_instant)
      << "the cross-channel post did not start in the callback's allocation";
  EXPECT_EQ(rig.fs->stats().recomputes - recomputes_at_post, pair_recomputes);
  // The completed message's node was free before the callback posted, so
  // the two posts needed one new node between them.
  EXPECT_EQ(rig.fs->message_pool_size(), 2u);
}

TEST(FlowsimMessagePool, FreedNodesAreReusedWithoutGrowth) {
  // Two messages in flight on one channel at a time, 10k messages in all:
  // the pool never holds more than two nodes, and once warm the post /
  // complete cycle allocates nothing.
  FluidRig rig;
  workload::Channel* ch =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  std::int64_t completed = 0;
  const auto cycle = [&](int pairs) {
    for (int i = 0; i < pairs; ++i) {
      ch->send_message(10'000, [&completed](sim::SimTime) { ++completed; });
      ch->send_message(20'000, [&completed](sim::SimTime) { ++completed; });
      rig.sim.run_until(rig.sim.now() + sim::milliseconds(1));
    }
  };
  cycle(100);  // Warmup: pool, heap and scratch vectors reach steady state.
  const std::size_t pool = rig.fs->message_pool_size();
  const std::uint64_t before = alloc_stats::count();
  cycle(5'000);
  const std::uint64_t allocs = alloc_stats::count() - before;
  EXPECT_EQ(completed, 10'200);
  EXPECT_EQ(pool, 2u);
  EXPECT_EQ(rig.fs->message_pool_size(), pool)
      << "freed message nodes were not reused";
  EXPECT_EQ(allocs, 0u) << "the steady post/complete cycle allocated";
}

TEST(FlowsimMessagePool, IdleChannelFootprintIsBounded) {
  // 4,096 channels, each carrying one message posted and drained in turn.
  // What the backend allocates per channel is the channel object, the
  // congestion-control probe of create_channel and a share of the channel
  // table and the route pools (about 340 B on x86-64 GCC). A per-channel
  // message container (a std::deque costs 576 B at construction) breaks
  // the bound.
  constexpr int kChannels = 4096;
  constexpr std::uint64_t kBytesPerChannel = 448;
  FluidRig rig;
  workload::ChannelSpec spec;
  spec.src = rig.d.left[0];
  spec.dst = rig.d.right[0];
  spec.cc = reno();
  const std::uint64_t before = alloc_stats::bytes();
  std::vector<workload::Channel*> chans;
  chans.reserve(kChannels);
  for (int i = 0; i < kChannels; ++i) {
    spec.id = i;
    chans.push_back(rig.fs->create_channel(spec));
  }
  std::int64_t completed = 0;
  for (workload::Channel* ch : chans) {
    ch->send_message(1'000, [&completed](sim::SimTime) { ++completed; });
    rig.sim.run_until(rig.sim.now() + sim::milliseconds(1));
  }
  const std::uint64_t bytes = alloc_stats::bytes() - before;
  EXPECT_EQ(completed, kChannels);
  EXPECT_LT(bytes / kChannels, kBytesPerChannel)
      << bytes << " bytes for " << kChannels << " channels";
}

// --------------------------------------------------------------- ECMP parity

TEST(FlowsimEcmp, RouteChoiceMatchesPacketBackendHash) {
  // Blackhole one tor->spine link: exactly the flows whose packet-backend
  // ECMP hash (Switch::route_for_flow) picks that spine must stall.
  sim::Simulator sim;
  net::LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 2;
  cfg.spines = 2;
  auto ls = net::make_leaf_spine(sim, cfg);
  flowsim::FlowSimulator fs(sim, *ls.topology);
  workload::Cluster cluster(sim);
  cluster.set_backend(&fs);

  net::Host* src = ls.racks[0][0];
  net::Host* dst = ls.racks[1][0];
  net::Link* poisoned = ls.topology->link_between(*ls.tors[0], *ls.spines[0]);
  ASSERT_NE(poisoned, nullptr);
  poisoned->set_blackhole(true);
  ls.topology->notify_changed();

  std::vector<workload::Channel*> chans;
  std::vector<bool> done;
  for (int i = 0; i < 8; ++i) {
    workload::Channel* ch = cluster.add_channel({src, dst, 0}, reno());
    const std::size_t idx = done.size();
    done.push_back(false);
    ch->send_message(1'000'000, [&done, idx](sim::SimTime) {
      done[idx] = true;
    });
    chans.push_back(ch);
  }
  sim.run_until(sim::seconds(10));

  int stalled = 0;
  for (std::size_t i = 0; i < chans.size(); ++i) {
    const net::Link* packet_choice =
        ls.tors[0]->route_for_flow(dst->id(), chans[i]->id());
    if (packet_choice == poisoned) {
      ++stalled;
      EXPECT_FALSE(done[i]) << "flow " << chans[i]->id()
                            << " hashes into the blackhole and must stall";
    } else {
      EXPECT_TRUE(done[i]) << "flow " << chans[i]->id()
                           << " avoids the blackhole and must finish";
    }
  }
  EXPECT_GT(stalled, 0) << "hash never picked the poisoned spine (test vacuous)";
  EXPECT_LT(stalled, 8) << "hash always picked the poisoned spine";
}

// -------------------------------------------------------------------- faults

TEST(FlowsimFaults, BlackholeStallsAndResumeCompletes) {
  FluidRig rig;
  workload::Channel* ch =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  sim::SimTime done = -1;
  ch->send_message(10'000'000, [&](sim::SimTime t) { done = t; });

  rig.sim.run_until(sim::milliseconds(20));  // ~25% transferred.
  rig.d.bottleneck->set_blackhole(true);
  rig.d.topology->notify_changed();
  rig.sim.run_until(sim::milliseconds(500));
  EXPECT_EQ(done, -1) << "flow completed through a blackholed bottleneck";
  EXPECT_GE(rig.fs->stats().stalls, 1);

  rig.d.bottleneck->set_blackhole(false);
  rig.d.topology->notify_changed();
  rig.sim.run_until(sim::seconds(5));
  ASSERT_GT(done, 0);
  // 80 ms of transfer work + the 480 ms stall window.
  const double expect = 0.08 + 0.48;
  EXPECT_NEAR(sim::to_seconds(done), expect, 0.01);
}

TEST(FlowsimFaults, DropBurstDeratesCapacity) {
  FluidRig rig;
  workload::Channel* ch =
      rig.cluster.add_channel({rig.d.left[0], rig.d.right[0], 0}, reno());
  sim::SimTime done = -1;
  rig.d.bottleneck->set_fault_drop(0.5, 7);
  rig.d.topology->notify_changed();
  ch->send_message(10'000'000, [&](sim::SimTime t) { done = t; });
  rig.sim.run_until(sim::seconds(5));
  ASSERT_GT(done, 0);
  // Half the packets die: the goodput model halves the link.
  const double expect = 8.0 * 10'000'000 / 0.5e9;
  EXPECT_NEAR(sim::to_seconds(done), expect, 0.01 * expect);
}

TEST(FlowsimFaults, LinkDownReroutesOverSurvivingSpine) {
  sim::Simulator sim;
  net::LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 2;
  cfg.spines = 2;
  auto ls = net::make_leaf_spine(sim, cfg);
  flowsim::FlowSimulator fs(sim, *ls.topology);
  workload::Cluster cluster(sim);
  cluster.set_backend(&fs);

  // Find a flow id the hash sends over spine0, then cut spine0 mid-flight:
  // the incremental route repair must push it onto spine1 and it must still
  // complete.
  net::Host* src = ls.racks[0][0];
  net::Host* dst = ls.racks[1][0];
  net::Link* doomed = ls.topology->link_between(*ls.tors[0], *ls.spines[0]);
  workload::Channel* victim = nullptr;
  sim::SimTime done = -1;
  for (int i = 0; i < 8 && victim == nullptr; ++i) {
    workload::Channel* ch = cluster.add_channel({src, dst, 0}, reno());
    if (ls.tors[0]->route_for_flow(dst->id(), ch->id()) == doomed) {
      victim = ch;
    }
  }
  ASSERT_NE(victim, nullptr) << "no flow id hashed onto spine0";
  victim->send_message(50'000'000, [&](sim::SimTime t) { done = t; });
  sim.run_until(sim::milliseconds(10));
  ls.topology->set_link_pair_state(*ls.tors[0], *ls.spines[0], false);
  sim.run_until(sim::seconds(10));
  ASSERT_GT(done, 0) << "flow did not survive the spine failover";
  EXPECT_GE(fs.stats().reroutes, 1);
  EXPECT_EQ(fs.stats().stalls, 0)
      << "repair left a live path; the flow must not stall";
}

// ------------------------------------------------------ workload integration

TEST(FlowsimWorkload, TrainingJobCompletesIterations) {
  FluidRig rig;
  workload::JobSpec spec;
  spec.name = "train";
  spec.flows = {{rig.d.left[0], rig.d.right[0], 1'000'000},
                {rig.d.left[1], rig.d.right[1], 1'000'000}};
  spec.compute_time = sim::milliseconds(5);
  spec.max_iterations = 10;
  spec.cc = reno();
  workload::Job* job = rig.cluster.add_job(spec);
  rig.cluster.start_all();
  rig.sim.run_until(sim::seconds(5));

  EXPECT_EQ(job->completed_iterations(), 10);
  // Comm phase: two 1 MB flows split the bottleneck, 16 ms each.
  const auto comm = job->comm_times_seconds();
  ASSERT_FALSE(comm.empty());
  EXPECT_NEAR(comm.front(), 0.016, 0.002);
  EXPECT_EQ(rig.fs->stats().messages_completed, 20);
}

TEST(FlowsimWorkload, ServingJobFanoutOnFluidBackend) {
  FluidRig rig(4);
  traffic::ServingConfig cfg;
  cfg.frontend = rig.d.left[0];
  cfg.backends = {rig.d.right[0], rig.d.right[1], rig.d.right[2]};
  cfg.requests_per_second = 200.0;
  cfg.fanout = 2;
  cfg.stop_time = sim::milliseconds(500);
  cfg.cc = reno();
  traffic::ServingJob serving(rig.sim, rig.cluster, cfg);
  serving.start();
  rig.sim.run_until(sim::seconds(5));
  EXPECT_GT(serving.requests_issued(), 50u);
  EXPECT_EQ(serving.requests_completed(), serving.requests_issued());
}

// ---------------------------------------------------------------- determinism

/// One faulted flowsim run reported as CSV rows (mirrors the scenario
/// suite's faulted_run, with the fluid backend installed).
void fluid_faulted_run(std::size_t run_index, std::uint64_t seed,
                       runner::CsvSink& csv) {
  FluidRig rig;
  workload::JobSpec spec;
  spec.name = "j0";
  spec.flows = {{rig.d.left[0], rig.d.right[0], 600'000}};
  spec.compute_time = sim::milliseconds(5);
  spec.max_iterations = 40;
  spec.cc = core::mltcp_reno_factory();
  rig.cluster.add_job(spec);

  scenario::Scenario s;
  s.link_down(sim::milliseconds(40), "swL", "swR");
  s.link_up(sim::milliseconds(120), "swL", "swR");
  s.drop_burst(sim::milliseconds(200), "swL", "swR", 0.02, seed);
  s.drop_burst(sim::milliseconds(400), "swL", "swR", 0.0);
  s.background_burst(sim::milliseconds(350), 0, 1, 300'000);

  scenario::ScenarioEngine engine(rig.sim, *rig.d.topology, rig.cluster);
  engine.install(s);
  rig.cluster.start_all();
  rig.sim.run_until(sim::seconds(20));

  const workload::Job* job = rig.cluster.job(0);
  ASSERT_GT(job->completed_iterations(), 0);
  csv.append(run_index,
             std::vector<double>{
                 static_cast<double>(run_index),
                 static_cast<double>(job->completed_iterations()),
                 sim::to_seconds(job->iterations().back().iter_end),
                 static_cast<double>(rig.fs->stats().messages_completed),
                 static_cast<double>(rig.fs->stats().recomputes),
                 static_cast<double>(engine.applied_events())});
}

std::string fluid_faulted_campaign(int threads) {
  runner::CsvSink csv(
      {"run", "iterations", "end_s", "messages", "recomputes", "events"});
  std::vector<std::uint64_t> seeds = {21, 22, 23, 24, 25, 26};
  runner::CampaignOptions opts;
  opts.threads = threads;
  runner::run_campaign<std::uint64_t, int>(
      seeds,
      [&](const std::uint64_t& seed, std::size_t i) {
        fluid_faulted_run(i, seed, csv);
        return 0;
      },
      opts);
  return csv.serialize();
}

TEST(FlowsimDeterminism, FaultedCampaignByteIdenticalAcrossThreadCounts) {
  const std::string serial = fluid_faulted_campaign(1);
  EXPECT_NE(serial.find("\n5,"), std::string::npos);
  const std::string parallel = fluid_faulted_campaign(4);
  EXPECT_EQ(parallel, serial)
      << "fluid allocation must not depend on campaign scheduling";
}

// ------------------------------------------------------ incremental solver

/// Bit-exact trace of the faulted training scenario: iteration end times as
/// raw IEEE-754 bit patterns plus the backend's message/recompute counters.
/// Any arithmetic divergence between the incremental and full-recompute
/// solvers shows up as a byte difference.
std::string faulted_trace(bool full_recompute) {
  flowsim::FlowSimConfig cfg;
  cfg.full_recompute = full_recompute;
  FluidRig rig(2, cfg);
  workload::JobSpec spec;
  spec.name = "j0";
  spec.flows = {{rig.d.left[0], rig.d.right[0], 600'000},
                {rig.d.left[1], rig.d.right[1], 600'000}};
  spec.compute_time = sim::milliseconds(5);
  spec.max_iterations = 40;
  spec.cc = core::mltcp_reno_factory();
  rig.cluster.add_job(spec);

  scenario::Scenario s;
  s.link_down(sim::milliseconds(40), "swL", "swR");
  s.link_up(sim::milliseconds(120), "swL", "swR");
  s.drop_burst(sim::milliseconds(200), "swL", "swR", 0.02, 23);
  s.drop_burst(sim::milliseconds(400), "swL", "swR", 0.0);
  s.background_burst(sim::milliseconds(350), 0, 1, 300'000);

  scenario::ScenarioEngine engine(rig.sim, *rig.d.topology, rig.cluster);
  engine.install(s);
  rig.cluster.start_all();
  rig.sim.run_until(sim::seconds(20));

  std::string out;
  char buf[64];
  for (const auto& it : rig.cluster.job(0)->iterations()) {
    const double end_s = sim::to_seconds(it.iter_end);
    std::uint64_t bits;
    std::memcpy(&bits, &end_s, sizeof bits);
    std::snprintf(buf, sizeof buf, "%016" PRIx64 "\n", bits);
    out += buf;
  }
  const auto& st = rig.fs->stats();
  std::snprintf(buf, sizeof buf, "msgs=%lld recomputes=%lld\n",
                static_cast<long long>(st.messages_completed),
                static_cast<long long>(st.recomputes));
  out += buf;
  return out;
}

TEST(FlowsimIncremental, FullRecomputeModeBitIdenticalOnFaultedRun) {
  const std::string incremental = faulted_trace(false);
  const std::string full = faulted_trace(true);
  EXPECT_EQ(incremental, full)
      << "the dirty-set solver must reproduce the reference global "
         "waterfill bit-for-bit, faults included";
}

TEST(FlowsimIncremental, RandomizedDifferentialMatchesReferenceWaterfill) {
  // >= 10k mixed arrival/completion/fault/weight-refresh events on a
  // leaf-spine fabric with mixed Reno/MLTCP channels; after every batch of
  // perturbations the incremental allocation must equal an independent
  // from-scratch waterfill (FlowSimulator::reference_rates) to 1e-9
  // relative — catching both dirty-set under-marking and stale caches.
  sim::Simulator sim;
  net::LeafSpineConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.host_rate_bps = 4e9;
  cfg.fabric_rate_bps = 1e9;
  auto ls = net::make_leaf_spine(sim, cfg);
  flowsim::FlowSimulator fs(sim, *ls.topology);
  workload::Cluster cluster(sim);
  cluster.set_backend(&fs);

  std::vector<net::Host*> hosts;
  for (const auto& rack : ls.racks) {
    hosts.insert(hosts.end(), rack.begin(), rack.end());
  }
  std::mt19937_64 rng(99);
  std::vector<workload::Channel*> chans;
  for (int i = 0; i < 48; ++i) {
    net::Host* src = hosts[rng() % hosts.size()];
    net::Host* dst = hosts[rng() % hosts.size()];
    while (dst == src) dst = hosts[rng() % hosts.size()];
    chans.push_back(cluster.add_channel(
        {src, dst, 0},
        i % 2 == 0 ? core::mltcp_reno_factory() : reno()));
  }
  std::vector<net::Link*> fabric;
  for (net::Switch* tor : ls.tors) {
    for (net::Switch* spine : ls.spines) {
      fabric.push_back(ls.topology->link_between(*tor, *spine));
    }
  }

  auto compare = [&] {
    const auto cur = fs.current_rates();
    const auto ref = fs.reference_rates();
    ASSERT_EQ(cur.size(), ref.size());
    for (std::size_t i = 0; i < cur.size(); ++i) {
      ASSERT_EQ(cur[i].flow, ref[i].flow);
      const double tol = 1e-9 * std::max(1.0, std::abs(ref[i].rate_bps));
      ASSERT_NEAR(cur[i].rate_bps, ref[i].rate_bps, tol)
          << "flow " << cur[i].flow << " diverged from the reference "
          << "waterfill after step";
    }
  };

  sim::SimTime now = 0;
  int step = 0;
  bool faulted = false;
  while (fs.stats().messages_posted + fs.stats().messages_completed <
         10'000) {
    ++step;
    const int bursts = 1 + static_cast<int>(rng() % 3);
    for (int b = 0; b < bursts; ++b) {
      const std::int64_t bytes =
          20'000 + static_cast<std::int64_t>(rng() % 180'000);
      chans[rng() % chans.size()]->send_message(bytes, [](sim::SimTime) {});
    }
    if (rng() % 48 == 0) {
      net::Link* l = fabric[rng() % fabric.size()];
      l->set_blackhole(!faulted);
      ls.topology->notify_changed();
      faulted = !faulted;
    } else if (rng() % 48 == 0) {
      net::Link* l = fabric[rng() % fabric.size()];
      l->set_fault_drop(faulted ? 0.0 : 0.3, 7);
      ls.topology->notify_changed();
    }
    now += sim::microseconds(200 + static_cast<sim::SimTime>(rng() % 2000));
    sim.run_until(now);
    if (step % 16 == 0) compare();
  }
  compare();
  EXPECT_GE(fs.stats().messages_posted + fs.stats().messages_completed,
            10'000u);
  EXPECT_GT(fs.stats().frozen_skips, 0)
      << "the dirty-set never skipped a frozen channel — the incremental "
         "path is not actually incremental";
}

// ---------------------------------------------------------- drain-event heap

struct HeapNode {
  sim::SimTime key = 0;  ///< Mirror of the key the heap currently holds.
  std::int32_t pos = -1;
  int id = 0;
};
struct HeapNodePos {
  std::int32_t& operator()(HeapNode* n) const { return n->pos; }
};

TEST(FlowsimHeap, RandomizedDifferentialAgainstOrderedSet) {
  // The drain index must agree with an ordered-set reference across a long
  // random mix of insert / re-key / remove / pop-min — the exact operation
  // set reallocate() and on_timer() drive it with.
  sim::IndexedMinHeap4<sim::SimTime, HeapNode*, HeapNodePos> heap;
  std::vector<HeapNode> nodes(512);
  for (int i = 0; i < 512; ++i) nodes[i].id = i;
  // Reference: (key, id) pairs, so min_key comparisons are exact even with
  // duplicate keys.
  std::set<std::pair<sim::SimTime, int>> ref;

  std::mt19937_64 rng(1234);
  for (int op = 0; op < 20'000; ++op) {
    HeapNode* n = &nodes[rng() % nodes.size()];
    switch (rng() % 4) {
      case 0:
      case 1: {  // Insert-or-rekey (the dominant operation).
        const sim::SimTime key = static_cast<sim::SimTime>(rng() % 1'000'000);
        if (n->pos >= 0) ref.erase({n->key, n->id});
        heap.update(n, key);
        n->key = key;
        ref.insert({key, n->id});
        break;
      }
      case 2: {  // Remove (drain transition / completion).
        if (n->pos >= 0) ref.erase({n->key, n->id});
        heap.remove(n);
        break;
      }
      case 3: {  // Pop-min (due processing).
        if (heap.empty()) break;
        ASSERT_EQ(heap.min_key(), ref.begin()->first);
        HeapNode* top = heap.pop_min();
        ASSERT_EQ(top->key, ref.begin()->first)
            << "popped item's key is not the reference minimum";
        ref.erase({top->key, top->id});
        break;
      }
    }
    ASSERT_EQ(heap.size(), ref.size());
    ASSERT_EQ(heap.contains(n), ref.count({n->key, n->id}) > 0);
  }
  while (!heap.empty()) {
    ASSERT_EQ(heap.min_key(), ref.begin()->first);
    HeapNode* top = heap.pop_min();
    ref.erase({top->key, top->id});
  }
  EXPECT_TRUE(ref.empty());
}

// ------------------------------------------------------- PDES composition

/// Quick Poisson matrix on the fluid backend, serial or under the
/// cooperative sharded runner; returns the completed-FCT vector.
std::vector<double> sharded_poisson_fcts(int shards) {
  sim::Simulator sim;
  net::LeafSpineConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.host_rate_bps = 4e9;
  cfg.fabric_rate_bps = 1e9;
  auto ls = net::make_leaf_spine(sim, cfg);
  flowsim::FlowSimulator fs(sim, *ls.topology);
  workload::Cluster cluster(sim);
  cluster.set_backend(&fs);

  std::unique_ptr<pdes::ShardedRunner> runner;
  pdes::Partition part;
  if (shards > 1) {
    pdes::PartitionOptions popts;
    popts.shards = shards;
    part = pdes::partition_topology(*ls.topology, popts);
    sim.configure_shards(part.shards);
    runner = std::make_unique<pdes::ShardedRunner>(
        sim, *ls.topology, part, pdes::ShardedRunner::Mode::kCooperative);
  }

  std::vector<net::Host*> hosts;
  for (const auto& rack : ls.racks) {
    hosts.insert(hosts.end(), rack.begin(), rack.end());
  }
  traffic::TrafficSource source(
      sim, cluster, hosts, traffic::SourceOptions{reno(), {}, {}});
  traffic::TrafficConfig tc;
  tc.pattern = traffic::Pattern::kPoisson;
  tc.size_dist = traffic::SizeDist::kPareto;
  tc.mean_bytes = 40'000;
  tc.flows_per_second = 2000.0;
  tc.start = 0;
  tc.stop = sim::seconds(1);
  tc.seed = 17;
  source.install(tc);

  const sim::SimTime horizon = tc.stop + sim::seconds(2);
  if (runner != nullptr) {
    runner->run_until(horizon);
  } else {
    sim.run_until(horizon);
  }
  return source.completed_fcts_seconds();
}

TEST(FlowsimDeterminism, ShardedCooperativeByteIdenticalToSerial) {
  // The fluid backend posts no link deliveries, so partitioning the fabric
  // must not move or reorder a single flowsim event: the FCT vector under
  // the cooperative sharded runner is bit-identical to the serial run.
  const std::vector<double> serial = sharded_poisson_fcts(1);
  ASSERT_GT(serial.size(), 1000u);
  const std::vector<double> sharded = sharded_poisson_fcts(3);
  EXPECT_EQ(serial, sharded);
}

// ------------------------------------------------------- packet-level parity

TEST(FlowsimParity, SmallTopologyIterationTimesMatchPacketBackend) {
  // Stated tolerance: mean iteration time within 25% of the packet backend
  // on a 2-flow dumbbell training job. The fluid model has no slow start,
  // loss recovery or queueing delay, so it runs slightly fast; the fidelity
  // gate (bench/fidelity_gate) tracks the same bound campaign-wide.
  auto run = [](bool fluid) {
    sim::Simulator sim;
    net::DumbbellConfig dc;
    dc.hosts_per_side = 2;
    auto d = net::make_dumbbell(sim, dc);
    std::unique_ptr<flowsim::FlowSimulator> fs;
    workload::Cluster cluster(sim);
    if (fluid) {
      fs = std::make_unique<flowsim::FlowSimulator>(sim, *d.topology);
      cluster.set_backend(fs.get());
    }
    workload::JobSpec spec;
    spec.name = "train";
    spec.flows = {{d.left[0], d.right[0], 2'000'000},
                  {d.left[1], d.right[1], 2'000'000}};
    spec.compute_time = sim::milliseconds(10);
    spec.max_iterations = 15;
    spec.cc = core::mltcp_reno_factory();
    workload::Job* job = cluster.add_job(spec);
    cluster.start_all();
    sim.run_until(sim::seconds(10));
    const auto times = job->iteration_times_seconds();
    const double mean =
        std::accumulate(times.begin(), times.end(), 0.0) /
        static_cast<double>(times.size());
    return std::pair<int, double>{job->completed_iterations(), mean};
  };
  const auto [packet_iters, packet_mean] = run(false);
  const auto [fluid_iters, fluid_mean] = run(true);
  ASSERT_EQ(packet_iters, 15);
  ASSERT_EQ(fluid_iters, 15);
  EXPECT_NEAR(fluid_mean, packet_mean, 0.25 * packet_mean)
      << "fluid iteration time drifted beyond the 25% parity bound";
}

}  // namespace
}  // namespace mltcp
