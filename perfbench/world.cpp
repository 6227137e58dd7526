#include "world.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/mltcp.hpp"
#include "sim/random.hpp"
#include "tcp/reno.hpp"
#include "telemetry/collect.hpp"
#include "telemetry/metrics.hpp"
#include "workload/profiles.hpp"

namespace perfbench {

namespace {

// The cluster_scale fabric.
constexpr int kRacks = 16;
constexpr int kHostsPerRack = 16;
constexpr int kSpines = 4;
constexpr double kHostRateBps = 4e9;
constexpr double kFabricRateBps = 1e9;
constexpr std::int64_t kQueueBytes = 512 * 1500;  // make_leaf_spine default.

// GPT-2's profile with its 1.8 s period scaled down tenfold, so a run of a
// few simulated seconds holds tens of iterations per job.
constexpr int kPeriodScale = 10;
constexpr double kIterNoiseFrac = 0.02;  // Compute noise, share of period.

// Background traffic: Poisson arrivals of bounded-Pareto sizes.
constexpr std::int64_t kMeanFlowBytes = 40'000;

// Run sizes, per workload.
constexpr sim::SimTime kTrainWindow = sim::seconds(1);
constexpr sim::SimTime kMixWindow = sim::milliseconds(1200);
constexpr double kMixFlowsPerSec = 2'000.0;
// mix_packet's background and faults start a quarter into the window, once
// every job has run an iteration: a flow whose first packets are lost has
// no RTT sample yet and waits out the 1 s initial RTO (RFC 6298), longer
// than the rest of the run.
constexpr double kMixDisturbStart = 0.25;
constexpr double kFlowsimFlowsPerSec = 16'000.0;
constexpr sim::SimTime kPoissonArrivals = sim::seconds(8);
constexpr sim::SimTime kPoissonDrain = sim::seconds(5);
constexpr sim::SimTime kTrainFlowsimWindow = sim::milliseconds(600);
constexpr int kFlowsimJobs = 256;
constexpr int kFlowsimFlowsPerJob = 4;
constexpr int kPacketJobs = 16;
constexpr int kPacketFlowsPerJob = 16;
constexpr int kSlices = 200;

// Seed salts: one independent stream per input.
enum Salt : std::uint64_t {
  kSaltOffsets = 1,
  kSaltCluster = 2,
  kSaltTraffic = 3,
  kSaltScenario = 4,
};

bool is_packet(Workload w) {
  return w == Workload::kTrainPacket || w == Workload::kMixPacket;
}

workload::ModelProfile scaled_gpt2() {
  workload::ModelProfile p = workload::gpt2_profile();
  p.ideal_iteration_time /= kPeriodScale;
  return p;
}

/// Training jobs placed rack r -> rack r+1, `flows` parallel streams each,
/// started at seeded offsets within one period.
std::vector<workload::JobSpec> training_specs(const net::LeafSpine& ls,
                                              int jobs, int flows,
                                              std::uint64_t seed,
                                              bool traced) {
  const workload::ModelProfile profile = scaled_gpt2();
  const std::int64_t bytes_per_flow =
      workload::comm_bytes(profile, kFabricRateBps) / flows;
  core::MltcpConfig mcfg;
  mcfg.tracker.total_bytes = bytes_per_flow;
  mcfg.tracker.comp_time = workload::compute_time(profile) / 2;
  tcp::CcFactory cc = core::mltcp_reno_factory(mcfg);
  if (traced) {
    const auto f = core::make_linear_function(mcfg);
    const core::TrackerConfig tracker = mcfg.tracker;
    cc = timed_reno_factory(
        [f, tracker] { return std::make_shared<core::MltcpGain>(f, tracker); });
  }
  std::uint64_t rng = sim::derive_seed(seed, kSaltOffsets);
  std::vector<workload::JobSpec> specs;
  for (int j = 0; j < jobs; ++j) {
    const int src_rack = j % kRacks;
    const int dst_rack = (src_rack + 1) % kRacks;
    const int base_host = (j / kRacks) % kHostsPerRack;
    workload::JobSpec spec;
    spec.name = "job" + std::to_string(j);
    for (int f = 0; f < flows; ++f) {
      const int h = (base_host + f) % kHostsPerRack;
      spec.flows.push_back(workload::FlowSpec{
          ls.racks[src_rack][h], ls.racks[dst_rack][h], bytes_per_flow});
    }
    spec.compute_time = workload::compute_time(profile);
    spec.noise_stddev_seconds =
        kIterNoiseFrac * sim::to_seconds(profile.ideal_iteration_time);
    spec.start_time = static_cast<sim::SimTime>(
        sim::splitmix64_uniform(rng) *
        static_cast<double>(profile.ideal_iteration_time));
    spec.cc = cc;
    specs.push_back(std::move(spec));
  }
  return specs;
}

traffic::TrafficConfig background(double flows_per_second, sim::SimTime start,
                                  sim::SimTime stop, std::uint64_t seed) {
  traffic::TrafficConfig cfg;
  cfg.pattern = traffic::Pattern::kPoisson;
  cfg.size_dist = traffic::SizeDist::kPareto;
  cfg.mean_bytes = kMeanFlowBytes;
  cfg.flows_per_second = flows_per_second;
  cfg.start = start;
  cfg.stop = stop;
  cfg.seed = sim::derive_seed(seed, kSaltTraffic);
  return cfg;
}

/// Four ToR-spine flaps (50 ms down) and four 5% drop bursts (100 ms), at
/// seeded places and times in [kMixDisturbStart, 0.6) of the window:
/// sixteen events, over by the time jobs need to finish an iteration.
scenario::Scenario fault_timeline(sim::SimTime window, std::uint64_t seed) {
  std::uint64_t rng = sim::derive_seed(seed, kSaltScenario);
  const auto pick = [&rng](int n) {
    return static_cast<int>(sim::splitmix64_uniform(rng) * n);
  };
  const auto when = [&rng, window] {
    return static_cast<sim::SimTime>(
        (kMixDisturbStart + (0.6 - kMixDisturbStart) *
                                 sim::splitmix64_uniform(rng)) *
        static_cast<double>(window));
  };
  scenario::Scenario s;
  for (int i = 0; i < 4; ++i) {
    const std::string tor = "tor" + std::to_string(pick(kRacks));
    const std::string spine = "spine" + std::to_string(pick(kSpines));
    const sim::SimTime t = when();
    s.link_down(t, tor, spine).link_up(t + sim::milliseconds(50), tor, spine);
  }
  for (int i = 0; i < 4; ++i) {
    const std::string tor = "tor" + std::to_string(pick(kRacks));
    const std::string spine = "spine" + std::to_string(pick(kSpines));
    const sim::SimTime t = when();
    s.drop_burst(t, tor, spine, 0.05, sim::derive_seed(seed, 100 + i))
        .drop_burst(t + sim::milliseconds(100), tor, spine, 0.0);
  }
  return s;
}

std::vector<net::Host*> all_hosts(const net::LeafSpine& ls) {
  std::vector<net::Host*> hosts;
  for (const auto& rack : ls.racks) {
    hosts.insert(hosts.end(), rack.begin(), rack.end());
  }
  return hosts;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "train_packet", "mix_packet", "poisson_flowsim", "train_flowsim"};
  return names;
}

bool parse_workload(const std::string& name, Workload* out) {
  const auto& names = workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) {
      *out = static_cast<Workload>(i);
      return true;
    }
  }
  return false;
}

World::World(Workload workload, std::uint64_t seed, Mode mode)
    : workload_(workload), mode_(mode) {
  build(seed);
}

World::~World() = default;

void World::add_span(std::string name, std::uint64_t start_ns,
                     std::uint64_t end_ns) {
  spans_.push_back(Span{std::move(name),
                        static_cast<double>(start_ns - t0_ns_) * 1e-9,
                        static_cast<double>(end_ns - start_ns) * 1e-9});
}

void World::build(std::uint64_t seed) {
  const bool traced = mode_ == Mode::kTraced;
  const bool packet = is_packet(workload_);
  t0_ns_ = now_ns();
  std::uint64_t mark = t0_ns_;
  const auto phase = [this, &mark](const char* name, double* slot) {
    const std::uint64_t t = now_ns();
    *slot = static_cast<double>(t - mark) * 1e-9;
    add_span(name, mark, t);
    mark = t;
  };

  net::LeafSpineConfig cfg;
  cfg.racks = kRacks;
  cfg.hosts_per_rack = kHostsPerRack;
  cfg.spines = kSpines;
  cfg.host_rate_bps = kHostRateBps;
  cfg.fabric_rate_bps = kFabricRateBps;
  if (workload_ == Workload::kMixPacket) {
    cfg.queue = net::make_drr_factory(kQueueBytes);
  }
  if (traced && packet) {
    cfg.queue = timed_queue_factory(
        cfg.queue ? cfg.queue : net::make_droptail_factory(kQueueBytes));
  }
  ls_ = net::make_leaf_spine(sim_, cfg);
  phase("setup.topo_build", &setup_.topo_build_s);

  sim::SimTime arrivals_stop = 0;
  std::vector<workload::JobSpec> specs;
  switch (workload_) {
    case Workload::kTrainPacket:
    case Workload::kMixPacket:
      deadline_ = workload_ == Workload::kMixPacket ? kMixWindow : kTrainWindow;
      arrivals_stop = deadline_;
      specs = training_specs(ls_, kPacketJobs, kPacketFlowsPerJob, seed,
                             traced);
      break;
    case Workload::kTrainFlowsim:
      deadline_ = kTrainFlowsimWindow;
      arrivals_stop = deadline_;
      specs = training_specs(ls_, kFlowsimJobs, kFlowsimFlowsPerJob, seed,
                             false);
      break;
    case Workload::kPoissonFlowsim:
      arrivals_stop = kPoissonArrivals;
      deadline_ = arrivals_stop + kPoissonDrain;
      must_drain_ = true;
      break;
  }

  cluster_ = std::make_unique<workload::Cluster>(
      sim_, sim::derive_seed(seed, kSaltCluster));
  if (!packet) {
    fs_ = std::make_unique<flowsim::FlowSimulator>(sim_, *ls_.topology);
    if (traced) {
      timed_backend_ = std::make_unique<TimedBackend>(*fs_);
      cluster_->set_backend(timed_backend_.get());
    } else {
      cluster_->set_backend(fs_.get());
    }
  }
  for (const workload::JobSpec& spec : specs) cluster_->add_job(spec);
  phase("setup.jobs_build", &setup_.jobs_build_s);

  if (workload_ == Workload::kMixPacket ||
      workload_ == Workload::kPoissonFlowsim ||
      workload_ == Workload::kTrainFlowsim) {
    tcp::CcFactory cc = [] { return std::make_unique<tcp::RenoCC>(); };
    if (traced && packet) {
      cc = timed_reno_factory(
          [] { return std::make_shared<tcp::WindowGain>(); });
    }
    source_ = std::make_unique<traffic::TrafficSource>(
        sim_, *cluster_, all_hosts(ls_), traffic::SourceOptions{cc, {}, {}});
    const bool mix = workload_ == Workload::kMixPacket;
    source_->install(background(mix ? kMixFlowsPerSec : kFlowsimFlowsPerSec,
                                mix ? static_cast<sim::SimTime>(
                                          kMixDisturbStart * deadline_)
                                    : 0,
                                arrivals_stop, seed));
    phase("setup.traffic_install", &setup_.traffic_install_s);
  }

  if (workload_ == Workload::kMixPacket) {
    scenario_ = fault_timeline(deadline_, seed);
    engine_ = std::make_unique<scenario::ScenarioEngine>(sim_, *ls_.topology,
                                                         *cluster_);
    engine_->install(scenario_);
    phase("setup.scenario_install", &setup_.scenario_install_s);
  }

  double start_s = 0.0;
  cluster_->start_all();
  phase("setup.start", &start_s);
  setup_.jobs_build_s += start_s;
  setup_.total_s = static_cast<double>(mark - t0_ns_) * 1e-9;

  if (traced && packet) {
    // Count data packets and resends where they enter the fabric. The
    // per-flow table covers the flows that exist now and grows for
    // traffic-replay channels.
    const auto& hosts = ls_.topology->hosts();
    uplink_counts_.assign(hosts.size(), UplinkCount{});
    max_seq_.assign(1024, -1);
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      UplinkCount* count = &uplink_counts_[i];
      hosts[i]->uplink()->add_tx_observer(
          [this, count](const net::Packet& pkt, sim::SimTime) {
            if (pkt.type != net::PacketType::kData) return;
            const auto f = static_cast<std::size_t>(pkt.flow);
            if (f >= max_seq_.size()) max_seq_.resize(2 * f + 1, -1);
            ++count->data;
            if (pkt.seq <= max_seq_[f]) {
              ++count->retx;
            } else {
              max_seq_[f] = pkt.seq;
            }
          });
    }
  }
}

RunReport World::run() {
  RunReport r;
  if (mode_ == Mode::kPlain) {
    const std::uint64_t t = now_ns();
    sim_.run_until(deadline_);
    r.run_s = static_cast<double>(now_ns() - t) * 1e-9;
    return r;
  }
  // Fixed sim-time slices; each scenario event gets a slice of its own
  // instant ([at, at]), so its span holds the apply and nothing else.
  std::vector<sim::SimTime> events;
  for (const scenario::Event& e : scenario_.events()) events.push_back(e.at);
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  std::size_t next_event = 0;
  const std::uint64_t start = now_ns();
  sim::SimTime done = 0;
  for (int k = 1; k <= kSlices; ++k) {
    const sim::SimTime bound = deadline_ * k / kSlices;
    const std::uint64_t slice_start = now_ns();
    while (next_event < events.size() && events[next_event] <= bound) {
      const sim::SimTime at = events[next_event++];
      if (at > done) sim_.run_until(at - 1);
      const std::uint64_t t = now_ns();
      sim_.run_until(at);
      add_span("scenario@" + std::to_string(sim::to_seconds(at)), t,
               now_ns());
      done = at;
    }
    sim_.run_until(bound);
    done = bound;
    const std::uint64_t slice_end = now_ns();
    r.slice_ms.push_back(static_cast<double>(slice_end - slice_start) * 1e-6);
    add_span("slice", slice_start, slice_end);
    r.heap_peak = std::max<std::uint64_t>(
        r.heap_peak, sim_.event_queue().heap_entries());
  }
  const std::uint64_t end = now_ns();
  r.run_s = static_cast<double>(end - start) * 1e-9;
  add_span("run", start, end);
  return r;
}

std::uint64_t World::digest() const {
  Fnv f;
  for (std::size_t j = 0; j < cluster_->job_count(); ++j) {
    const workload::Job* job = cluster_->job(j);
    f.add(static_cast<std::uint64_t>(job->completed_iterations()));
    for (const workload::IterationRecord& r : job->iterations()) {
      f.add(static_cast<std::uint64_t>(r.comm_start));
      f.add(static_cast<std::uint64_t>(r.comm_end));
      f.add(static_cast<std::uint64_t>(r.iter_end));
    }
  }
  const net::Topology& topo = *ls_.topology;
  for (const auto& link : topo.links()) {
    f.add(static_cast<std::uint64_t>(link->bytes_transmitted()));
    f.add(static_cast<std::uint64_t>(link->packets_transmitted()));
    f.add(static_cast<std::uint64_t>(link->fault_drops()));
  }
  for (const net::Host* h : topo.hosts()) {
    f.add(static_cast<std::uint64_t>(h->delivered_packets()));
  }
  for (const net::Switch* s : topo.switches()) {
    f.add(static_cast<std::uint64_t>(s->forwarded_packets()));
  }
  if (source_ != nullptr) {
    f.add(source_->posted());
    f.add(source_->completed());
    f.add(static_cast<std::uint64_t>(source_->bytes_completed()));
    for (const traffic::FctRecord& r : source_->records()) {
      f.add(static_cast<std::uint64_t>(r.completed));
    }
  }
  return f.h;
}

Outcome World::snapshot() const {
  Outcome o;
  const net::Topology& topo = *ls_.topology;
  const auto& adj = topo.adjacency();
  o.nodes.resize(adj.size());
  for (const net::Switch* s : topo.switches()) {
    NodeSnap& n = o.nodes[static_cast<std::size_t>(s->id())];
    n.is_switch = true;
    n.received = s->forwarded_packets() + s->routeless_drops();
    n.forwarded = s->forwarded_packets();
  }
  for (const net::Host* h : topo.hosts()) {
    o.nodes[static_cast<std::size_t>(h->id())].received =
        h->delivered_packets() + h->unclaimed_packets();
  }
  for (std::size_t src = 0; src < adj.size(); ++src) {
    for (const auto& [dst, link] : adj[src]) {
      const net::QueueStats& q = unwrap(link->queue()).stats();
      LinkSnap l;
      l.src = static_cast<int>(src);
      l.dst = static_cast<int>(dst);
      l.tx = link->packets_transmitted();
      l.enqueued = q.enqueued_packets;
      l.queue_drops = q.dropped_packets;
      l.fault_drops = link->fault_drops();
      l.backlog = static_cast<std::int64_t>(link->queue().backlog_packets());
      l.inflight_cap =
          static_cast<std::int64_t>(std::ceil(
              sim::to_seconds(link->propagation_delay()) * link->rate_bps() /
              (8.0 * net::kAckBytes))) +
          1;
      o.links.push_back(l);
    }
  }
  for (std::size_t j = 0; j < cluster_->job_count(); ++j) {
    o.jobs.push_back(cluster_->job(j)->iterations());
  }
  if (source_ != nullptr) {
    TrafficSnap& t = o.traffic;
    t.present = true;
    t.must_drain = must_drain_;
    t.posted = static_cast<std::int64_t>(source_->posted());
    t.completed = static_cast<std::int64_t>(source_->completed());
    t.open = static_cast<std::int64_t>(source_->open());
    for (const traffic::FctRecord& r : source_->records()) {
      ++t.records;
      if (r.done()) ++t.done_records;
    }
  }
  return o;
}

std::vector<double> World::iteration_times() const {
  std::vector<double> out;
  for (std::size_t j = 0; j < cluster_->job_count(); ++j) {
    const std::vector<double> t = cluster_->job(j)->iteration_times_seconds();
    out.insert(out.end(), t.begin(), t.end());
  }
  return out;
}

std::vector<double> World::fct_times() const {
  return source_ != nullptr ? source_->completed_fcts_seconds()
                            : std::vector<double>{};
}

Metrics World::layer_counts(const RunReport& report) const {
  Metrics m;
  const auto put = [&m](const char* name, double v) {
    m.emplace_back(name, v);
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  const auto events = static_cast<double>(sim_.events_executed());
  put("sim.events", events);
  put("sim.ns_per_event", ratio(report.run_s * 1e9, events));
  put("sim.heap_peak", static_cast<double>(report.heap_peak));

  double hops = 0.0;
  double drops = 0.0;
  double fault_drops = 0.0;
  double backlog_peak = 0.0;
  for (const auto& link : ls_.topology->links()) {
    const net::QueueStats& q = unwrap(link->queue()).stats();
    hops += static_cast<double>(link->packets_transmitted());
    drops += static_cast<double>(q.dropped_packets);
    fault_drops += static_cast<double>(link->fault_drops());
    backlog_peak =
        std::max(backlog_peak, static_cast<double>(q.max_backlog_bytes));
  }
  for (const net::Switch* s : ls_.topology->switches()) {
    drops += static_cast<double>(s->routeless_drops());
  }
  put("net.pkt_hops", hops);
  put("net.ns_per_hop", ratio(report.run_s * 1e9, hops));
  put("net.drops", drops);
  put("net.fault_drops", fault_drops);
  put("net.backlog_peak_bytes", backlog_peak);
  put("net.topo_build_s", setup_.topo_build_s);

  const Seams& s = seams();
  put("net.queue_calls", static_cast<double>(s.queue.calls));
  put("net.queue_self_ns", static_cast<double>(s.queue.self_ns));
  double data_pkts = 0.0;
  double retx_pkts = 0.0;
  for (const UplinkCount& c : uplink_counts_) {
    data_pkts += static_cast<double>(c.data);
    retx_pkts += static_cast<double>(c.retx);
  }
  put("tcp.data_pkts", data_pkts);
  put("tcp.retx", retx_pkts);
  put("tcp.timeouts", static_cast<double>(s.cc_timeout.calls));
  put("tcp.goodput_frac",
      ratio(static_cast<double>(s.gain.units), data_pkts));
  put("tcp.cc_calls", static_cast<double>(s.cc.calls));
  put("tcp.cc_self_ns", static_cast<double>(s.cc.self_ns));
  put("core.gain_calls", static_cast<double>(s.gain.calls));
  put("core.gain_self_ns", static_cast<double>(s.gain.self_ns));

  double iterations = 0.0;
  double comm_s = 0.0;
  double iter_s = 0.0;
  for (std::size_t j = 0; j < cluster_->job_count(); ++j) {
    const workload::Job* job = cluster_->job(j);
    iterations += job->completed_iterations();
    for (double t : job->comm_times_seconds()) comm_s += t;
    for (double t : job->iteration_times_seconds()) iter_s += t;
  }
  put("workload.iterations", iterations);
  put("workload.comm_frac", ratio(comm_s, iter_s));
  put("workload.jobs_build_s", setup_.jobs_build_s);

  double posted = 0.0;
  double completed = 0.0;
  double channels = 0.0;
  if (source_ != nullptr) {
    posted = static_cast<double>(source_->posted());
    completed = static_cast<double>(source_->completed());
    std::vector<std::pair<std::int32_t, std::int32_t>> pairs;
    for (const traffic::FctRecord& r : source_->records()) {
      pairs.emplace_back(r.src, r.dst);
    }
    std::sort(pairs.begin(), pairs.end());
    channels = static_cast<double>(
        std::unique(pairs.begin(), pairs.end()) - pairs.begin());
  }
  put("traffic.posted", posted);
  put("traffic.completed", completed);
  put("traffic.channels", channels);
  put("traffic.callback_self_ns",
      static_cast<double>(s.callback.self_ns));
  put("traffic.install_s", setup_.traffic_install_s);

  telemetry::MetricRegistry reg;
  if (fs_ != nullptr) telemetry::collect_flowsim(reg, "flowsim", fs_->stats());
  const auto counter = [&reg](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  const double recomputes = counter("flowsim/recomputes");
  put("flowsim.recomputes", recomputes);
  put("flowsim.fills_per_transfer",
      ratio(counter("flowsim/waterfill_channels"),
            counter("flowsim/messages_completed")));
  put("flowsim.dirty_links_per_recompute",
      ratio(counter("flowsim/dirty_links"), recomputes));
  put("flowsim.heap_updates", counter("flowsim/heap_updates"));
  put("flowsim.create_self_ns",
      static_cast<double>(s.fs_create.self_ns));
  put("flowsim.post_self_ns", static_cast<double>(s.fs_post.self_ns));

  put("scenario.applied",
      engine_ != nullptr ? engine_->applied_events() : 0.0);
  put("scenario.skipped",
      engine_ != nullptr ? engine_->skipped_events() : 0.0);
  return m;
}

}  // namespace perfbench
