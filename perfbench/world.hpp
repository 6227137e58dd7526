#pragma once

// The benchmark's workloads, built from a seed on the cluster_scale
// fabric (16 racks x 16 hosts, 4 spines, 4 Gb/s host links, 1 Gb/s fabric
// links), run, and read back through the simulator's public accessors.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "flowsim/flow_simulator.hpp"
#include "net/topology.hpp"
#include "scenario/engine.hpp"
#include "seams.hpp"
#include "sim/simulator.hpp"
#include "traffic/source.hpp"
#include "workload/cluster.hpp"

namespace perfbench {

enum class Workload {
  kTrainPacket,
  kMixPacket,
  kPoissonFlowsim,
  kTrainFlowsim,
};

/// Workload names in declaration order.
const std::vector<std::string>& workload_names();
bool parse_workload(const std::string& name, Workload* out);

/// How the run is driven. Every mode must reach the same model state.
enum class Mode {
  kPlain,   ///< One run_until(deadline) call, no wrappers: the timed run.
  kSliced,  ///< run_until in fixed sim-time slices, no wrappers.
  kTraced,  ///< Slices plus the timing wrappers of seams.hpp.
};

/// A coarse span (setup phase, slice, scenario event), host seconds
/// relative to the start of world construction.
struct Span {
  std::string name;
  double start_s = 0.0;
  double dur_s = 0.0;
};

/// Host seconds of each setup phase.
struct SetupTimes {
  double total_s = 0.0;  ///< Start of construction to the first event.
  double topo_build_s = 0.0;
  double jobs_build_s = 0.0;
  double traffic_install_s = 0.0;
  double scenario_install_s = 0.0;
};

struct RunReport {
  double run_s = 0.0;
  std::vector<double> slice_ms;  ///< Host ms per fixed slice (sliced modes).
  std::uint64_t heap_peak = 0;   ///< Largest heap seen between slices.
};

using Metrics = std::vector<std::pair<std::string, double>>;

class World {
 public:
  /// Builds the world; construction is the timed setup.
  World(Workload workload, std::uint64_t seed, Mode mode);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const SetupTimes& setup() const { return setup_; }
  RunReport run();

  /// FNV-1a over jobs, links, hosts, switches and background traffic —
  /// cluster_scale's state digest, plus every transfer's completion time.
  std::uint64_t digest() const;
  Outcome snapshot() const;

  /// Simulated training-iteration times and background FCTs, seconds.
  std::vector<double> iteration_times() const;
  std::vector<double> fct_times() const;
  /// Per-layer counters of this run (see README.md for the table).
  Metrics layer_counts(const RunReport& report) const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  void build(std::uint64_t seed);
  void add_span(std::string name, std::uint64_t start_ns,
                std::uint64_t end_ns);

  Workload workload_;
  Mode mode_;
  std::uint64_t t0_ns_ = 0;
  SetupTimes setup_;
  std::vector<Span> spans_;

  sim::SimTime deadline_ = 0;
  bool must_drain_ = false;

  // Declaration order is teardown order, reversed: the simulator goes last.
  sim::Simulator sim_;
  net::LeafSpine ls_;
  std::unique_ptr<flowsim::FlowSimulator> fs_;
  std::unique_ptr<TimedBackend> timed_backend_;
  std::unique_ptr<workload::Cluster> cluster_;
  std::unique_ptr<traffic::TrafficSource> source_;
  scenario::Scenario scenario_;
  std::unique_ptr<scenario::ScenarioEngine> engine_;

  /// Traced packet runs: data packets and resends seen at each host's
  /// uplink, with the highest segment each flow has put on the wire.
  struct UplinkCount {
    std::int64_t data = 0;
    std::int64_t retx = 0;
  };
  std::vector<UplinkCount> uplink_counts_;
  std::vector<std::int64_t> max_seq_;
};

}  // namespace perfbench
