#include "analysis/periodic_jobs.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/mltcp.hpp"
#include "flowsim/flow_simulator.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "workload/cluster.hpp"
#include "workload/collective.hpp"

namespace mltcp::analysis {

namespace {

/// How stale a channel's F(bytes_ratio) weight may get mid-message:
/// flowsim's default, one value for every caller. The §4 benches, examples
/// and tests all reproduce their rows at it.
constexpr sim::SimTime kWeightRefresh = sim::milliseconds(20);

}  // namespace

std::vector<std::vector<workload::IterationRecord>> run_periodic_jobs(
    const std::vector<PeriodicJob>& jobs,
    std::shared_ptr<const core::AggressivenessFunction> f,
    std::uint64_t seed, int iterations, double max_seconds) {
  assert(!jobs.empty() && iterations > 0);
  sim::Simulator sim;
  net::DumbbellConfig dc;
  dc.hosts_per_side = static_cast<int>(jobs.size());
  net::Dumbbell d = net::make_dumbbell(sim, dc);
  flowsim::FlowSimConfig fc;
  fc.weight_refresh = kWeightRefresh;
  flowsim::FlowSimulator backend(sim, *d.topology, fc);
  workload::Cluster cluster(sim, seed);
  cluster.set_backend(&backend);

  const tcp::CcFactory cc = core::mltcp_reno_factory({}, std::move(f));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const PeriodicJob& j = jobs[i];
    assert(j.comm_seconds > 0.0 && j.compute_seconds >= 0.0);
    workload::JobSpec spec;
    spec.name = "job" + std::to_string(i);
    spec.flows = workload::single_flow(
        d.left[i], d.right[i],
        std::llround(j.comm_seconds * dc.bottleneck_rate_bps / 8.0));
    spec.compute_time = sim::from_seconds(j.compute_seconds);
    spec.noise_stddev_seconds = j.noise_stddev;
    spec.start_time = sim::from_seconds(j.start_offset);
    spec.cc = cc;
    cluster.add_job(spec);
  }
  cluster.start_all();

  // Every job keeps running until the slowest reaches the target (checked
  // once per simulated second), so the last returned iterations still see
  // the full contention.
  auto lagging = [&] {
    for (const auto& job : cluster.jobs()) {
      if (job->completed_iterations() < iterations) return true;
    }
    return false;
  };
  const sim::SimTime budget = sim::from_seconds(max_seconds);
  while (lagging() && sim.now() < budget) {
    sim.run_until(std::min(budget, sim.now() + sim::seconds(1)));
  }

  std::vector<std::vector<workload::IterationRecord>> out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& records = cluster.job(i)->iterations();
    if (records.size() < static_cast<std::size_t>(iterations)) {
      throw std::runtime_error(
          "run_periodic_jobs: job " + std::to_string(i) + " completed " +
          std::to_string(records.size()) + "/" +
          std::to_string(iterations) + " iterations within " +
          std::to_string(max_seconds) + " s");
    }
    out.emplace_back(records.begin(), records.begin() + iterations);
  }
  return out;
}

}  // namespace mltcp::analysis
