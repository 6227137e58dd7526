#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/aggressiveness.hpp"
#include "workload/job.hpp"

namespace mltcp::analysis {

/// One job of §4's model: a strictly periodic alternation of a
/// communication phase on a shared bottleneck and a compute phase.
struct PeriodicJob {
  /// Communication per iteration, in seconds of the bottleneck to itself.
  double comm_seconds = 0.0;
  /// Compute-phase duration in seconds.
  double compute_seconds = 0.0;
  /// When the job's first communication phase starts.
  double start_offset = 0.0;
  /// Std-dev of zero-mean Gaussian noise added to each compute phase.
  double noise_stddev = 0.0;
};

/// Runs `jobs` as workload::Jobs, one MLTCP channel each, on the flow-level
/// backend (flowsim::FlowSimulator) over a stock dumbbell whose 1 Gb/s
/// bottleneck all of them share. The backend allocates the bottleneck in
/// proportion to F(bytes_ratio), the steady state MLTCP's packet-level
/// controller converges to, and advances event by event, so long many-job
/// convergence sweeps stay cheap. `f` null means the paper's linear
/// 1.75r + 0.25; a constant-1 F reproduces fair TCP sharing. `seed` drives
/// the compute-phase noise.
///
/// Runs until every job has completed `iterations` and returns each job's
/// first `iterations` records. Throws std::runtime_error when any job has
/// not completed them by `max_seconds` of simulated time: a truncated run
/// under-counts exactly the slow iterations the callers' statistics care
/// about.
std::vector<std::vector<workload::IterationRecord>> run_periodic_jobs(
    const std::vector<PeriodicJob>& jobs,
    std::shared_ptr<const core::AggressivenessFunction> f,
    std::uint64_t seed, int iterations, double max_seconds);

}  // namespace mltcp::analysis
