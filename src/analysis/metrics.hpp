#pragma once

#include <cstddef>
#include <vector>

#include "sim/time.hpp"
#include "workload/job.hpp"

namespace mltcp::analysis {

/// Arithmetic mean; 0 for an empty input.
double mean(const std::vector<double>& xs);

/// Sample standard deviation (n-1 denominator); 0 when fewer than 2 points.
double stddev(const std::vector<double>& xs);

/// Linear-interpolated percentile. `p` is clamped to [0, 100] (p999 callers
/// pass 99.9; a caller slip like 999 must not index out of range). Returns 0
/// for an empty input and the sample itself for a single-sample input —
/// tail statistics of a filtered set must not crash when the filter leaves
/// nothing.
double percentile(std::vector<double> xs, double p);

/// Jain's fairness index: (sum x)^2 / (n * sum x^2); 1 = perfectly fair.
double jain_index(const std::vector<double>& xs);

struct CdfPoint {
  double value = 0.0;
  double cumulative_probability = 0.0;
};

/// Empirical CDF (sorted values with their cumulative probability).
std::vector<CdfPoint> make_cdf(std::vector<double> xs);

/// Flow-completion-time distribution summary for one traffic pattern.
/// `completed` counts only flows that finished inside the run; flows still
/// open when the run ended are tallied in `open` and excluded from every
/// quantile — silently folding them in (with their truncated "duration so
/// far") skews exactly the p99/p999 tails these tables exist to report.
struct FctStats {
  std::size_t completed = 0;
  std::size_t open = 0;  ///< Flows still in flight at run end.
  double mean_s = 0.0;
  double min_s = 0.0;
  double p50_s = 0.0;
  double p90_s = 0.0;
  double p99_s = 0.0;
  double p999_s = 0.0;
  double max_s = 0.0;
};

/// Summarizes completed FCTs (seconds). `open_count` is carried through for
/// reporting; the quantiles are computed over `completed_seconds` only.
/// All-zero stats for an empty input.
FctStats fct_stats(const std::vector<double>& completed_seconds,
                   std::size_t open_count = 0);

/// Time-weighted excess concurrency of half-open intervals inside [from,
/// to): the integral of max(0, concurrent_intervals - 1), in seconds. Zero
/// means no two intervals ever overlap within the window.
double interval_overlap_seconds(
    const std::vector<std::pair<sim::SimTime, sim::SimTime>>& intervals,
    sim::SimTime from, sim::SimTime to);

/// interval_overlap_seconds applied to the jobs' communication phases.
/// Zero means the window was fully interleaved.
double comm_overlap_seconds(const std::vector<const workload::Job*>& jobs,
                            sim::SimTime from, sim::SimTime to);

/// The same over per-job iteration records (run_periodic_jobs output).
double comm_overlap_seconds(
    const std::vector<std::vector<workload::IterationRecord>>& records,
    sim::SimTime from, sim::SimTime to);

/// Mean of the last `window` entries (or all of them when fewer exist);
/// the standard way the experiments report "converged" iteration times.
double tail_mean(const std::vector<double>& xs, std::size_t window);

}  // namespace mltcp::analysis
