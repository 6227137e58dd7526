#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analysis/metrics.hpp"
#include "analysis/periodic_jobs.hpp"
#include "analysis/shift.hpp"
#include "core/aggressiveness.hpp"

namespace mltcp::analysis {
namespace {

ShiftParams half_comm() {
  ShiftParams p;
  p.alpha = 0.5;
  p.period = 1.8;
  return p;
}

// ------------------------------------------------------------------ shift

TEST(ShiftEq3, ZeroAtBothEnds) {
  const ShiftParams p = half_comm();
  EXPECT_DOUBLE_EQ(shift_eq3(0.0, p), 0.0);
  EXPECT_NEAR(shift_eq3(p.alpha * p.period, p), 0.0, 1e-12);
}

TEST(ShiftEq3, MatchesClosedFormAtMidpoint) {
  const ShiftParams p = half_comm();
  const double at = p.alpha * p.period;  // 0.9
  const double d = at / 2.0;
  const double expected =
      p.slope * d * (at - d) / (at * p.intercept + d * p.slope);
  EXPECT_DOUBLE_EQ(shift_eq3(d, p), expected);
  EXPECT_GT(expected, 0.0);
}

TEST(ShiftEq3, PositiveOnOpenInterval) {
  const ShiftParams p = half_comm();
  for (double f = 0.05; f < 1.0; f += 0.05) {
    EXPECT_GT(shift_eq3(f * p.alpha * p.period, p), 0.0) << f;
  }
}

TEST(ShiftExtended, AntisymmetricAroundPeriod) {
  const ShiftParams p = half_comm();
  for (double d = 0.1; d < 0.9; d += 0.1) {
    EXPECT_NEAR(shift(p.period - d, p), -shift(d, p), 1e-12) << d;
  }
}

TEST(ShiftExtended, ZeroInInterleavedBand) {
  ShiftParams p;
  p.alpha = 0.25;  // band is [0.25T, 0.75T]
  p.period = 2.0;
  EXPECT_DOUBLE_EQ(shift(0.6, p), 0.0);
  EXPECT_DOUBLE_EQ(shift(1.0, p), 0.0);
  EXPECT_DOUBLE_EQ(shift(1.4, p), 0.0);
  EXPECT_GT(shift(0.2, p), 0.0);
  EXPECT_LT(shift(1.9, p), 0.0);
}

TEST(ShiftExtended, ReducesModuloPeriod) {
  const ShiftParams p = half_comm();
  EXPECT_DOUBLE_EQ(shift(0.3, p), shift(0.3 + p.period, p));
  EXPECT_DOUBLE_EQ(shift(-0.3, p), shift(p.period - 0.3, p));
}

// ------------------------------------------------------------------- loss

TEST(Loss, ZeroAtOrigin) {
  EXPECT_DOUBLE_EQ(loss(0.0, half_comm()), 0.0);
}

TEST(Loss, StrictlyDecreasingTowardMinimum) {
  const ShiftParams p = half_comm();
  double prev = loss(0.0, p);
  for (double d = 0.09; d <= 0.9; d += 0.09) {
    const double cur = loss(d, p);
    EXPECT_LT(cur, prev) << d;
    prev = cur;
  }
}

TEST(Loss, MinimumAtHalfPeriodForHalfComm) {
  // Figure 5c: for a = 1/2 the unique global minimum is at D = T/2.
  const ShiftParams p = half_comm();
  double best = 1e100;
  double argmin = -1.0;
  for (int i = 0; i <= 360; ++i) {
    const double d = p.period * i / 360.0;
    const double l = loss(d, p);
    if (l < best) {
      best = l;
      argmin = d;
    }
  }
  EXPECT_NEAR(argmin, p.period / 2.0, p.period / 180.0);
}

TEST(Loss, SymmetricEndpoints) {
  // Loss over the full circle integrates the antisymmetric shift to ~0.
  const ShiftParams p = half_comm();
  EXPECT_NEAR(loss(p.period, p), 0.0, 1e-6);
}

TEST(Loss, FlatOnInterleavedBand) {
  ShiftParams p;
  p.alpha = 0.2;
  p.period = 1.0;
  const double l1 = loss(0.3, p);
  const double l2 = loss(0.5, p);
  const double l3 = loss(0.7, p);
  // Tolerance covers Simpson quadrature noise at the band edges.
  EXPECT_NEAR(l1, l2, 1e-6);
  EXPECT_NEAR(l2, l3, 1e-6);
}

// ---------------------------------------------------------------- descent

class DescentFromAnywhere : public ::testing::TestWithParam<double> {};

TEST_P(DescentFromAnywhere, ConvergesToInterleaved) {
  const ShiftParams p = half_comm();
  const auto res = descend(GetParam() * p.period, p, 500, 1e-5);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.trajectory.back(), p.period / 2.0, 0.02);
}

INSTANTIATE_TEST_SUITE_P(StartingOffsets, DescentFromAnywhere,
                         ::testing::Values(0.01, 0.1, 0.25, 0.4, 0.49, 0.51,
                                           0.75, 0.9, 0.99));

TEST(Descent, ConvergesWithinTensOfIterations) {
  // The paper observes interleaving within ~20 iterations.
  const ShiftParams p = half_comm();
  const auto res = descend(0.05 * p.period, p, 100, 1e-3);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 25);
}

TEST(Descent, AlreadyConvergedStaysPut) {
  const ShiftParams p = half_comm();
  const auto res = descend(p.period / 2.0, p, 10, 1e-6);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Descent, ErrorBoundFormula) {
  EXPECT_DOUBLE_EQ(predicted_error_stddev(0.01, 1.75, 0.25),
                   2.0 * 0.01 * (1.0 + 0.25 / 1.75));
  EXPECT_DOUBLE_EQ(predicted_error_stddev(0.0, 1.75, 0.25), 0.0);
  // Larger intercept/slope ratio -> larger steady-state error.
  EXPECT_GT(predicted_error_stddev(0.01, 1.0, 1.0),
            predicted_error_stddev(0.01, 2.0, 0.5));
}

// ------------------------------------------ periodic jobs on the fluid model

PeriodicJob periodic(double comm, double compute, double offset = 0.0,
                     double noise = 0.0) {
  PeriodicJob j;
  j.comm_seconds = comm;
  j.compute_seconds = compute;
  j.start_offset = offset;
  j.noise_stddev = noise;
  return j;
}

std::shared_ptr<const core::AggressivenessFunction> unit_gain() {
  return std::make_shared<core::CustomAggressiveness>(
      [](double) { return 1.0; }, "unit");
}

double seconds(sim::SimTime t) { return sim::to_seconds(t); }

using workload::iteration_seconds;

TEST(PeriodicJobs, LoneJobRunsAtIdealPeriod) {
  const auto runs = run_periodic_jobs({periodic(0.3, 0.9)}, nullptr, 7, 10,
                                      100.0);
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(runs[0].size(), 10u);
  for (const double t : iteration_seconds(runs[0])) EXPECT_NEAR(t, 1.2, 0.002);
}

TEST(PeriodicJobs, AlignedUnitGainJobsStayCongested) {
  const auto runs = run_periodic_jobs(
      {periodic(0.45, 1.35), periodic(0.45, 1.35)}, unit_gain(), 7, 30,
      200.0);
  // Fair sharing preserves the overlap: both jobs stay at comm 0.9 forever.
  EXPECT_NEAR(iteration_seconds(runs[0]).back(), 0.9 + 1.35, 0.01);
  // Fully overlapped comm phases: 0.9 s of excess per 2.25 s iteration.
  const sim::SimTime end = runs[0].back().iter_end;
  EXPECT_NEAR(comm_overlap_seconds(runs, end - sim::seconds(9), end), 3.6,
              0.1);
}

TEST(PeriodicJobs, OverlapAccumulatesUnderContention) {
  const auto runs = run_periodic_jobs(
      {periodic(0.5, 0.5), periodic(0.5, 0.5)}, unit_gain(), 7, 10, 100.0);
  // Fair sharing keeps both comm phases fully overlapped: 1 s of overlap
  // in every 1.5 s iteration.
  EXPECT_GT(comm_overlap_seconds(runs, 0, sim::seconds(10)), 1.0);
}

TEST(PeriodicJobs, TwoMltcpJobsConvergeToIdeal) {
  const auto runs = run_periodic_jobs(
      {periodic(0.45, 1.35), periodic(0.45, 1.35, 0.05)}, nullptr, 7, 40,
      300.0);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(iteration_seconds(runs[j]).back(), 1.8, 0.01) << "job " << j;
  }
}

TEST(PeriodicJobs, StaggeredStartsHonored) {
  const auto runs = run_periodic_jobs(
      {periodic(0.2, 1.0), periodic(0.2, 1.0, 0.5)}, nullptr, 7, 2, 100.0);
  EXPECT_EQ(runs[0][0].comm_start, 0);
  EXPECT_NEAR(seconds(runs[1][0].comm_start), 0.5, 1e-9);
}

TEST(PeriodicJobs, CommSecondsAreTheIsolatedCommDuration) {
  // comm_seconds is defined as the comm duration "when the job has the link
  // to itself", so a lone job's comm phase must last exactly that long
  // whatever its size.
  for (const double comm : {0.05, 0.3, 1.2}) {
    const auto runs =
        run_periodic_jobs({periodic(comm, 0.5)}, nullptr, 7, 3, 100.0);
    for (const auto& r : runs[0]) {
      EXPECT_NEAR(seconds(r.comm_end - r.comm_start), comm, 1e-3)
          << "comm " << comm;
    }
  }
}

TEST(PeriodicJobs, FiveJobsInterleave) {
  std::vector<PeriodicJob> jobs;
  for (int i = 0; i < 5; ++i) jobs.push_back(periodic(0.3, 1.5, 0.01 * i));
  const auto runs = run_periodic_jobs(jobs, nullptr, 7, 120, 500.0);
  sim::SimTime end = runs[0].back().iter_end;
  for (const auto& r : runs) end = std::min(end, r.back().iter_end);
  EXPECT_NEAR(comm_overlap_seconds(runs, end - sim::seconds(20), end), 0.0,
              0.2);
}

TEST(PeriodicJobs, OneIterationMatchesEq3Shift) {
  const ShiftParams p = half_comm();
  const double d0 = 0.2;
  const auto runs = run_periodic_jobs(
      {periodic(0.9, 0.9), periodic(0.9, 0.9, d0)}, nullptr, 7, 2, 50.0);
  const double d1 = seconds(runs[1][1].comm_start - runs[0][1].comm_start);
  // Exact, not approximate: under a linear F the two overlapping flows'
  // weight ratio stays constant, so Eq. 3's frozen-weight shift holds at
  // any weight-refresh grain.
  EXPECT_NEAR(d1 - d0, shift_eq3(d0, p), 1e-6);
}

TEST(PeriodicJobs, HeterogeneousPeriodsRunAtTheirOwnRate) {
  // Interleavable pair with different periods (1.2 s and 1.8 s).
  const auto runs = run_periodic_jobs(
      {periodic(0.3, 0.9), periodic(0.27, 1.53, 0.35)}, nullptr, 7, 60,
      1e4);
  EXPECT_NEAR(tail_mean(iteration_seconds(runs[0]), 10), 1.2, 0.02);
  EXPECT_NEAR(tail_mean(iteration_seconds(runs[1]), 10), 1.8, 0.02);
}

TEST(PeriodicJobs, OverloadedLinkSpreadsShortfallAcrossJobs) {
  // Three jobs each demanding half the link: utilization 1.5, no schedule
  // can reach the ideal; everyone's converged iteration must exceed it.
  const auto runs = run_periodic_jobs(
      {periodic(0.9, 0.9), periodic(0.9, 0.9, 0.2), periodic(0.9, 0.9, 0.4)},
      nullptr, 7, 60, 1e4);
  double mean_all = 0.0;
  for (std::size_t j = 0; j < 3; ++j) {
    const double tail = tail_mean(iteration_seconds(runs[j]), 10);
    EXPECT_GT(tail, 1.9) << j;
    mean_all += tail / 3.0;
  }
  // Shortfall bounded: the link carries one 0.9 s phase at a time (mean
  // >= 2.7 s) and at worst all three overlap (mean <= 2.7 + 0.9 s).
  EXPECT_GE(mean_all, 3.0 * 0.9 - 0.01);
  EXPECT_LE(mean_all, 3.0 * 0.9 + 0.9 + 0.01);
}

std::vector<double> noisy_pair_times(std::uint64_t seed, double noise) {
  return iteration_seconds(run_periodic_jobs(
      {periodic(0.3, 1.5, 0.0, noise), periodic(0.3, 1.5, 0.1, noise)},
      nullptr, seed, 30, 1e4)[0]);
}

TEST(PeriodicJobs, DeterministicAcrossRuns) {
  EXPECT_EQ(noisy_pair_times(1, 0.02), noisy_pair_times(1, 0.02));
}

TEST(PeriodicJobs, SeedChangesNoisyTrajectories) {
  EXPECT_NE(noisy_pair_times(1, 0.02), noisy_pair_times(2, 0.02));
}

TEST(PeriodicJobs, SeedDoesNotChangeNoiselessRuns) {
  EXPECT_EQ(noisy_pair_times(1, 0.0), noisy_pair_times(2, 0.0));
}

TEST(PeriodicJobs, MissedTargetThrows) {
  // Each iteration takes ~1 s; a 2 s budget cannot fit 100 iterations.
  EXPECT_THROW(run_periodic_jobs({periodic(0.5, 0.5)}, nullptr, 7, 100, 2.0),
               std::runtime_error);
  EXPECT_NO_THROW(
      run_periodic_jobs({periodic(0.5, 0.5)}, nullptr, 7, 3, 100.0));
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(stddev({5}), 0.0);
}

TEST(Metrics, PercentileInterpolates) {
  std::vector<double> xs = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20);
  EXPECT_DOUBLE_EQ(percentile(xs, 12.5), 15);
}

TEST(Metrics, JainIndexBounds) {
  EXPECT_DOUBLE_EQ(jain_index({5, 5, 5}), 1.0);
  EXPECT_NEAR(jain_index({1, 0, 0, 0}), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
}

TEST(Metrics, CdfIsMonotone) {
  const auto cdf = make_cdf({3, 1, 2});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1);
  EXPECT_NEAR(cdf[0].cumulative_probability, 1.0 / 3, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].value, 3);
  EXPECT_DOUBLE_EQ(cdf[2].cumulative_probability, 1.0);
}

TEST(Metrics, TailMean) {
  EXPECT_DOUBLE_EQ(tail_mean({1, 2, 3, 4}, 2), 3.5);
  EXPECT_DOUBLE_EQ(tail_mean({1, 2}, 10), 1.5);
  EXPECT_DOUBLE_EQ(tail_mean({}, 3), 0.0);
}

TEST(Metrics, IntervalOverlap) {
  using P = std::pair<sim::SimTime, sim::SimTime>;
  const std::vector<P> disjoint = {{0, sim::seconds(1)},
                                   {sim::seconds(2), sim::seconds(3)}};
  EXPECT_DOUBLE_EQ(interval_overlap_seconds(disjoint, 0, sim::seconds(10)),
                   0.0);

  const std::vector<P> overlapping = {{0, sim::seconds(2)},
                                      {sim::seconds(1), sim::seconds(3)}};
  EXPECT_NEAR(interval_overlap_seconds(overlapping, 0, sim::seconds(10)),
              1.0, 1e-9);
}

TEST(Metrics, CommOverlapOverRecords) {
  auto rec = [](double start, double end) {
    workload::IterationRecord r;
    r.comm_start = sim::from_seconds(start);
    r.comm_end = sim::from_seconds(end);
    r.iter_end = r.comm_end;
    return r;
  };
  // Job 0 communicates over [0,1] and [2,3]; job 1 over [0.5,2.5].
  const std::vector<std::vector<workload::IterationRecord>> runs = {
      {rec(0.0, 1.0), rec(2.0, 3.0)}, {rec(0.5, 2.5)}};
  EXPECT_NEAR(comm_overlap_seconds(runs, 0, sim::seconds(4)), 1.0, 1e-9);
  EXPECT_NEAR(comm_overlap_seconds(runs, sim::from_seconds(2.25), sim::seconds(4)),
              0.25, 1e-9);
  EXPECT_DOUBLE_EQ(comm_overlap_seconds({runs[0]}, 0, sim::seconds(4)), 0.0);
}

TEST(Metrics, IntervalOverlapWindowClips) {
  using P = std::pair<sim::SimTime, sim::SimTime>;
  const std::vector<P> overlapping = {{0, sim::seconds(4)},
                                      {0, sim::seconds(4)}};
  EXPECT_NEAR(interval_overlap_seconds(overlapping, sim::seconds(1),
                                       sim::seconds(2)),
              1.0, 1e-9);
}

}  // namespace
}  // namespace mltcp::analysis
