// §4 claim: with zero-mean Gaussian noise of std sigma in each job's
// iteration time, MLTCP's convergence error is normally distributed with
// standard deviation <= 2*sigma*(1 + Intercept/Slope).
//
// We run the two-job fluid model to steady state for a sweep of sigma and
// compare the measured std of the offset (around T/2, a = 1/2) against the
// closed-form bound, and also validate the bound on the discrete
// gradient-descent recursion directly. Exits 1 when any measured std
// exceeds the bound; simulated time and fixed seeds make that verdict
// host-independent.

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/metrics.hpp"
#include "analysis/periodic_jobs.hpp"
#include "analysis/shift.hpp"
#include "bench_common.hpp"
#include "sim/random.hpp"

namespace {

using namespace mltcp;

/// Measured steady-state offset deviation from the fluid model.
double fluid_error_std(double sigma, const analysis::ShiftParams& p,
                       std::uint64_t seed) {
  const double comm = p.alpha * p.period;
  std::vector<analysis::PeriodicJob> jobs(2);
  for (auto& j : jobs) {
    j.comm_seconds = comm;
    j.compute_seconds = p.period - comm;
    j.noise_stddev = sigma;
  }
  jobs[1].start_offset = 0.25 * p.period;
  const auto fluid = analysis::run_periodic_jobs(
      jobs,
      std::make_shared<core::LinearAggressiveness>(p.slope, p.intercept),
      seed, 400, 1e5);

  std::vector<double> errors;
  for (std::size_t i = 100; i < fluid[0].size(); ++i) {  // skip transient
    double off = std::fmod(
        sim::to_seconds(fluid[1][i].comm_start - fluid[0][i].comm_start),
        p.period);
    if (off < 0) off += p.period;
    errors.push_back(off - p.period / 2.0);
  }
  return analysis::stddev(errors);
}

/// The same measurement on the §4 recursion itself:
/// D_{i+1} = D_i + Shift(D_i) + (n1 - n0), n ~ N(0, sigma).
double recursion_error_std(double sigma, const analysis::ShiftParams& p,
                           std::uint64_t seed) {
  sim::Rng rng(seed);
  double d = 0.25 * p.period;
  std::vector<double> errors;
  for (int i = 0; i < 4000; ++i) {
    d += analysis::shift(d, p) + rng.normal(0.0, sigma) -
         rng.normal(0.0, sigma);
    d = std::fmod(d, p.period);
    if (d < 0) d += p.period;
    if (i >= 200) errors.push_back(d - p.period / 2.0);
  }
  return analysis::stddev(errors);
}

}  // namespace

int main() {
  std::printf("Validates the §4 approximation-error bound of MLTCP "
              "(HotNets'24):\nerror std <= 2*sigma*(1 + Intercept/Slope) "
              "= %.3f * sigma for Slope=1.75, Intercept=0.25.\n",
              2.0 * (1.0 + 0.25 / 1.75));

  analysis::ShiftParams p;
  p.alpha = 0.5;
  p.period = 1.8;

  // Each sigma is an independent 400-iteration fluid run plus a 4000-step
  // recursion: shard the sweep across threads, print rows in sweep order.
  struct Row {
    double bound;
    double fluid;
    double recursion;
  };
  const std::vector<double> sigmas = {0.002, 0.005, 0.01, 0.02, 0.04};
  const std::vector<Row> rows = runner::run_campaign<double, Row>(
      sigmas,
      [&p](const double sigma, std::size_t) {
        return Row{
            analysis::predicted_error_stddev(sigma, p.slope, p.intercept),
            fluid_error_std(sigma, p, 1234),
            recursion_error_std(sigma, p, 77)};
      },
      mltcp::bench::campaign_options());

  std::printf("\nsigma_s,predicted_bound_s,fluid_measured_s,"
              "recursion_measured_s\n");
  bool within = true;
  for (std::size_t i = 0; i < sigmas.size(); ++i) {
    const Row& r = rows[i];
    const bool ok = r.fluid <= r.bound && r.recursion <= r.bound;
    within = within && ok;
    std::printf("%.3f,%.4f,%.4f,%.4f%s\n", sigmas[i], r.bound, r.fluid,
                r.recursion, ok ? "" : "  <-- exceeds bound");
  }

  std::printf("\nExpected shape: measured error grows linearly with sigma "
              "and stays at or below the bound.\n");
  if (!within) {
    std::fprintf(stderr, "FAIL: a measured error std exceeds the §4 bound\n");
    return 1;
  }
  return 0;
}
