// Figure 5: the analytical machinery of §4 for two identical jobs.
//  - Eq. 3 shift function Shift(D) over the offset circle,
//  - Eq. 4 loss function Loss(D) = -Int Shift (Figure 5c: for a = 1/2 the
//    loss is minimal at D = T/2, the fully interleaved configuration),
//  - gradient-descent trajectories from several starting offsets,
//  - cross-validation of the analytical descent against the fluid model
//    (flowsim over a dumbbell).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/periodic_jobs.hpp"
#include "analysis/shift.hpp"
#include "sim/time.hpp"

namespace {

using namespace mltcp;

void print_shift_and_loss(const analysis::ShiftParams& p) {
  std::printf("\nD/T,shift_s,loss\n");
  const int n = 40;
  double min_loss = 1e100;
  double argmin = 0.0;
  for (int i = 0; i <= n; ++i) {
    const double d = p.period * i / n;
    const double s = analysis::shift(d, p);
    const double l = analysis::loss(d, p);
    if (l < min_loss) {
      min_loss = l;
      argmin = d;
    }
    std::printf("%.3f,%.5f,%.5f\n", d / p.period, s, l);
  }
  std::printf("loss minimum at D = %.3f s = %.3f T (expected %.3f T for "
              "a=%.2f)\n",
              argmin, argmin / p.period, 0.5, p.alpha);
}

void print_descent(const analysis::ShiftParams& p) {
  std::printf("\ngradient descent trajectories (D_i in seconds):\n");
  for (const double frac : {0.02, 0.10, 0.30, 0.45, 0.70, 0.95}) {
    const auto res = analysis::descend(frac * p.period, p, 200, 1e-4);
    std::printf("D0=%.3f:", frac * p.period);
    for (std::size_t i = 0; i < res.trajectory.size(); i += 2) {
      std::printf(" %.3f", res.trajectory[i]);
    }
    std::printf("  (converged=%s after %d iters)\n",
                res.converged ? "yes" : "no", res.iterations);
  }
}

void cross_validate_with_fluid(const analysis::ShiftParams& p) {
  std::printf("\nanalytic descent vs fluid model (offset after k "
              "iterations, D0 = 0.1 T):\n");
  const double d0 = 0.1 * p.period;

  const auto analytic = analysis::descend(d0, p, 40, 1e-9);

  std::vector<analysis::PeriodicJob> jobs(2);
  const double comm = p.alpha * p.period;
  for (auto& j : jobs) {
    j.comm_seconds = comm;
    j.compute_seconds = p.period - comm;
  }
  jobs[1].start_offset = d0;
  const auto fluid = analysis::run_periodic_jobs(
      jobs,
      std::make_shared<core::LinearAggressiveness>(p.slope, p.intercept),
      7, 30, 1e6);

  std::printf("iter,analytic_D,fluid_D\n");
  double max_gap = 0.0;
  for (int k = 0; k < 30; k += 3) {
    double analytic_d =
        k < static_cast<int>(analytic.trajectory.size())
            ? analytic.trajectory[k]
            : analytic.trajectory.back();
    double fluid_d = std::fmod(
        sim::to_seconds(fluid[1][k].comm_start - fluid[0][k].comm_start),
        p.period);
    if (fluid_d < 0) fluid_d += p.period;
    max_gap = std::max(max_gap, std::fabs(analytic_d - fluid_d));
    std::printf("%d,%.4f,%.4f\n", k, analytic_d, fluid_d);
  }
  std::printf("max |analytic_D - fluid_D| = %.6f s\n", max_gap);
}

}  // namespace

int main() {
  std::printf("Reproduces Figure 5 of MLTCP (HotNets'24): shift (Eq. 3), "
              "loss (Eq. 4)\nand the gradient-descent view of convergence. "
              "Two identical jobs, a=1/2, T=1.8s,\nSlope=1.75, "
              "Intercept=0.25.\n");

  analysis::ShiftParams p;
  p.alpha = 0.5;
  p.period = 1.8;

  print_shift_and_loss(p);
  print_descent(p);
  cross_validate_with_fluid(p);

  std::printf("\nEq. 3 sanity: Shift(0)=%.4f, Shift(aT)=%.4f (both must be "
              "0); peak near the middle.\n",
              analysis::shift_eq3(0.0, p),
              analysis::shift_eq3(p.alpha * p.period, p));
  return 0;
}
