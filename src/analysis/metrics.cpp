#include "analysis/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mltcp::analysis {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = std::min(static_cast<std::size_t>(rank), xs.size() - 1);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

std::vector<CdfPoint> make_cdf(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  std::vector<CdfPoint> out;
  out.reserve(xs.size());
  const auto n = static_cast<double>(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out.push_back(CdfPoint{xs[i], static_cast<double>(i + 1) / n});
  }
  return out;
}

FctStats fct_stats(const std::vector<double>& completed_seconds,
                   std::size_t open_count) {
  FctStats s;
  s.completed = completed_seconds.size();
  s.open = open_count;
  if (completed_seconds.empty()) return s;
  s.mean_s = mean(completed_seconds);
  s.min_s = *std::min_element(completed_seconds.begin(),
                              completed_seconds.end());
  s.max_s = *std::max_element(completed_seconds.begin(),
                              completed_seconds.end());
  std::vector<double> sorted = completed_seconds;
  std::sort(sorted.begin(), sorted.end());
  // One sort, four interpolated reads: percentile() would re-sort per call.
  const auto at = [&sorted](double p) {
    const double rank =
        p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = std::min(static_cast<std::size_t>(rank),
                             sorted.size() - 1);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  };
  s.p50_s = at(50.0);
  s.p90_s = at(90.0);
  s.p99_s = at(99.0);
  s.p999_s = at(99.9);
  return s;
}

double interval_overlap_seconds(
    const std::vector<std::pair<sim::SimTime, sim::SimTime>>& intervals,
    sim::SimTime from, sim::SimTime to) {
  struct Event {
    sim::SimTime t;
    int delta;
    bool operator<(const Event& o) const {
      if (t != o.t) return t < o.t;
      return delta < o.delta;
    }
  };
  std::vector<Event> events;
  for (const auto& [start, end] : intervals) {
    const sim::SimTime s = std::max(start, from);
    const sim::SimTime e = std::min(end, to);
    if (s < e) {
      events.push_back({s, +1});
      events.push_back({e, -1});
    }
  }
  std::sort(events.begin(), events.end());
  double excess = 0.0;
  int active = 0;
  sim::SimTime prev = from;
  for (const auto& ev : events) {
    if (active > 1) {
      excess += static_cast<double>(active - 1) * sim::to_seconds(ev.t - prev);
    }
    active += ev.delta;
    prev = ev.t;
  }
  return excess;
}

double comm_overlap_seconds(
    const std::vector<std::vector<workload::IterationRecord>>& records,
    sim::SimTime from, sim::SimTime to) {
  std::vector<std::pair<sim::SimTime, sim::SimTime>> intervals;
  for (const auto& job : records) {
    for (const auto& rec : job) {
      intervals.emplace_back(rec.comm_start, rec.comm_end);
    }
  }
  return interval_overlap_seconds(intervals, from, to);
}

double comm_overlap_seconds(const std::vector<const workload::Job*>& jobs,
                            sim::SimTime from, sim::SimTime to) {
  std::vector<std::vector<workload::IterationRecord>> records;
  for (const workload::Job* job : jobs) records.push_back(job->iterations());
  return comm_overlap_seconds(records, from, to);
}

double tail_mean(const std::vector<double>& xs, std::size_t window) {
  if (xs.empty()) return 0.0;
  const std::size_t n = std::min(window, xs.size());
  double s = 0.0;
  for (std::size_t i = xs.size() - n; i < xs.size(); ++i) s += xs[i];
  return s / static_cast<double>(n);
}

}  // namespace mltcp::analysis
