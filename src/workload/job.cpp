#include "workload/job.hpp"

#include <algorithm>
#include <cassert>

#include "telemetry/tracer.hpp"

namespace mltcp::workload {

Job::Job(sim::Simulator& simulator, JobConfig cfg,
         std::vector<FlowBinding> flows, sim::Rng rng)
    : sim_(simulator), cfg_(std::move(cfg)), flows_(std::move(flows)),
      rng_(rng),
      track_(telemetry::track_job(simulator.allocate_trace_ordinal())) {
  assert(!flows_.empty());
  for ([[maybe_unused]] const auto& b : flows_) {
    assert(b.flow != nullptr && b.bytes_per_iteration > 0);
  }
}

void Job::start() {
  assert(!running_);
  running_ = true;
  sim_.schedule_at(cfg_.start_time, [this] { begin_iteration(); });
}

void Job::stop() {
  running_ = false;
}

void Job::inject_straggler(int iterations, sim::SimTime extra_compute) {
  assert(iterations >= 0 && extra_compute >= 0);
  straggler_iters_ = iterations;
  straggler_extra_ = extra_compute;
}

void Job::begin_iteration() {
  if (!running_) return;  // Stopped between scheduling and firing.
  comm_start_ = sim_.now();
  current_chunk_ = 0;
  if (auto* t = telemetry::tracer_for(sim_, telemetry::Category::kJob)) {
    t->begin(telemetry::Category::kJob, "comm", sim_.now(), track_);
  }
  send_current_chunk();
}

void Job::send_current_chunk() {
  if (!running_) return;
  const int chunks = std::max(cfg_.comm_chunks, 1);
  flows_pending_ = static_cast<int>(flows_.size());
  for (auto& binding : flows_) {
    std::int64_t bytes = binding.bytes_per_iteration / chunks;
    if (current_chunk_ == chunks - 1) {
      bytes = binding.bytes_per_iteration - bytes * (chunks - 1);
    }
    binding.flow->send_message(
        bytes, [this](sim::SimTime when) { on_flow_complete(when); });
  }
}

void Job::on_flow_complete(sim::SimTime when) {
  if (!running_) return;  // Late completion of a stopped job's bytes.
  assert(flows_pending_ > 0);
  if (--flows_pending_ > 0) return;

  const int chunks = std::max(cfg_.comm_chunks, 1);
  if (current_chunk_ + 1 < chunks) {
    ++current_chunk_;
    sim_.schedule(cfg_.chunk_gap, [this] { send_current_chunk(); });
    return;
  }
  comm_end_ = when;
  if (auto* t = telemetry::tracer_for(sim_, telemetry::Category::kJob)) {
    t->end(telemetry::Category::kJob, "comm", sim_.now(), track_);
    t->begin(telemetry::Category::kJob, "compute", sim_.now(), track_);
  }

  // Compute phase with the paper's Gaussian perturbation model.
  sim::SimTime compute = cfg_.compute_time;
  if (cfg_.noise_stddev_seconds > 0.0) {
    compute += sim::from_seconds(
        rng_.normal(0.0, cfg_.noise_stddev_seconds));
  }
  if (straggler_iters_ > 0) {
    compute += straggler_extra_;
    --straggler_iters_;
  }
  compute = std::max<sim::SimTime>(compute, 0);
  sim_.schedule(compute, [this] { on_compute_done(); });
}

void Job::on_compute_done() {
  if (!running_) return;
  records_.push_back(IterationRecord{current_iteration_, comm_start_,
                                     comm_end_, sim_.now()});
  if (auto* t = telemetry::tracer_for(sim_, telemetry::Category::kJob)) {
    t->end(telemetry::Category::kJob, "compute", sim_.now(), track_);
    t->instant(telemetry::Category::kJob, "iteration", sim_.now(), track_,
               "index", static_cast<double>(current_iteration_), "iter_s",
               sim::to_seconds(sim_.now() - comm_start_));
  }
  ++current_iteration_;
  if (cfg_.max_iterations > 0 && current_iteration_ >= cfg_.max_iterations) {
    running_ = false;
    return;
  }
  if (cfg_.gate_period > 0) {
    const sim::SimTime slot =
        cfg_.start_time + cfg_.gate_period * current_iteration_;
    if (slot > sim_.now()) {
      sim_.schedule_at(slot, [this] { begin_iteration(); });
      return;
    }
  }
  begin_iteration();
}

std::vector<double> iteration_seconds(
    const std::vector<IterationRecord>& records) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto& r : records) {
    out.push_back(sim::to_seconds(r.iter_end - r.comm_start));
  }
  return out;
}

std::vector<double> Job::iteration_times_seconds() const {
  return iteration_seconds(records_);
}

std::vector<double> Job::comm_times_seconds() const {
  std::vector<double> out;
  out.reserve(records_.size());
  for (const auto& r : records_) {
    out.push_back(sim::to_seconds(r.comm_end - r.comm_start));
  }
  return out;
}

std::int64_t Job::bytes_per_iteration() const {
  std::int64_t total = 0;
  for (const auto& b : flows_) total += b.bytes_per_iteration;
  return total;
}

}  // namespace mltcp::workload
