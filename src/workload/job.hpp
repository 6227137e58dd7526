#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "workload/backend.hpp"

namespace mltcp::workload {

/// One training iteration as observed by the job: when its communication
/// phase started/ended and when the following compute phase ended (== the
/// start of the next iteration's communication).
struct IterationRecord {
  int index = 0;
  sim::SimTime comm_start = 0;
  sim::SimTime comm_end = 0;
  sim::SimTime iter_end = 0;
};

/// Iteration durations in seconds (start-of-comm to start-of-next-comm).
std::vector<double> iteration_seconds(
    const std::vector<IterationRecord>& records);

struct JobConfig {
  std::string name;
  /// Compute-phase duration separating communication phases. The next
  /// iteration's communication starts `compute_time` (plus noise) after the
  /// previous communication completes — the dependency that distinguishes
  /// DNN traffic from classical periodic traffic (§2).
  sim::SimTime compute_time = 0;
  /// Standard deviation of zero-mean Gaussian noise added to each compute
  /// phase (§4's perturbation model). Negative draws are clamped at zero
  /// total compute time.
  double noise_stddev_seconds = 0.0;
  /// When the first communication phase begins.
  sim::SimTime start_time = 0;
  /// Stop after this many iterations; 0 = run until the simulation ends.
  int max_iterations = 0;
  /// Centralized-schedule enforcement (Cassini-style): when > 0, iteration
  /// k's communication phase is gated to start no earlier than
  /// start_time + k * gate_period, pinning the job to its assigned slot on
  /// the schedule circle. 0 disables gating (distributed operation).
  sim::SimTime gate_period = 0;
  /// Pipeline-parallel / microbatched communication: the iteration's bytes
  /// are sent as `comm_chunks` back-to-back transfers separated by
  /// `chunk_gap` of compute. 1 = the paper's single continuous phase (§4's
  /// network-demand assumption); larger values exercise MLTCP beyond it.
  int comm_chunks = 1;
  sim::SimTime chunk_gap = 0;
};

/// A distributed DNN training/fine-tuning job: a strictly periodic
/// alternation of a communication phase (a fixed number of bytes on each of
/// its flows) and a compute phase, with the next communication gated on the
/// completion of the previous one.
class Job {
 public:
  /// One of the job's transfers: a backend-neutral channel (see
  /// workload/backend.hpp) plus the bytes it moves each iteration.
  struct FlowBinding {
    Channel* flow = nullptr;
    std::int64_t bytes_per_iteration = 0;
  };

  Job(sim::Simulator& simulator, JobConfig cfg,
      std::vector<FlowBinding> flows, sim::Rng rng);

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// Schedules the first communication phase at cfg.start_time.
  void start();

  /// Halts the job (departure / preemption). Already-scheduled phase
  /// callbacks and in-flight message completions become no-ops; bytes
  /// already handed to the flows drain normally but complete no further
  /// iteration. Completed-iteration records stay valid. Idempotent.
  void stop();

  /// Straggler injection: the next `iterations` compute phases each take
  /// `extra_compute` longer (on top of configured noise) — one slow worker
  /// stalling the synchronous barrier. Replaces any previous injection.
  void inject_straggler(int iterations, sim::SimTime extra_compute);

  const std::string& name() const { return cfg_.name; }
  const JobConfig& config() const { return cfg_; }
  const std::vector<FlowBinding>& flows() const { return flows_; }

  /// Completed iterations (communication + compute both finished).
  const std::vector<IterationRecord>& iterations() const { return records_; }
  int completed_iterations() const {
    return static_cast<int>(records_.size());
  }

  /// Iteration durations in seconds (start-of-comm to start-of-next-comm).
  std::vector<double> iteration_times_seconds() const;

  /// Communication-phase durations in seconds.
  std::vector<double> comm_times_seconds() const;

  /// Total bytes this job moves per iteration, summed over flows.
  std::int64_t bytes_per_iteration() const;

  bool running() const { return running_; }

  /// Telemetry track id (track_job namespace) for this job's phase slices.
  std::uint64_t trace_track() const { return track_; }

 private:
  void begin_iteration();
  void send_current_chunk();
  void on_flow_complete(sim::SimTime when);
  void on_compute_done();

  sim::Simulator& sim_;
  JobConfig cfg_;
  std::vector<FlowBinding> flows_;
  sim::Rng rng_;
  std::uint64_t track_;

  bool running_ = false;
  int straggler_iters_ = 0;
  sim::SimTime straggler_extra_ = 0;
  int current_iteration_ = 0;
  int current_chunk_ = 0;
  int flows_pending_ = 0;
  sim::SimTime comm_start_ = 0;
  sim::SimTime comm_end_ = 0;
  std::vector<IterationRecord> records_;
};

}  // namespace mltcp::workload
