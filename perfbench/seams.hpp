#pragma once

// Timing wrappers the traced run installs at the simulator's public seams:
// congestion control (tcp::CongestionControl, tcp::WindowGain), queueing
// (net::QueueDiscipline via net::QueueFactory) and the flow-level backend
// (workload::Backend / workload::Channel around flowsim::FlowSimulator).
// Each wrapper forwards every call unchanged and charges its duration to a
// Seam; nested seam calls (CC on_ack -> gain) are subtracted from the outer
// call's self time. Nothing here reaches inside src/.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/queue.hpp"
#include "tcp/cong_control.hpp"
#include "workload/backend.hpp"

namespace perfbench {

using namespace mltcp;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Count, total time and self time of one seam, plus a seam-defined work
/// unit (e.g. segments acknowledged). Every instance runs on one thread.
struct Seam {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t units = 0;
};

/// RAII span around one seam call.
class Scope {
 public:
  explicit Scope(Seam& seam);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Seam& seam_;
  std::uint64_t start_;
  std::uint64_t outer_child_ns_;
};

/// Every seam the traced run measures.
struct Seams {
  Seam cc;           ///< CongestionControl on_ack/on_loss/on_timeout/idle.
  Seam cc_timeout;   ///< CongestionControl::on_timeout alone (RTO count).
  Seam gain;         ///< WindowGain on_ack/gain(); units = segments acked.
  Seam queue;        ///< QueueDiscipline enqueue/dequeue/enqueue_dequeue.
  Seam fs_create;    ///< Backend::create_channel.
  Seam fs_post;      ///< Channel::send_message.
  Seam callback;     ///< Message completion callbacks.

};

Seams& seams();

/// Forwards to `inner`, timing on_ack/gain.
class TimedGain : public tcp::WindowGain {
 public:
  explicit TimedGain(std::shared_ptr<tcp::WindowGain> inner)
      : inner_(std::move(inner)) {}

  void on_ack(const tcp::AckContext& ctx) override;
  double gain() const override;
  std::string name() const override { return inner_->name(); }
  void bind_telemetry(sim::Simulator* sim, std::int64_t flow_id) override {
    inner_->bind_telemetry(sim, flow_id);
  }

 private:
  std::shared_ptr<tcp::WindowGain> inner_;
};

/// Forwards to `inner`, timing the event callbacks. `gain` must be the gain
/// `inner` was built with: the sender reaches it through window_gain().
class TimedCC : public tcp::CongestionControl {
 public:
  TimedCC(std::unique_ptr<tcp::CongestionControl> inner,
          std::shared_ptr<tcp::WindowGain> gain)
      : tcp::CongestionControl(std::move(gain)), inner_(std::move(inner)) {}

  void on_ack(const tcp::AckContext& ctx) override;
  void on_loss(sim::SimTime now) override;
  void on_timeout(sim::SimTime now) override;
  void on_idle_restart(sim::SimTime now) override;

  double cwnd() const override { return inner_->cwnd(); }
  double ssthresh() const override { return inner_->ssthresh(); }
  std::string name() const override { return inner_->name(); }
  double pacing_rate() const override { return inner_->pacing_rate(); }
  bool wants_ecn() const override { return inner_->wants_ecn(); }

 private:
  std::unique_ptr<tcp::CongestionControl> inner_;
};

/// Reno with the given gain, wrapped in TimedCC/TimedGain — the traced twin
/// of core::mltcp_reno_factory (gain = MltcpGain) or plain Reno (unit gain).
tcp::CcFactory timed_reno_factory(
    std::function<std::shared_ptr<tcp::WindowGain>()> make_gain);

/// Forwards to the wrapped discipline, timing admission and dequeue.
class TimedQueue : public net::QueueDiscipline {
 public:
  explicit TimedQueue(std::unique_ptr<net::QueueDiscipline> inner)
      : inner_(std::move(inner)) {}

  bool enqueue(const net::Packet& pkt, sim::SimTime now) override;
  std::optional<net::Packet> dequeue(sim::SimTime now) override;
  std::optional<net::Packet> enqueue_dequeue(const net::Packet& pkt,
                                             sim::SimTime now) override;
  bool empty() const override { return inner_->empty(); }
  std::int64_t backlog_bytes() const override {
    return inner_->backlog_bytes();
  }
  std::size_t backlog_packets() const override {
    return inner_->backlog_packets();
  }
  void set_trace_context(sim::Simulator* sim, const char* name,
                         std::uint64_t track) override {
    inner_->set_trace_context(sim, name, track);
  }

  const net::QueueDiscipline& inner() const { return *inner_; }

 private:
  std::unique_ptr<net::QueueDiscipline> inner_;
};

net::QueueFactory timed_queue_factory(net::QueueFactory inner);

/// The queue whose statistics describe `q`: the wrapped discipline when `q`
/// is a TimedQueue, `q` itself otherwise.
const net::QueueDiscipline& unwrap(const net::QueueDiscipline& q);

/// Backend decorator: times channel creation, message posts and completion
/// callbacks of the wrapped backend.
class TimedBackend : public workload::Backend {
 public:
  explicit TimedBackend(workload::Backend& inner) : inner_(inner) {}

  workload::Channel* create_channel(const workload::ChannelSpec& spec)
      override;
  const char* name() const override { return inner_.name(); }

 private:
  workload::Backend& inner_;
  std::vector<std::unique_ptr<workload::Channel>> channels_;
};

}  // namespace perfbench
