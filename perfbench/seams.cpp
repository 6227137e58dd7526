#include "seams.hpp"

#include "tcp/reno.hpp"

namespace perfbench {

namespace {

/// Time spent in seam calls nested inside the innermost open Scope.
std::uint64_t child_ns = 0;

}  // namespace

Scope::Scope(Seam& seam)
    : seam_(seam), start_(now_ns()), outer_child_ns_(child_ns) {
  child_ns = 0;
}

Scope::~Scope() {
  const std::uint64_t d = now_ns() - start_;
  ++seam_.calls;
  seam_.total_ns += d;
  seam_.self_ns += d > child_ns ? d - child_ns : 0;
  child_ns = outer_child_ns_ + d;
}

Seams& seams() {
  static Seams instance;
  return instance;
}

// ------------------------------------------------------------------ tcp/core

void TimedGain::on_ack(const tcp::AckContext& ctx) {
  Scope scope(seams().gain);
  seams().gain.units += static_cast<std::uint64_t>(ctx.num_acked);
  inner_->on_ack(ctx);
}

double TimedGain::gain() const {
  Scope scope(seams().gain);
  return inner_->gain();
}

void TimedCC::on_ack(const tcp::AckContext& ctx) {
  Scope scope(seams().cc);
  inner_->on_ack(ctx);
}

void TimedCC::on_loss(sim::SimTime now) {
  Scope scope(seams().cc);
  inner_->on_loss(now);
}

void TimedCC::on_timeout(sim::SimTime now) {
  Scope scope(seams().cc);
  ++seams().cc_timeout.calls;
  inner_->on_timeout(now);
}

void TimedCC::on_idle_restart(sim::SimTime now) {
  Scope scope(seams().cc);
  inner_->on_idle_restart(now);
}

tcp::CcFactory timed_reno_factory(
    std::function<std::shared_ptr<tcp::WindowGain>()> make_gain) {
  return [make_gain = std::move(make_gain)]()
             -> std::unique_ptr<tcp::CongestionControl> {
    auto gain = std::make_shared<TimedGain>(make_gain());
    return std::make_unique<TimedCC>(
        std::make_unique<tcp::RenoCC>(tcp::RenoConfig{}, gain), gain);
  };
}

// ----------------------------------------------------------------------- net

bool TimedQueue::enqueue(const net::Packet& pkt, sim::SimTime now) {
  Scope scope(seams().queue);
  return inner_->enqueue(pkt, now);
}

std::optional<net::Packet> TimedQueue::dequeue(sim::SimTime now) {
  Scope scope(seams().queue);
  return inner_->dequeue(now);
}

std::optional<net::Packet> TimedQueue::enqueue_dequeue(
    const net::Packet& pkt, sim::SimTime now) {
  Scope scope(seams().queue);
  return inner_->enqueue_dequeue(pkt, now);
}

net::QueueFactory timed_queue_factory(net::QueueFactory inner) {
  return [inner = std::move(inner)]()
             -> std::unique_ptr<net::QueueDiscipline> {
    return std::make_unique<TimedQueue>(inner());
  };
}

const net::QueueDiscipline& unwrap(const net::QueueDiscipline& q) {
  if (const auto* t = dynamic_cast<const TimedQueue*>(&q)) return t->inner();
  return q;
}

// ------------------------------------------------------------------- flowsim

namespace {

class TimedChannel : public workload::Channel {
 public:
  explicit TimedChannel(workload::Channel* inner) : inner_(inner) {}

  void send_message(std::int64_t bytes, Completion on_complete) override {
    Scope scope(seams().fs_post);
    inner_->send_message(bytes, [cb = std::move(on_complete)](
                                    sim::SimTime when) {
      Scope callback_scope(seams().callback);
      cb(when);
    });
  }
  net::FlowId id() const override { return inner_->id(); }
  tcp::TcpFlow* tcp() override { return inner_->tcp(); }

 private:
  workload::Channel* inner_;
};

}  // namespace

workload::Channel* TimedBackend::create_channel(
    const workload::ChannelSpec& spec) {
  Scope scope(seams().fs_create);
  channels_.push_back(
      std::make_unique<TimedChannel>(inner_.create_channel(spec)));
  return channels_.back().get();
}

}  // namespace perfbench
