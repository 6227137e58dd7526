#include "net/queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "sim/random.hpp"
#include "telemetry/tracer.hpp"

namespace mltcp::net {

namespace {
void note_backlog(QueueStats& stats, std::int64_t backlog) {
  stats.max_backlog_bytes = std::max(stats.max_backlog_bytes, backlog);
}
}  // namespace

void PacketRing::grow() {
  const std::size_t old_cap = buf_.size();
  const std::size_t new_cap = old_cap == 0 ? 8 : old_cap * 2;
  std::vector<Packet> next(new_cap);
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) next[i] = buf_[(head_ + i) & mask_];
  buf_ = std::move(next);
  mask_ = new_cap - 1;
  head_ = 0;
  tail_ = n;
}

void QueueDiscipline::trace_drop(const Packet& pkt, sim::SimTime now) {
  if (trace_sim_ == nullptr) return;
  if (auto* t = telemetry::tracer_for(*trace_sim_,
                                      telemetry::Category::kQueue)) {
    t->instant(telemetry::Category::kQueue, "drop", now, trace_track_, "flow",
               static_cast<double>(pkt.flow), "bytes",
               static_cast<double>(pkt.size_bytes));
  }
}

void QueueDiscipline::trace_mark(const Packet& pkt, sim::SimTime now) {
  if (trace_sim_ == nullptr) return;
  if (auto* t = telemetry::tracer_for(*trace_sim_,
                                      telemetry::Category::kQueue)) {
    t->instant(telemetry::Category::kQueue, "ecn_mark", now, trace_track_,
               "flow", static_cast<double>(pkt.flow), "backlog",
               static_cast<double>(backlog_bytes()));
  }
}

// ---------------------------------------------------------------- DropTail

DropTailQueue::DropTailQueue(std::int64_t capacity_bytes)
    : capacity_(capacity_bytes) {
  assert(capacity_bytes > 0);
}

bool DropTailQueue::enqueue(const Packet& pkt, sim::SimTime now) {
  if (backlog_ + pkt.size_bytes > capacity_) {
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return false;
  }
  backlog_ += pkt.size_bytes;
  q_.push_back(pkt);
  ++stats_.enqueued_packets;
  note_backlog(stats_, backlog_);
  return true;
}

std::optional<Packet> DropTailQueue::dequeue(sim::SimTime /*now*/) {
  if (q_.empty()) return std::nullopt;
  Packet pkt = q_.front();
  q_.pop_front();
  backlog_ -= pkt.size_bytes;
  return pkt;
}

std::optional<Packet> DropTailQueue::enqueue_dequeue(const Packet& pkt,
                                                     sim::SimTime now) {
  if (!q_.empty()) {
    if (!enqueue(pkt, now)) return std::nullopt;
    return dequeue(now);
  }
  // Empty queue (backlog 0): admission reduces to a size check and the
  // dequeued packet is the arrival itself — skip the ring round-trip.
  if (pkt.size_bytes > capacity_) {
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return std::nullopt;
  }
  ++stats_.enqueued_packets;
  note_backlog(stats_, pkt.size_bytes);
  return pkt;
}

// ------------------------------------------------------------ EcnThreshold

EcnThresholdQueue::EcnThresholdQueue(std::int64_t capacity_bytes,
                                     std::int64_t mark_threshold_bytes)
    : capacity_(capacity_bytes), mark_threshold_(mark_threshold_bytes) {
  assert(capacity_bytes > 0);
  assert(mark_threshold_bytes > 0 && mark_threshold_bytes <= capacity_bytes);
}

bool EcnThresholdQueue::enqueue(const Packet& pkt, sim::SimTime now) {
  if (backlog_ + pkt.size_bytes > capacity_) {
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return false;
  }
  Packet& stored = q_.push_back(pkt);
  // DCTCP marks based on the instantaneous queue occupancy seen on arrival.
  if (pkt.ecn_capable && backlog_ >= mark_threshold_) {
    stored.ce = true;
    ++stats_.marked_packets;
    trace_mark(stored, now);
  }
  backlog_ += pkt.size_bytes;
  ++stats_.enqueued_packets;
  note_backlog(stats_, backlog_);
  return true;
}

std::optional<Packet> EcnThresholdQueue::dequeue(sim::SimTime /*now*/) {
  if (q_.empty()) return std::nullopt;
  Packet pkt = q_.front();
  q_.pop_front();
  backlog_ -= pkt.size_bytes;
  return pkt;
}

std::optional<Packet> EcnThresholdQueue::enqueue_dequeue(const Packet& pkt,
                                                         sim::SimTime now) {
  if (!q_.empty()) {
    if (!enqueue(pkt, now)) return std::nullopt;
    return dequeue(now);
  }
  // Empty queue: backlog 0 is always below the (positive) mark threshold,
  // so no CE mark; admission reduces to a size check.
  if (pkt.size_bytes > capacity_) {
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return std::nullopt;
  }
  ++stats_.enqueued_packets;
  note_backlog(stats_, pkt.size_bytes);
  return pkt;
}

// --------------------------------------------------------- PfabricPriority
//
// Min-max heap layout (0-based array): even levels (root = level 0) are min
// levels, odd levels max levels. A min-level node is <= all its descendants,
// a max-level node >= all its descendants, so the minimum sits at index 0
// and the maximum at index 1 or 2.

namespace {
/// Level parity of index i: true on min (even) levels. Level of i is
/// floor(log2(i + 1)); bit_width(i + 1) is level + 1.
bool on_min_level(std::size_t i) {
  return (std::bit_width(i + 1) & 1u) != 0;
}
}  // namespace

PfabricPriorityQueue::PfabricPriorityQueue(std::int64_t capacity_bytes)
    : capacity_(capacity_bytes) {
  assert(capacity_bytes > 0);
}

template <bool kMin>
void PfabricPriorityQueue::bubble_up(std::size_t i) {
  while (i > 2) {  // Grandparent exists iff i >= 3.
    const std::size_t gp = ((i - 1) / 2 - 1) / 2;
    const bool better = kMin ? key_less(heap_[i], heap_[gp])
                             : key_less(heap_[gp], heap_[i]);
    if (!better) break;
    std::swap(heap_[i], heap_[gp]);
    i = gp;
  }
}

template <bool kMin>
void PfabricPriorityQueue::trickle_down(std::size_t i) {
  const std::size_t n = heap_.size();
  auto better = [this](std::size_t a, std::size_t b) {
    return kMin ? key_less(heap_[a], heap_[b]) : key_less(heap_[b], heap_[a]);
  };
  while (2 * i + 1 < n) {
    // The extreme among children and grandchildren of i.
    std::size_t m = 2 * i + 1;
    const std::size_t candidates[] = {2 * i + 2, 4 * i + 3, 4 * i + 4,
                                      4 * i + 5, 4 * i + 6};
    for (const std::size_t c : candidates) {
      if (c < n && better(c, m)) m = c;
    }
    if (m > 2 * i + 2) {  // Grandchild: may need one more level of repair.
      if (!better(m, i)) return;
      std::swap(heap_[m], heap_[i]);
      const std::size_t parent = (m - 1) / 2;
      // The displaced element may violate the opposite-parity parent.
      const bool wrong = kMin ? key_less(heap_[parent], heap_[m])
                              : key_less(heap_[m], heap_[parent]);
      if (wrong) std::swap(heap_[m], heap_[parent]);
      i = m;
    } else {  // Direct child: a single swap finishes the repair.
      if (better(m, i)) std::swap(heap_[m], heap_[i]);
      return;
    }
  }
}

void PfabricPriorityQueue::push_key(Key k) {
  heap_.push_back(k);
  const std::size_t i = heap_.size() - 1;
  if (i == 0) return;
  const std::size_t parent = (i - 1) / 2;
  if (on_min_level(i)) {
    if (key_less(heap_[parent], heap_[i])) {
      std::swap(heap_[i], heap_[parent]);
      bubble_up<false>(parent);
    } else {
      bubble_up<true>(i);
    }
  } else {
    if (key_less(heap_[i], heap_[parent])) {
      std::swap(heap_[i], heap_[parent]);
      bubble_up<true>(parent);
    } else {
      bubble_up<false>(i);
    }
  }
}

std::size_t PfabricPriorityQueue::max_index() const {
  if (heap_.size() <= 2) return heap_.size() - 1;
  return key_less(heap_[1], heap_[2]) ? 2 : 1;
}

PfabricPriorityQueue::Key PfabricPriorityQueue::take_at(std::size_t i) {
  const Key out = heap_[i];
  const Key last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    heap_[i] = last;
    // For the two removal sites (min at 0, max at 1/2) the replacement can
    // only violate invariants downward: the root has no parent, and a
    // max-level node at 1/2 is bounded below by the root, which is <= every
    // element by definition. So a trickle-down fully restores the heap.
    if (on_min_level(i)) {
      trickle_down<true>(i);
    } else {
      trickle_down<false>(i);
    }
  }
  return out;
}

bool PfabricPriorityQueue::enqueue(const Packet& pkt, sim::SimTime now) {
  while (backlog_ + pkt.size_bytes > capacity_ && !heap_.empty()) {
    // Evict the lowest-priority resident (largest remaining bytes) — but only
    // if the arrival beats it; otherwise drop the arrival.
    const std::size_t wi = max_index();
    const Packet& worst = store_[heap_[wi].slot];
    if (worst.priority <= pkt.priority) {
      ++stats_.dropped_packets;
      trace_drop(pkt, now);
      return false;
    }
    backlog_ -= worst.size_bytes;
    ++stats_.dropped_packets;
    trace_drop(worst, now);
    free_slots_.push_back(heap_[wi].slot);
    take_at(wi);
  }
  if (backlog_ + pkt.size_bytes > capacity_) {
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return false;
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(store_.size());
    store_.emplace_back();
  }
  store_[slot] = pkt;
  backlog_ += pkt.size_bytes;
  push_key(Key{pkt.priority, arrivals_++, slot});
  ++stats_.enqueued_packets;
  note_backlog(stats_, backlog_);
  return true;
}

std::optional<Packet> PfabricPriorityQueue::dequeue(sim::SimTime /*now*/) {
  if (heap_.empty()) return std::nullopt;
  const Key best = take_at(0);
  const Packet pkt = store_[best.slot];
  free_slots_.push_back(best.slot);
  backlog_ -= pkt.size_bytes;
  return pkt;
}

std::optional<Packet> PfabricPriorityQueue::enqueue_dequeue(
    const Packet& pkt, sim::SimTime now) {
  if (!heap_.empty()) {
    if (!enqueue(pkt, now)) return std::nullopt;
    return dequeue(now);
  }
  if (pkt.size_bytes > capacity_) {
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return std::nullopt;
  }
  ++arrivals_;  // The insert would have consumed one arrival number.
  ++stats_.enqueued_packets;
  note_backlog(stats_, pkt.size_bytes);
  return pkt;
}

// -------------------------------------------------------------------- DRR

DrrQueue::DrrQueue(std::int64_t capacity_bytes, std::int64_t quantum_bytes)
    : capacity_(capacity_bytes), quantum_(quantum_bytes) {
  assert(capacity_bytes > 0 && quantum_bytes > 0);
}

bool DrrQueue::enqueue(const Packet& pkt, sim::SimTime now) {
  if (backlog_ + pkt.size_bytes > capacity_) {
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return false;
  }
  auto [it, inserted] = flows_.try_emplace(pkt.flow);
  if (it->second.q.empty()) {
    it->second.deficit = 0;
    round_.push_back(pkt.flow);
  }
  it->second.q.push_back(pkt);
  backlog_ += pkt.size_bytes;
  ++stats_.enqueued_packets;
  stats_.max_backlog_bytes = std::max(stats_.max_backlog_bytes, backlog_);
  return true;
}

std::optional<Packet> DrrQueue::dequeue(sim::SimTime /*now*/) {
  while (!round_.empty()) {
    const FlowId id = round_.front();
    auto it = flows_.find(id);
    if (it == flows_.end() || it->second.q.empty()) {
      round_.pop_front();
      continue;
    }
    FlowState& flow = it->second;
    if (flow.deficit < flow.q.front().size_bytes) {
      // Not enough credit: move to the back of the round with a new quantum.
      flow.deficit += quantum_;
      round_.pop_front();
      round_.push_back(id);
      continue;
    }
    Packet pkt = flow.q.front();
    flow.q.pop_front();
    flow.deficit -= pkt.size_bytes;
    backlog_ -= pkt.size_bytes;
    if (flow.q.empty()) {
      flows_.erase(it);
      round_.pop_front();
    }
    return pkt;
  }
  return std::nullopt;
}

std::optional<Packet> DrrQueue::enqueue_dequeue(const Packet& pkt,
                                                sim::SimTime now) {
  if (!flows_.empty()) {
    if (!enqueue(pkt, now)) return std::nullopt;
    return dequeue(now);
  }
  // No flow backlogged: the arrival's flow would be alone in the round,
  // collect quanta until its deficit covers the packet, send it and be
  // erased — so admission is a size check and the arrival goes straight
  // out, without creating the flow's map node and FIFO.
  if (pkt.size_bytes > capacity_) {
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return std::nullopt;
  }
  ++stats_.enqueued_packets;
  note_backlog(stats_, pkt.size_bytes);
  return pkt;
}

std::size_t DrrQueue::backlog_packets() const {
  std::size_t n = 0;
  for (const auto& [id, flow] : flows_) n += flow.q.size();
  return n;
}

// -------------------------------------------------------------------- RED

RedQueue::RedQueue(Config cfg) : cfg_(cfg), rng_state_(cfg.seed | 1) {
  assert(cfg_.capacity_bytes > 0);
  assert(cfg_.min_threshold_bytes < cfg_.max_threshold_bytes);
  assert(cfg_.max_threshold_bytes <= cfg_.capacity_bytes);
}

double RedQueue::next_uniform() {
  rng_state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = rng_state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

bool RedQueue::enqueue(const Packet& pkt, sim::SimTime now) {
  // Arrival after an idle period: the EWMA only updates on arrivals, so
  // without decay a stale high average from the last burst keeps
  // early-dropping on a near-empty queue. Age it as if `m` typical packets
  // had departed while the queue sat empty.
  if (idle_since_ >= 0 && cfg_.idle_pkt_time > 0 && now > idle_since_) {
    const double m = static_cast<double>(now - idle_since_) /
                     static_cast<double>(cfg_.idle_pkt_time);
    avg_ *= std::pow(1.0 - cfg_.ewma_weight, m);
    // Decay applied up to `now`; if this arrival ends up dropped the queue
    // stays idle from here on.
    idle_since_ = now;
  }

  avg_ = (1.0 - cfg_.ewma_weight) * avg_ +
         cfg_.ewma_weight * static_cast<double>(backlog_);

  bool early_action = false;
  if (avg_ >= static_cast<double>(cfg_.max_threshold_bytes)) {
    early_action = true;
  } else if (avg_ >= static_cast<double>(cfg_.min_threshold_bytes)) {
    const double fraction =
        (avg_ - static_cast<double>(cfg_.min_threshold_bytes)) /
        static_cast<double>(cfg_.max_threshold_bytes -
                            cfg_.min_threshold_bytes);
    early_action = next_uniform() < fraction * cfg_.max_probability;
  }

  bool mark = false;
  if (early_action) {
    if (cfg_.mark_instead_of_drop && pkt.ecn_capable) {
      mark = true;
      ++stats_.marked_packets;
      trace_mark(pkt, now);
    } else {
      ++stats_.dropped_packets;
      trace_drop(pkt, now);
      return false;
    }
  }

  if (backlog_ + pkt.size_bytes > cfg_.capacity_bytes) {
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return false;
  }
  backlog_ += pkt.size_bytes;
  Packet& stored = q_.push_back(pkt);
  if (mark) stored.ce = true;
  idle_since_ = -1;
  ++stats_.enqueued_packets;
  stats_.max_backlog_bytes = std::max(stats_.max_backlog_bytes, backlog_);
  return true;
}

std::optional<Packet> RedQueue::dequeue(sim::SimTime now) {
  if (q_.empty()) return std::nullopt;
  Packet pkt = q_.front();
  q_.pop_front();
  backlog_ -= pkt.size_bytes;
  if (q_.empty()) idle_since_ = now;
  return pkt;
}

// ------------------------------------------------------------- RandomDrop

RandomDropQueue::RandomDropQueue(std::unique_ptr<QueueDiscipline> inner,
                                 double drop_probability, std::uint64_t seed)
    : inner_(std::move(inner)), p_(drop_probability), state_(seed | 1) {
  assert(inner_ != nullptr);
  assert(drop_probability >= 0.0 && drop_probability <= 1.0);
}

bool RandomDropQueue::enqueue(const Packet& pkt, sim::SimTime now) {
  // splitmix64 step; cheap and adequate for Bernoulli drops.
  const double u = sim::splitmix64_uniform(state_);
  // Only data packets are subject to injected loss; dropping ACKs would test
  // cumulative-ACK robustness, not congestion response.
  if (pkt.type == PacketType::kData && u < p_) {
    ++random_drops_;
    ++stats_.dropped_packets;
    trace_drop(pkt, now);
    return false;
  }
  // Mirror the inner queue's outcome so this decorator's stats cover both
  // injected and congestion drops.
  const bool admitted = inner_->enqueue(pkt, now);
  if (admitted) {
    ++stats_.enqueued_packets;
  } else {
    ++stats_.dropped_packets;
  }
  return admitted;
}

std::optional<Packet> RandomDropQueue::dequeue(sim::SimTime now) {
  return inner_->dequeue(now);
}

void RandomDropQueue::set_trace_context(sim::Simulator* sim, const char* name,
                                        std::uint64_t track) {
  QueueDiscipline::set_trace_context(sim, name, track);
  // Congestion drops happen inside the wrapped queue; give it the same
  // identity so they are traced too.
  inner_->set_trace_context(sim, name, track);
}

void RandomDropQueue::set_drop_probability(double p) {
  assert(p >= 0.0 && p <= 1.0);
  p_ = p;
}

// ----------------------------------------------------------------- factories

QueueFactory make_droptail_factory(std::int64_t capacity_bytes) {
  return [capacity_bytes] { return std::make_unique<DropTailQueue>(capacity_bytes); };
}

QueueFactory make_ecn_factory(std::int64_t capacity_bytes,
                              std::int64_t mark_threshold_bytes) {
  return [=] {
    return std::make_unique<EcnThresholdQueue>(capacity_bytes,
                                               mark_threshold_bytes);
  };
}

QueueFactory make_pfabric_factory(std::int64_t capacity_bytes) {
  return [capacity_bytes] {
    return std::make_unique<PfabricPriorityQueue>(capacity_bytes);
  };
}

QueueFactory make_drr_factory(std::int64_t capacity_bytes,
                              std::int64_t quantum_bytes) {
  return [=] {
    return std::make_unique<DrrQueue>(capacity_bytes, quantum_bytes);
  };
}

QueueFactory make_red_factory(RedQueue::Config cfg) {
  return [cfg] { return std::make_unique<RedQueue>(cfg); };
}

QueueFactory make_random_drop_factory(double drop_probability,
                                      std::int64_t capacity_bytes,
                                      std::uint64_t seed) {
  return [=] {
    return std::make_unique<RandomDropQueue>(
        std::make_unique<DropTailQueue>(capacity_bytes), drop_probability,
        seed);
  };
}

}  // namespace mltcp::net
