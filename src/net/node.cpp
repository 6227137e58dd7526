#include "net/node.hpp"

#include <bit>
#include <cassert>

#include "sim/simulator.hpp"
#include "telemetry/tracer.hpp"

namespace mltcp::net {

namespace {

/// splitmix64 finalizer: full-avalanche mix of the flow id, so consecutive
/// ids (the workload assigns them sequentially) spread evenly across an
/// ECMP set. Pure function of the id — deterministic across runs, machines
/// and thread counts.
std::uint32_t ecmp_hash(FlowId flow) {
  std::uint64_t z =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(flow)) +
      0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::uint32_t>(z ^ (z >> 31));
}

}  // namespace

void Switch::receive(const Packet& pkt) {
  const auto idx = static_cast<std::uint32_t>(pkt.dst);
  if (idx < routes_.size()) {
    const RouteEntry e = routes_[idx];
    if (e.count != 0) {
      Link* egress =
          pool_[e.base + (e.count == 1 ? 0u : ecmp_hash(pkt.flow) % e.count)];
      ++forwarded_;
      egress->send(pkt);
      return;
    }
  }
  ++routeless_drops_;
  trace_routeless_drop(pkt);
}

void Switch::set_route(NodeId dst, Link* egress) {
  assert(egress != nullptr);
  set_routes(dst, std::vector<Link*>{egress});
}

void Switch::set_routes(NodeId dst, const std::vector<Link*>& egresses) {
  assert(dst >= 0 && !egresses.empty());
  const auto idx = static_cast<std::size_t>(dst);
  if (idx >= routes_.size()) routes_.resize(idx + 1);
  // Re-pointing a destination abandons its old pool span; the pool is
  // rebuilt from scratch on every build_routes() pass (clear_routes), so
  // waste is bounded to manual set_route churn between passes.
  routes_[idx] = RouteEntry{static_cast<std::uint32_t>(pool_.size()),
                           static_cast<std::uint32_t>(egresses.size())};
  pool_.insert(pool_.end(), egresses.begin(), egresses.end());
}

void Switch::clear_routes(std::size_t n_nodes) {
  routes_.assign(n_nodes, RouteEntry{});
  pool_.clear();
}

void Switch::clear_route(NodeId dst) {
  const auto idx = static_cast<std::size_t>(dst);
  if (idx < routes_.size()) routes_[idx] = RouteEntry{};
}

void Switch::routes_using(const Link* link, std::vector<NodeId>& out) const {
  for (std::size_t dst = 0; dst < routes_.size(); ++dst) {
    const RouteEntry e = routes_[dst];
    for (std::uint32_t i = 0; i < e.count; ++i) {
      if (pool_[e.base + i] == link) {
        out.push_back(static_cast<NodeId>(dst));
        break;
      }
    }
  }
}

Link* Switch::route(NodeId dst) const {
  const auto idx = static_cast<std::uint32_t>(dst);
  if (idx >= routes_.size() || routes_[idx].count == 0) return nullptr;
  return pool_[routes_[idx].base];
}

Link* Switch::route_for_flow(NodeId dst, FlowId flow) const {
  const auto idx = static_cast<std::uint32_t>(dst);
  if (idx >= routes_.size()) return nullptr;
  const RouteEntry e = routes_[idx];
  if (e.count == 0) return nullptr;
  return pool_[e.base + (e.count == 1 ? 0u : ecmp_hash(flow) % e.count)];
}

std::size_t Switch::route_width(NodeId dst) const {
  const auto idx = static_cast<std::uint32_t>(dst);
  return idx < routes_.size() ? routes_[idx].count : 0;
}

void Switch::trace_routeless_drop(const Packet& pkt) const {
  if (trace_sim_ == nullptr) return;
  if (auto* t = telemetry::tracer_for(*trace_sim_,
                                      telemetry::Category::kQueue)) {
    t->instant(telemetry::Category::kQueue, "routeless_drop",
               trace_sim_->now(), telemetry::track_switch(id()), "flow",
               static_cast<double>(pkt.flow), "dst",
               static_cast<double>(pkt.dst));
  }
}

void Host::receive(const Packet& pkt) {
  HandlerSlot* slot = find(pkt.flow);
  if (slot != nullptr && slot->handler) {
    ++delivered_;
    slot->handler(pkt);
    return;
  }
  ++unclaimed_;
}

void Host::send(const Packet& pkt) {
  assert(uplink_ != nullptr && "host has no uplink");
  Packet out = pkt;
  out.src = id();
  uplink_->send(out);
}

Host::HandlerSlot& Host::probe(FlowId flow) {
  // Fibonacci hashing: the top bits of id * 2^32/phi spread both the
  // sequential ids of one host's flows and scattered ones.
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = (static_cast<std::uint32_t>(flow) * 0x9e3779b9u) >> shift_;
  while (slots_[i].flow != flow && slots_[i].flow != kInvalidFlow) {
    i = (i + 1) & mask;
  }
  return slots_[i];
}

Host::HandlerSlot* Host::find(FlowId flow) {
  if (flow < 0 || slots_.empty()) return nullptr;
  HandlerSlot& slot = probe(flow);
  return slot.flow == flow ? &slot : nullptr;
}

void Host::grow() {
  std::vector<HandlerSlot> old(slots_.empty() ? 8 : slots_.size() * 2);
  old.swap(slots_);
  shift_ = 32 - static_cast<std::uint32_t>(std::countr_zero(slots_.size()));
  for (HandlerSlot& slot : old) {
    if (slot.flow != kInvalidFlow) probe(slot.flow) = std::move(slot);
  }
}

Host::FlowHandle Host::register_flow(FlowId flow, PacketHandler handler) {
  if (flow < 0) return FlowHandle{};
  // Keep the table at most half full so a probe sequence stays short.
  if ((used_ + 1) * 2 > slots_.size()) grow();
  HandlerSlot& slot = probe(flow);
  if (slot.flow != flow) {
    slot.flow = flow;
    ++used_;
  }
  slot.handler = std::move(handler);
  ++slot.gen;
  return FlowHandle{flow, slot.gen};
}

void Host::unregister_flow(FlowId flow) {
  HandlerSlot* slot = find(flow);
  if (slot == nullptr || !slot->handler) return;
  slot->handler = nullptr;
  ++slot->gen;
}

void Host::unregister_flow(const FlowHandle& handle) {
  HandlerSlot* slot = find(handle.flow);
  // Only the live registration may unregister: a handle from before the id
  // was reused has a stale generation and must not tear down the new flow.
  if (slot == nullptr || slot->gen != handle.gen || !slot->handler) return;
  slot->handler = nullptr;
  ++slot->gen;
}

}  // namespace mltcp::net
