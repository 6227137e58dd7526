#include "checks.hpp"

namespace perfbench {

namespace {

CheckResult fail(const char* name, std::string detail) {
  return CheckResult{name, false, std::move(detail)};
}

}  // namespace

CheckResult check_conservation(const Outcome& o) {
  const char* name = "conservation";
  // Per node: packets its egress links were offered (exact up to one packet
  // on each busy transmitter) and its ingress links serialized.
  std::vector<std::int64_t> offered(o.nodes.size(), 0);
  std::vector<std::int64_t> egress(o.nodes.size(), 0);
  std::vector<std::int64_t> arrived(o.nodes.size(), 0);
  std::vector<std::int64_t> on_wire(o.nodes.size(), 0);
  for (std::size_t i = 0; i < o.links.size(); ++i) {
    const LinkSnap& l = o.links[i];
    // An admitted packet is serialized, queued, on the transmitter (one at
    // most) or flushed when the link went down (no more than the link's
    // fault drops). No queue discipline benchmarked evicts after admission.
    const std::int64_t settled = l.tx + l.backlog;
    if (settled > l.enqueued || l.enqueued > settled + 1 + l.fault_drops) {
      return fail(name, "link " + std::to_string(i) + ": enqueued " +
                            std::to_string(l.enqueued) + " vs tx " +
                            std::to_string(l.tx) + " + backlog " +
                            std::to_string(l.backlog));
    }
    const auto src = static_cast<std::size_t>(l.src);
    const auto dst = static_cast<std::size_t>(l.dst);
    if (src >= o.nodes.size() || dst >= o.nodes.size()) {
      return fail(name, "link " + std::to_string(i) + ": bad endpoint");
    }
    // Every offered packet was serialized, is queued or on the transmitter,
    // or was dropped (by the queue or a fault).
    offered[src] += settled + l.queue_drops + l.fault_drops;
    ++egress[src];
    arrived[dst] += l.tx;
    on_wire[dst] += l.inflight_cap;
  }
  for (std::size_t n = 0; n < o.nodes.size(); ++n) {
    const NodeSnap& node = o.nodes[n];
    if (node.received > arrived[n] ||
        node.received < arrived[n] - on_wire[n]) {
      return fail(name, "node " + std::to_string(n) + ": received " +
                            std::to_string(node.received) +
                            " but ingress links serialized " +
                            std::to_string(arrived[n]));
    }
    if (node.is_switch && (node.forwarded < offered[n] ||
                           node.forwarded > offered[n] + egress[n])) {
      return fail(name, "switch " + std::to_string(n) + ": forwarded " +
                            std::to_string(node.forwarded) +
                            " but egress links were offered " +
                            std::to_string(offered[n]));
    }
  }
  return CheckResult{name, true, {}};
}

CheckResult check_iterations(const Outcome& o) {
  const char* name = "iterations";
  for (std::size_t j = 0; j < o.jobs.size(); ++j) {
    const auto& recs = o.jobs[j];
    const std::string job = "job " + std::to_string(j);
    if (recs.empty()) return fail(name, job + " completed no iteration");
    for (std::size_t k = 0; k < recs.size(); ++k) {
      const mltcp::workload::IterationRecord& r = recs[k];
      if (r.index != static_cast<int>(k)) {
        return fail(name, job + " record " + std::to_string(k) +
                              " has index " + std::to_string(r.index));
      }
      if (r.comm_start < 0 || r.comm_start > r.comm_end ||
          r.comm_end > r.iter_end) {
        return fail(name, job + " iteration " + std::to_string(k) +
                              " phases out of order");
      }
      if (k > 0 && recs[k - 1].iter_end > r.comm_start) {
        return fail(name, job + " iteration " + std::to_string(k) +
                              " starts before the previous one ended");
      }
    }
  }
  return CheckResult{name, true, {}};
}

CheckResult check_traffic(const Outcome& o) {
  const char* name = "traffic";
  const TrafficSnap& t = o.traffic;
  if (!t.present) return CheckResult{name, true, {}};
  if (t.completed + t.open != t.posted) {
    return fail(name, "completed " + std::to_string(t.completed) + " + open " +
                          std::to_string(t.open) + " != posted " +
                          std::to_string(t.posted));
  }
  if (t.records != t.posted || t.done_records != t.completed) {
    return fail(name, "records (" + std::to_string(t.records) + ", " +
                          std::to_string(t.done_records) +
                          " done) disagree with posted/completed");
  }
  if (t.posted == 0) return fail(name, "no transfer was posted");
  if (t.must_drain && t.open != 0) {
    return fail(name, std::to_string(t.open) + " transfers never drained");
  }
  return CheckResult{name, true, {}};
}

std::vector<CheckResult> run_checks(const Outcome& o) {
  return {check_conservation(o), check_iterations(o), check_traffic(o)};
}

}  // namespace perfbench
