#pragma once

// Output checks of one benchmark run. They read a plain snapshot of the
// model's end state (taken through public accessors after the run), so the
// self-test can corrupt a snapshot and show that each check fails.

#include <cstdint>
#include <string>
#include <vector>

#include "workload/job.hpp"

namespace perfbench {

/// One directed link's end-of-run counters.
struct LinkSnap {
  int src = -1;  ///< Source node id.
  int dst = -1;  ///< Destination node id.
  std::int64_t tx = 0;           ///< Packets fully serialized.
  std::int64_t enqueued = 0;     ///< Packets the queue admitted.
  std::int64_t queue_drops = 0;  ///< Packets the queue refused.
  std::int64_t fault_drops = 0;  ///< Down/blackhole/drop-burst losses.
  std::int64_t backlog = 0;      ///< Packets still queued.
  /// Most packets that can be on the wire (serialized, not yet delivered)
  /// at once: propagation delay x rate / smallest packet, plus one.
  std::int64_t inflight_cap = 0;
};

/// One node's end-of-run counters.
struct NodeSnap {
  bool is_switch = false;
  std::int64_t received = 0;   ///< Packets that arrived (any outcome).
  std::int64_t forwarded = 0;  ///< Switches: packets handed to an egress.
};

/// Background-traffic bookkeeping.
struct TrafficSnap {
  bool present = false;
  bool must_drain = false;  ///< Run was sized so every transfer finishes.
  std::int64_t posted = 0;
  std::int64_t completed = 0;
  std::int64_t open = 0;
  std::int64_t records = 0;       ///< FCT records held by the source.
  std::int64_t done_records = 0;  ///< Records with a completion time.
};

struct Outcome {
  std::vector<LinkSnap> links;
  std::vector<NodeSnap> nodes;
  std::vector<std::vector<mltcp::workload::IterationRecord>> jobs;
  TrafficSnap traffic;
};

struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;  ///< First violation found, empty when ok.
};

/// Packet conservation across links, switches and hosts: every queue
/// admission is serialized, still queued or lost to a fault; every switch
/// forwarded what its egress links were offered, up to one packet on each
/// busy transmitter; every node received what its ingress links
/// serialized, less at most the packets that can still be on the wire at
/// the deadline.
CheckResult check_conservation(const Outcome& o);

/// Every training job completed at least one iteration, and each job's
/// records are numbered in order with monotone phase boundaries.
CheckResult check_iterations(const Outcome& o);

/// completed + open == posted, the source's records agree with its
/// counters, and a drained run has nothing open.
CheckResult check_traffic(const Outcome& o);

std::vector<CheckResult> run_checks(const Outcome& o);

}  // namespace perfbench
