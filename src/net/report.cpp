#include "net/report.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace rtcac {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

double NetworkReport::worst_bound() const {
  double worst = 0;
  for (const QueueReport& q : queues) {
    worst = std::max(worst, q.computed_bound);
  }
  return worst;
}

std::size_t NetworkReport::total_recommended_slots() const {
  std::size_t total = 0;
  for (const QueueReport& q : queues) {
    total += q.recommended_slots;
  }
  return total;
}

bool NetworkReport::all_within_advertised() const {
  return std::all_of(queues.begin(), queues.end(), [](const QueueReport& q) {
    return q.computed_bound <= q.advertised_bound;
  });
}

std::string NetworkReport::to_string() const {
  std::ostringstream os;
  os << "network report: " << connections << " connections, "
     << queues.size() << " active queues\n";
  char line[160];
  std::snprintf(line, sizeof(line), "%-10s %-5s %-5s %-6s %-9s %-10s %-10s %-8s %-6s\n",
                "node", "port", "prio", "conns", "load", "bound", "advert",
                "backlog", "slots");
  os << line;
  for (const QueueReport& q : queues) {
    std::snprintf(line, sizeof(line),
                  "%-10s %-5zu %-5u %-6zu %-9.4f %-10.2f %-10.2f %-8.2f %-6zu\n",
                  q.node_name.c_str(), q.out_port, q.priority, q.connections,
                  q.sustained_load, q.computed_bound, q.advertised_bound,
                  q.backlog_cells, q.recommended_slots);
    os << line;
  }
  return os.str();
}

double SignalingReport::connect_ratio() const {
  if (attempts == 0) return 1.0;
  return static_cast<double>(connected) / static_cast<double>(attempts);
}

std::string SignalingReport::to_string() const {
  std::ostringstream os;
  os << "signaling report: " << attempts << " attempts, " << connected
     << " connected (" << connect_ratio() * 100.0 << "%)\n";
  os << "  retransmits " << retransmits << ", timeouts " << timeouts
     << ", stale dropped " << stale_dropped << ", lost to faults "
     << lost_to_faults << "\n";
  os << "  releases sent " << releases_sent << " (" << released_hops
     << " hop reservations), orphans reclaimed " << orphans_reclaimed
     << "\n";
  for (const auto& [reason, count] : rejects_by_reason) {
    if (count > 0) {
      os << "  rejected (" << rtcac::to_string(reason) << "): " << count
         << "\n";
    }
  }
  for (const auto& [reason, count] : teardowns) {
    if (count > 0) {
      os << "  torn down (" << rtcac::to_string(reason) << "): " << count
         << "\n";
    }
  }
  return os.str();
}

SignalingReport summarize_signaling(const SignalingEngine& engine) {
  SignalingReport report;
  const SignalingEngine::Counters& c = engine.counters();
  report.attempts = c.setups_finished;
  report.connected = c.setups_connected;
  report.retransmits = c.retransmits;
  report.timeouts = c.timeouts;
  report.stale_dropped = c.stale_dropped;
  report.releases_sent = c.releases_sent;
  report.released_hops = c.released_hops;
  report.lost_to_faults = c.lost_to_faults;
  report.rejects_by_reason = c.rejects_by_reason;
  const ConnectionManager& manager = engine.manager();
  report.orphans_reclaimed = manager.orphans_reclaimed();
  for (const TeardownReason reason :
       {TeardownReason::kLocal, TeardownReason::kRelease,
        TeardownReason::kFailure, TeardownReason::kRerouted}) {
    report.teardowns[reason] = manager.teardowns(reason);
  }
  return report;
}

std::string RerouteReport::to_string() const {
  std::ostringstream os;
  os << "reroute report: " << episodes << " episodes ("
     << failure_events << " failures, " << recovery_events
     << " recoveries observed)\n";
  os << "  rehomed " << rehomed << ", kept original " << kept_original
     << ", degraded " << degraded << " (" << attempts << " admission attempts)\n";
  if (rehomed + kept_original > 0) {
    os << "  rescue latency: mean " << mean_rescue_latency << ", max "
       << max_rescue_latency << " ticks\n";
  }
  for (const auto& [reason, count] : degraded_by_reason) {
    if (count > 0) {
      os << "  degraded (" << rtcac::to_string(reason) << "): " << count
         << "\n";
    }
  }
  return os.str();
}

RerouteReport summarize_reroute(const RerouteCoordinator& coordinator) {
  RerouteReport report;
  const RerouteCoordinator::Stats& s = coordinator.stats();
  report.failure_events = s.failure_events;
  report.recovery_events = s.recovery_events;
  report.episodes = s.episodes;
  report.rehomed = s.rehomed;
  report.kept_original = s.kept_original;
  report.degraded = s.degraded;
  report.attempts = s.attempts;
  report.max_rescue_latency = s.max_rescue_latency;
  const std::size_t rescued = s.rehomed + s.kept_original;
  report.mean_rescue_latency =
      rescued == 0 ? 0.0
                   : static_cast<double>(s.total_rescue_latency) /
                         static_cast<double>(rescued);
  report.degraded_by_reason = s.degraded_by_reason;
  return report;
}

NetworkReport summarize(const ConnectionManager& manager) {
  NetworkReport report;
  report.connections = manager.connection_count();
  const Topology& topo = manager.topology();
  for (const NodeInfo& node : topo.nodes()) {
    if (node.kind != NodeKind::kSwitch || topo.out_links(node.id).empty()) {
      continue;
    }
    const SwitchCac& cac = manager.switch_cac(node.id);
    for (std::size_t port = 0; port < cac.out_ports(); ++port) {
      for (Priority prio = 0; prio < cac.priorities(); ++prio) {
        const std::size_t conns = cac.connection_count(port, prio);
        if (conns == 0) continue;
        QueueReport q;
        q.node = node.id;
        q.node_name = node.name;
        q.out_port = port;
        q.priority = prio;
        q.connections = conns;
        q.sustained_load = cac.sustained_load(port, prio);
        q.computed_bound = cac.computed_bound(port, prio).value_or(kInf);
        q.advertised_bound = cac.advertised(port, prio);
        q.backlog_cells = cac.buffer_requirement(port, prio).value_or(kInf);
        q.recommended_slots =
            std::isfinite(q.backlog_cells)
                ? static_cast<std::size_t>(std::ceil(q.backlog_cells - 1e-9)) +
                      1
                : 0;
        report.queues.push_back(std::move(q));
      }
    }
  }
  return report;
}

}  // namespace rtcac
