#include "ablations.h"

#include <algorithm>
#include <memory>

#include "baseline/max_rate_cac.h"
#include "baseline/peak_allocation.h"
#include "core/delay_bound.h"
#include "net/connection_manager.h"
#include "sim/simulator.h"

namespace rtcac::ablation {

std::vector<DistortionRow> a1_distortion() {
  const auto td = TrafficDescriptor::cbr(0.2);
  std::vector<DistortionRow> rows;
  for (const double cdv : {8.0, 32.0, 96.0, 480.0}) {
    const BitStream exact = delay(td.to_bitstream(), cdv);
    const auto crude = BurstyEnvelope::from_traffic(td).delayed(cdv);
    // "Burst" = bits the model says can be present the instant the stream
    // appears: the exact model has released at most CDV cells worth by
    // then (rate-1 cap); the upper bound dumps the whole prefix at once.
    rows.push_back({cdv, exact.bits_before(1.0),
                    crude.bits_before(0.0) + crude.stream().rate_at(0.0)});
  }
  return rows;
}

A1Capacity a1_capacity() {
  const auto td = TrafficDescriptor::cbr(0.02);
  A1Capacity result;
  result.offered = 64;

  // Bit-stream CAC over a real topology: every connection has its own
  // access link into the first backbone switch.
  Topology topo;
  const NodeId s0 = topo.add_switch();
  const NodeId s1 = topo.add_switch();
  const NodeId s2 = topo.add_switch();
  const NodeId s3 = topo.add_switch();
  const LinkId l0 = topo.add_link(s0, s1);
  const LinkId l1 = topo.add_link(s1, s2);
  const LinkId l2 = topo.add_link(s2, s3);
  std::vector<LinkId> access;
  for (std::size_t i = 0; i < result.offered; ++i) {
    access.push_back(topo.add_link(topo.add_terminal(), s0));
  }
  ConnectionManager::Params params;
  params.advertised_bound = 32;
  ConnectionManager exact(topo, params);
  for (std::size_t i = 0; i < result.offered; ++i) {
    QosRequest request;
    request.traffic = td;
    if (exact.setup(request, Route{access[i], l0, l1, l2}).accepted) {
      ++result.bitstream_admitted;
    }
  }

  // Max-rate baseline: same three queueing points, same advertised bound.
  MaxRateNetworkCac crude(3, 32);
  for (std::size_t i = 0; i < result.offered; ++i) {
    if (crude.setup(td, {0, 1, 2}).accepted) ++result.max_rate_admitted;
  }
  return result;
}

A2Result a2_peak_allocation() {
  A2Result result;
  result.offered = 40;
  result.queue_cells = 32;

  Topology topo;
  const NodeId sw = topo.add_switch();
  const NodeId dst = topo.add_terminal();
  std::vector<LinkId> access;
  for (std::size_t i = 0; i < result.offered; ++i) {
    access.push_back(topo.add_link(topo.add_terminal(), sw));
  }
  const LinkId out = topo.add_link(sw, dst);
  const auto td =
      TrafficDescriptor::cbr(1.0 / static_cast<double>(result.offered));

  PeakAllocationCac peak(topo);
  ConnectionManager::Params params;
  params.advertised_bound = result.queue_cells;
  ConnectionManager exact(topo, params);

  std::vector<ConnectionId> exact_ids;
  for (std::size_t i = 0; i < result.offered; ++i) {
    if (peak.setup(td, {access[i], out}).accepted) ++result.peak_admitted;
    QosRequest request;
    request.traffic = td;
    const auto setup = exact.setup(request, Route{access[i], out});
    if (setup.accepted) exact_ids.push_back(setup.id);
  }
  result.bitstream_admitted = exact_ids.size();

  // Simulate both sets with a FIFO of queue_cells waiting slots plus the
  // output register: a slotted store-and-forward switch needs K+1
  // physical slots to realize a fluid backlog bound of K, because a cell
  // only leaves the queue when its own transmission slot starts.
  const std::size_t physical_slots =
      static_cast<std::size_t>(result.queue_cells) + 1;

  // Peak-allocated set, phase-aligned worst case.
  {
    SimNetwork sim(topo, SimNetwork::Options{1, physical_slots});
    for (std::size_t i = 0; i < result.offered; ++i) {
      sim.install(100 + i, Route{access[i], out}, 0,
                  std::make_unique<GreedySourceScheduler>(td));
    }
    sim.run_until(20000);
    for (std::size_t i = 0; i < result.offered; ++i) {
      result.peak.worst_delay = std::max(
          result.peak.worst_delay, sim.sink(100 + i).queue_delay().max());
    }
    result.peak.cells_dropped = sim.total_drops();
  }

  // The bit-stream-admitted subset.
  {
    SimNetwork sim(topo, SimNetwork::Options{1, physical_slots});
    for (std::size_t i = 0; i < exact_ids.size(); ++i) {
      sim.install(exact_ids[i], Route{access[i], out}, 0,
                  std::make_unique<GreedySourceScheduler>(td));
    }
    sim.run_until(20000);
    for (const ConnectionId id : exact_ids) {
      result.bitstream.worst_delay = std::max(
          result.bitstream.worst_delay, sim.sink(id).queue_delay().max());
      result.bitstream_bound = std::max(
          result.bitstream_bound, exact.current_e2e_bound(id).value());
    }
    result.bitstream.cells_dropped = sim.total_drops();
  }
  return result;
}

}  // namespace rtcac::ablation
