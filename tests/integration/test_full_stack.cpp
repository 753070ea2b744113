// The grand integration: every subsystem at once.  Distributed signaling
// admits cyclic-frame connections over an RTnet ring, the label manager
// provisions VPI/VCI chains, the simulator runs frame-burst sources
// through label-switched, UNI-policed data paths, and every layer's
// guarantee is checked against what actually happened.

#include <gtest/gtest.h>

#include <memory>

#include "net/label_manager.h"
#include "net/report.h"
#include "net/signaling.h"
#include "rtnet/cyclic.h"
#include "rtnet/rtnet.h"
#include "sim/simulator.h"

namespace rtcac {
namespace {

TEST(FullStack, SignaledLabeledPolicedFramesKeepEveryGuarantee) {
  // 8-node ring, 2 terminals per node, one high-speed cyclic broadcast
  // per terminal (1/16 of the class memory each).
  RtnetConfig cfg;
  cfg.ring_nodes = 8;
  cfg.terminals_per_node = 2;
  cfg.dual_ring = false;
  const Rtnet net(cfg);
  const CyclicClass& high_speed = standard_cyclic_classes()[0];

  ConnectionManager::Params params;
  params.advertised_bound = 32;
  ConnectionManager manager(net.topology(), params);
  SignalingEngine signaling(manager);
  LabelManager labels(net.topology());

  // Frame plan: one update (6 cells for a 1/16 slice) per 1 ms period.
  const double share = 1.0 / 16.0;
  const auto frame_cells = static_cast<std::uint16_t>(
      std::ceil(share * high_speed.memory_kb * 1024 / kCellPayloadBytes));
  const auto period =
      static_cast<Tick>(cell_times_from_seconds(high_speed.period_ms * 1e-3));
  const Tick spacing = period / frame_cells;
  const auto contract =
      TrafficDescriptor::cbr(1.0 / static_cast<double>(spacing));

  // 1. Distributed admission.
  struct Admitted {
    ConnectionId id;
    Route route;
  };
  std::vector<Admitted> admitted;
  for (std::size_t n = 0; n < 8; ++n) {
    for (std::size_t t = 0; t < 2; ++t) {
      QosRequest request;
      request.traffic = contract;
      request.deadline = high_speed.deadline_cell_times();
      const Route route = net.broadcast_route(n, t);
      const ConnectionId id = signaling.initiate(request, route);
      signaling.run();
      ASSERT_TRUE(signaling.outcome(id).has_value());
      ASSERT_TRUE(signaling.outcome(id)->connected)
          << signaling.outcome(id)->reason;
      admitted.push_back({id, route});
    }
  }

  // 2. Label provisioning for every admitted connection.
  std::vector<LabelPath> paths;
  for (const Admitted& conn : admitted) {
    paths.push_back(labels.establish(conn.id, conn.route));
  }

  // 3. Simulation: frame-burst sources, UNI policing, label forwarding.
  SimNetwork sim(net.topology(), SimNetwork::Options{1, 33});
  for (std::size_t k = 0; k < admitted.size(); ++k) {
    sim.install_policed(
        admitted[k].id, admitted[k].route, 0,
        std::make_unique<FrameBurstSourceScheduler>(frame_cells, period,
                                                    spacing),
        contract);
    sim.attach_labels(admitted[k].id, paths[k]);
  }
  sim.run_until(static_cast<Tick>(cell_times_from_seconds(0.03)));  // 30 ms

  // 4. Every layer's books balance.
  EXPECT_EQ(sim.total_drops(), 0u);
  EXPECT_EQ(sim.label_misroutes(), 0u);
  for (const Admitted& conn : admitted) {
    EXPECT_EQ(sim.policed_cells(conn.id), 0u);  // conforming, never policed
    const auto bound = manager.current_e2e_bound(conn.id);
    ASSERT_TRUE(bound.has_value());
    EXPECT_LE(*bound, high_speed.deadline_cell_times());
    ASSERT_GT(sim.sink(conn.id).delivered(), 150u);  // ~30 frames x 6 cells
    EXPECT_LE(sim.sink(conn.id).queue_delay().max(), *bound + 1e-9);
  }

  // 5. The network report agrees with the admitted state.
  const NetworkReport report = summarize(manager);
  EXPECT_EQ(report.connections, admitted.size());
  EXPECT_TRUE(report.all_within_advertised());

  // 6. Teardown releases every layer; the network ends empty.
  for (const Admitted& conn : admitted) {
    EXPECT_TRUE(manager.teardown(conn.id));
    EXPECT_TRUE(labels.release(conn.id));
  }
  EXPECT_EQ(manager.connection_count(), 0u);
  EXPECT_EQ(labels.connection_count(), 0u);
  EXPECT_TRUE(summarize(manager).queues.empty());
}

}  // namespace
}  // namespace rtcac
