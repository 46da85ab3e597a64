#include <gtest/gtest.h>

#include <vector>

#include "digruber/net/sim_transport.hpp"

namespace digruber::net {
namespace {

class RecordingEndpoint : public Endpoint {
 public:
  void on_packet(Packet packet) override { received.push_back(std::move(packet)); }
  std::vector<Packet> received;
};

TEST(SimTransport, DeliversAfterWanDelay) {
  sim::Simulation sim;
  WanParams params;
  params.jitter_cv = 0.0;
  SimTransport transport(sim, WanModel(params, 1));

  RecordingEndpoint a, b;
  const NodeId na = transport.attach(a);
  const NodeId nb = transport.attach(b);

  transport.send(Packet{na, nb, {1, 2, 3}});
  EXPECT_TRUE(b.received.empty());  // not yet delivered
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].src, na);
  EXPECT_EQ(b.received[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_GT(sim.now().to_seconds(), 0.0);  // WAN latency elapsed
  EXPECT_EQ(transport.packets_sent(), 1u);
}

TEST(SimTransport, UnknownDestinationDropped) {
  sim::Simulation sim;
  SimTransport transport(sim, WanModel(WanParams{}, 2));
  RecordingEndpoint a;
  const NodeId na = transport.attach(a);
  transport.send(Packet{na, NodeId(999), {1}});
  sim.run();  // must not crash
  EXPECT_TRUE(a.received.empty());
}

TEST(SimTransport, DetachStopsDelivery) {
  sim::Simulation sim;
  SimTransport transport(sim, WanModel(WanParams{}, 3));
  RecordingEndpoint a, b;
  const NodeId na = transport.attach(a);
  const NodeId nb = transport.attach(b);
  transport.send(Packet{na, nb, {1}});
  transport.detach(nb);  // detach while in flight
  sim.run();
  EXPECT_TRUE(b.received.empty());
}

TEST(SimTransport, LossyLinkDropsSomePackets) {
  sim::Simulation sim;
  WanParams params;
  params.loss_rate = 0.5;
  SimTransport transport(sim, WanModel(params, 4));
  RecordingEndpoint a, b;
  const NodeId na = transport.attach(a);
  const NodeId nb = transport.attach(b);
  for (int i = 0; i < 200; ++i) transport.send(Packet{na, nb, {std::uint8_t(i)}});
  sim.run();
  EXPECT_GT(transport.packets_dropped(), 50u);
  EXPECT_LT(transport.packets_dropped(), 150u);
  EXPECT_EQ(b.received.size(), 200u - transport.packets_dropped());
  // Every one of those drops was the WAN loss coin, not a fault.
  EXPECT_EQ(transport.packets_dropped(DropCause::kLoss), transport.packets_dropped());
  EXPECT_EQ(transport.packets_dropped(DropCause::kPartition), 0u);
  EXPECT_EQ(transport.packets_dropped(DropCause::kUnknownDestination), 0u);
}

TEST(SimTransport, UnknownDestinationDropsCountedByCause) {
  sim::Simulation sim;
  SimTransport transport(sim, WanModel(WanParams{}, 4));
  RecordingEndpoint a, b;
  const NodeId na = transport.attach(a);
  const NodeId nb = transport.attach(b);
  transport.send(Packet{na, NodeId(999), {1}});  // never attached
  transport.send(Packet{na, nb, {2}});
  transport.detach(nb);  // detach while the second packet is in flight
  sim.run();
  EXPECT_EQ(transport.packets_dropped(DropCause::kUnknownDestination), 2u);
  EXPECT_EQ(transport.packets_dropped(), 2u);
  EXPECT_EQ(transport.packets_dropped(DropCause::kLoss), 0u);
}

TEST(SimTransport, PartitionBlocksTrafficUntilHealed) {
  sim::Simulation sim;
  SimTransport transport(sim, WanModel(WanParams{}, 5));
  RecordingEndpoint a, b;
  const NodeId na = transport.attach(a);
  const NodeId nb = transport.attach(b);

  transport.set_island(nb, 1);
  EXPECT_TRUE(transport.partitioned(na, nb));
  transport.send(Packet{na, nb, {1}});
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(transport.packets_dropped(DropCause::kPartition), 1u);

  transport.heal_partition();
  EXPECT_FALSE(transport.partitioned(na, nb));
  transport.send(Packet{na, nb, {2}});
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(transport.packets_dropped(), 1u);  // no new drops after the heal
}

TEST(SimTransport, ReattachRestoresDelivery) {
  sim::Simulation sim;
  SimTransport transport(sim, WanModel(WanParams{}, 6));
  RecordingEndpoint a, b, b2;
  const NodeId na = transport.attach(a);
  const NodeId nb = transport.attach(b);
  transport.detach(nb);
  transport.send(Packet{na, nb, {1}});
  sim.run();
  EXPECT_EQ(transport.packets_dropped(DropCause::kUnknownDestination), 1u);

  EXPECT_FALSE(transport.reattach(na, b2));           // address still in use
  EXPECT_FALSE(transport.reattach(NodeId(999), b2));  // never issued
  ASSERT_TRUE(transport.reattach(nb, b2));
  transport.send(Packet{na, nb, {2}});
  sim.run();
  ASSERT_EQ(b2.received.size(), 1u);  // same address, new endpoint
  EXPECT_TRUE(b.received.empty());
}

}  // namespace
}  // namespace digruber::net
