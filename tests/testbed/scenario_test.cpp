#include "testbed/scenario.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>

#include "metrics/packet_tracker.h"
#include "phy/path_loss.h"
#include "testbed/topology.h"
#include "testbed/traffic.h"

namespace lm::testbed {
namespace {

constexpr double kSpacing = 400.0;

ScenarioConfig cfg(std::uint64_t seed = 1) {
  ScenarioConfig c;
  c.seed = seed;
  c.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  c.mesh.hello_interval = Duration::seconds(10);
  c.mesh.maintenance_interval = Duration::seconds(2);
  c.mesh.duty_cycle_limit = 1.0;
  return c;
}

TEST(MeshScenario, AddressAssignmentAndLookup) {
  MeshScenario s(cfg());
  s.add_nodes(chain(3, kSpacing));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.address_of(0), 0x0001);
  EXPECT_EQ(s.address_of(2), 0x0003);
  EXPECT_EQ(s.index_of(0x0002), 1u);
  EXPECT_FALSE(s.index_of(0x0009).has_value());
  EXPECT_FALSE(s.index_of(net::kBroadcast).has_value());
  EXPECT_EQ(s.node(1).address(), 0x0002);
}

TEST(MeshScenario, ExpectedHopsMatchesChainGeometry) {
  MeshScenario s(cfg());
  s.add_nodes(chain(4, kSpacing));
  s.start_all();  // the oracle only counts running nodes
  const auto hops = s.expected_hops();
  EXPECT_EQ(hops[0][1], 1);
  EXPECT_EQ(hops[0][2], 2);
  EXPECT_EQ(hops[0][3], 3);
  EXPECT_EQ(hops[3][0], 3);
  EXPECT_EQ(hops[0][0], 0);
}

TEST(MeshScenario, ExpectedHopsIgnoresStoppedNodes) {
  MeshScenario s(cfg());
  s.add_nodes(chain(3, kSpacing));
  s.start_all();
  s.fail_node(1);
  const auto hops = s.expected_hops();
  EXPECT_EQ(hops[0][2], -1);  // relay gone: unreachable
  EXPECT_EQ(hops[0][1], -1);  // stopped endpoint
}

TEST(MeshScenario, ConvergedIsFalseBeforeAnyBeacons) {
  MeshScenario s(cfg());
  s.add_nodes(chain(2, kSpacing));
  s.start_all();
  EXPECT_FALSE(s.converged());
}

TEST(MeshScenario, RunUntilConvergedReportsElapsedTime) {
  MeshScenario s(cfg());
  s.add_nodes(chain(3, kSpacing));
  s.start_all();
  const auto elapsed = s.run_until_converged(Duration::minutes(5));
  ASSERT_TRUE(elapsed.has_value());
  EXPECT_GT(*elapsed, Duration::zero());
  EXPECT_LT(*elapsed, Duration::minutes(5));
  EXPECT_TRUE(s.converged());
}

TEST(MeshScenario, PartitionedIslandsConvergeSeparately) {
  MeshScenario s(cfg());
  s.add_nodes(chain(3, kSpacing));
  // Isolate node index 2 (radio id 3) from both others: the oracle sees two
  // islands, each of which must converge internally.
  s.channel().block_link(2, 3);
  s.channel().block_link(1, 3);
  s.start_all();
  const auto elapsed = s.run_until_converged(Duration::minutes(2));
  ASSERT_TRUE(elapsed.has_value());
  EXPECT_FALSE(s.node(0).routing_table().has_route(s.address_of(2)));
  EXPECT_TRUE(s.node(0).routing_table().has_route(s.address_of(1)));
}

TEST(MeshScenario, DumpListsAllTables) {
  MeshScenario s(cfg());
  s.add_nodes(chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(25));
  const std::string dump = s.dump_routing_tables();
  EXPECT_NE(dump.find("0x0001"), std::string::npos);
  EXPECT_NE(dump.find("0x0002"), std::string::npos);
}

TEST(MeshScenario, TrafficHarnessEndToEnd) {
  MeshScenario s(cfg(33));
  s.add_nodes(chain(3, kSpacing));
  metrics::PacketTracker tracker;
  attach_tracker(s, tracker);
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());

  DatagramTraffic traffic(s, tracker, 0, 2, {Duration::seconds(15), 16, true}, 5);
  traffic.start();
  s.run_for(Duration::minutes(30));
  traffic.stop();

  EXPECT_GT(tracker.attempted(), 60u);
  EXPECT_GT(tracker.pdr(), 0.95);  // clean links, light load
  EXPECT_GT(tracker.latency().mean(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.hops().median(), 2.0);
}

TEST(MeshScenario, PeriodicTrafficIsDeterministicallySpaced) {
  MeshScenario s(cfg(44));
  s.add_nodes(chain(2, kSpacing));
  metrics::PacketTracker tracker;
  attach_tracker(s, tracker);
  s.start_all();
  s.run_for(Duration::seconds(25));
  DatagramTraffic traffic(s, tracker, 0, 1,
                          {Duration::seconds(10), 16, /*poisson=*/false}, 5);
  traffic.start();
  s.run_for(Duration::minutes(10));
  traffic.stop();
  // Exactly one send per 10 s period.
  EXPECT_EQ(tracker.attempted(), 60u);
}

TEST(MeshScenario, ApplyRegionConfiguresRadioAndDuty) {
  ScenarioConfig c;
  c.radio.tx_power_dbm = 20.0;  // over the EU868 g1 ceiling
  apply_region(c, phy::eu868());
  EXPECT_DOUBLE_EQ(c.radio.frequency_hz, 868.1e6);
  EXPECT_DOUBLE_EQ(c.radio.tx_power_dbm, 14.0);  // clamped
  EXPECT_DOUBLE_EQ(c.mesh.duty_cycle_limit, 0.01);

  EXPECT_TRUE(c.mesh.max_dwell_time.is_zero());  // EU868 has no dwell rule

  ScenarioConfig us;
  us.radio.tx_power_dbm = 20.0;
  apply_region(us, phy::us915());
  EXPECT_DOUBLE_EQ(us.radio.frequency_hz, 902.3e6);
  EXPECT_DOUBLE_EQ(us.radio.tx_power_dbm, 20.0);  // under the 30 dBm ceiling
  EXPECT_DOUBLE_EQ(us.mesh.duty_cycle_limit, 1.0);  // dwell-ruled instead
  EXPECT_EQ(us.mesh.max_dwell_time, Duration::milliseconds(400));
}

TEST(MeshScenario, TotalStatsAggregates) {
  MeshScenario s(cfg());
  s.add_nodes(chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::minutes(1));
  const auto total = s.total_stats();
  EXPECT_EQ(total.beacons_sent,
            s.node(0).stats().beacons_sent + s.node(1).stats().beacons_sent);
  EXPECT_GT(total.beacons_sent, 0u);
  EXPECT_GT(total.control_bytes_sent, 0u);
}

TEST(MeshScenario, NodeStatsSumCoversEveryField) {
  // NodeStats is a flat record of 64-bit counters (a Duration is one
  // int64), so filling it word by word gives every field, including any
  // added later, a distinct nonzero value without naming it here.
  static_assert(sizeof(net::NodeStats) % sizeof(std::uint64_t) == 0);
  constexpr std::size_t kWords = sizeof(net::NodeStats) / sizeof(std::uint64_t);
  std::array<std::uint64_t, kWords> a{};
  std::array<std::uint64_t, kWords> b{};
  for (std::size_t i = 0; i < kWords; ++i) {
    a[i] = i + 1;
    b[i] = 1000 * (i + 1);
  }
  auto first = std::bit_cast<net::NodeStats>(a);
  first += std::bit_cast<net::NodeStats>(b);
  const auto sum = std::bit_cast<std::array<std::uint64_t, kWords>>(first);
  for (std::size_t i = 0; i < kWords; ++i) {
    EXPECT_EQ(sum[i], 1001 * (i + 1)) << "word " << i;
  }
}

}  // namespace
}  // namespace lm::testbed
