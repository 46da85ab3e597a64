#include "digruber/digruber/decision_point.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "digruber/digruber/infrastructure_monitor.hpp"
#include "digruber/net/sim_transport.hpp"

namespace digruber::digruber {
namespace {

net::ContainerProfile fast_profile() {
  net::ContainerProfile p;
  p.workers = 4;
  p.base_overhead = sim::Duration::millis(5);
  p.auth_cost = sim::Duration::zero();
  p.parse_cost_per_kb = sim::Duration::zero();
  p.serialize_cost_per_kb = sim::Duration::zero();
  return p;
}

struct Fixture {
  sim::Simulation sim;
  net::SimTransport transport;
  grid::VoCatalog catalog = grid::VoCatalog::uniform(2, 2);
  usla::AllocationTree tree;
  net::RpcClient rpc;

  explicit Fixture(std::uint64_t seed = 1)
      : transport(sim, net::WanModel(net::WanParams{}, seed)), rpc(sim, transport) {
    tree = usla::AllocationTree::build({}, catalog).value();
  }

  DecisionPointOptions options() {
    DecisionPointOptions o;
    o.profile = fast_profile();
    o.exchange_interval = sim::Duration::minutes(1);
    o.eval_cost_per_site = sim::Duration::millis(0.1);
    return o;
  }

  std::vector<grid::SiteSnapshot> snapshots() {
    std::vector<grid::SiteSnapshot> out;
    for (std::uint64_t i = 0; i < 3; ++i) {
      grid::SiteSnapshot s;
      s.site = SiteId(i);
      s.total_cpus = 100;
      s.free_cpus = std::int32_t(100 - 10 * i);
      out.push_back(s);
    }
    return out;
  }

  GetSiteLoadsRequest request() {
    GetSiteLoadsRequest r;
    r.job = JobId(1);
    r.vo = VoId(0);
    r.group = GroupId(0);
    r.user = UserId(0);
    r.cpus = 1;
    return r;
  }
};

TEST(DecisionPoint, AnswersSiteLoadQueries) {
  Fixture f;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.options());
  dp.bootstrap(f.snapshots());

  bool got = false;
  f.rpc.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
      dp.node(), kGetSiteLoads, f.request(), sim::Duration::seconds(30),
      [&](Result<GetSiteLoadsReply> result) {
        ASSERT_TRUE(result.ok()) << result.error();
        ASSERT_EQ(result.value().candidates.size(), 3u);
        EXPECT_EQ(result.value().candidates[0].free_estimate, 100);
        EXPECT_EQ(result.value().candidates[2].free_estimate, 80);
        got = true;
      });
  f.sim.run_until(sim::Time::from_seconds(30));
  EXPECT_TRUE(got);
  EXPECT_EQ(dp.counters().queries, 1u);
  dp.stop();
}

TEST(DecisionPoint, ReportedSelectionsSteerLaterQueries) {
  Fixture f;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.options());
  dp.bootstrap(f.snapshots());

  ReportSelectionRequest report;
  report.job = JobId(1);
  report.site = SiteId(0);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.cpus = 40;
  report.est_runtime = sim::Duration::seconds(500);

  bool acked = false;
  f.rpc.call<ReportSelectionRequest, Ack>(dp.node(), kReportSelection, report,
                                          sim::Duration::seconds(30),
                                          [&](Result<Ack> a) { acked = a.ok(); });
  f.sim.run_until(sim::Time::from_seconds(10));
  ASSERT_TRUE(acked);
  EXPECT_EQ(dp.counters().selections, 1u);

  bool checked = false;
  f.rpc.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
      dp.node(), kGetSiteLoads, f.request(), sim::Duration::seconds(30),
      [&](Result<GetSiteLoadsReply> result) {
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result.value().candidates[0].free_estimate, 60);  // 100-40
        checked = true;
      });
  f.sim.run_until(sim::Time::from_seconds(20));
  EXPECT_TRUE(checked);
  dp.stop();
}

TEST(DecisionPoint, ExchangePropagatesDispatchRecords) {
  Fixture f;
  DecisionPointOptions options = f.options();
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, options);
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, options);
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  connect({&a, &b}, overlay::Options{});

  ReportSelectionRequest report;
  report.site = SiteId(1);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.cpus = 25;
  report.est_runtime = sim::Duration::minutes(30);
  f.rpc.call<ReportSelectionRequest, Ack>(a.node(), kReportSelection, report,
                                          sim::Duration::seconds(30),
                                          [](Result<Ack>) {});

  // Before the first exchange tick, b knows nothing.
  f.sim.run_until(sim::Time::from_seconds(30));
  EXPECT_EQ(b.counters().records_applied, 0u);
  EXPECT_EQ(b.engine().view().estimated_free(SiteId(1), f.sim.now()), 90);

  // After the 1-minute exchange interval, b has learned a's dispatch.
  f.sim.run_until(sim::Time::from_seconds(90));
  EXPECT_EQ(b.counters().records_applied, 1u);
  EXPECT_EQ(b.engine().view().estimated_free(SiteId(1), f.sim.now()), 65);
  EXPECT_GE(a.counters().exchanges_sent, 1u);
  EXPECT_GE(b.counters().exchanges_received, 1u);
  a.stop();
  b.stop();
}

TEST(DecisionPoint, ExchangeRoundEncodesOnceRegardlessOfPeerCount) {
  // The state-exchange broadcast serializes its ExchangeMessage exactly
  // once per round and shares the frame across all N-1 mesh peers; the
  // wire layer's encode counter is the witness. Counters are process-wide,
  // so assert on deltas.
  Fixture f;
  DecisionPointOptions options = f.options();
  std::vector<std::unique_ptr<DecisionPoint>> dps;
  std::vector<DecisionPoint*> raw;
  for (std::uint64_t i = 0; i < 4; ++i) {
    dps.push_back(std::make_unique<DecisionPoint>(f.sim, f.transport, DpId(i),
                                                  f.catalog, f.tree, options));
    dps.back()->bootstrap(f.snapshots());
    raw.push_back(dps.back().get());
  }
  connect(raw, overlay::Options{});

  const net::wire::WireStats& stats = net::wire::wire_stats();
  const std::uint64_t encodes_before =
      stats.encodes(net::wire::MsgCategory::kStateExchange);
  const std::uint64_t bytes_before =
      stats.bytes(net::wire::MsgCategory::kStateExchange);

  // One exchange tick for each of the 4 decision points.
  f.sim.run_until(sim::Time::from_seconds(70));

  const std::uint64_t encodes =
      stats.encodes(net::wire::MsgCategory::kStateExchange) - encodes_before;
  // 4 DPs x 1 round = 4 serializations — NOT 4 DPs x 3 peers = 12.
  EXPECT_EQ(encodes, 4u);
  EXPECT_GT(stats.bytes(net::wire::MsgCategory::kStateExchange), bytes_before);
  // Every peer still got its copy: deliveries scale with the mesh degree.
  for (DecisionPoint* dp : raw) {
    EXPECT_EQ(dp->counters().exchanges_sent, 3u);
    EXPECT_EQ(dp->counters().exchanges_received, 3u);
    dp->stop();
  }
}

TEST(DecisionPoint, FloodingDedupsAcrossMesh) {
  Fixture f;
  DecisionPointOptions options = f.options();
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, options);
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, options);
  DecisionPoint c(f.sim, f.transport, DpId(2), f.catalog, f.tree, options);
  for (DecisionPoint* dp : {&a, &b, &c}) dp->bootstrap(f.snapshots());
  connect({&a, &b, &c}, overlay::Options{});

  ReportSelectionRequest report;
  report.site = SiteId(0);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.cpus = 10;
  report.est_runtime = sim::Duration::minutes(60);
  f.rpc.call<ReportSelectionRequest, Ack>(a.node(), kReportSelection, report,
                                          sim::Duration::seconds(30),
                                          [](Result<Ack>) {});

  // Several exchange rounds: b and c each apply the record exactly once
  // even though the mesh relays it from multiple directions.
  f.sim.run_until(sim::Time::from_seconds(300));
  EXPECT_EQ(b.counters().records_applied, 1u);
  EXPECT_EQ(c.counters().records_applied, 1u);
  EXPECT_GT(b.counters().records_duplicate + c.counters().records_duplicate +
                a.counters().records_duplicate,
            0u);
  // The view is not double-counted.
  EXPECT_EQ(b.engine().view().estimated_free(SiteId(0), f.sim.now()), 90);
  for (DecisionPoint* dp : {&a, &b, &c}) dp->stop();
}

TEST(DecisionPoint, DisseminationNoneNeverExchanges) {
  Fixture f;
  DecisionPointOptions options = f.options();
  options.dissemination = Dissemination::kNone;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, options);
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, options);
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  connect({&a, &b}, overlay::Options{});

  ReportSelectionRequest report;
  report.site = SiteId(0);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.cpus = 10;
  report.est_runtime = sim::Duration::minutes(60);
  f.rpc.call<ReportSelectionRequest, Ack>(a.node(), kReportSelection, report,
                                          sim::Duration::seconds(30),
                                          [](Result<Ack>) {});
  f.sim.run_until(sim::Time::from_seconds(600));
  EXPECT_EQ(a.counters().exchanges_sent, 0u);
  EXPECT_EQ(b.counters().records_applied, 0u);
  a.stop();
  b.stop();
}

TEST(DecisionPoint, SaturationSignalsReachMonitor) {
  Fixture f;
  int provisions = 0;
  InfrastructureMonitor::Options mo;
  mo.signals_to_act = 1;
  InfrastructureMonitor monitor(
      f.sim, f.transport, [&](const SaturationSignal&) { ++provisions; }, mo);

  DecisionPointOptions options = f.options();
  options.profile.workers = 1;
  options.profile.base_overhead = sim::Duration::seconds(20);  // very slow
  options.saturation_response_s = 5.0;
  options.infrastructure_monitor = monitor.node();
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, options);
  dp.bootstrap(f.snapshots());

  // Hammer the decision point so its sojourn times blow past the bound.
  for (int i = 0; i < 20; ++i) {
    f.rpc.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
        dp.node(), kGetSiteLoads, f.request(), sim::Duration::minutes(20),
        [](Result<GetSiteLoadsReply>) {});
  }
  f.sim.run_until(sim::Time::from_seconds(600));
  EXPECT_GE(dp.counters().saturation_signals, 1u);
  EXPECT_GE(monitor.signals_received(), 1u);
  EXPECT_GE(provisions, 1);
  dp.stop();
}

}  // namespace
}  // namespace digruber::digruber
