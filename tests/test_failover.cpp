// Failover behavior: client retry across backup decision points, circuit
// breaker with half-open probing, all-points-down fallback, crash/restart
// catch-up re-convergence, and partition drop accounting.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "digruber/digruber/client.hpp"
#include "digruber/digruber/decision_point.hpp"
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

  explicit Fixture(std::uint64_t seed = 1)
      : transport(sim, net::WanModel(net::WanParams{}, seed)) {
    tree = usla::AllocationTree::build({}, catalog).value();
  }

  DecisionPointOptions dp_options() {
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

  std::vector<SiteId> sites() { return {SiteId(0), SiteId(1), SiteId(2)}; }

  grid::Job job() {
    grid::Job j;
    j.id = JobId(1);
    j.vo = VoId(0);
    j.group = GroupId(0);
    j.user = UserId(0);
    j.cpus = 1;
    return j;
  }

  std::unique_ptr<DiGruberClient> client(std::vector<NodeId> dps,
                                         ClientOptions options) {
    return std::make_unique<DiGruberClient>(
        sim, transport, ClientId(0), std::move(dps), sites(),
        gruber::make_selector("top-k", sim.rng().fork()), sim.rng().fork(),
        options);
  }
};

TEST(Failover, CrashedPrimaryFailsOverToBackupWithinDeadline) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.dp_options());
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, f.dp_options());
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  connect({&a, &b}, overlay::Options{});

  ClientOptions options;
  options.attempt_timeout = sim::Duration::seconds(5);
  auto client = f.client({a.node(), b.node()}, options);

  a.crash();

  bool done = false;
  client->schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
    done = true;
    EXPECT_TRUE(outcome.handled_by_gruber);
    EXPECT_EQ(outcome.served_by, b.node());
    EXPECT_LT(outcome.response.to_seconds(), 60.0);
  });
  f.sim.run_until(sim::Time::from_seconds(120));
  EXPECT_TRUE(done);
  EXPECT_GE(client->counters().failovers, 1u);
  EXPECT_EQ(client->counters().fallbacks, 0u);
  EXPECT_EQ(b.counters().queries, 1u);
  b.stop();
}

TEST(Failover, BreakerTripsThenHalfOpenProbeRecovers) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.dp_options());
  a.bootstrap(f.snapshots());

  ClientOptions options;
  options.attempt_timeout = sim::Duration::seconds(2);
  options.breaker_threshold = 2;
  options.breaker_cooldown = sim::Duration::seconds(30);
  auto client = f.client({a.node()}, options);

  a.crash();

  // Query 1: two timed-out attempts trip the breaker; with the only
  // decision point open and cooling down, the query degrades to the
  // random-site fallback.
  bool first_done = false;
  client->schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
    first_done = true;
    EXPECT_FALSE(outcome.handled_by_gruber);
    EXPECT_FALSE(outcome.served_by.valid());
  });
  f.sim.run_until(sim::Time::from_seconds(20));
  ASSERT_TRUE(first_done);
  EXPECT_EQ(client->counters().breaker_trips, 1u);
  EXPECT_EQ(client->counters().all_dps_down_fallbacks, 1u);
  EXPECT_EQ(client->counters().fallbacks, 1u);

  // Bring the decision point back; once the cooldown has elapsed, the next
  // query rides the half-open probe and closes the breaker again.
  a.restart(f.snapshots());
  ASSERT_TRUE(a.running());

  bool second_done = false;
  f.sim.schedule_at(sim::Time::from_seconds(60), [&] {
    client->schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
      second_done = true;
      EXPECT_TRUE(outcome.handled_by_gruber);
      EXPECT_EQ(outcome.served_by, a.node());
    });
  });
  f.sim.run_until(sim::Time::from_seconds(150));
  EXPECT_TRUE(second_done);
  EXPECT_EQ(client->counters().breaker_trips, 1u);  // no re-trip: probe succeeded

  // Breaker closed: a third query goes straight through.
  bool third_done = false;
  client->schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
    third_done = true;
    EXPECT_TRUE(outcome.handled_by_gruber);
  });
  f.sim.run_until(sim::Time::from_seconds(300));
  EXPECT_TRUE(third_done);
  a.stop();
}

TEST(Failover, RestartRunsCatchUpAndReconverges) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.dp_options());
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, f.dp_options());
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  connect({&a, &b}, overlay::Options{});

  net::RpcClient rpc(f.sim, f.transport);
  ReportSelectionRequest report;
  report.site = SiteId(0);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.cpus = 40;
  report.est_runtime = sim::Duration::minutes(60);
  rpc.call<ReportSelectionRequest, Ack>(a.node(), kReportSelection, report,
                                        sim::Duration::seconds(30),
                                        [](Result<Ack>) {});

  // One exchange round: b has learned a's dispatch.
  f.sim.run_until(sim::Time::from_seconds(90));
  ASSERT_EQ(b.counters().records_applied, 1u);

  // Crash wipes a's volatile state; restart re-bootstraps and re-learns
  // the still-active record from b through a full kDeltaPull.
  f.sim.schedule_at(sim::Time::from_seconds(100), [&] { a.crash(); });
  f.sim.schedule_at(sim::Time::from_seconds(110), [&] { a.restart(f.snapshots()); });
  f.sim.run_until(sim::Time::from_seconds(140));

  EXPECT_EQ(a.counters().restarts, 1u);
  EXPECT_EQ(a.incarnation(), 1u);
  EXPECT_EQ(a.counters().resync_records, 1u);
  EXPECT_GE(b.counters().pulls_served, 1u);
  EXPECT_EQ(a.engine().view().estimated_free(SiteId(0), f.sim.now()), 60);

  // Post-restart selections use a fresh sequence epoch, so b applies them
  // rather than mistaking them for pre-crash duplicates.
  ReportSelectionRequest second = report;
  second.cpus = 10;
  rpc.call<ReportSelectionRequest, Ack>(a.node(), kReportSelection, second,
                                        sim::Duration::seconds(30),
                                        [](Result<Ack>) {});
  f.sim.run_until(sim::Time::from_seconds(260));
  EXPECT_EQ(b.counters().records_applied, 2u);
  EXPECT_EQ(b.engine().view().estimated_free(SiteId(0), f.sim.now()), 50);
  a.stop();
  b.stop();
}

TEST(Failover, MeshDpAnswersFullPullAfterPeerRestart) {
  // Partition tolerance off, full mesh: no digests ride the exchanges, so
  // a restarted point re-syncs with the full form of kDeltaPull (no VOs,
  // no bases) and its neighbor answers with every active record.
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.dp_options());
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, f.dp_options());
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  connect({&a, &b}, overlay::Options{});

  net::RpcClient rpc(f.sim, f.transport);
  for (const std::int32_t cpus : {20, 15}) {
    ReportSelectionRequest report;
    report.site = SiteId(0);
    report.vo = VoId(0);
    report.group = GroupId(0);
    report.user = UserId(0);
    report.cpus = cpus;
    report.est_runtime = sim::Duration::minutes(60);
    rpc.call<ReportSelectionRequest, Ack>(b.node(), kReportSelection, report,
                                          sim::Duration::seconds(30),
                                          [](Result<Ack>) {});
  }
  f.sim.schedule_at(sim::Time::from_seconds(30), [&] { a.crash(); });
  f.sim.schedule_at(sim::Time::from_seconds(40), [&] { a.restart(f.snapshots()); });
  f.sim.run_until(sim::Time::from_seconds(50));

  // The restart pulled b's two records as a full pull, not a targeted one.
  EXPECT_EQ(b.counters().pulls_served, 1u);
  EXPECT_EQ(a.counters().delta_pulls_sent, 0u);
  EXPECT_EQ(a.counters().catchup_records_received, 2u);
  EXPECT_EQ(a.counters().resync_records, 2u);
  EXPECT_EQ(a.engine().view().estimated_free(SiteId(0), f.sim.now()), 65);

  // On the wire: the full form returns every active record, no bases and
  // no digest (nothing was compared).
  DeltaPullRequest full;
  full.from = DpId(7);
  ASSERT_TRUE(full.full());
  bool replied = false;
  rpc.call<DeltaPullRequest, DeltaPullReply>(
      b.node(), kDeltaPull, full, sim::Duration::seconds(30),
      [&](Result<DeltaPullReply> result) {
        ASSERT_TRUE(result.ok());
        replied = true;
        EXPECT_EQ(result.value().from, DpId(1));
        EXPECT_EQ(result.value().records.size(), 2u);
        EXPECT_TRUE(result.value().bases.empty());
        EXPECT_TRUE(result.value().digest.vos.empty());
      });
  f.sim.run_until(sim::Time::from_seconds(60));
  EXPECT_TRUE(replied);
  EXPECT_EQ(b.counters().pulls_served, 2u);
  a.stop();
  b.stop();
}

TEST(Failover, PartitionDropsExchangeTrafficUntilHealed) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.dp_options());
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, f.dp_options());
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  connect({&a, &b}, overlay::Options{});

  net::RpcClient rpc(f.sim, f.transport);
  ReportSelectionRequest report;
  report.site = SiteId(0);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.cpus = 40;
  report.est_runtime = sim::Duration::minutes(60);
  rpc.call<ReportSelectionRequest, Ack>(a.node(), kReportSelection, report,
                                        sim::Duration::seconds(30),
                                        [](Result<Ack>) {});

  // Partition a's island away before the first exchange tick.
  f.sim.schedule_at(sim::Time::from_seconds(10), [&] {
    f.transport.set_island(a.node(), 1);
    f.transport.set_island(a.peer_node(), 1);
  });
  f.sim.run_until(sim::Time::from_seconds(90));
  EXPECT_TRUE(f.transport.partitioned(a.peer_node(), b.node()));
  EXPECT_EQ(b.counters().records_applied, 0u);
  EXPECT_GE(f.transport.packets_dropped(net::DropCause::kPartition), 1u);

  // Heal; flooding does not retransmit the lost round, but records
  // dispatched after the heal propagate again.
  f.sim.schedule_at(sim::Time::from_seconds(100), [&] { f.transport.heal_partition(); });
  f.sim.schedule_at(sim::Time::from_seconds(110), [&] {
    ReportSelectionRequest second = report;
    second.cpus = 10;
    rpc.call<ReportSelectionRequest, Ack>(a.node(), kReportSelection, second,
                                          sim::Duration::seconds(30),
                                          [](Result<Ack>) {});
  });
  f.sim.run_until(sim::Time::from_seconds(240));
  EXPECT_FALSE(f.transport.partitioned(a.peer_node(), b.node()));
  EXPECT_EQ(b.counters().records_applied, 1u);
  a.stop();
  b.stop();
}

TEST(Failover, RoundGapCatchUpRacingDeltaPullLosesNothingDoublesNothing) {
  // After a heal the SAME exchange frame triggers both forms of kDeltaPull
  // at once: the round gap fires a full pull to every neighbor while the
  // piggybacked digest mismatch fires a targeted one. Both replies carry
  // overlapping record sets; the one apply routine's dedup set must land
  // every split-era record exactly once on each side — applying one twice
  // would double-subtract its CPUs, losing one would leave the views
  // diverged forever.
  Fixture f;
  auto dp_opts = f.dp_options();
  dp_opts.partition.enabled = true;
  dp_opts.partition.delta_pull_min_gap = sim::Duration::seconds(5);
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, dp_opts);
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, dp_opts);
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  connect({&a, &b}, overlay::Options{});

  net::RpcClient rpc_a(f.sim, f.transport);
  net::RpcClient rpc_b(f.sim, f.transport);
  auto report = [&](net::RpcClient& rpc, NodeId dp, std::int32_t cpus) {
    ReportSelectionRequest r;
    r.site = SiteId(0);
    r.vo = VoId(0);
    r.group = GroupId(0);
    r.user = UserId(0);
    r.cpus = cpus;
    r.est_runtime = sim::Duration::minutes(180);
    rpc.call<ReportSelectionRequest, Ack>(dp, kReportSelection, r,
                                          sim::Duration::seconds(30),
                                          [](Result<Ack>) {});
  };

  // A shared pre-split record, exchanged normally.
  f.sim.schedule_at(sim::Time::from_seconds(30),
                    [&] { report(rpc_a, a.node(), 40); });
  // Split both of b's endpoints away, with rpc_b alongside so the minority
  // side keeps taking placements; each side admits work the other cannot
  // see, and the exchange rounds crossing the cut are dropped for good
  // (flooding never retransmits a lost round).
  f.sim.schedule_at(sim::Time::from_seconds(100), [&] {
    f.transport.set_island(b.node(), 1);
    f.transport.set_island(b.peer_node(), 1);
    f.transport.set_island(rpc_b.node(), 1);
  });
  f.sim.schedule_at(sim::Time::from_seconds(110),
                    [&] { report(rpc_a, a.node(), 10); });
  f.sim.schedule_at(sim::Time::from_seconds(115),
                    [&] { report(rpc_b, b.node(), 5); });
  f.sim.schedule_at(sim::Time::from_seconds(250),
                    [&] { f.transport.heal_partition(); });

  // Give the post-heal rounds time to detect the gap, race both repair
  // paths, and let the split-era records settle into the digest window.
  f.sim.run_until(sim::Time::from_seconds(600));

  // The race actually happened: a round gap fired a full pull somewhere,
  // and at least one digest mismatch fired a targeted pull.
  EXPECT_GE(a.counters().gap_resyncs + b.counters().gap_resyncs, 1u);
  EXPECT_GE(a.counters().catchup_records_received +
                b.counters().catchup_records_received,
            1u);
  EXPECT_GE(a.counters().digest_mismatches + b.counters().digest_mismatches, 1u);
  EXPECT_GE(a.counters().delta_pulls_sent + b.counters().delta_pulls_sent, 1u);

  // Exactly-once accounting: every record (40 + 10 + 5 CPUs, all still
  // running) is counted once on both sides — a lost record would leave
  // one side above 45 free, a double-applied one would drop it below.
  const sim::Time now = f.sim.now();
  EXPECT_EQ(a.engine().view().estimated_free(SiteId(0), now), 45);
  EXPECT_EQ(b.engine().view().estimated_free(SiteId(0), now), 45);

  // And the settled digests agree: the pair fully reconciled.
  const auto da = a.engine().view().digest(sim::Time::from_seconds(500),
                                           sim::Time::from_seconds(505));
  const auto db = b.engine().view().digest(sim::Time::from_seconds(500),
                                           sim::Time::from_seconds(505));
  EXPECT_TRUE(da == db);
  a.stop();
  b.stop();
}

TEST(Failover, TargetedPullRestoresRecordErasedByNewerBase) {
  // b restarts with fresher base snapshots and re-learns a's record by a
  // full pull. a then adopts b's newer bases through a targeted pull,
  // which erases the record from a's view (a snapshot reflects the
  // dispatches before it), while b still counts it. The record is in a's
  // dedup set, so only the targeted pull's restore puts it back; without
  // it the two digests never agree again.
  Fixture f;
  auto dp_opts = f.dp_options();
  dp_opts.partition.enabled = true;
  dp_opts.partition.delta_pull_min_gap = sim::Duration::seconds(5);
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, dp_opts);
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, dp_opts);
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  connect({&a, &b}, overlay::Options{});

  net::RpcClient rpc(f.sim, f.transport);
  ReportSelectionRequest report;
  report.site = SiteId(0);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.cpus = 40;
  report.est_runtime = sim::Duration::minutes(180);
  rpc.call<ReportSelectionRequest, Ack>(a.node(), kReportSelection, report,
                                        sim::Duration::seconds(30),
                                        [](Result<Ack>) {});
  f.sim.schedule_at(sim::Time::from_seconds(100), [&] { b.crash(); });
  f.sim.schedule_at(sim::Time::from_seconds(110), [&] {
    auto fresher = f.snapshots();
    for (grid::SiteSnapshot& s : fresher) s.as_of = f.sim.now();
    b.restart(fresher);
  });
  f.sim.run_until(sim::Time::from_seconds(900));

  EXPECT_GE(a.counters().delta_pulls_sent, 1u);
  const sim::Time now = f.sim.now();
  EXPECT_EQ(a.engine().view().estimated_free(SiteId(0), now),
            b.engine().view().estimated_free(SiteId(0), now));
  const auto da = a.engine().view().digest(sim::Time::from_seconds(800),
                                           sim::Time::from_seconds(805));
  const auto db = b.engine().view().digest(sim::Time::from_seconds(800),
                                           sim::Time::from_seconds(805));
  EXPECT_TRUE(da == db);
  a.stop();
  b.stop();
}

TEST(Failover, DegradedNackRedirectsWithoutQuarantine) {
  // Regression: a level-2 degraded NACK (quorum stale behind a partition)
  // used to be treated like a draining NACK and quarantined the decision
  // point permanently — a mere heal produces no membership epoch bump, so
  // the client never routed to it again. Degraded must only penalize the
  // p2c score; the point has to be routable the moment the split heals.
  Fixture f;
  auto dp_opts = f.dp_options();
  dp_opts.partition.enabled = true;
  dp_opts.partition.staleness_threshold = sim::Duration::seconds(45);
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, dp_opts);
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, dp_opts);
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  connect({&a, &b}, overlay::Options{});

  ClientOptions options;
  options.attempt_timeout = sim::Duration::seconds(5);
  options.membership_aware = true;  // the buggy path quarantined via this
  auto client = f.client({a.node()}, options);

  // Cut b away before the first exchange round: a keeps serving clients
  // but its only peer goes stale, so its quorum view degrades to level 2.
  f.sim.schedule_at(sim::Time::from_seconds(10), [&] {
    f.transport.set_island(b.node(), 1);
    f.transport.set_island(b.peer_node(), 1);
  });

  bool split_done = false;
  f.sim.schedule_at(sim::Time::from_seconds(120), [&] {
    client->schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
      split_done = true;
      // The only configured decision point refuses placement work while
      // degraded, so this query degrades to the random-site fallback.
      EXPECT_FALSE(outcome.handled_by_gruber);
    });
  });
  // The refused query retries inside its 60 s budget, then falls back.
  f.sim.run_until(sim::Time::from_seconds(190));
  ASSERT_TRUE(split_done);
  EXPECT_GE(a.counters().degraded_refusals, 1u);
  EXPECT_GE(client->counters().client_degraded_redirects, 1u);
  EXPECT_EQ(client->counters().client_dps_quarantined, 0u) << "degraded NACK must not "
                                              "quarantine a live point";

  // Heal; the next exchange round refreshes a's staleness clock and the
  // same client must be able to route to a again with no membership event.
  f.sim.schedule_at(sim::Time::from_seconds(190),
                    [&] { f.transport.heal_partition(); });
  bool healed_done = false;
  f.sim.schedule_at(sim::Time::from_seconds(280), [&] {
    client->schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
      healed_done = true;
      EXPECT_TRUE(outcome.handled_by_gruber);
      EXPECT_EQ(outcome.served_by, a.node());
    });
  });
  f.sim.run_until(sim::Time::from_seconds(400));
  ASSERT_TRUE(healed_done);
  EXPECT_EQ(client->counters().client_dps_quarantined, 0u);
  a.stop();
  b.stop();
}

}  // namespace
}  // namespace digruber::digruber
