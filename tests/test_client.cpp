#include "digruber/digruber/client.hpp"

#include <gtest/gtest.h>

#include "digruber/digruber/decision_point.hpp"
#include "digruber/net/sim_transport.hpp"

namespace digruber::digruber {
namespace {

net::ContainerProfile profile_with(sim::Duration base, int workers = 4) {
  net::ContainerProfile p;
  p.workers = workers;
  p.base_overhead = base;
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

  Fixture() : transport(sim, net::WanModel(net::WanParams{}, 5)) {
    tree = usla::AllocationTree::build({}, catalog).value();
  }

  DecisionPointOptions dp_options(sim::Duration base) {
    DecisionPointOptions o;
    o.profile = profile_with(base);
    o.eval_cost_per_site = sim::Duration::millis(0.1);
    return o;
  }

  std::vector<grid::SiteSnapshot> snapshots(int n_sites) {
    std::vector<grid::SiteSnapshot> out;
    for (int i = 0; i < n_sites; ++i) {
      grid::SiteSnapshot s;
      s.site = SiteId(std::uint64_t(i));
      s.total_cpus = 100;
      s.free_cpus = 50 + i;  // site n-1 is the least used
      out.push_back(s);
    }
    return out;
  }

  std::vector<SiteId> all_sites(int n) {
    std::vector<SiteId> out;
    for (int i = 0; i < n; ++i) out.push_back(SiteId(std::uint64_t(i)));
    return out;
  }

  grid::Job job() {
    grid::Job j;
    j.id = JobId(1);
    j.vo = VoId(0);
    j.group = GroupId(0);
    j.user = UserId(0);
    j.cpus = 1;
    j.runtime = sim::Duration::seconds(60);
    return j;
  }
};

TEST(Client, HandledQueryPicksLeastUsedSite) {
  Fixture f;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree,
                   f.dp_options(sim::Duration::millis(50)));
  dp.bootstrap(f.snapshots(5));

  DiGruberClient client(f.sim, f.transport, ClientId(0), dp.node(), f.all_sites(5),
                        gruber::make_selector("least-used", Rng(1)), Rng(2));
  QueryOutcome got;
  bool done = false;
  client.schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
    got = outcome;
    done = true;
  });
  f.sim.run_until(sim::Time::from_seconds(120));
  ASSERT_TRUE(done);
  EXPECT_TRUE(got.handled_by_gruber);
  EXPECT_EQ(got.site, SiteId(4));
  EXPECT_EQ(got.believed_free, 54);
  EXPECT_GT(got.response.to_seconds(), 0.0);
  EXPECT_LT(got.response.to_seconds(), 5.0);
  EXPECT_EQ(client.counters().handled, 1u);
  EXPECT_EQ(client.counters().fallbacks, 0u);
  // Both round trips hit the decision point.
  EXPECT_EQ(dp.counters().queries, 1u);
  EXPECT_EQ(dp.counters().selections, 1u);
  dp.stop();
}

TEST(Client, TimeoutFallsBackToRandomSite) {
  Fixture f;
  // Service takes 100 s; client timeout is 10 s.
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree,
                   f.dp_options(sim::Duration::seconds(100)));
  dp.bootstrap(f.snapshots(5));

  ClientOptions options;
  options.timeout = sim::Duration::seconds(10);
  DiGruberClient client(f.sim, f.transport, ClientId(0), dp.node(), f.all_sites(5),
                        gruber::make_selector("least-used", Rng(1)), Rng(2), options);
  QueryOutcome got;
  bool done = false;
  client.schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
    got = outcome;
    done = true;
  });
  f.sim.run_until(sim::Time::from_seconds(300));
  ASSERT_TRUE(done);
  EXPECT_FALSE(got.handled_by_gruber);
  EXPECT_EQ(got.believed_free, -1);
  EXPECT_NEAR(got.response.to_seconds(), 10.0, 0.01);
  EXPECT_LT(got.site.value(), 5u);
  EXPECT_EQ(client.counters().fallbacks, 1u);
  EXPECT_EQ(client.counters().handled, 0u);
  dp.stop();
}

TEST(Client, StarvationFallsBackWhenNoCandidate) {
  Fixture f;
  // All sites full: the reply is empty, so the client picks randomly.
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree,
                   f.dp_options(sim::Duration::millis(50)));
  std::vector<grid::SiteSnapshot> full = f.snapshots(3);
  for (auto& s : full) s.free_cpus = 0;
  dp.bootstrap(full);

  DiGruberClient client(f.sim, f.transport, ClientId(0), dp.node(), f.all_sites(3),
                        gruber::make_selector("least-used", Rng(1)), Rng(2));
  QueryOutcome got;
  client.schedule(f.job(), [&](grid::Job, QueryOutcome outcome) { got = outcome; });
  f.sim.run_until(sim::Time::from_seconds(120));
  EXPECT_FALSE(got.handled_by_gruber);
  EXPECT_TRUE(got.starved);
  EXPECT_EQ(client.counters().starvations, 1u);
  dp.stop();
}

TEST(Client, RebindSwitchesDecisionPoint) {
  Fixture f;
  DecisionPoint slow(f.sim, f.transport, DpId(0), f.catalog, f.tree,
                     f.dp_options(sim::Duration::seconds(100)));
  DecisionPoint fast(f.sim, f.transport, DpId(1), f.catalog, f.tree,
                     f.dp_options(sim::Duration::millis(50)));
  slow.bootstrap(f.snapshots(3));
  fast.bootstrap(f.snapshots(3));

  ClientOptions options;
  options.timeout = sim::Duration::seconds(5);
  DiGruberClient client(f.sim, f.transport, ClientId(0), slow.node(), f.all_sites(3),
                        gruber::make_selector("least-used", Rng(1)), Rng(2), options);

  int handled = 0, fallback = 0;
  client.schedule(f.job(), [&](grid::Job, QueryOutcome o) {
    o.handled_by_gruber ? ++handled : ++fallback;
    client.rebind(fast.node());
    client.schedule(f.job(), [&](grid::Job, QueryOutcome o2) {
      o2.handled_by_gruber ? ++handled : ++fallback;
    });
  });
  f.sim.run_until(sim::Time::from_seconds(300));
  EXPECT_EQ(fallback, 1);  // against the slow decision point
  EXPECT_EQ(handled, 1);   // after rebinding to the fast one
  slow.stop();
  fast.stop();
}

TEST(Client, ManyConcurrentQueriesAllComplete) {
  Fixture f;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree,
                   f.dp_options(sim::Duration::millis(200)));
  dp.bootstrap(f.snapshots(10));

  DiGruberClient client(f.sim, f.transport, ClientId(0), dp.node(), f.all_sites(10),
                        gruber::make_selector("top-k", Rng(1)), Rng(2));
  int completed = 0;
  for (int i = 0; i < 30; ++i) {
    client.schedule(f.job(), [&](grid::Job, QueryOutcome) { ++completed; });
  }
  f.sim.run_until(sim::Time::from_seconds(600));
  EXPECT_EQ(completed, 30);
  EXPECT_EQ(client.counters().queries, 30u);
  EXPECT_EQ(client.counters().handled + client.counters().fallbacks, 30u);
  dp.stop();
}

}  // namespace
}  // namespace digruber::digruber
