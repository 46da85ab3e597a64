#include "digruber/gruber/view.hpp"

#include <gtest/gtest.h>

namespace digruber::gruber {
namespace {

grid::SiteSnapshot snapshot(std::uint64_t site, std::int32_t total,
                            std::int32_t free, double as_of_s = 0.0) {
  grid::SiteSnapshot s;
  s.site = SiteId(site);
  s.total_cpus = total;
  s.free_cpus = free;
  s.as_of = sim::Time::from_seconds(as_of_s);
  return s;
}

DispatchRecord record(std::uint64_t site, std::int32_t cpus, double when_s,
                      double runtime_s, std::uint64_t vo = 0,
                      std::uint64_t seq = 1) {
  DispatchRecord r;
  r.origin = DpId(0);
  r.seq = seq;
  r.site = SiteId(site);
  r.vo = VoId(vo);
  r.group = GroupId(vo);
  r.user = UserId(vo);
  r.cpus = cpus;
  r.when = sim::Time::from_seconds(when_s);
  r.est_runtime = sim::Duration::seconds(runtime_s);
  return r;
}

TEST(GridView, BootstrapInstallsBaseState) {
  GridView view;
  view.bootstrap({snapshot(0, 100, 80), snapshot(1, 50, 50)});
  EXPECT_EQ(view.site_count(), 2u);
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::zero()), 80);
  EXPECT_EQ(view.estimated_free(SiteId(1), sim::Time::zero()), 50);
  EXPECT_EQ(view.estimated_free(SiteId(9), sim::Time::zero()), 0);  // unknown
}

TEST(GridView, DispatchesReduceEstimate) {
  GridView view;
  view.bootstrap({snapshot(0, 100, 100)});
  view.record_dispatch(record(0, 10, /*when=*/10, /*runtime=*/100));
  view.record_dispatch(record(0, 5, 20, 100, 0, 2));
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::from_seconds(30)), 85);
  EXPECT_EQ(view.dispatches_recorded(), 2u);
}

TEST(GridView, RecordsAgeOutAfterEstimatedRuntime) {
  GridView view;
  view.bootstrap({snapshot(0, 100, 100)});
  view.record_dispatch(record(0, 10, 0, 60));
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::from_seconds(59)), 90);
  // At exactly when + est_runtime the job is assumed complete.
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::from_seconds(60)), 100);
}

TEST(GridView, EstimateNeverNegative) {
  GridView view;
  view.bootstrap({snapshot(0, 20, 10)});
  view.record_dispatch(record(0, 50, 0, 1000));
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::from_seconds(1)), 0);
}

TEST(GridView, FreshSnapshotAbsorbsOlderDispatches) {
  GridView view;
  view.bootstrap({snapshot(0, 100, 100, 0)});
  view.record_dispatch(record(0, 10, /*when=*/5, 1000));
  // Snapshot taken at t=20 already reflects that job.
  view.apply_snapshot(snapshot(0, 100, 90, 20));
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::from_seconds(25)), 90);
  // A dispatch after the snapshot still subtracts.
  view.record_dispatch(record(0, 7, 30, 1000, 0, 2));
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::from_seconds(35)), 83);
}

TEST(GridView, StaleSnapshotIgnored) {
  GridView view;
  view.apply_snapshot(snapshot(0, 100, 40, /*as_of=*/100));
  view.apply_snapshot(snapshot(0, 100, 99, /*as_of=*/50));  // older
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::from_seconds(100)), 40);
}

TEST(GridView, EstimatedSnapshotMergesVoUsage) {
  GridView view;
  grid::SiteSnapshot base = snapshot(0, 100, 80);
  base.running_per_vo[VoId(1)] = 20;
  view.apply_snapshot(base);
  view.record_dispatch(record(0, 5, 10, 1000, /*vo=*/1));
  view.record_dispatch(record(0, 3, 10, 1000, /*vo=*/2, 2));

  const grid::SiteSnapshot est =
      view.estimated_snapshot(SiteId(0), sim::Time::from_seconds(20));
  EXPECT_EQ(est.free_cpus, 72);
  EXPECT_EQ(est.running_per_vo.at(VoId(1)), 25);
  EXPECT_EQ(est.running_per_vo.at(VoId(2)), 3);
}

TEST(GridView, GroupAndUserActiveCounts) {
  GridView view;
  view.bootstrap({snapshot(0, 100, 100)});
  DispatchRecord r = record(0, 4, 0, 100);
  r.group = GroupId(7);
  r.user = UserId(9);
  view.record_dispatch(r);
  const auto t = sim::Time::from_seconds(10);
  EXPECT_EQ(view.active_for_group(SiteId(0), GroupId(7), t), 4);
  EXPECT_EQ(view.active_for_group(SiteId(0), GroupId(8), t), 0);
  EXPECT_EQ(view.active_for_user(SiteId(0), UserId(9), t), 4);
  EXPECT_EQ(view.active_for_user(SiteId(0), UserId(1), t), 0);
  // After aging, counts return to zero.
  const auto later = sim::Time::from_seconds(200);
  EXPECT_EQ(view.active_for_group(SiteId(0), GroupId(7), later), 0);
}

TEST(GridView, LoadsCoverAllSites) {
  GridView view;
  view.bootstrap({snapshot(0, 100, 60), snapshot(1, 40, 40)});
  view.record_dispatch(record(1, 10, 0, 500));
  const std::vector<SiteLoad> loads = view.loads(sim::Time::from_seconds(10));
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_EQ(loads[0].site, SiteId(0));
  EXPECT_EQ(loads[0].free_estimate, 60);
  EXPECT_EQ(loads[0].raw_free, 60);
  EXPECT_EQ(loads[1].free_estimate, 30);
  EXPECT_EQ(loads[1].total_cpus, 40);
}

DispatchRecord origin_record(std::uint64_t origin, std::uint64_t seq,
                             std::uint64_t site, std::int32_t cpus,
                             double when_s, double runtime_s,
                             std::uint64_t vo = 0) {
  DispatchRecord r = record(site, cpus, when_s, runtime_s, vo, seq);
  r.origin = DpId(origin);
  return r;
}

// Window wide open for records dispatched around t=0..100 with long
// runtimes: everything below is settled and nowhere near expiry.
const sim::Time kAsOf = sim::Time::from_seconds(200);
const sim::Time kHorizon = sim::Time::from_seconds(210);

TEST(ViewDigest, OrderIndependentAndContentOnly) {
  const std::vector<DispatchRecord> records = {
      origin_record(0, 1, 0, 4, 10, 900, /*vo=*/1),
      origin_record(1, 1, 1, 2, 20, 900, /*vo=*/2),
      origin_record(1, 2, 0, 8, 30, 900, /*vo=*/1),
  };
  GridView a, b;
  a.bootstrap({snapshot(0, 100, 100), snapshot(1, 50, 50)});
  b.bootstrap({snapshot(0, 100, 100), snapshot(1, 50, 50)});
  for (const auto& r : records) a.record_dispatch(r);
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    b.record_dispatch(*it);
  }
  EXPECT_TRUE(a.digest(kAsOf, kHorizon) == b.digest(kAsOf, kHorizon));
  // The bounds are comparison parameters, not identity: a digest of the
  // same content over a different (but equally covering) window matches.
  EXPECT_TRUE(a.digest(kAsOf, kHorizon) ==
              b.digest(kAsOf + sim::Duration::seconds(50), kHorizon));
}

TEST(ViewDigest, SettledWindowExcludesFreshAndExpiringRecords) {
  GridView a, b;
  a.bootstrap({snapshot(0, 100, 100)});
  b.bootstrap({snapshot(0, 100, 100)});
  const DispatchRecord settled = origin_record(0, 1, 0, 4, 10, 3600);
  a.record_dispatch(settled);
  b.record_dispatch(settled);
  // Only a holds a record newer than as_of (still propagating through
  // normal exchange) and one expiring before the horizon (could age out
  // between sender compute and receiver compare): neither may show up as
  // divergence.
  a.record_dispatch(origin_record(0, 2, 0, 2, /*when=*/205, 3600));
  a.record_dispatch(origin_record(0, 3, 0, 2, /*when=*/20, /*runtime=*/185));
  EXPECT_TRUE(a.digest(kAsOf, kHorizon) == b.digest(kAsOf, kHorizon));
  // A settled, long-lived difference IS divergence.
  a.record_dispatch(origin_record(0, 4, 0, 2, 40, 3600));
  EXPECT_FALSE(a.digest(kAsOf, kHorizon) == b.digest(kAsOf, kHorizon));
}

TEST(ViewDigest, DivergedVosTargetsExactlyTheDifferingVos) {
  GridView a, b;
  a.bootstrap({snapshot(0, 100, 100)});
  b.bootstrap({snapshot(0, 100, 100)});
  const DispatchRecord shared = origin_record(0, 1, 0, 4, 10, 3600, /*vo=*/1);
  a.record_dispatch(shared);
  b.record_dispatch(shared);
  b.record_dispatch(origin_record(2, 7, 0, 2, 50, 3600, /*vo=*/3));
  const std::vector<VoId> vos =
      diverged_vos(a.digest(kAsOf, kHorizon), b.digest(kAsOf, kHorizon));
  ASSERT_EQ(vos.size(), 1u);
  EXPECT_EQ(vos[0], VoId(3));
  // The epoch vector pinpoints the origin whose tail is missing.
  const ViewDigest db = b.digest(kAsOf, kHorizon);
  ASSERT_EQ(db.epochs.size(), 2u);
  EXPECT_EQ(db.epochs[1].origin, DpId(2));
  EXPECT_EQ(db.epochs[1].max_seq, 7u);
}

TEST(ViewDigest, BaseStateDivergenceIsDetected) {
  GridView a, b;
  a.bootstrap({snapshot(0, 100, 100)});
  b.bootstrap({snapshot(0, 100, 90)});
  EXPECT_FALSE(a.digest(kAsOf, kHorizon) == b.digest(kAsOf, kHorizon));
  EXPECT_TRUE(diverged_vos(a.digest(kAsOf, kHorizon), b.digest(kAsOf, kHorizon))
                  .empty());
}

TEST(GridView, HoldsMatchesOriginAndSeqUntilANewerSnapshotErases) {
  GridView view;
  view.bootstrap({snapshot(0, 100, 100), snapshot(1, 100, 100)});
  const DispatchRecord r = origin_record(2, 7, 0, 4, 10, 3600);
  EXPECT_FALSE(view.holds(r));
  view.record_dispatch(r);
  EXPECT_TRUE(view.holds(r));
  EXPECT_FALSE(view.holds(origin_record(2, 8, 0, 4, 10, 3600)));
  EXPECT_FALSE(view.holds(origin_record(3, 7, 0, 4, 10, 3600)));
  // A snapshot taken after the dispatch already reflects it.
  view.apply_snapshot(snapshot(0, 100, 96, /*as_of=*/50));
  EXPECT_FALSE(view.holds(r));
}

}  // namespace
}  // namespace digruber::gruber
