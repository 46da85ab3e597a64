#include "digruber/metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "digruber/diperf/report.hpp"

namespace digruber::metrics {
namespace {

RequestSample handled_sample(double response, double qtime, double accuracy,
                             double cpu_seconds) {
  RequestSample s;
  s.handled = true;
  s.response_s = response;
  s.dispatched = true;
  s.accuracy = accuracy;
  s.accuracy_total_share = accuracy / 10.0;
  s.started = true;
  s.qtime_s = qtime;
  s.cpu_seconds_in_window = cpu_seconds;
  return s;
}

RequestSample fallback_sample(double response) {
  RequestSample s;
  s.handled = false;
  s.response_s = response;
  s.dispatched = true;
  s.accuracy = 0.1;
  s.started = true;
  s.qtime_s = 100.0;
  s.cpu_seconds_in_window = 50.0;
  return s;
}

TEST(Metrics, SlicesSeparateHandledFromFallback) {
  MetricsAccumulator acc(/*window_s=*/3600, /*total_cpus=*/1000);
  acc.add(handled_sample(5, 0, 1.0, 600));
  acc.add(handled_sample(7, 10, 0.9, 600));
  acc.add(fallback_sample(60));

  const MetricValues handled = acc.compute(Slice::kHandled);
  EXPECT_EQ(handled.requests, 2u);
  EXPECT_NEAR(handled.request_share, 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(handled.response_s, 6.0);
  EXPECT_DOUBLE_EQ(handled.qtime_s, 5.0);
  EXPECT_DOUBLE_EQ(handled.norm_qtime_s, 2.5);
  EXPECT_NEAR(handled.accuracy, 0.95, 1e-9);
  EXPECT_NEAR(handled.utilization, 1200.0 / (3600.0 * 1000.0), 1e-12);

  const MetricValues fallback = acc.compute(Slice::kNotHandled);
  EXPECT_EQ(fallback.requests, 1u);
  EXPECT_DOUBLE_EQ(fallback.response_s, 60.0);
  EXPECT_DOUBLE_EQ(fallback.qtime_s, 100.0);

  const MetricValues all = acc.compute(Slice::kAll);
  EXPECT_EQ(all.requests, 3u);
  EXPECT_DOUBLE_EQ(all.request_share, 1.0);
  EXPECT_NEAR(all.response_s, 24.0, 1e-9);
  EXPECT_DOUBLE_EQ(all.throughput_qps, 3.0 / 3600.0);
}

TEST(Metrics, EmptySlicesAreZero) {
  MetricsAccumulator acc(3600, 1000);
  acc.add(handled_sample(5, 0, 1.0, 0));
  const MetricValues none = acc.compute(Slice::kNotHandled);
  EXPECT_EQ(none.requests, 0u);
  EXPECT_DOUBLE_EQ(none.response_s, 0.0);
  EXPECT_DOUBLE_EQ(none.accuracy, 0.0);
}

TEST(Metrics, UndispatchedExcludedFromAccuracyAndQtime) {
  MetricsAccumulator acc(100, 10);
  RequestSample s;
  s.handled = true;
  s.response_s = 2.0;
  s.dispatched = false;  // query answered but job never placed
  acc.add(s);
  acc.add(handled_sample(4.0, 6.0, 0.8, 10));
  const MetricValues handled = acc.compute(Slice::kHandled);
  EXPECT_EQ(handled.requests, 2u);
  EXPECT_DOUBLE_EQ(handled.response_s, 3.0);
  EXPECT_DOUBLE_EQ(handled.accuracy, 0.8);  // only the dispatched one
  EXPECT_DOUBLE_EQ(handled.qtime_s, 6.0);
}

TEST(CpuSecondsInWindow, OverlapCases) {
  // Fully inside.
  EXPECT_DOUBLE_EQ(cpu_seconds_in_window(10, 20, 2, 100), 20.0);
  // Truncated by the window end.
  EXPECT_DOUBLE_EQ(cpu_seconds_in_window(90, 120, 1, 100), 10.0);
  // Still running (completed < 0 means unknown).
  EXPECT_DOUBLE_EQ(cpu_seconds_in_window(50, -1, 3, 100), 150.0);
  // Started after the window.
  EXPECT_DOUBLE_EQ(cpu_seconds_in_window(150, 200, 1, 100), 0.0);
  // Never started.
  EXPECT_DOUBLE_EQ(cpu_seconds_in_window(-1, 10, 1, 100), 0.0);
  // Degenerate zero-length run.
  EXPECT_DOUBLE_EQ(cpu_seconds_in_window(30, 30, 4, 100), 0.0);
}

TEST(Metrics, NormQtimeDividesByRequests) {
  MetricsAccumulator acc(3600, 100);
  for (int i = 0; i < 10; ++i) acc.add(handled_sample(1, 50, 1.0, 0));
  const MetricValues v = acc.compute(Slice::kHandled);
  EXPECT_DOUBLE_EQ(v.qtime_s, 50.0);
  EXPECT_DOUBLE_EQ(v.norm_qtime_s, 5.0);
}

TEST(Metrics, AccuracyTotalShareTracked) {
  MetricsAccumulator acc(3600, 100);
  acc.add(handled_sample(1, 0, 0.8, 0));
  const MetricValues v = acc.compute(Slice::kAll);
  EXPECT_NEAR(v.accuracy_total_share, 0.08, 1e-9);
}

}  // namespace
}  // namespace digruber::metrics

namespace digruber::metrics {
namespace {

TEST(Fairness, JainIndexExtremes) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({3.0, 3.0, 3.0, 3.0}), 1.0);
  // One consumer takes everything among n=4 -> 1/4.
  EXPECT_DOUBLE_EQ(jain_index({8.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);  // nothing delivered
}

TEST(Fairness, JainIndexIsScaleInvariant) {
  const double a = jain_index({1.0, 2.0, 3.0});
  const double b = jain_index({10.0, 20.0, 30.0});
  EXPECT_NEAR(a, b, 1e-12);
  EXPECT_GT(a, 0.33);
  EXPECT_LT(a, 1.0);
}

TEST(Fairness, ReportSharesAndBounds) {
  const FairnessReport r = fairness({10.0, 30.0, 60.0});
  EXPECT_EQ(r.consumers, 3u);
  EXPECT_DOUBLE_EQ(r.min_share, 0.1);
  EXPECT_DOUBLE_EQ(r.max_share, 0.6);
  EXPECT_GT(r.jain, 1.0 / 3.0);
  EXPECT_LT(r.jain, 1.0);

  const FairnessReport empty = fairness({});
  EXPECT_DOUBLE_EQ(empty.jain, 1.0);
  EXPECT_EQ(empty.consumers, 0u);
}

// --- Counter tables. -------------------------------------------------------

template <class S>
class CounterTableTest : public ::testing::Test {};

using CounterSections =
    ::testing::Types<ClientTotals, ResilienceCounters, OverloadCounters,
                     MembershipCounters, PartitionCounters, EconomyCounters,
                     DurabilityCounters, OverlayCounters>;
TYPED_TEST_SUITE(CounterTableTest, CounterSections);

/// Give every member row of `s` a distinct nonzero value, `base + i`.
template <class S>
void fill(S& s, double base) {
  std::size_t i = 0;
  for (const Counter<S>& row : CounterTable<S>::rows) {
    ++i;
    if (row.count) s.*row.count = std::uint64_t(base) + i;
    if (row.amount) s.*row.amount = base + double(i) + 0.5;
  }
}

TYPED_TEST(CounterTableTest, RowsCoverEveryField) {
  using S = TypeParam;
  EXPECT_TRUE(covers_every_field<S>());
  // Writing through the rows reaches every 8-byte word of the struct.
  S s{};
  fill(s, 1.0);
  std::vector<std::uint64_t> words(sizeof(S) / sizeof(std::uint64_t));
  ASSERT_EQ(words.size() * sizeof(std::uint64_t), sizeof(S));
  std::memcpy(words.data(), &s, sizeof(S));
  for (std::size_t w = 0; w < words.size(); ++w) {
    EXPECT_NE(words[w], 0u) << "field " << w << " has no table row";
  }
}

TYPED_TEST(CounterTableTest, AccumulateSumsOrMaxesEveryMember) {
  using S = TypeParam;
  S into{};
  S from{};
  fill(into, 100.0);
  fill(from, 1.0);
  const S before = into;
  accumulate(into, from);
  for (const Counter<S>& row : CounterTable<S>::rows) {
    if (row.count) {
      const std::uint64_t want = row.agg == Agg::kMax
                                     ? std::max(before.*row.count, from.*row.count)
                                     : before.*row.count + from.*row.count;
      EXPECT_EQ(into.*row.count, want) << row.label;
    }
    if (row.amount) {
      EXPECT_DOUBLE_EQ(into.*row.amount, before.*row.amount + from.*row.amount)
          << row.label;
    }
  }
}

/// render_counters output as (label, value) cells, header row first.
std::vector<std::pair<std::string, std::string>> rendered_rows(const auto& counters) {
  std::ostringstream os;
  diperf::render_counters(os, "test counters", counters);
  std::istringstream lines(os.str());
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "== test counters ==");
  const auto trim = [](const std::string& cell) {
    const std::size_t first = cell.find_first_not_of(' ');
    return cell.substr(first, cell.find_last_not_of(' ') - first + 1);
  };
  std::vector<std::pair<std::string, std::string>> rows;
  while (std::getline(lines, line)) {
    if (line.rfind("| ", 0) != 0) continue;
    const std::size_t split = line.find(" | ");
    rows.emplace_back(trim(line.substr(1, split)),
                      trim(line.substr(split + 2, line.size() - split - 3)));
  }
  return rows;
}

std::string value_of(const auto& counters, const std::string& label) {
  for (const auto& [l, v] : rendered_rows(counters)) {
    if (l == label) return v;
  }
  return "missing";
}

TYPED_TEST(CounterTableTest, RendersOneRowPerEntryWithUniqueLabels) {
  using S = TypeParam;
  S s{};
  fill(s, 1.0);
  auto printed = rendered_rows(s);
  ASSERT_FALSE(printed.empty());
  EXPECT_EQ(printed.front().first, "counter");  // header
  printed.erase(printed.begin());

  std::vector<std::string> labels;
  for (const Counter<S>& row : CounterTable<S>::rows) labels.push_back(row.label);
  ASSERT_EQ(printed.size(), labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(printed[i].first, labels[i]);
  }
  EXPECT_EQ(std::set<std::string>(labels.begin(), labels.end()).size(),
            labels.size());
}

TEST(CounterTable, DerivedRowsPrintTheirValues) {
  ResilienceCounters res;
  res.drops_loss = 2;
  res.drops_partition = 3;
  res.drops_unknown_destination = 4;
  EXPECT_EQ(value_of(res, "drops: total"), "9");

  OverloadCounters ov;
  ov.refused = 5;
  ov.shed_deadline = 6;
  EXPECT_EQ(value_of(ov, "shed: total"), "11");

  OverlayCounters ol;
  ol.rounds = 4;
  ol.fanout_total = 10;
  ol.bytes_sent = 1000;
  EXPECT_EQ(value_of(ol, "mean fan-out"), "2.50");
  EXPECT_EQ(value_of(ol, "bytes / round"), "250");

  EconomyCounters eco;
  eco.credits_earned = 12.4;
  EXPECT_EQ(value_of(eco, "credits earned (cpu-s)"), "12");
}

TEST(CounterTable, MaxRowsAggregateByMax) {
  OverlayCounters total;
  OverlayCounters a;
  a.max_hops = 5;
  a.rounds = 2;
  OverlayCounters b;
  b.max_hops = 3;
  b.rounds = 7;
  accumulate(total, a);
  accumulate(total, b);
  EXPECT_EQ(total.max_hops, 5u);
  EXPECT_EQ(total.rounds, 9u);
  accumulate(total, OverlayCounters{});
  EXPECT_EQ(total.max_hops, 5u);
}

TEST(CounterTable, AccumulatePartAddsOnlyThatSourcesShare) {
  ResilienceCounters res;
  res.failovers = 1;
  res.drops_loss = 7;
  DpResilience dp;
  dp.restarts = 2;
  dp.pulls_served = 3;
  accumulate_part<DpResilience>(res, dp);
  accumulate_part<DpResilience>(res, dp);
  EXPECT_EQ(res.restarts, 4u);
  EXPECT_EQ(res.pulls_served, 6u);
  EXPECT_EQ(res.failovers, 1u);
  EXPECT_EQ(res.drops_loss, 7u);
}

}  // namespace
}  // namespace digruber::metrics
