#pragma once

#include <cstdint>
#include <vector>

#include "digruber/common/stats.hpp"
#include "digruber/grid/job.hpp"
#include "digruber/metrics/counters.hpp"
#include "digruber/trace/histogram.hpp"

namespace digruber::metrics {

/// The paper's five evaluation metrics (Section 4.2):
///   Response  — mean broker response time over queries,
///   Throughput — completed queries per second,
///   QTime     — mean site-queue wait (dispatch -> start),
///   Util      — consumed CPU time / available CPU time,
///   Accuracy  — mean per-job scheduling accuracy SA_i.
///
/// Accuracy note: the text defines SA_i as "free resources at the selected
/// site / total free resources over the entire grid"; read literally that
/// is bounded by 1/#sites-ish yet the paper plots accuracies near 100%, so
/// (like the original figures) we report SA_i relative to the *best*
/// site: free(selected)/free(best) at dispatch. The literal total-share
/// variant is also computed and reported as `accuracy_total_share`.
struct MetricValues {
  double response_s = 0.0;
  /// Response-time distribution tail, from an HDR-style log-bucketed
  /// histogram over the slice (<1% relative error). Mean response hides
  /// the deadline-bound worst case; the paper's 60 s client timeout makes
  /// the tail the interesting part.
  double response_p50_s = 0.0;
  double response_p95_s = 0.0;
  double response_p99_s = 0.0;
  double throughput_qps = 0.0;
  double qtime_s = 0.0;
  double norm_qtime_s = 0.0;  // QTime / #requests (paper Table 1 column)
  double utilization = 0.0;
  double accuracy = 0.0;
  double accuracy_total_share = 0.0;
  std::uint64_t requests = 0;
  double request_share = 0.0;  // "% of Req" table column
};

/// One brokering request + job, accumulated by the harness.
struct RequestSample {
  /// When the query was issued, seconds from window start (lets the
  /// resilience bench bucket availability/accuracy over time).
  double issued_s = 0.0;
  bool handled = false;
  double response_s = 0.0;

  bool dispatched = false;  // some queries end without a runnable site
  double accuracy = 0.0;
  double accuracy_total_share = 0.0;

  bool started = false;
  double qtime_s = 0.0;

  // Execution overlap with the measurement window, in CPU-seconds.
  double cpu_seconds_in_window = 0.0;
};

/// Splits the population the way the paper's Tables 1-2 do.
enum class Slice : std::uint8_t { kHandled = 0, kNotHandled, kAll };

class MetricsAccumulator {
 public:
  MetricsAccumulator(double window_s, std::int64_t total_cpus);

  void add(const RequestSample& sample);

  [[nodiscard]] MetricValues compute(Slice slice) const;

  [[nodiscard]] std::uint64_t total_requests() const {
    return std::uint64_t(samples_.size());
  }

 private:
  double window_s_;
  std::int64_t total_cpus_;
  std::vector<RequestSample> samples_;
};

/// Jain's fairness index over allocations x_i (optionally normalized by
/// entitlements): (sum x)^2 / (n * sum x^2). 1.0 = perfectly fair,
/// 1/n = one consumer takes everything. Empty input yields 1.0.
double jain_index(const std::vector<double>& allocations);

/// Fairness of delivered CPU time across a set of consumers with equal
/// entitlements (the paper's Section 4.1 question: are CPU resources
/// allocated fairly across VOs, and across groups within a VO?).
struct FairnessReport {
  double jain = 1.0;
  double min_share = 0.0;  // smallest consumer's fraction of the total
  double max_share = 0.0;
  std::size_t consumers = 0;
};

FairnessReport fairness(const std::vector<double>& delivered);

/// CPU-seconds a job consumed inside the window [0, window_s], given the
/// job's start/completion times in seconds (completion may exceed the
/// window or be unset/-1 for still-running jobs).
double cpu_seconds_in_window(double started_s, double completed_s, int cpus,
                             double window_s);

}  // namespace digruber::metrics
