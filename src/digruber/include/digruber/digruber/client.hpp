#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "digruber/digruber/protocol.hpp"
#include "digruber/gruber/selectors.hpp"
#include "digruber/metrics/counters.hpp"
#include "digruber/net/rpc.hpp"
#include "digruber/trace/trace.hpp"

namespace digruber::digruber {

struct ClientOptions {
  /// Per-query deadline; on expiry the client's site selector picks a
  /// random site without considering USLAs (paper Section 4.3).
  sim::Duration timeout = sim::Duration::seconds(60);

  /// Failover (all within the `timeout` budget above; the paper's 60 s
  /// total-deadline semantics are unchanged). Zero disables per-attempt
  /// deadlines: with a single decision point that reproduces the original
  /// one-shot client byte for byte.
  sim::Duration attempt_timeout = sim::Duration::zero();
  /// Decorrelated-jitter backoff between attempts:
  /// delay = min(backoff_max_s, U[backoff_base_s, 3 * previous delay)).
  /// Unlike jittered exponential, consecutive retries across a fleet
  /// desynchronize instead of phase-locking into retry waves. One rng draw
  /// per retry, and only when a retry actually happens, so fault-free runs
  /// consume no extra randomness.
  double backoff_base_s = 0.5;
  double backoff_max_s = 8.0;
  /// Circuit breaker: consecutive failures that open a decision point's
  /// breaker, and how long it stays open before a half-open probe.
  std::uint32_t breaker_threshold = 3;
  sim::Duration breaker_cooldown = sim::Duration::seconds(30);

  /// Overload-aware mode (off by default; enabling changes rng consumption
  /// and wire bytes, so default runs stay byte-identical):
  ///  - attaches the query's absolute deadline to each RPC so containers
  ///    can shed doomed work,
  ///  - honors the retry_after hint in typed overload NACKs,
  ///  - spends retries from a per-client token bucket (adaptive retry:
  ///    bounded amplification under overload),
  ///  - picks failover targets by power-of-two-choices over the DP load
  ///    hints piggybacked on query replies.
  bool overload_aware = false;
  /// Token bucket: capacity and per-scheduled-query refill. At ~10% refill
  /// a client can retry every query occasionally or a few queries hard,
  /// but cannot multiply offered load when the whole mesh is saturated.
  double retry_budget_capacity = 10.0;
  double retry_budget_refill = 0.1;

  /// Membership-aware routing (off by default; enabling changes wire
  /// bytes, so default runs stay byte-identical):
  ///  - attaches the client's membership epoch to each query so a
  ///    decision point with a newer view piggybacks it on the reply,
  ///  - folds those updates into the DP list: newly joined points become
  ///    failover targets, dead/left points are quarantined — removed from
  ///    p2c and failover order with NO half-open re-probing (membership,
  ///    not per-call timeouts, decides when a point is gone),
  ///  - treats a typed draining NACK as a redirect, not a failure.
  bool membership_aware = false;

  /// Emit CRC-32C frame-checksum trailers (v3 frames) on every request
  /// this client sends. Off by default: legacy bytes.
  bool frame_checksums = false;

  /// Market placement (off by default; enabling changes rng consumption
  /// and wire bytes, so default runs stay byte-identical):
  ///  - jobs carrying a budget or deadline ride a bid trailer on the
  ///    query and selection-report frames,
  ///  - decision-point choice minimizes quoted cost (price * cpus *
  ///    runtime) over the deadline-feasible quoted set instead of p2c,
  ///  - jobs without economic fields — or when no quotes have arrived —
  ///    fall back to the load-based path unchanged.
  bool market_placement = false;

  /// Exactly-once dispatch (off by default; enabling widens the
  /// selection-report frame, so default runs stay byte-identical):
  ///  - stamps every selection report with a durable (client, seq)
  ///    request id, assigned once per job,
  ///  - retries a failed report to the SAME decision point after a fixed
  ///    backoff (deterministic: zero rng draws), bounded by the query
  ///    deadline; the point's persisted dedup window collapses the
  ///    retries to one dispatch and returns the original decision.
  bool request_ids = false;
  std::uint32_t report_max_retries = 3;
  sim::Duration report_retry_backoff = sim::Duration::seconds(2);
};

struct QueryOutcome {
  SiteId site;
  bool handled_by_gruber = false;  // true: site came from the decision point
  bool starved = false;            // reply arrived but no admissible site
  sim::Duration response = sim::Duration::zero();
  /// The decision point's free-CPU estimate for the chosen site (-1 for
  /// the random fallback, which picks blind). Scheduling accuracy compares
  /// this belief against ground truth.
  std::int32_t believed_free = -1;
  /// Which decision point answered (invalid for the random fallback).
  NodeId served_by;
};

/// Everything a client counts, as plain data (see
/// DiGruberClient::counters()): its query outcomes and its shares of the
/// run's counter sections.
struct ClientCounters : metrics::ClientTotals, metrics::ClientResilience,
                        metrics::ClientOverload, metrics::ClientMembership,
                        metrics::ClientPartition, metrics::ClientEconomy,
                        metrics::ClientDurability {};

/// A DI-GRUBER client: a submission host bound to a decision point — or,
/// with failover enabled, to an ordered list of them. Runs the
/// two-round-trip brokering query (fetch loads, report selection) with
/// client-side site-selector logic. On decision-point failure it retries
/// across the list with exponential backoff and a per-point circuit
/// breaker, degrading to random site selection only when the deadline
/// expires or every decision point is down.
class DiGruberClient {
 public:
  using Done = std::function<void(grid::Job job, QueryOutcome outcome)>;

  DiGruberClient(sim::Simulation& sim, net::Transport& transport, ClientId id,
                 NodeId decision_point, std::vector<SiteId> all_sites,
                 std::unique_ptr<gruber::SiteSelector> selector, Rng rng,
                 ClientOptions options = {});

  /// Failover form: `decision_points[0]` is the primary, the rest are
  /// backups tried in order when earlier entries fail or trip the breaker.
  DiGruberClient(sim::Simulation& sim, net::Transport& transport, ClientId id,
                 std::vector<NodeId> decision_points, std::vector<SiteId> all_sites,
                 std::unique_ptr<gruber::SiteSelector> selector, Rng rng,
                 ClientOptions options = {});

  /// Schedule one job; `done` fires exactly once with the chosen site.
  void schedule(grid::Job job, Done done);

  [[nodiscard]] ClientId id() const { return id_; }
  /// This client's own transport address (needed when a partition plan
  /// splits the client fleet across islands).
  [[nodiscard]] NodeId node() const { return rpc_.node(); }
  [[nodiscard]] NodeId decision_point() const { return dps_.front(); }
  [[nodiscard]] const std::vector<NodeId>& decision_points() const { return dps_; }
  /// Every counter this client keeps (layer counters stay zero while
  /// their option is off).
  [[nodiscard]] const ClientCounters& counters() const { return counters_; }
  /// Last membership epoch folded into the DP list.
  [[nodiscard]] std::uint64_t membership_epoch() const { return epoch_; }
  [[nodiscard]] bool is_quarantined(std::size_t idx) const {
    return idx < health_.size() && health_[idx].quarantined;
  }

  /// Rebind the primary to a different decision point (dynamic
  /// rebalancing, Section 5). Backups are kept; the new primary starts
  /// with a closed breaker.
  void rebind(NodeId decision_point);

 private:
  /// Per-decision-point circuit-breaker state.
  struct DpHealth {
    std::uint32_t consecutive_failures = 0;
    bool open = false;
    bool half_open = false;  // probe in flight
    /// Membership declared this point dead or left: excluded from every
    /// scan, including the half-open probe loop. Cleared only by a
    /// membership update that reports the point alive again (restart).
    bool quarantined = false;
    sim::Time open_until;
  };

  [[nodiscard]] bool failover_active() const {
    return dps_.size() > 1 || options_.attempt_timeout > sim::Duration::zero();
  }
  /// First decision point with a closed breaker; failing that, the first
  /// open one whose cooldown expired (marked half-open). -1 if all down.
  /// With market placement on, a job carrying economic fields is routed
  /// to the cheapest deadline-feasible quoted point first.
  [[nodiscard]] int pick_dp(const grid::Job& job);
  void on_dp_failure(std::size_t idx);
  void on_dp_success(std::size_t idx);
  /// Fold the DP load hints piggybacked on a query reply into the
  /// power-of-two-choices scores (overload-aware mode) and the per-DP
  /// wait/price books (market placement). `prices` aligns index-wise with
  /// `hints` and may be empty (no quotes on this reply).
  void apply_load_hints(const std::vector<DpLoadHint>& hints,
                        const std::vector<double>& prices);
  /// Fold a piggybacked membership update into the DP list (add joiners,
  /// quarantine dead/left, un-quarantine resurrected). Epoch-gated.
  void apply_membership(const MembershipUpdate& update);
  void quarantine(std::size_t idx);

  void attempt(grid::Job job, Done done, sim::Time t0, std::uint32_t attempt_n,
               double prev_delay_s, trace::SpanContext qctx);
  /// Shared second round trip: run the selector over `reply` and report
  /// the selection to `dp` (the decision point that answered).
  void complete_with_reply(grid::Job job, Done done, sim::Time t0, NodeId dp,
                           const GetSiteLoadsReply& reply, trace::SpanContext qctx);
  /// Send (or re-send) a selection report. With request_ids on, a failed
  /// attempt is retried to the same decision point after a fixed backoff.
  void send_report(ReportSelectionRequest report, grid::Job job, Done done,
                   sim::Time t0, NodeId dp, SiteId site,
                   std::int32_t believed_free, trace::SpanContext qctx,
                   trace::SpanContext rctx, std::uint32_t attempt_n);
  void finish_with_fallback(grid::Job job, Done done, sim::Time t0, bool starved,
                            trace::SpanContext qctx);

  sim::Simulation& sim_;
  net::RpcClient rpc_;
  ClientId id_;
  std::vector<NodeId> dps_;
  std::vector<DpHealth> health_;
  /// Per-DP load score (estimated wait + queue-depth tiebreak) fed by
  /// piggybacked hints; lower is better. Only used in overload-aware mode.
  std::vector<double> dp_score_;
  /// Per-DP price quote and raw estimated wait (market placement only;
  /// price 0 = no quote heard yet, so the point is not market-eligible).
  std::vector<double> dp_price_;
  std::vector<double> dp_wait_;
  std::vector<SiteId> all_sites_;
  std::unique_ptr<gruber::SiteSelector> selector_;
  Rng rng_;
  ClientOptions options_;

  ClientCounters counters_;
  /// Retry token bucket (overload-aware mode): refilled on schedule(),
  /// debited one token per retry attempt.
  double retry_tokens_ = 0.0;
  /// Membership-aware routing: last applied epoch.
  std::uint64_t epoch_ = 0;
  /// Exactly-once dispatch: next request id (assigned once per job, stable
  /// across that job's report retries).
  std::uint64_t next_request_seq_ = 1;
};

}  // namespace digruber::digruber
