#include "digruber/digruber/client.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace digruber::digruber {

DiGruberClient::DiGruberClient(sim::Simulation& sim, net::Transport& transport,
                               ClientId id, NodeId decision_point,
                               std::vector<SiteId> all_sites,
                               std::unique_ptr<gruber::SiteSelector> selector,
                               Rng rng, ClientOptions options)
    : DiGruberClient(sim, transport, id, std::vector<NodeId>{decision_point},
                     std::move(all_sites), std::move(selector), rng, options) {}

DiGruberClient::DiGruberClient(sim::Simulation& sim, net::Transport& transport,
                               ClientId id, std::vector<NodeId> decision_points,
                               std::vector<SiteId> all_sites,
                               std::unique_ptr<gruber::SiteSelector> selector,
                               Rng rng, ClientOptions options)
    : sim_(sim),
      rpc_(sim, transport),
      id_(id),
      dps_(std::move(decision_points)),
      health_(dps_.size()),
      all_sites_(std::move(all_sites)),
      selector_(std::move(selector)),
      rng_(rng),
      options_(options) {
  assert(!dps_.empty());
  assert(!all_sites_.empty());
  install_wire_categorizer();
  if (options_.frame_checksums) rpc_.set_frame_checksums(true);
  dp_score_.assign(dps_.size(), 0.0);
  dp_price_.assign(dps_.size(), 0.0);
  dp_wait_.assign(dps_.size(), 0.0);
  retry_tokens_ = options_.retry_budget_capacity;
}

void DiGruberClient::rebind(NodeId decision_point) {
  dps_.front() = decision_point;
  health_.front() = DpHealth{};
  dp_score_.front() = 0.0;
  dp_price_.front() = 0.0;
  dp_wait_.front() = 0.0;
}

void DiGruberClient::apply_load_hints(const std::vector<DpLoadHint>& hints,
                                      const std::vector<double>& prices) {
  if (!options_.overload_aware && !options_.market_placement) return;
  for (std::size_t k = 0; k < hints.size(); ++k) {
    const DpLoadHint& hint = hints[k];
    for (std::size_t i = 0; i < dps_.size(); ++i) {
      if (dps_[i].value() == hint.node) {
        if (options_.overload_aware) {
          dp_score_[i] = hint.est_wait_s + 0.01 * double(hint.queue_depth);
        }
        if (options_.market_placement) {
          dp_wait_[i] = hint.est_wait_s;
          // Quotes align index-wise with the hints; a missing or zero
          // entry means "no quote", which keeps the point p2c-only.
          if (k < prices.size()) dp_price_[i] = prices[k];
        }
        break;
      }
    }
  }
}

void DiGruberClient::quarantine(std::size_t idx) {
  DpHealth& h = health_[idx];
  h = DpHealth{};
  h.quarantined = true;
  dp_score_[idx] = 0.0;
  dp_price_[idx] = 0.0;
  dp_wait_[idx] = 0.0;
  ++counters_.client_dps_quarantined;
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kClient, id_.value(), "membership.quarantine",
               t->ambient(), std::int64_t(idx),
               std::int64_t(dps_[idx].value()));
  }
}

void DiGruberClient::apply_membership(const MembershipUpdate& update) {
  if (!options_.membership_aware || update.epoch <= epoch_) return;
  epoch_ = update.epoch;
  ++counters_.client_updates_applied;
  for (const MemberInfo& member : update.members) {
    if (member.node == 0) continue;
    std::size_t idx = dps_.size();
    for (std::size_t i = 0; i < dps_.size(); ++i) {
      if (dps_[i].value() == member.node) {
        idx = i;
        break;
      }
    }
    const bool known = idx < dps_.size();
    switch (member.state) {
      case MemberState::kAlive:
        if (!known) {
          // A point that joined mid-run: append as a live routing target
          // with a fresh breaker. p2c and the failover scans pick it up
          // on the next attempt.
          dps_.push_back(NodeId(member.node));
          health_.push_back(DpHealth{});
          dp_score_.push_back(0.0);
          dp_price_.push_back(0.0);
          dp_wait_.push_back(0.0);
          ++counters_.client_dps_added;
          if (auto* t = trace::current()) {
            t->instant(trace::Category::kClient, id_.value(),
                       "membership.dp_added", t->ambient(),
                       std::int64_t(member.node),
                       std::int64_t(update.epoch));
          }
        } else if (health_[idx].quarantined) {
          // Resurrected (restarted under a newer incarnation): lift the
          // quarantine with a clean bill of health.
          health_[idx] = DpHealth{};
          dp_score_[idx] = 0.0;
          dp_price_[idx] = 0.0;
          dp_wait_[idx] = 0.0;
        }
        break;
      case MemberState::kSuspect:
        // Suspicion is not eviction; the breaker handles flakiness.
        break;
      case MemberState::kDead:
      case MemberState::kLeft:
        if (known && !health_[idx].quarantined) quarantine(idx);
        break;
    }
  }
}

void DiGruberClient::finish_with_fallback(grid::Job job, Done done, sim::Time t0,
                                          bool starved, trace::SpanContext qctx) {
  ++counters_.fallbacks;
  if (starved) ++counters_.starvations;
  QueryOutcome outcome;
  outcome.site = all_sites_[rng_.uniform_index(all_sites_.size())];
  outcome.handled_by_gruber = false;
  outcome.starved = starved;
  outcome.response = sim_.now() - t0;
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kClient, id_.value(), "query.fallback", qctx,
               std::int64_t(outcome.site.value()), starved ? 1 : 0);
    t->end(trace::Category::kClient, id_.value(), "query", qctx, /*handled=*/0,
           std::int64_t(outcome.site.value()));
  }
  done(std::move(job), outcome);
}

int DiGruberClient::pick_dp(const grid::Job& job) {
  if (options_.market_placement && (job.budget > 0 || job.deadline_s > 0)) {
    // Market placement: minimize quoted cost (price * cpus * runtime)
    // over the quoted, deadline-feasible, closed-breaker set. Ties break
    // toward the lower index, so the choice is deterministic (no rng
    // draws — economic jobs consume no p2c randomness).
    int best = -1;
    double best_cost = 0;
    const double runtime_s = job.runtime.to_seconds();
    for (std::size_t i = 0; i < dps_.size(); ++i) {
      if (health_[i].open || health_[i].quarantined) continue;
      if (dp_price_[i] <= 0) continue;  // no quote heard yet
      if (job.deadline_s > 0 && dp_wait_[i] + runtime_s > job.deadline_s) {
        continue;  // cannot meet the deadline through this point
      }
      const double cost = dp_price_[i] * double(job.cpus) * runtime_s;
      if (best < 0 || cost < best_cost) {
        best = int(i);
        best_cost = cost;
      }
    }
    if (best >= 0) {
      if (job.budget > 0 && best_cost > job.budget) {
        // Too expensive everywhere: decline to buy. The job still runs —
        // the load-based path below places it — but the rejection is
        // visible to the economy counters.
        ++counters_.budget_rejections;
      } else {
        ++counters_.priced_dispatches;
        return best;
      }
    } else {
      ++counters_.market_fallbacks;  // no usable offer: fall back to p2c
    }
  }
  if (options_.overload_aware) {
    // Power-of-two-choices over the healthy set: sample two distinct
    // candidates and take the one with the lower advertised load. Near-
    // optimal load spreading with O(1) state, and immune to herding —
    // unlike "everyone picks the least loaded", which stampedes the
    // momentarily-idlest decision point.
    std::vector<std::size_t> closed;
    closed.reserve(dps_.size());
    for (std::size_t i = 0; i < dps_.size(); ++i) {
      if (!health_[i].open && !health_[i].quarantined) closed.push_back(i);
    }
    if (closed.size() >= 2) {
      const std::size_t a = closed[rng_.uniform_index(closed.size())];
      std::size_t b = a;
      while (b == a) b = closed[rng_.uniform_index(closed.size())];
      ++counters_.p2c_decisions;
      return int(dp_score_[a] <= dp_score_[b] ? a : b);
    }
    if (closed.size() == 1) return int(closed.front());
    // All breakers open: fall through to the half-open probe scan.
  } else {
    for (std::size_t i = 0; i < dps_.size(); ++i) {
      if (!health_[i].open && !health_[i].quarantined) return int(i);
    }
  }
  for (std::size_t i = 0; i < dps_.size(); ++i) {
    DpHealth& h = health_[i];
    // Quarantined points are exempt from half-open probing: membership
    // declared them dead/left, so probes would re-discover a permanent
    // failure one timeout at a time, forever.
    if (h.quarantined) continue;
    if (!h.half_open && sim_.now() >= h.open_until) {
      h.half_open = true;  // one probe at a time per decision point
      return int(i);
    }
  }
  return -1;
}

void DiGruberClient::on_dp_failure(std::size_t idx) {
  DpHealth& h = health_[idx];
  ++h.consecutive_failures;
  if (h.half_open) {
    // Failed probe: back to open for another cooldown.
    h.half_open = false;
    h.open_until = sim_.now() + options_.breaker_cooldown;
    ++counters_.breaker_trips;
    if (auto* t = trace::current()) {
      t->instant(trace::Category::kClient, id_.value(), "breaker.probe_failed",
                 t->ambient(), std::int64_t(idx));
    }
    return;
  }
  if (!h.open && h.consecutive_failures >= options_.breaker_threshold) {
    h.open = true;
    h.open_until = sim_.now() + options_.breaker_cooldown;
    ++counters_.breaker_trips;
    if (auto* t = trace::current()) {
      t->instant(trace::Category::kClient, id_.value(), "breaker.open",
                 t->ambient(), std::int64_t(idx));
    }
  }
}

void DiGruberClient::on_dp_success(std::size_t idx) { health_[idx] = DpHealth{}; }

void DiGruberClient::complete_with_reply(grid::Job job, Done done, sim::Time t0,
                                         NodeId dp, const GetSiteLoadsReply& reply,
                                         trace::SpanContext qctx) {
  if (reply.has_membership) apply_membership(reply.membership);
  apply_load_hints(reply.dp_loads, reply.dp_prices);
  if (reply.has_degraded && reply.degraded.level >= 1) {
    // Level-1 degraded reply: the answer is usable (capacity already
    // discounted server-side) but the point's view is stale — nudge p2c
    // toward fresher peers for the next queries.
    ++counters_.client_degraded_hints;
    if (options_.overload_aware) {
      for (std::size_t i = 0; i < dps_.size(); ++i) {
        if (dps_[i] == dp) {
          dp_score_[i] += double(reply.degraded.level);
          break;
        }
      }
    }
  }
  const std::optional<SiteId> site = selector_->select(reply.candidates, job);
  if (!site) {
    finish_with_fallback(std::move(job), std::move(done), t0, true, qctx);
    return;
  }
  std::int32_t believed_free = -1;
  for (const gruber::SiteLoad& load : reply.candidates) {
    if (load.site == *site) {
      believed_free = load.raw_free;
      break;
    }
  }

  // Second round trip: inform the decision point of the selection so
  // it can steer subsequent queries. The query is complete when the
  // acknowledgement arrives (or its share of the deadline expires).
  ReportSelectionRequest report;
  report.job = job.id;
  report.site = *site;
  report.vo = job.vo;
  report.group = job.group;
  report.user = job.user;
  report.cpus = job.cpus;
  report.est_runtime = job.runtime;
  if (options_.market_placement && (job.budget > 0 || job.deadline_s > 0)) {
    report.has_bid = true;
    report.budget = job.budget;
    report.deadline_s = job.deadline_s;
  }
  if (options_.request_ids) {
    // One id per job, assigned here — the first place the report exists —
    // and stable across every retry of it, which is what lets the decision
    // point collapse retries to one dispatch.
    report.has_request_id = true;
    report.request_client = id_.value();
    report.request_seq = next_request_seq_++;
  }

  // The selection-report round trip gets its own child span; the guard
  // makes it the ambient context so the rpc layer propagates it.
  trace::SpanContext rctx;
  if (auto* t = trace::current()) {
    rctx = t->begin(trace::Category::kClient, id_.value(), "query.report", qctx,
                    std::int64_t(site->value()), believed_free);
  }
  send_report(std::move(report), std::move(job), std::move(done), t0, dp, *site,
              believed_free, qctx, rctx, 0);
}

void DiGruberClient::send_report(ReportSelectionRequest report, grid::Job job,
                                 Done done, sim::Time t0, NodeId dp, SiteId site,
                                 std::int32_t believed_free,
                                 trace::SpanContext qctx, trace::SpanContext rctx,
                                 std::uint32_t attempt_n) {
  const sim::Duration elapsed = sim_.now() - t0;
  sim::Duration remaining = options_.timeout - elapsed;
  if (remaining < sim::Duration::seconds(1)) remaining = sim::Duration::seconds(1);

  trace::ContextGuard guard(rctx);
  net::RpcClient::CallOptions copts;
  if (options_.overload_aware) copts.deadline = t0 + options_.timeout;
  rpc_.call<ReportSelectionRequest, Ack>(
      dp, kReportSelection, report, remaining, copts,
      [this, report, job = std::move(job), done = std::move(done), t0, site,
       believed_free, dp, qctx, rctx, attempt_n](Result<Ack> ack) mutable {
        if (!ack.ok() && options_.request_ids &&
            attempt_n < options_.report_max_retries &&
            sim_.now() + options_.report_retry_backoff < t0 + options_.timeout) {
          // Re-send to the SAME decision point after a fixed (rng-free)
          // backoff: the point may have crashed with the dispatch already
          // on disk, and only it can answer from its dedup window. A
          // re-broker to another point is exactly the double dispatch the
          // request id exists to prevent.
          ++counters_.report_retries;
          if (auto* t = trace::current()) {
            t->instant(trace::Category::kClient, id_.value(), "report.retry",
                       rctx, std::int64_t(attempt_n + 1),
                       std::int64_t(report.request_seq));
          }
          sim_.schedule_after(
              options_.report_retry_backoff,
              [this, report = std::move(report), job = std::move(job),
               done = std::move(done), t0, dp, site, believed_free, qctx, rctx,
               attempt_n]() mutable {
                send_report(std::move(report), std::move(job), std::move(done),
                            t0, dp, site, believed_free, qctx, rctx,
                            attempt_n + 1);
              });
          return;
        }
        // Whether or not the ack made it back, the selection stands:
        // it was computed from decision-point state.
        ++counters_.handled;
        QueryOutcome outcome;
        outcome.site = site;
        outcome.handled_by_gruber = true;
        outcome.response = sim_.now() - t0;
        outcome.believed_free = believed_free;
        outcome.served_by = dp;
        if (ack.ok() && ack.value().has_original) {
          // The retry hit the dedup window: the point had already committed
          // this request, and the decision that counts is the original one.
          ++counters_.dedup_replies;
          outcome.site = ack.value().original_site;
        }
        if (auto* t = trace::current()) {
          t->end(trace::Category::kClient, id_.value(), "query.report", rctx,
                 ack.ok() ? 1 : 0);
          t->end(trace::Category::kClient, id_.value(), "query", qctx,
                 /*handled=*/1, std::int64_t(site.value()));
        }
        done(std::move(job), outcome);
      });
}

void DiGruberClient::schedule(grid::Job job, Done done) {
  ++counters_.queries;
  const sim::Time t0 = sim_.now();

  // Root span of this query's trace tree: every attempt, handler, and
  // packet hop it causes correlates under one trace id.
  trace::SpanContext qctx;
  if (auto* t = trace::current()) {
    qctx = t->begin(trace::Category::kClient, id_.value(), "query", {},
                    std::int64_t(job.id.value()), std::int64_t(job.vo.value()));
  }

  if (options_.overload_aware) {
    // Refill the retry bucket per scheduled query: sustained retry rate is
    // bounded at `refill` retries per query, bursts at `capacity`.
    retry_tokens_ = std::min(options_.retry_budget_capacity,
                             retry_tokens_ + options_.retry_budget_refill);
  }

  if (failover_active()) {
    attempt(std::move(job), std::move(done), t0, 0, options_.backoff_base_s, qctx);
    return;
  }

  // Legacy single-shot path: one attempt against the primary with the
  // full deadline, random fallback on any failure.
  GetSiteLoadsRequest request;
  request.job = job.id;
  request.vo = job.vo;
  request.group = job.group;
  request.user = job.user;
  request.cpus = job.cpus;
  if (options_.membership_aware) {
    request.has_epoch = true;
    request.membership_epoch = epoch_;
  }
  if (options_.market_placement && (job.budget > 0 || job.deadline_s > 0)) {
    // The bid rides second, forcing the epoch trailer (epoch 0 is a
    // no-op on a decision point without a newer membership view).
    request.has_epoch = true;
    request.has_bid = true;
    request.budget = job.budget;
    request.deadline_s = job.deadline_s;
  }

  trace::SpanContext actx;
  if (auto* t = trace::current()) {
    actx = t->begin(trace::Category::kClient, id_.value(), "query.attempt", qctx,
                    0, std::int64_t(dps_.front().value()));
  }
  trace::ContextGuard guard(actx);
  rpc_.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
      dps_.front(), kGetSiteLoads, request, options_.timeout,
      [this, job = std::move(job), done = std::move(done), t0, qctx,
       actx](Result<GetSiteLoadsReply> result) mutable {
        if (auto* t = trace::current()) {
          t->end(trace::Category::kClient, id_.value(), "query.attempt", actx,
                 result.ok() ? 1 : 0);
        }
        if (!result.ok()) {
          finish_with_fallback(std::move(job), std::move(done), t0, false, qctx);
          return;
        }
        // dps_.front() re-read here: a mid-query rebind directs the
        // report to the new primary, as the pre-failover client did.
        complete_with_reply(std::move(job), std::move(done), t0, dps_.front(),
                            result.value(), qctx);
      });
}

void DiGruberClient::attempt(grid::Job job, Done done, sim::Time t0,
                             std::uint32_t attempt_n, double prev_delay_s,
                             trace::SpanContext qctx) {
  const sim::Time deadline = t0 + options_.timeout;
  const int idx = pick_dp(job);
  if (idx < 0) {
    // Every decision point's breaker is open and cooling down (or probing).
    ++counters_.all_dps_down_fallbacks;
    if (auto* t = trace::current()) {
      t->instant(trace::Category::kClient, id_.value(), "query.all_dps_down",
                 qctx, std::int64_t(attempt_n));
    }
    finish_with_fallback(std::move(job), std::move(done), t0, false, qctx);
    return;
  }
  const sim::Duration remaining = deadline - sim_.now();
  if (remaining < sim::Duration::seconds(1)) {
    finish_with_fallback(std::move(job), std::move(done), t0, false, qctx);
    return;
  }
  sim::Duration per_attempt = remaining;
  if (options_.attempt_timeout > sim::Duration::zero() &&
      options_.attempt_timeout < per_attempt) {
    per_attempt = options_.attempt_timeout;
  }

  GetSiteLoadsRequest request;
  request.job = job.id;
  request.vo = job.vo;
  request.group = job.group;
  request.user = job.user;
  request.cpus = job.cpus;
  if (options_.membership_aware) {
    request.has_epoch = true;
    request.membership_epoch = epoch_;
  }
  if (options_.market_placement && (job.budget > 0 || job.deadline_s > 0)) {
    // The bid rides second, forcing the epoch trailer (epoch 0 is a
    // no-op on a decision point without a newer membership view).
    request.has_epoch = true;
    request.has_bid = true;
    request.budget = job.budget;
    request.deadline_s = job.deadline_s;
  }

  const NodeId dp = dps_[std::size_t(idx)];
  trace::SpanContext actx;
  if (auto* t = trace::current()) {
    actx = t->begin(trace::Category::kClient, id_.value(), "query.attempt", qctx,
                    std::int64_t(attempt_n), std::int64_t(dp.value()));
  }
  trace::ContextGuard guard(actx);
  net::RpcClient::CallOptions copts;
  // The wire deadline is the ATTEMPT deadline, not the full query budget: a
  // reply that lands after this attempt's timeout is discarded client-side,
  // so serving past it is wasted worker time even with budget remaining.
  if (options_.overload_aware) copts.deadline = sim_.now() + per_attempt;
  rpc_.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
      dp, kGetSiteLoads, request, per_attempt, copts,
      [this, job = std::move(job), done = std::move(done), t0, attempt_n,
       prev_delay_s, idx, dp, qctx,
       actx](Result<GetSiteLoadsReply> result) mutable {
        if (auto* t = trace::current()) {
          t->end(trace::Category::kClient, id_.value(), "query.attempt", actx,
                 result.ok() ? 1 : 0);
        }
        if (result.ok()) {
          on_dp_success(std::size_t(idx));
          complete_with_reply(std::move(job), std::move(done), t0, dp,
                              result.value(), qctx);
          return;
        }

        // A typed overload NACK means the decision point is alive but
        // saturated: keep its breaker closed (it answered), but penalize
        // its load score so power-of-two-choices steers elsewhere until a
        // fresh hint arrives. A draining NACK means it is leaving or
        // still joining: with membership-aware routing, quarantine it
        // outright (a membership update lifts the quarantine if it ever
        // comes back) and redirect instead of penalizing.
        sim::Duration retry_after = sim::Duration::zero();
        std::uint8_t nack_reason = net::kNackQueueFull;
        const bool overloaded =
            net::parse_overload_error(result.error(), retry_after, nack_reason);
        if (overloaded) {
          ++counters_.overload_nacks;
          on_dp_success(std::size_t(idx));
          if (nack_reason == net::kNackDegraded) {
            // Degraded is a routing hint, not a death verdict: the point
            // is alive but partitioned from a quorum of its peers, and it
            // recovers the moment the partition heals. Penalize its score
            // so p2c steers elsewhere meanwhile, but NEVER quarantine —
            // quarantine is reserved for membership-declared dead/left
            // points, and a quarantined entry would stay unroutable until
            // a membership epoch bump that a mere heal does not produce.
            ++counters_.client_degraded_redirects;
            dp_score_[std::size_t(idx)] += retry_after.to_seconds() + 1.0;
            if (auto* t = trace::current()) {
              t->instant(trace::Category::kClient, id_.value(),
                         "query.degraded_redirect", qctx,
                         std::int64_t(attempt_n), std::int64_t(dp.value()));
            }
          } else if (nack_reason == net::kNackDraining &&
                     options_.membership_aware) {
            ++counters_.client_drain_redirects;
            quarantine(std::size_t(idx));
          } else {
            dp_score_[std::size_t(idx)] += retry_after.to_seconds() + 1.0;
          }
        } else {
          on_dp_failure(std::size_t(idx));
        }

        // Adaptive retry: each retry spends a token; an empty bucket means
        // this client is already amplifying load and must degrade to the
        // random fallback instead of hammering the saturated mesh.
        if (options_.overload_aware) {
          if (retry_tokens_ < 1.0) {
            ++counters_.retries_budget_denied;
            if (auto* t = trace::current()) {
              t->instant(trace::Category::kClient, id_.value(),
                         "retry.budget_denied", qctx, std::int64_t(attempt_n));
            }
            finish_with_fallback(std::move(job), std::move(done), t0, false,
                                 qctx);
            return;
          }
          retry_tokens_ -= 1.0;
        }

        // Decorrelated jitter: spread the next attempt uniformly over
        // [base, 3 * previous delay), capped. One draw per retry.
        const double hi =
            std::max(options_.backoff_base_s * 1.001, 3.0 * prev_delay_s);
        double delay_s = std::min(options_.backoff_max_s,
                                  rng_.uniform(options_.backoff_base_s, hi));
        // Honor the server's own drain estimate: retrying sooner than
        // retry_after is guaranteed wasted work.
        if (overloaded && retry_after.to_seconds() > delay_s) {
          delay_s = retry_after.to_seconds();
          ++counters_.retry_after_honored;
          if (auto* t = trace::current()) {
            t->instant(trace::Category::kClient, id_.value(),
                       "overload.retry_after", qctx, std::int64_t(attempt_n),
                       retry_after.us());
          }
        }

        const sim::Time deadline = t0 + options_.timeout;
        const sim::Time next = sim_.now() + sim::Duration::seconds(delay_s);
        if (next + sim::Duration::seconds(1) > deadline) {
          finish_with_fallback(std::move(job), std::move(done), t0, false, qctx);
          return;
        }
        ++counters_.failovers;
        if (auto* t = trace::current()) {
          t->instant(trace::Category::kClient, id_.value(), "query.failover",
                     qctx, std::int64_t(attempt_n),
                     (next - sim_.now()).us());
        }
        sim_.schedule_at(next, [this, job = std::move(job), done = std::move(done),
                                t0, attempt_n, delay_s, qctx]() mutable {
          attempt(std::move(job), std::move(done), t0, attempt_n + 1, delay_s,
                  qctx);
        });
      });
}

}  // namespace digruber::digruber
