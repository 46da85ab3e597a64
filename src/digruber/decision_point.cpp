#include "digruber/digruber/decision_point.hpp"

#include <algorithm>
#include <utility>

#include "digruber/common/log.hpp"
#include "digruber/durable/wal.hpp"
#include "digruber/overlay/trailer_stack.hpp"
#include "digruber/trace/trace.hpp"

namespace digruber::digruber {

namespace {

/// Trace-instant names per membership transition target (TraceEvent keeps
/// a `const char*`, so the names must be literals).
const char* transition_instant_name(MemberState state) {
  switch (state) {
    case MemberState::kAlive:
      return "membership.alive";
    case MemberState::kSuspect:
      return "membership.suspect";
    case MemberState::kDead:
      return "membership.dead";
    case MemberState::kLeft:
      return "membership.left";
  }
  return "membership.?";
}

}  // namespace

DecisionPoint::DecisionPoint(sim::Simulation& sim, net::Transport& transport,
                             DpId id, const grid::VoCatalog& catalog,
                             const usla::AllocationTree& tree,
                             DecisionPointOptions options)
    : sim_(sim),
      id_(id),
      options_(std::move(options)),
      engine_(catalog, tree),
      server_(sim, transport, options_.profile),
      peer_client_(sim, transport) {
  install_wire_categorizer();
  strategy_ = overlay::make_strategy(options_.overlay, id_);
  if (options_.frame_checksums) {
    server_.set_frame_checksums(true);
    peer_client_.set_frame_checksums(true);
  }
  if (options_.economy.enabled &&
      options_.economy.allocator == economy::Allocator::kKarma &&
      options_.economy.capacity_cpus > 0) {
    bank_ = std::make_unique<economy::CreditBank>(
        options_.economy, economy::shares_from_tree(tree, catalog.vo_count()));
  }
  if (options_.durability.enabled) {
    disk_ = std::make_unique<durable::SimDisk>(options_.durability.disk,
                                               options_.durability.disk_seed);
  }
  server_.register_method(kGetSiteLoads,
                          [this](std::span<const std::uint8_t> body, NodeId from) {
                            return handle_get_site_loads(body, from);
                          });
  server_.register_method(kReportSelection,
                          [this](std::span<const std::uint8_t> body, NodeId from) {
                            return handle_report_selection(body, from);
                          });
  // Exchange and record pulls are control-plane traffic: under overload
  // the container must keep the mesh converging, so they are never shed
  // behind the query backlog.
  server_.register_method(
      kExchange,
      [this](std::span<const std::uint8_t> body, NodeId from) {
        return handle_exchange(body, from);
      },
      net::Priority::kControl);
  server_.register_method(
      kDeltaPull,
      [this](std::span<const std::uint8_t> body, NodeId from) {
        return handle_delta_pull(body, from);
      },
      net::Priority::kControl);

  if (options_.membership.enabled) {
    membership_ = std::make_unique<MembershipTable>(
        id_, server_.node().value(), options_.membership);
    server_.register_method(
        kJoinSnapshot,
        [this](std::span<const std::uint8_t> body, NodeId from) {
          return handle_join_snapshot(body, from);
        },
        net::Priority::kControl);
    server_.register_method(
        kLeave,
        [this](std::span<const std::uint8_t> body, NodeId from) {
          return handle_leave(body, from);
        },
        net::Priority::kControl);
  }
  if (options_.membership.enabled || options_.partition.enabled ||
      options_.durability.enabled) {
    // Door policy: refuse query-class work with a typed NACK before it
    // consumes a container slot; control frames (exchange, pull, join,
    // leave) always flow. Three refusal causes share the gate:
    // joining/draining (kNackDraining), recovery replay in progress (also
    // kNackDraining — the point is up but its state is still rebuilding),
    // and degraded-mode admission while a quorum of peers is stale
    // (kNackDegraded).
    server_.set_refusal_gate(
        [this](std::uint16_t method, net::wire::OverloadNack& nack) {
          switch (method) {
            case kGetSiteLoads:
            case kReportSelection:
            case kCreateInstance:
              break;
            default:
              return false;
          }
          if (!serving_) {
            nack.reason = net::kNackDraining;
            nack.retry_after_us =
                joining_ ? options_.membership.join_retry_backoff.us() : 0;
            return true;
          }
          // Degraded level 2 (quorum lost): refuse *placement* work so the
          // split cannot widen — but let kReportSelection through. The
          // client already committed that dispatch; refusing the report
          // would lose the record and worsen the accounting gap the
          // refusal exists to contain.
          if (options_.partition.enabled && method != kReportSelection &&
              degraded_hint(sim_.now()).level >= 2) {
            ++counters_.degraded_refusals;
            nack.reason = net::kNackDegraded;
            nack.retry_after_us = options_.exchange_interval.us() / 2;
            return true;
          }
          return false;
        });
  }

  start_timers();
}

void DecisionPoint::refresh_neighbors() {
  if (!membership_) return;
  neighbors_ = membership_->live_peer_nodes();
  if (strategy_->kind() != overlay::Kind::kMesh) {
    // Feed the same live set (alive + suspect, DpId order) to the overlay
    // so trees and super-peer assignments repair under churn: every
    // survivor re-derives the same structure from its converged view.
    overlay_peers_.clear();
    for (const MemberInfo& info : membership_->members()) {
      if (info.dp == id_) continue;
      if (info.state == MemberState::kAlive ||
          info.state == MemberState::kSuspect) {
        overlay_peers_.push_back({info.dp, NodeId(info.node)});
      }
    }
    rebuild_strategy(/*initial=*/false);
  }
}

void DecisionPoint::rebuild_strategy(bool initial) {
  overlay::View view;
  view.self = id_;
  view.peers = overlay_peers_;
  const bool changed = strategy_->rebuild(view);
  if (changed && membership_) {
    // A repair re-wires the watch set; peers that just became neighbors
    // have legitimately never pushed here, so their silence clocks start
    // from the re-wiring instead of instantly tripping the detector.
    if (const auto* watch = strategy_->watch_peers()) {
      membership_->start_watch_grace(*watch, sim_.now());
    }
  }
  if (initial || !changed) return;
  ++counters_.rebuilds;
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "overlay.rebuild", {},
               std::int64_t(overlay_peers_.size()),
               std::int64_t(counters_.rebuilds));
  }
}

void DecisionPoint::trace_transitions(
    const std::vector<MembershipTransition>& transitions) {
  auto* t = trace::current();
  if (!t) return;
  for (const MembershipTransition& tr : transitions) {
    t->instant(trace::Category::kDp, id_.value(),
               transition_instant_name(tr.to), t->ambient(),
               std::int64_t(tr.peer.value()), std::int64_t(tr.incarnation));
  }
}

void DecisionPoint::seed_membership(const std::vector<MemberInfo>& members) {
  if (!membership_) return;
  membership_->seed(members, sim_.now());
  refresh_neighbors();
}

void DecisionPoint::join(std::vector<NodeId> seeds) {
  if (!membership_ || !running_ || left_ || joining_) return;
  serving_ = false;
  joining_ = true;
  join_seeds_ = std::move(seeds);
  join_started_ = sim_.now();
  join_attempt_ = 0;
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "membership.join_start", {},
               std::int64_t(join_seeds_.size()));
  }
  if (join_seeds_.empty()) {
    // Mesh founder: nothing to bootstrap from, serve immediately.
    joining_ = false;
    serving_ = true;
    serving_since_ = sim_.now();
    return;
  }
  try_join();
}

void DecisionPoint::try_join() {
  if (!running_ || !joining_) return;
  const NodeId seed = join_seeds_[join_attempt_ % join_seeds_.size()];
  ++join_attempt_;
  JoinSnapshotRequest request;
  request.from = id_;
  request.node = server_.node().value();
  request.incarnation = incarnation_;
  trace::SpanContext jctx;
  if (auto* t = trace::current()) {
    jctx = t->begin(trace::Category::kDp, id_.value(),
                    "membership.join_snapshot", {},
                    std::int64_t(seed.value()), std::int64_t(join_attempt_));
  }
  trace::ContextGuard jguard(jctx);
  peer_client_.call<JoinSnapshotRequest, JoinSnapshotReply>(
      seed, kJoinSnapshot, request, options_.membership.join_snapshot_timeout,
      [this, incarnation = incarnation_,
       jctx](Result<JoinSnapshotReply> result) {
        // A crash while the transfer was in flight invalidates it.
        if (!running_ || incarnation_ != incarnation || !joining_) return;
        trace::ContextGuard guard(jctx);
        if (!result.ok()) {
          // Transfer failed (seed crashed, partitioned, or itself not
          // serving): abort cleanly — no partial state was applied — and
          // rotate to the next seed after a backoff.
          ++counters_.join_snapshot_retries;
          if (auto* t = trace::current()) {
            t->instant(trace::Category::kDp, id_.value(),
                       "membership.join_retry", jctx,
                       std::int64_t(counters_.join_snapshot_retries));
          }
          sim_.schedule_after(
              options_.membership.join_retry_backoff, [this, incarnation] {
                if (running_ && incarnation_ == incarnation && joining_) {
                  try_join();
                }
              });
          return;
        }
        const JoinSnapshotReply& reply = result.value();
        // Bootstrap = the seed's base snapshots + its recent-dispatch
        // window, registered in the dedup sets so the flooded copies of
        // the same records are recognized as duplicates.
        for (const grid::SiteSnapshot& base : reply.bases) {
          engine_.view().apply_snapshot(base);
        }
        counters_.join_snapshot_records += apply_pulled(reply.records, false);
        for (const DpLoadHint& hint : reply.hints) {
          if (hint.node != server_.node().value()) {
            peer_hints_[hint.node] = hint;
          }
        }
        trace_transitions(membership_->absorb(reply.membership, sim_.now()));
        refresh_neighbors();
        joining_ = false;
        serving_ = true;
        serving_since_ = sim_.now();
        // The learned view is this point's durable config from here on: a
        // later crash restarts against these members, not the join seeds.
        membership_->adopt_current_as_seeds();
        if (auto* t = trace::current()) {
          t->end(trace::Category::kDp, id_.value(), "membership.join_snapshot",
                 jctx, std::int64_t(counters_.join_snapshot_records),
                 std::int64_t(counters_.join_snapshot_retries));
          t->instant(trace::Category::kDp, id_.value(),
                     "membership.join_complete", jctx,
                     std::int64_t(counters_.join_snapshot_records),
                     std::int64_t((sim_.now() - join_started_).us()));
        }
        // Announce: the first exchange carries this point's alive entry,
        // so peers admit it and start flooding records its way...
        run_exchange();
        // ...and the post-snapshot delta rides a full pull; the dedup sets
        // discard whatever overlaps the snapshot window.
        run_full_pull();
        log::info("digruber", "dp ", id_.value(), " joined via snapshot (",
                  counters_.join_snapshot_records, " records, ",
                  counters_.join_snapshot_retries, " retries)");
      });
}

void DecisionPoint::leave() {
  if (!membership_ || !running_ || left_ || joining_) return;
  left_ = true;
  serving_ = false;
  membership_->set_self_state(MemberState::kLeft);
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "membership.leave", {},
               std::int64_t(fresh_.size()));
  }
  // Final flush: ship the not-yet-flooded records (with the kLeft self
  // entry on the trailer), then the explicit announcement so peers drop
  // this point without waiting out the suspicion thresholds.
  run_exchange(/*final_flush=*/true);
  LeaveAnnouncement announce;
  announce.from = id_;
  announce.node = server_.node().value();
  announce.incarnation = incarnation_;
  peer_client_.notify_all(neighbors_, kLeave, announce);
  exchange_timer_.reset();
  saturation_timer_.reset();
  log::info("digruber", "dp ", id_.value(), " left the mesh");
}

net::Served DecisionPoint::handle_join_snapshot(
    std::span<const std::uint8_t> body, NodeId /*from*/) {
  JoinSnapshotRequest request;
  if (!net::wire::decode(body, request)) return {};
  // A non-serving point must not hand out bootstrap state: a joiner fed a
  // partial view would itself go partial. Swallow the request — the
  // joiner's transfer deadline rotates it to another seed. The joiner is
  // NOT admitted to the membership view here: it announces itself with
  // its first exchange once it is actually able to serve, so clients
  // never learn (and route to) a still-bootstrapping point.
  if (!membership_ || !serving_) return {};
  ++counters_.snapshots_served;

  JoinSnapshotReply reply;
  reply.from = id_;
  reply.exchange_round = exchange_round_;
  reply.membership = membership_->update();
  reply.bases = engine_.view().base_snapshots();
  reply.records = engine_.view().active_records(sim_.now());
  reply.hints.push_back(self_hint());
  for (const auto& [node, hint] : peer_hints_) reply.hints.push_back(hint);
  std::sort(reply.hints.begin(), reply.hints.end(),
            [](const DpLoadHint& a, const DpLoadHint& b) {
              return a.node < b.node;
            });

  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "membership.snapshot_served",
               t->ambient(), std::int64_t(request.from.value()),
               std::int64_t(reply.records.size()));
  }

  net::Served served;
  served.handler_cost = sim::Duration::millis(0.2) *
                        double(reply.records.size() + reply.bases.size() + 1);
  served.reply = net::wire::encode_buffer(reply);
  return served;
}

net::Served DecisionPoint::handle_leave(std::span<const std::uint8_t> body,
                                        NodeId /*from*/) {
  LeaveAnnouncement announce;
  if (!net::wire::decode(body, announce)) return {};
  if (membership_) {
    if (auto tr = membership_->mark_left(announce.from, announce.incarnation,
                                         sim_.now())) {
      trace_transitions({*tr});
      refresh_neighbors();
    }
  }
  net::Served served;
  served.handler_cost = sim::Duration::millis(0.2);
  return served;  // one-way: empty reply
}

void DecisionPoint::start_timers() {
  if (options_.dissemination != Dissemination::kNone) {
    exchange_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, options_.exchange_interval, [this] { run_exchange(); },
        options_.exchange_interval);
  }
  if (options_.infrastructure_monitor) {
    saturation_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, sim::Duration::seconds(30), [this] { check_saturation(); },
        options_.saturation_window);
  }
  if (disk_) {
    checkpoint_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, options_.durability.checkpoint_interval,
        [this] { write_checkpoint(); }, options_.durability.checkpoint_interval);
  }
}

void DecisionPoint::stop() {
  if (exchange_timer_) exchange_timer_->stop();
  if (saturation_timer_) saturation_timer_->stop();
  if (checkpoint_timer_) checkpoint_timer_->stop();
}

void DecisionPoint::crash() {
  if (!running_) return;
  running_ = false;
  exchange_timer_.reset();
  saturation_timer_.reset();
  checkpoint_timer_.reset();
  server_.shutdown();
  peer_client_.shutdown();
  if (disk_) {
    // I11 audit snapshot: every active record was WAL-logged and fsynced
    // before its handler replied, so all of them are durably committed at
    // this instant. Observer-only bookkeeping — it reads state, changes
    // nothing, and survives the crash the way an external checker's
    // notebook would.
    pre_crash_committed_.clear();
    for (const gruber::DispatchRecord& record :
         engine_.view().active_records(sim_.now())) {
      pre_crash_committed_.emplace_back(record.origin, record.seq,
                                        record.when + record.est_runtime);
    }
  }
  // Everything below is volatile process state: gone with the crash. The
  // SimDisk is deliberately NOT touched — crash models lost RAM, not lost
  // disk; its contents are what restart() replays.
  fresh_.clear();
  fresh_meta_.clear();
  applied_.clear();
  last_peer_round_.clear();
  peer_hints_.clear();
  peer_prices_.clear();
  peer_last_heard_.clear();
  last_delta_pull_.clear();
  dedup_.clear();
  dedup_order_.clear();
  wal_dirty_ = false;
  pending_wal_cost_ = sim::Duration::zero();
  engine_.view().clear();
  // Credit ledgers are soft state too: the next life starts from a fresh
  // endowment (the conservation identity holds over the new lifetime).
  if (bank_) bank_->reset(sim_.now());
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "dp.crash", {},
               std::int64_t(incarnation_));
  }
  log::info("digruber", "dp ", id_.value(), " crashed");
}

void DecisionPoint::restart(const std::vector<grid::SiteSnapshot>& snapshots) {
  if (running_ || left_) return;
  // Without a disk the in-memory counter is all there is; the durable path
  // derives the bump from the persisted floor inside the replay below (the
  // in-memory value would have died with the process in a real deployment).
  if (!disk_) ++incarnation_;
  ++counters_.restarts;
  const bool server_up = server_.restart();
  const bool client_up = peer_client_.restart();
  if (!server_up || !client_up) {
    log::info("digruber", "dp ", id_.value(), " restart failed: address in use");
    return;
  }
  running_ = true;
  engine_.view().clear();
  bootstrap(snapshots);
  sim::Duration replay_cost;
  trace::SpanContext rctx;
  if (disk_) {
    // Durable recovery: replay checkpoint+WAL into the cleared state, then
    // resume from a monotonically-advanced incarnation. The replay raises
    // incarnation_ to the persisted floor; the bump on top guarantees this
    // life is strictly newer than anything peers ever heard.
    if (auto* t = trace::current()) {
      rctx = t->begin(trace::Category::kDp, id_.value(), "dp.recover.replay",
                      {}, std::int64_t(disk_->log().size()),
                      std::int64_t(disk_->checkpoint().size()));
    }
    trace::ContextGuard rguard(rctx);
    replay_cost = replay_from_disk();
    ++incarnation_;
    ++counters_.recoveries;
    last_recovery_cost_ = replay_cost;
    // Persist the bump (with a barrier) so the *next* recovery starts
    // higher still, even if no checkpoint intervenes.
    WalIncarnation bump;
    bump.incarnation = incarnation_;
    const std::vector<std::uint8_t> payload = net::wire::encode(bump);
    wal_append_frame(WalRecordType::kIncarnation, payload);
    wal_commit();
  }
  // Fresh sequence epoch: next_seq_ died with the crash, and peers hold
  // dedup entries for every pre-crash (origin, seq). A disjoint epoch keeps
  // post-restart records flooding correctly without waiting for catch-up.
  next_seq_ = (std::uint64_t(incarnation_) << 32) + 1;
  // Re-base the saturation window on the container's surviving statistics
  // so the first post-restart check does not average over the outage.
  const StreamingStats& stats = server_.container().sojourn_stats();
  window_base_count_ = stats.count();
  window_base_sum_s_ = stats.mean() * double(stats.count());
  last_signal_ = sim::Time::zero();
  if (membership_) {
    // Everything learned at runtime was volatile; restart against the
    // durable seed list with the bumped incarnation, so peers holding a
    // dead verdict for the previous life resurrect this one. With a disk
    // the incarnation is the persisted floor + 1 — strictly above anything
    // gossiped before the crash — so the first heartbeat refutes stale
    // suspicion immediately instead of waiting a resurrection round trip.
    membership_->reset_to_seeds(sim_.now(), incarnation_);
    joining_ = false;
  }
  if (disk_) {
    // Serve only once the accounted replay time has elapsed: until then the
    // door gate drains queries with kNackDraining, modelling a recovering
    // broker that is up but still reading its log.
    serving_ = false;
    sim_.schedule_after(replay_cost, [this, incarnation = incarnation_, rctx] {
      if (!running_ || incarnation_ != incarnation) return;
      trace::ContextGuard guard(rctx);
      serving_ = true;
      serving_since_ = sim_.now();
      if (membership_) refresh_neighbors();
      start_timers();
      if (auto* t = trace::current()) {
        t->end(trace::Category::kDp, id_.value(), "dp.recover.replay", rctx,
               std::int64_t(counters_.replay_records),
               std::int64_t(counters_.replay_frames));
        t->instant(trace::Category::kDp, id_.value(), "dp.restart", rctx,
                   std::int64_t(incarnation_));
      }
      // Anti-entropy for the gap only: with partition tolerance on, the
      // piggybacked digests on the next exchange rounds trigger targeted
      // delta pulls for exactly the diverged VOs — no full-snapshot
      // transfer. Without digests there is no way to bound the gap, so
      // fall back to a full pull.
      if (!options_.partition.enabled) run_full_pull();
      log::info("digruber", "dp ", id_.value(), " recovered (incarnation ",
                incarnation_, ", ", counters_.replay_records, " records replayed)");
    });
    return;
  }
  if (membership_) {
    serving_ = true;
    refresh_neighbors();
  }
  start_timers();
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "dp.restart", {},
               std::int64_t(incarnation_));
  }
  run_full_pull();
  log::info("digruber", "dp ", id_.value(), " restarted (incarnation ",
            incarnation_, ")");
}

gruber::ViewDigest DecisionPoint::settled_digest(sim::Time now) const {
  const sim::Duration slack = options_.partition.digest_slack;
  // Sparse overlays deliver over up to ttl() relay rounds; state younger
  // than that is legitimately in flight, not divergence. Summarizing it
  // would flag every healthy relay as a mismatch and trigger a delta pull
  // each round. Mesh keeps the legacy one-interval window (ttl is 0).
  const double settle_rounds = 1.0 + double(strategy_->ttl());
  return engine_.view().digest(
      now - (options_.exchange_interval * settle_rounds + slack), now + slack);
}

void DecisionPoint::maybe_delta_pull(const ExchangeMessage& message) {
  // Evaluate the *sender's* window, not a fresh local one: both sides must
  // summarize the same (as_of, horizon] slice for equality to mean
  // agreement.
  const gruber::ViewDigest local =
      engine_.view().digest(message.digest.as_of, message.digest.horizon);
  if (local == message.digest) return;
  ++counters_.digest_mismatches;
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "dp.digest_mismatch",
               t->ambient(), std::int64_t(message.from.value()),
               std::int64_t(message.exchange_round));
  }
  // The digest trailer forces the load trailer, so the sender's server
  // address is always on the frame; a malformed one just skips the pull
  // (the next round re-detects the divergence).
  if (!message.has_load || message.load.node == 0) return;
  // Throttle per peer: the mismatch repeats every exchange round until the
  // views converge, and one in-flight pull is enough to get there.
  const auto [it, first_pull] =
      last_delta_pull_.try_emplace(message.from, sim_.now());
  if (!first_pull) {
    if (sim_.now() - it->second < options_.partition.delta_pull_min_gap) return;
    it->second = sim_.now();
  }
  std::vector<VoId> vos = gruber::diverged_vos(local, message.digest);
  const bool want_bases = local.base_hash != message.digest.base_hash;
  if (vos.empty() && !want_bases) return;  // epoch-only skew: nothing to pull
  run_delta_pull(NodeId(message.load.node), message.from,
                 message.exchange_round, std::move(vos), want_bases);
}

void DecisionPoint::run_delta_pull(NodeId peer_node, DpId peer,
                                   std::uint64_t round, std::vector<VoId> vos,
                                   bool want_bases) {
  ++counters_.delta_pulls_sent;
  DeltaPullRequest request;
  request.from = id_;
  request.digest_round = round;
  request.vos = std::move(vos);
  request.want_bases = want_bases;
  trace::SpanContext dctx;
  if (auto* t = trace::current()) {
    dctx = t->begin(trace::Category::kDp, id_.value(), "dp.delta_pull", {},
                    std::int64_t(peer.value()),
                    std::int64_t(request.vos.size()));
  }
  trace::ContextGuard dguard(dctx);
  send_pull(peer_node, request, dctx);
}

void DecisionPoint::run_full_pull() {
  last_full_pull_ = sim_.now();
  DeltaPullRequest request;
  request.from = id_;
  request.digest_round = exchange_round_;
  // The span covers issuing the fan-out; each neighbor's reply lands later
  // as a "dp.catchup_applied" instant under the same trace.
  trace::SpanContext cctx;
  if (auto* t = trace::current()) {
    cctx = t->begin(trace::Category::kDp, id_.value(), "dp.catchup", {},
                    std::int64_t(neighbors_.size()),
                    std::int64_t(incarnation_));
  }
  trace::ContextGuard cguard(cctx);
  for (const NodeId neighbor : neighbors_) send_pull(neighbor, request, cctx);
  if (auto* t = trace::current()) {
    t->end(trace::Category::kDp, id_.value(), "dp.catchup", cctx,
           std::int64_t(neighbors_.size()));
  }
}

void DecisionPoint::send_pull(NodeId peer_node, const DeltaPullRequest& request,
                              trace::SpanContext ctx) {
  peer_client_.call<DeltaPullRequest, DeltaPullReply>(
      peer_node, kDeltaPull, request, options_.pull_timeout,
      [this, incarnation = incarnation_, full = request.full(),
       ctx](Result<DeltaPullReply> result) {
        // A crash while the pull was in flight invalidates it.
        if (!running_ || incarnation_ != incarnation) return;
        if (!result.ok()) return;
        trace::ContextGuard guard(ctx);
        const DeltaPullReply& reply = result.value();
        for (const grid::SiteSnapshot& base : reply.bases) {
          engine_.view().apply_snapshot(base);  // as_of guard drops stale ones
        }
        const std::uint64_t applied = apply_pulled(reply.records, !full);
        const auto shipped = std::int64_t(reply.records.size());
        if (full) {
          counters_.catchup_records_received += reply.records.size();
          counters_.resync_records += applied;
          if (auto* t = trace::current()) {
            t->instant(trace::Category::kDp, id_.value(), "dp.catchup_applied",
                       ctx, std::int64_t(applied), shipped);
          }
          return;
        }
        counters_.delta_records_applied += applied;
        // The reply carried the peer's settled digest at serve time:
        // matching it over the same window means this single pull fully
        // reconciled the pair.
        if (engine_.view().digest(reply.digest.as_of, reply.digest.horizon) ==
            reply.digest) {
          ++counters_.delta_converged;
        }
        if (auto* t = trace::current()) {
          t->end(trace::Category::kDp, id_.value(), "dp.delta_pull", ctx,
                 std::int64_t(applied), shipped);
        }
      });
}

std::uint64_t DecisionPoint::apply_pulled(
    const std::vector<gruber::DispatchRecord>& records, bool restore) {
  const sim::Time now = sim_.now();
  std::uint64_t applied = 0;
  for (const gruber::DispatchRecord& record : records) {
    // The dedup set first: a full pull, a targeted pull and the flooding
    // rounds often race over the same records after a heal. An expired
    // record is never restored: it would count for one prune cycle.
    if (!applied_[record.origin].insert(record.seq).second &&
        (!restore || record.when + record.est_runtime <= now ||
         engine_.view().holds(record))) {
      ++counters_.records_duplicate;
      continue;
    }
    engine_.record(record);
    ++applied;
    wal_log_dispatch(record, false, 0, 0);
    charge_bank(record);  // after the frame: settle order, see handle_exchange
  }
  wal_commit();
  return applied;
}

net::Served DecisionPoint::handle_delta_pull(std::span<const std::uint8_t> body,
                                             NodeId /*from*/) {
  DeltaPullRequest request;
  if (!net::wire::decode(body, request)) return {};
  ++counters_.pulls_served;

  DeltaPullReply reply;
  reply.from = id_;
  if (request.full()) {
    reply.records = engine_.view().active_records(sim_.now());
  } else {
    reply.records = engine_.view().records_for_vos(request.vos, sim_.now());
    if (request.want_bases) reply.bases = engine_.view().base_snapshots();
    reply.digest = settled_digest(sim_.now());
  }

  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "dp.delta_served",
               t->ambient(), std::int64_t(request.from.value()),
               std::int64_t(reply.records.size()));
  }

  net::Served served;
  served.handler_cost =
      sim::Duration::millis(0.2) * double(reply.records.size() + 1);
  served.reply = net::wire::encode_buffer(reply);
  return served;
}

DegradedHint DecisionPoint::degraded_hint(sim::Time now) const {
  DegradedHint hint;
  if (!options_.partition.enabled) return hint;
  const sim::Duration threshold = options_.partition.staleness_threshold;
  std::size_t stale = 0;
  std::size_t known = 0;
  std::int64_t worst = 0;
  if (membership_) {
    // The failure detector is the staleness oracle: suspect/dead verdicts
    // mark a peer stale immediately, the last-heard clock catches peers
    // the detector has not yet judged. Left members departed on purpose —
    // their absence carries no information this point is missing.
    for (const MemberInfo& info : membership_->members()) {
      if (info.dp == id_ || info.state == MemberState::kLeft) continue;
      ++known;
      bool is_stale = info.state != MemberState::kAlive;
      const auto it = peer_last_heard_.find(info.dp);
      if (it != peer_last_heard_.end() && now - it->second > threshold) {
        is_stale = true;
      }
      if (is_stale) {
        ++stale;
        const std::int64_t age = it != peer_last_heard_.end()
                                     ? (now - it->second).us()
                                     : threshold.us();
        worst = std::max(worst, age);
      }
    }
  } else {
    // Static mesh: every configured neighbor is expected to keep
    // exchanging. Neighbors never heard from count as stale only once the
    // staleness clock could have expired at all (grace for startup).
    known = neighbors_.size();
    for (const auto& [dp, heard] : peer_last_heard_) {
      const sim::Duration age = now - heard;
      if (age > threshold) {
        ++stale;
        worst = std::max(worst, age.us());
      }
    }
    if (now - sim::Time::zero() > threshold &&
        known > peer_last_heard_.size()) {
      stale += known - peer_last_heard_.size();
      worst = std::max(worst, (now - sim::Time::zero()).us());
    }
  }
  hint.stale_peers = std::uint32_t(stale);
  hint.stale_sites =
      std::uint32_t(engine_.view().stale_site_count(now, threshold));
  hint.staleness_us = worst;
  if (known == 0 || (stale == 0 && hint.stale_sites == 0)) return hint;
  hint.level = (stale * 2 > known) ? 2 : 1;
  return hint;
}

void DecisionPoint::bootstrap(const std::vector<grid::SiteSnapshot>& snapshots) {
  engine_.view().bootstrap(snapshots);
}

void DecisionPoint::set_neighbors(std::vector<NodeId> neighbors) {
  neighbors_ = std::move(neighbors);
}

void DecisionPoint::set_overlay_view(std::vector<overlay::Member> peers) {
  std::sort(peers.begin(), peers.end(),
            [](const overlay::Member& a, const overlay::Member& b) {
              return a.dp < b.dp;
            });
  neighbors_.clear();
  neighbors_.reserve(peers.size());
  for (const overlay::Member& peer : peers) neighbors_.push_back(peer.node);
  overlay_peers_ = std::move(peers);
  rebuild_strategy(/*initial=*/true);
}

net::Served DecisionPoint::handle_get_site_loads(std::span<const std::uint8_t> body,
                                                 NodeId /*from*/) {
  GetSiteLoadsRequest request;
  if (!net::wire::decode(body, request)) return {};
  ++counters_.queries;

  grid::Job probe;
  probe.id = request.job;
  probe.vo = request.vo;
  probe.group = request.group;
  probe.user = request.user;
  probe.cpus = request.cpus;

  GetSiteLoadsReply reply;
  reply.candidates = engine_.candidates(probe, sim_.now());
  reply.as_of = sim_.now();
  // Karma admission gate: a VO past its fair share plus credits keeps
  // brokering only while the grid has idle capacity *and* it wins the
  // severity-then-credit arbitration among over-allowance contenders.
  // Denial empties the candidate list — the client falls back — so the
  // broker stops amplifying a strategic VO without touching the wire shape.
  if (bank_ && !reply.candidates.empty()) {
    switch (bank_->admit(request.vo, sim_.now(), free_fraction(sim_.now()))) {
      case economy::Admit::kWithinShare:
        break;
      case economy::Admit::kGrace:
        ++counters_.grace_admissions;
        break;
      case economy::Admit::kDenied:
        ++counters_.credit_denials;
        reply.candidates.clear();
        break;
    }
  }
  // Staleness-guarded admission, level 1: some peers (or site state) are
  // stale, so part of the believed-free capacity may already be committed
  // on the far side of a split. Discount the usable estimate — clients
  // place conservatively — but keep raw_free as the undiscounted belief
  // for scheduling-accuracy audits. (Level 2 never reaches this handler:
  // the refusal gate NACKs the query as degraded first.)
  const DegradedHint degraded =
      options_.partition.enabled ? degraded_hint(sim_.now()) : DegradedHint{};
  if (degraded.level >= 1 && options_.partition.stale_discount > 0.0) {
    const double keep = 1.0 - options_.partition.stale_discount;
    for (gruber::SiteLoad& load : reply.candidates) {
      load.free_estimate = std::int32_t(double(load.free_estimate) * keep);
    }
  }
  // Membership piggyback: the client told us its epoch; attach the view
  // only when it is stale. Trailing fields stack positionally, so the
  // membership trailer forces the dp_loads one (at least the self hint),
  // and the partition-tolerance digest trailer forces both.
  const bool attach_membership = membership_ && request.has_epoch &&
                                 request.membership_epoch < membership_->epoch();
  const bool attach_digest = options_.partition.enabled;
  const bool attach_prices = options_.economy.enabled;
  // Same positional TrailerStack contract as the exchange path: a slot is
  // *wanted* on its own merit; wanting a later slot forces every earlier
  // one onto the reply (forced dp_loads still carry the full hint set —
  // the bytes double as the failover hint table — while forced
  // membership/digest/degraded slots stay empty no-ops).
  overlay::TrailerStack trailers;
  trailers
      .slot(options_.advertise_load,
            [&](bool) {
              // Own hint plus whatever peers piggybacked on recent
              // exchanges, in node order so the reply bytes are
              // deterministic across runs.
              reply.dp_loads.push_back(self_hint());
              for (const auto& [node, hint] : peer_hints_) {
                reply.dp_loads.push_back(hint);
              }
              std::sort(reply.dp_loads.begin(), reply.dp_loads.end(),
                        [](const DpLoadHint& a, const DpLoadHint& b) {
                          return a.node < b.node;
                        });
            })
      .slot(attach_membership,
            [&](bool) {
              reply.has_membership = true;
              // Without a membership table the slot is an empty update — a
              // no-op on the receiver, emitted only to keep the trailer
              // positions aligned.
              if (membership_) reply.membership = membership_->update();
            })
      .slot(attach_digest,
            [&](bool forced) {
              reply.has_digest = true;
              if (!forced) reply.digest = settled_digest(sim_.now());
            })
      .slot(attach_digest && degraded.level >= 1,
            [&](bool forced) {
              reply.has_degraded = true;  // forced: empty level-0, a no-op
              if (!forced) {
                reply.degraded = degraded;
                ++counters_.degraded_replies;
              }
            })
      .slot(attach_prices,
            [&](bool) {
              // Quotes aligned index-wise with dp_loads: own price for the
              // self hint, the freshest exchanged quote for each peer
              // (0 = no quote yet).
              reply.dp_prices.reserve(reply.dp_loads.size());
              const std::uint64_t self_node = server_.node().value();
              for (const DpLoadHint& hint : reply.dp_loads) {
                if (hint.node == self_node) {
                  reply.dp_prices.push_back(self_price());
                } else {
                  const auto it = peer_prices_.find(hint.node);
                  reply.dp_prices.push_back(
                      it != peer_prices_.end() ? it->second : 0.0);
                }
              }
              ++counters_.priced_replies;
            })
      .compose();

  // Ambient here is the rpc.serve span, so the instant lands inside the
  // caller's query trace.
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "dp.get_site_loads",
               t->ambient(), std::int64_t(reply.candidates.size()),
               std::int64_t(request.vo.value()));
  }

  net::Served served;
  served.handler_cost =
      options_.eval_cost_per_site * double(engine_.view().site_count());
  served.reply = net::wire::encode_buffer(reply);
  return served;
}

net::Served DecisionPoint::handle_report_selection(std::span<const std::uint8_t> body,
                                                   NodeId /*from*/) {
  ReportSelectionRequest request;
  if (!net::wire::decode(body, request)) return {};

  if (disk_ && request.has_request_id) {
    // Exactly-once: a retry of an already-committed report returns the
    // original decision instead of re-allocating and re-metering. The
    // window survives crashes — rebuilt from checkpoint + WAL — so even a
    // retry that lands after recovery collapses to one dispatch.
    const auto hit =
        dedup_.find(std::make_pair(request.request_client, request.request_seq));
    if (hit != dedup_.end()) {
      ++counters_.dedup_hits;
      if (auto* t = trace::current()) {
        t->instant(trace::Category::kDp, id_.value(), "dp.dedup_hit",
                   t->ambient(), std::int64_t(request.request_client),
                   std::int64_t(request.request_seq));
      }
      Ack ack;
      ack.has_original = true;
      ack.original_site = hit->second;
      net::Served served;
      served.handler_cost = sim::Duration::millis(0.5);
      served.reply = net::wire::encode_buffer(ack);
      return served;
    }
  }

  // Counted here, below the dedup gate: a collapsed retry is not a new
  // recorded selection.
  ++counters_.selections;
  gruber::DispatchRecord record;
  record.origin = id_;
  record.seq = next_seq_++;
  record.site = request.site;
  record.vo = request.vo;
  record.group = request.group;
  record.user = request.user;
  record.cpus = request.cpus;
  record.when = sim_.now();
  record.est_runtime = request.est_runtime;

  engine_.record(record);
  applied_[id_].insert(record.seq);
  if (options_.overlay_audit) {
    own_record_log_.emplace_back(record.seq, record.when.to_seconds());
  }
  // The request-id trailer forces (possibly all-zero) bid bytes onto the
  // wire, so presence alone no longer implies a priced report.
  if (request.has_bid && (request.budget > 0 || request.deadline_s > 0)) {
    ++counters_.priced_selections;
  }
  if (options_.dissemination != Dissemination::kNone) {
    fresh_.push_back(record);
    fresh_meta_.push_back({id_, 0});
  }

  if (disk_) {
    wal_log_dispatch(record, request.has_request_id, request.request_client,
                     request.request_seq);
    if (request.has_request_id) {
      dedup_insert(request.request_client, request.request_seq, record.site);
    }
  }
  // After the dispatch frame: if this charge crosses an epoch boundary it
  // appends a settle cross-check frame, and replay verifies that frame
  // after re-driving the charge — the WAL order must match.
  charge_bank(record);
  if (request.has_request_id) {
    audit_dispatch(request.request_client, request.request_seq);
  }

  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "dp.report_selection",
               t->ambient(), std::int64_t(request.site.value()),
               std::int64_t(request.cpus));
  }

  net::Served served;
  // The commit is durable before the ack leaves: the fsync barrier rides
  // on the handler cost, so the reply cannot outrun the log.
  served.handler_cost = sim::Duration::millis(5) + wal_commit();
  served.reply = net::wire::encode_buffer(Ack{});
  return served;
}

net::Served DecisionPoint::handle_exchange(std::span<const std::uint8_t> body,
                                           NodeId /*from*/) {
  ExchangeMessage message;
  if (!net::wire::decode(body, message)) return {};
  ++counters_.exchanges_received;

  // Flooding never retransmits: a jump in the peer's round counter means
  // dropped rounds (partition, loss) whose records would otherwise stay
  // unknown here until they age out. Re-sync with a full pull, at most
  // once per exchange interval (a heal makes every peer's gap visible at
  // the same tick). A round at or below the last one seen is a peer
  // restart — its counter reset — not a gap.
  const auto [it, first_contact] =
      last_peer_round_.try_emplace(message.from, message.exchange_round);
  if (!first_contact) {
    const bool gap = message.exchange_round > it->second + 1;
    it->second = message.exchange_round;
    if (gap && (last_full_pull_ == sim::Time::zero() ||
                sim_.now() - last_full_pull_ >= options_.exchange_interval)) {
      ++counters_.gap_resyncs;
      run_full_pull();
    }
  }

  // Overlay relay depth: each record applied from this frame re-floods
  // one hop deeper than *it* has traveled (per-record depths ride the hop
  // trailer — one deep record must not burn the relay budget of a fresh
  // one in the same frame). Sparse overlays bound the depth by the
  // strategy TTL — an over-deep record is still *applied* (the bound
  // suppresses relaying, never learning), leaving residual convergence to
  // the anti-entropy paths.
  const std::uint32_t relay_ttl = strategy_->ttl();
  if (message.has_hops) {
    counters_.max_hops =
        std::max<std::uint64_t>(counters_.max_hops, message.hops);
  }
  std::uint64_t relays_dropped = 0;
  for (std::size_t i = 0; i < message.dispatches.size(); ++i) {
    const gruber::DispatchRecord& record = message.dispatches[i];
    auto& seen = applied_[record.origin];
    if (!seen.insert(record.seq).second) {
      ++counters_.records_duplicate;
      continue;
    }
    engine_.record(record);
    ++counters_.records_applied;
    wal_log_dispatch(record, false, 0, 0);
    // After the frame: a boundary-crossing charge appends a settle
    // cross-check frame, which replay verifies after re-driving the
    // charge — the WAL order must match.
    charge_bank(record);
    // Flooding: relay fresh records onward at the next exchange tick.
    const std::uint32_t prior =
        message.has_hops && i < message.hop_depths.size()
            ? message.hop_depths[i]
            : 0;
    const std::uint32_t relay_depth = message.has_hops ? prior + 1 : 1;
    if (relay_ttl == 0 || relay_depth <= relay_ttl) {
      fresh_.push_back(record);
      fresh_meta_.push_back({message.from, relay_ttl > 0 ? relay_depth : 0});
    } else {
      ++counters_.relays_suppressed;
      ++relays_dropped;
    }
  }
  if (relays_dropped > 0) {
    if (auto* t = trace::current()) {
      t->instant(trace::Category::kDp, id_.value(), "overlay.relay_drop",
                 t->ambient(), std::int64_t(relays_dropped),
                 std::int64_t(message.hops));
    }
  }
  for (const grid::SiteSnapshot& snapshot : message.snapshots) {
    engine_.view().apply_snapshot(snapshot);
  }
  if (message.has_load) peer_hints_[message.load.node] = message.load;
  if (message.has_price && message.has_load && message.load.node != 0) {
    peer_prices_[message.load.node] = message.price;
  }

  if (options_.partition.enabled) peer_last_heard_[message.from] = sim_.now();
  if (options_.partition.enabled ||
      strategy_->kind() != overlay::Kind::kMesh) {
    // The frame doubles as the staleness heartbeat for degraded-mode
    // admission (partition mode only, above), and its piggybacked digest —
    // compared only *after* the frame's own records were applied — is the
    // split-brain detector: any divergence the frame itself did not repair
    // triggers a targeted delta pull. Sparse overlays always compare: a
    // roster-divergence transient can strand a record mid-path, and the
    // digest exchange along the surviving edges is what backfills it. An
    // economy-only sender emits an *empty* digest slot just to reach the
    // price trailer; empty means "no digest", not "diverged from an empty
    // view" — there is nothing to pull from it.
    const bool digest_empty = message.digest.base_hash == 0 &&
                              message.digest.vos.empty() &&
                              message.digest.epochs.empty();
    if (message.has_digest && !digest_empty) maybe_delta_pull(message);
  }

  if (membership_ && message.has_membership) {
    // The frame itself is the heartbeat: refresh the sender's last-heard
    // time (refuting any suspicion) using the incarnation it claims for
    // itself, then merge the rest of the gossiped view.
    bool changed = false;
    for (const MemberInfo& info : message.membership.members) {
      if (info.dp != message.from) continue;
      if (info.state == MemberState::kAlive) {
        if (auto tr = membership_->heard_from(info.dp, info.node,
                                              info.incarnation, sim_.now())) {
          trace_transitions({*tr});
          changed = true;
        }
      }
      break;
    }
    const auto transitions =
        membership_->absorb(message.membership, sim_.now());
    trace_transitions(transitions);
    if (changed || !transitions.empty()) refresh_neighbors();
  }

  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "dp.exchange_recv",
               t->ambient(), std::int64_t(message.dispatches.size()),
               std::int64_t(message.from.value()));
  }

  net::Served served;
  served.handler_cost =
      sim::Duration::millis(0.2) * double(message.dispatches.size() + 1) +
      wal_commit();
  return served;  // one-way: empty reply
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
DecisionPoint::applied_keys() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;
  for (const auto& [origin, seqs] : applied_) {
    for (const std::uint64_t seq : seqs) keys.emplace_back(origin.value(), seq);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

DpLoadHint DecisionPoint::self_hint() const {
  const net::ServiceContainer& container = server_.container();
  DpLoadHint hint;
  hint.node = server_.node().value();
  hint.queue_depth = std::int32_t(container.queue_depth());
  hint.utilization =
      double(container.busy_workers()) / double(container.profile().workers);
  hint.est_wait_s = container.est_sojourn().to_seconds();
  return hint;
}

double DecisionPoint::self_price() const {
  const DpLoadHint hint = self_hint();
  return economy::quote_price(options_.economy, hint.utilization,
                              hint.est_wait_s);
}

double DecisionPoint::free_fraction(sim::Time now) const {
  std::int64_t total = 0;
  std::int64_t free = 0;
  for (const gruber::SiteLoad& load : engine_.view().loads(now)) {
    total += load.total_cpus;
    free += std::max<std::int32_t>(0, load.free_estimate);
  }
  return total > 0 ? double(free) / double(total) : 1.0;
}

void DecisionPoint::charge_bank(const gruber::DispatchRecord& record) {
  charge_bank_at(record, sim_.now());
}

void DecisionPoint::charge_bank_at(const gruber::DispatchRecord& record,
                                   sim::Time at) {
  if (!bank_) return;
  const std::uint64_t settled_before = bank_->epochs_settled();
  // Meter in CPU-seconds against the record's VO. Every record-apply path
  // funnels here after the flooding dedup, so replicated banks converge on
  // the same ledgers without double-charging. Replay calls with the frame's
  // original apply time, so restored ledgers settle in the same epochs.
  bank_->charge(record.vo,
                double(record.cpus) * record.est_runtime.to_seconds(), at);
  if (disk_ && !replaying_) {
    const std::uint64_t settled_after = bank_->epochs_settled();
    if (settled_after != settled_before) {
      // Epoch boundary crossed under this charge: log the settlement
      // counters as a replay cross-check. Recovery recomputes settlement
      // from the charges themselves and verifies it reaches the same spot.
      WalEpochSettle settle;
      settle.epochs_settled = settled_after;
      settle.expired_pool = bank_->stats().expired_pool;
      const std::vector<std::uint8_t> payload = net::wire::encode(settle);
      wal_append_frame(WalRecordType::kEpochSettle, payload);
    }
  }
}

void DecisionPoint::run_exchange(bool final_flush) {
  if (membership_ && !serving_ && !final_flush) return;
  if (membership_ && !final_flush) {
    // Failure-detector tick, swept on the heartbeat cadence it measures
    // against — no extra timer. Dead peers drop out of the neighbor set
    // before this round's fan-out, so nothing is sent to them. The
    // strategy scopes the detector: sparse symmetric overlays restrict
    // the timers to their overlay neighbors (silence from a non-adjacent
    // peer is the topology working), gossip stretches the clocks by its
    // expected contact period. The mesh keeps the legacy everyone-every-
    // round contract bit-identically.
    const double stretch = strategy_->watch_stretch();
    const sim::Duration heartbeat =
        stretch == 1.0 ? options_.exchange_interval
                       : sim::Duration::seconds(
                             options_.exchange_interval.to_seconds() * stretch);
    const auto swept =
        membership_->sweep(sim_.now(), heartbeat, strategy_->watch_peers());
    trace_transitions(swept.transitions);
    if (!swept.transitions.empty()) refresh_neighbors();
  }
  // Grave-probe pool: a dead verdict is mutually silencing — nobody
  // pushes to a peer it believes dead, so a falsely-buried survivor
  // (asymmetric partition verdicts) would never see the accusation it
  // must refute with an incarnation bump. Sparse overlays copy each
  // round's frame to one rotating dead peer: a true corpse ignores it; a
  // zombie reads the gossiped claim about itself, bumps, and its next
  // frames resurrect it everywhere. Collected before the empty-neighbor
  // bail so a fully-isolated survivor still probes its way back in.
  std::vector<NodeId> graves;
  if (membership_ && !final_flush &&
      strategy_->kind() != overlay::Kind::kMesh) {
    for (const MemberInfo& info : membership_->members()) {
      if (info.dp != id_ && info.state == MemberState::kDead) {
        graves.push_back(NodeId(info.node));
      }
    }
  }
  if ((neighbors_.empty() && graves.empty()) ||
      options_.dissemination == Dissemination::kNone) {
    return;
  }
  const bool sparse = strategy_->kind() != overlay::Kind::kMesh;
  ExchangeMessage message;
  message.from = id_;
  message.exchange_round = ++exchange_round_;
  if (!sparse) {
    // Mesh: one shared frame for every neighbor, exactly the legacy path.
    message.dispatches = std::move(fresh_);
    fresh_.clear();
    fresh_meta_.clear();
  }
  const std::size_t flushed = sparse ? fresh_.size() : message.dispatches.size();
  // Trailing fields stack positionally (see TrailerStack): attaching a
  // later trailer forces all earlier slots onto the frame. A forced load
  // hint still carries the full snapshot (it doubles as the sender's
  // pull-target address), a forced membership slot without a table is an
  // empty update, a forced digest stays empty — receivers treat an empty
  // digest as absent, never as divergence — and a forced price is a
  // no-quote 0.0. The hop trailer rides fifth, wanted only by sparse
  // overlays, so the mesh default emits nothing and keeps the legacy
  // byte layout.
  overlay::TrailerStack trailers;
  trailers
      .slot(options_.advertise_load,
            [&](bool) {
              message.has_load = true;
              message.load = self_hint();
            })
      .slot(membership_ != nullptr,
            [&](bool) {
              message.has_membership = true;
              if (membership_) message.membership = membership_->update();
            })
      .slot(options_.partition.enabled ||
                strategy_->kind() != overlay::Kind::kMesh,
            [&](bool forced) {
              message.has_digest = true;
              if (!forced) message.digest = settled_digest(sim_.now());
            })
      .slot(options_.economy.enabled,
            [&](bool forced) {
              message.has_price = true;
              if (!forced) message.price = self_price();
            })
      .slot(strategy_->ttl() > 0,
            [&](bool) {
              // Placeholder: sparse frames are composed per target below,
              // each stamped with the max depth of the records it carries.
              message.has_hops = true;
              message.hops = 0;
            })
      .compose();
  trace::SpanContext xctx;
  if (auto* t = trace::current()) {
    xctx = t->begin(trace::Category::kDp, id_.value(), "dp.exchange", {},
                    std::int64_t(message.exchange_round),
                    std::int64_t(flushed));
  }
  trace::ContextGuard xguard(xctx);
  if (options_.dissemination == Dissemination::kUslaAndUsage) {
    // Strategy 1 also ships the sender's estimated site states. They are
    // stamped one exchange interval in the past: the sender cannot know
    // dispatches its peers made since the previous round, so a "now"
    // timestamp would wrongly clobber the receiver's fresher local records.
    const sim::Time now = sim_.now();
    sim::Time claim = sim::Time::zero();
    if (now - sim::Time::zero() > options_.exchange_interval) {
      claim = now - options_.exchange_interval;
    }
    for (const gruber::SiteLoad& load : engine_.view().loads(now)) {
      grid::SiteSnapshot snapshot = engine_.view().estimated_snapshot(load.site, now);
      snapshot.as_of = claim;
      message.snapshots.push_back(std::move(snapshot));
    }
  }
  // Strategy fan-out. The mesh pushes one shared frame to every live
  // neighbor (the paper's flooding: one encode plus K refcount bumps).
  // Sparse overlays derive a smaller per-round push set from the same
  // roster and compose one frame *per target* — split-horizon: a record
  // is never relayed back to the peer it was learned from (a leaf's only
  // target is its parent, so echoing would both waste the edge and
  // inflate the frame's hop stamp past the TTL for every record riding
  // along), and each frame's hop trailer reflects only the records it
  // actually carries.
  const std::vector<NodeId>* targets = &neighbors_;
  std::vector<NodeId> selected;
  if (sparse) {
    strategy_->select(message.exchange_round, neighbors_, selected);
    // A sparse strategy wired through raw set_neighbors (no roster) has
    // no structure to select from; degrade to the mesh push set rather
    // than silently sending nothing.
    if (selected.empty()) selected = neighbors_;
    targets = &selected;
    if (!graves.empty()) {
      selected.push_back(graves[message.exchange_round % graves.size()]);
      ++counters_.grave_probes;
      if (auto* t = trace::current()) {
        t->instant(trace::Category::kDp, id_.value(), "overlay.grave_probe",
                   xctx, std::int64_t(graves.size()),
                   std::int64_t(message.exchange_round));
      }
    }
  }
  if (!sparse) {
    // One shared frame, a copy per peer: count every copy so
    // bytes-per-round comparisons against sparse strategies (which
    // really do encode per target) stay honest.
    counters_.bytes_sent += net::wire::encoded_size(message) * targets->size();
    peer_client_.notify_all(*targets, kExchange, message);
  } else {
    for (const NodeId target : *targets) {
      DpId source = id_;  // sentinel: own records are never excluded
      bool known = false;
      for (const overlay::Member& m : overlay_peers_) {
        if (m.node == target) {
          source = m.dp;
          known = true;
          break;
        }
      }
      message.dispatches.clear();
      message.hop_depths.clear();
      std::uint32_t hops = 0;
      for (std::size_t i = 0; i < fresh_.size(); ++i) {
        if (known && fresh_meta_[i].from == source) continue;
        message.dispatches.push_back(fresh_[i]);
        message.hop_depths.push_back(fresh_meta_[i].depth);
        hops = std::max(hops, fresh_meta_[i].depth);
      }
      message.hops = hops;
      counters_.bytes_sent += net::wire::encoded_size(message);
      peer_client_.notify(target, kExchange, message);
    }
    fresh_.clear();
    fresh_meta_.clear();
  }
  counters_.exchanges_sent += targets->size();
  counters_.fanout_total += targets->size();
  ++counters_.rounds;
  if (auto* t = trace::current()) {
    t->end(trace::Category::kDp, id_.value(), "dp.exchange", xctx,
           std::int64_t(targets->size()));
  }
}

void DecisionPoint::wal_append_frame(WalRecordType type,
                                     std::span<const std::uint8_t> payload) {
  // No disk: durability is off. Replaying: the frames being applied are
  // already on disk — re-appending them would double the log every
  // recovery.
  if (!disk_ || replaying_) return;
  const sim::Duration cost =
      durable::wal_append(*disk_, std::uint8_t(type), payload);
  pending_wal_cost_ = pending_wal_cost_ + cost;
  wal_dirty_ = true;
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "wal.append", t->ambient(),
               std::int64_t(payload.size()), std::int64_t(cost.us()));
  }
}

void DecisionPoint::wal_log_dispatch(const gruber::DispatchRecord& record,
                                     bool has_request_id,
                                     std::uint64_t request_client,
                                     std::uint64_t request_seq) {
  if (!disk_ || replaying_) return;
  WalDispatch frame;
  frame.record = record;
  frame.applied_at = sim_.now();
  frame.has_request_id = has_request_id;
  frame.request_client = request_client;
  frame.request_seq = request_seq;
  const std::vector<std::uint8_t> payload = net::wire::encode(frame);
  wal_append_frame(WalRecordType::kDispatch, payload);
}

sim::Duration DecisionPoint::wal_commit() {
  if (!disk_ || !wal_dirty_) return sim::Duration{};
  const sim::Duration cost = pending_wal_cost_ + disk_->fsync();
  wal_dirty_ = false;
  pending_wal_cost_ = sim::Duration{};
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "wal.fsync", t->ambient(),
               std::int64_t(disk_->log().size()), std::int64_t(cost.us()));
  }
  return cost;
}

void DecisionPoint::dedup_insert(std::uint64_t client, std::uint64_t seq,
                                 SiteId site) {
  const auto key = std::make_pair(client, seq);
  if (!dedup_.emplace(key, site).second) return;
  dedup_order_.push_back(key);
  while (dedup_order_.size() > options_.durability.dedup_window) {
    dedup_.erase(dedup_order_.front());
    dedup_order_.pop_front();
  }
}

void DecisionPoint::audit_dispatch(std::uint64_t client, std::uint64_t seq) {
  // Observer-only ground truth for I12 — deliberately not cleared by
  // crash(), so a duplicate committed across a crash/recovery boundary is
  // still counted.
  if (++dispatch_audit_[std::make_pair(client, seq)] > 1) {
    ++counters_.duplicate_dispatches;
  }
}

void DecisionPoint::write_checkpoint() {
  if (!disk_ || !running_) return;
  DpCheckpoint checkpoint;
  checkpoint.incarnation = incarnation_;
  checkpoint.taken_at = sim_.now();
  checkpoint.active = engine_.view().active_records(sim_.now());
  checkpoint.dedup.reserve(dedup_order_.size());
  // Oldest-first, so a restore followed by inserts evicts in the original
  // order.
  for (const auto& key : dedup_order_) {
    const auto it = dedup_.find(key);
    if (it == dedup_.end()) continue;
    checkpoint.dedup.push_back({key.first, key.second, it->second});
  }
  if (bank_) {
    checkpoint.has_bank = true;
    checkpoint.bank = bank_->image();
  }
  disk_->write_checkpoint(
      durable::make_checkpoint_image(net::wire::encode(checkpoint)));
  // The checkpoint covers everything the log held; truncating bounds both
  // the device and the next recovery's replay time.
  disk_->truncate_log();
  wal_dirty_ = false;
  pending_wal_cost_ = sim::Duration{};
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "dp.checkpoint", {},
               std::int64_t(checkpoint.active.size()),
               std::int64_t(disk_->checkpoint().size()));
  }
}

sim::Duration DecisionPoint::replay_from_disk() {
  replaying_ = true;
  const sim::Time now = sim_.now();
  const std::uint64_t frames_before = counters_.replay_frames;
  std::uint32_t persisted_incarnation = 0;
  bool bank_restored = false;

  // 1. Checkpoint. A corrupt or torn image reads as "no checkpoint": fall
  // back to replaying the WAL from a pristine bank. (The WAL was truncated
  // when that checkpoint was written, so a corrupt image genuinely loses
  // the pre-checkpoint records — I11 surfaces that as replay mismatches.)
  if (!disk_->checkpoint().empty()) {
    const auto payload = durable::read_checkpoint_image(disk_->checkpoint());
    DpCheckpoint checkpoint;
    if (payload && net::wire::decode(*payload, checkpoint)) {
      persisted_incarnation = checkpoint.incarnation;
      if (checkpoint.has_bank && bank_) {
        bank_->restore(checkpoint.bank);
        bank_restored = true;
      }
      for (const gruber::DispatchRecord& record : checkpoint.active) {
        applied_[record.origin].insert(record.seq);
        if (record.when + record.est_runtime > now) {
          engine_.record(record);
          ++counters_.replay_records;
        }
      }
      for (const DedupEntry& entry : checkpoint.dedup) {
        dedup_insert(entry.client, entry.seq, entry.site);
        ++counters_.replay_dedup_entries;
      }
    } else {
      ++counters_.checkpoint_fallbacks;
    }
  }
  // Checkpoint bank charges are inside the image; without one, replay
  // re-drives every logged charge against a pristine bank, which
  // reproduces the live ledgers exactly (settlement is a pure function of
  // the charge order and times).
  if (!bank_restored && bank_) bank_->reset(sim::Time::zero());

  // 2. WAL scan. The scanner stops at the first short or corrupt frame
  // (torn tail): everything before it is intact by CRC.
  const durable::WalScan scan = durable::wal_scan(
      disk_->log(), [&](std::uint8_t type, std::span<const std::uint8_t> payload) {
        ++counters_.replay_frames;
        switch (WalRecordType(type)) {
          case WalRecordType::kDispatch: {
            WalDispatch frame;
            if (!net::wire::decode(payload, frame)) {
              ++counters_.replay_mismatches;
              return;
            }
            const gruber::DispatchRecord& record = frame.record;
            if (applied_[record.origin].insert(record.seq).second) {
              if (record.when + record.est_runtime > now) {
                engine_.record(record);
              }
              ++counters_.replay_records;
            }
            // Charged per FRAME, not per unique (origin, seq): a
            // targeted-pull restore (apply_pulled with `restore`) logs a
            // second frame for a seq this point already knew, and its
            // charge really happened — skipping it here leaves the bank
            // un-rolled past that frame's epoch boundary and the next
            // settle cross-check reads stale counters.
            charge_bank_at(record, frame.applied_at);
            if (frame.has_request_id) {
              dedup_insert(frame.request_client, frame.request_seq,
                           record.site);
              ++counters_.replay_dedup_entries;
            }
            break;
          }
          case WalRecordType::kEpochSettle: {
            WalEpochSettle settle;
            if (!net::wire::decode(payload, settle)) {
              ++counters_.replay_mismatches;
              return;
            }
            // Cross-check: the recomputed settlement must be exactly where
            // the live bank was when this frame was logged.
            if (bank_ && bank_->epochs_settled() != settle.epochs_settled) {
              ++counters_.replay_mismatches;
            }
            break;
          }
          case WalRecordType::kIncarnation: {
            WalIncarnation bump;
            if (!net::wire::decode(payload, bump)) {
              ++counters_.replay_mismatches;
              return;
            }
            persisted_incarnation =
                std::max(persisted_incarnation, bump.incarnation);
            break;
          }
          default:
            ++counters_.replay_mismatches;
            break;
        }
      });
  if (scan.truncated) ++counters_.replay_truncations;

  // 3. I11 audit: every record committed (fsynced) before the crash and
  // still unexpired must be back. pre_crash_committed_ is observer state
  // captured by crash(); misses on a clean disk are recovery bugs, misses
  // after injected torn tails / bit rot are the faults working as intended
  // (chaos gates the invariant on clean-disk points).
  for (const auto& [origin, seq, expiry] : pre_crash_committed_) {
    if (expiry <= now) continue;
    const auto it = applied_.find(origin);
    if (it == applied_.end() || it->second.count(seq) == 0) {
      ++counters_.replay_mismatches;
    }
  }
  pre_crash_committed_.clear();

  replaying_ = false;
  incarnation_ = std::max(incarnation_, persisted_incarnation);
  // Accounted replay time: one sequential read of checkpoint + log, plus a
  // small per-frame CPU cost for decode/apply.
  return disk_->read_all_cost() +
         sim::Duration::micros(20) * double(counters_.replay_frames - frames_before);
}

void DecisionPoint::inject_disk_tear() {
  if (!disk_) return;
  disk_->tear_tail();
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "disk.torn", {},
               std::int64_t(disk_->log().size()));
  }
}

void DecisionPoint::inject_disk_rot() {
  if (!disk_) return;
  disk_->corrupt_bit();
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "disk.bit_rot", {},
               std::int64_t(disk_->log().size()),
               std::int64_t(disk_->checkpoint().size()));
  }
}

void DecisionPoint::set_disk_stall(double factor) {
  if (!disk_) return;
  disk_->set_stall(factor);
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "disk.stall", {},
               std::int64_t(factor * 100));
  }
}

void DecisionPoint::check_saturation() {
  if (!serving_) return;  // joining/draining: not taking query load
  const StreamingStats& stats = server_.container().sojourn_stats();
  const std::uint64_t count = stats.count();
  const double sum = stats.mean() * double(count);
  const std::uint64_t window_count = count - window_base_count_;
  const double window_avg =
      window_count > 0 ? (sum - window_base_sum_s_) / double(window_count) : 0.0;
  window_base_count_ = count;
  window_base_sum_s_ = sum;

  if (window_avg < options_.saturation_response_s) return;
  if (last_signal_ > sim::Time::zero() &&
      sim_.now() - last_signal_ < options_.saturation_cooldown) {
    return;
  }
  last_signal_ = sim_.now();
  ++counters_.saturation_signals;

  if (auto* t = trace::current()) {
    t->instant(trace::Category::kDp, id_.value(), "dp.saturated", {},
               std::int64_t(server_.container().queue_depth()),
               std::int64_t(window_avg * 1e6));
  }

  SaturationSignal signal;
  signal.from = id_;
  signal.avg_response_s = window_avg;
  signal.observed_qps = double(window_count) / sim::Duration::seconds(30).to_seconds();
  signal.queue_depth = std::int32_t(server_.container().queue_depth());
  peer_client_.notify(*options_.infrastructure_monitor, kSaturation, signal);
  log::info("digruber", "dp ", id_.value(), " saturated: avg response ",
            window_avg, "s, queue ", signal.queue_depth);
}

void connect(std::vector<DecisionPoint*> dps, const overlay::Options& options) {
  for (DecisionPoint* dp : dps) {
    // The mesh keeps raw neighbor lists: no roster, no strategy structure
    // to maintain. Sparse strategies need the full roster (id + node per
    // peer) so every point derives the same tree / super-peer structure.
    std::vector<NodeId> nodes;
    std::vector<overlay::Member> peers;
    for (const DecisionPoint* other : dps) {
      if (other == dp) continue;
      nodes.push_back(other->node());
      peers.push_back({other->id(), other->node()});
    }
    if (options.kind == overlay::Kind::kMesh) {
      dp->set_neighbors(std::move(nodes));
    } else {
      dp->set_overlay_view(std::move(peers));
    }
  }
}

}  // namespace digruber::digruber
