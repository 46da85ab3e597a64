#pragma once

#include <cstdint>
#include <vector>

#include "digruber/digruber/membership.hpp"
#include "digruber/grid/job.hpp"
#include "digruber/gruber/view.hpp"
#include "digruber/net/wire/archive.hpp"
#include "digruber/net/wire/stats.hpp"

namespace digruber::digruber {

/// RPC method ids for the DI-GRUBER wire protocol.
enum Method : std::uint16_t {
  /// Client -> decision point: fetch USLA-filtered site loads for a job.
  kGetSiteLoads = 1,
  /// Client -> decision point: report the site the client-side selector
  /// chose (the second round trip of a brokering query).
  kReportSelection = 2,
  /// Decision point -> decision point: periodic state exchange (one-way).
  kExchange = 3,
  /// The trivial WS operation used by the Figure-1 baseline.
  kCreateInstance = 4,
  /// Decision point -> infrastructure monitor: saturation signal (one-way).
  kSaturation = 5,
  // 6 is retired (the old full-snapshot catch-up; now a full kDeltaPull).
  /// Joining decision point -> seed peer: request a bootstrap snapshot
  /// (base site states + recent-dispatch window + load hints + membership
  /// view). Only sent by membership-enabled deployments.
  kJoinSnapshot = 7,
  /// Departing decision point -> peers: graceful leave announcement
  /// (one-way), so the mesh drops it without waiting for suspicion.
  kLeave = 8,
  /// Decision point -> decision point: pull dispatch records. After a
  /// digest mismatch, only the diverged VO ranges (and base state if its
  /// hash differed); after a restart, join or round gap, every active
  /// record (the full form, see DeltaPullRequest).
  kDeltaPull = 9,
};

/// Traffic class of each protocol method, for the wire layer's per-category
/// bytes-on-wire and encode-count telemetry (the wire layer itself knows
/// nothing about DI-GRUBER method ids).
constexpr net::wire::MsgCategory method_category(std::uint16_t method) {
  switch (method) {
    case kGetSiteLoads:
    case kReportSelection:
    case kCreateInstance:
      return net::wire::MsgCategory::kQuery;
    case kExchange:
      return net::wire::MsgCategory::kStateExchange;
    case kSaturation:
    case kJoinSnapshot:
    case kLeave:
    case kDeltaPull:
      return net::wire::MsgCategory::kControl;
    default:
      return net::wire::MsgCategory::kOther;
  }
}

/// Install `method_category` as the wire layer's categorizer. Idempotent;
/// called from every protocol actor's constructor so any run that touches
/// DI-GRUBER traffic gets classified counters.
inline void install_wire_categorizer() {
  net::wire::set_method_categorizer(&method_category);
}

struct GetSiteLoadsRequest {
  JobId job;
  VoId vo;
  GroupId group;
  UserId user;
  std::int32_t cpus = 1;
  /// Optional trailing field (membership-aware clients only): the client's
  /// current membership epoch. A decision point whose view is newer
  /// attaches a MembershipUpdate to the reply. Absent -> legacy bytes.
  bool has_epoch = false;
  std::uint64_t membership_epoch = 0;
  /// Second optional trailing field (market placement): the job's economic
  /// bid — a spend ceiling and a completion deadline. Positional stacking
  /// rule: attaching the bid forces the epoch trailer (epoch 0 is a
  /// harmless no-op on decision points). Absent -> legacy bytes.
  bool has_bid = false;
  double budget = 0.0;
  double deadline_s = 0.0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & job & vo & group & user & cpus;
    net::wire::trailer(ar, has_epoch, membership_epoch);
    net::wire::trailer(ar, has_bid, budget, deadline_s);
  }
};

/// Per-decision-point load hint piggybacked on existing traffic (state
/// exchange and query replies) so peers and clients can do load-aware DP
/// selection without extra probe RPCs. Always a trailing optional field:
/// senders that do not advertise load emit byte-identical legacy messages.
struct DpLoadHint {
  std::uint64_t node = 0;       // RPC address of the advertising DP
  std::int32_t queue_depth = 0;
  double utilization = 0.0;     // busy workers / pool size, EWMA-free sample
  double est_wait_s = 0.0;      // predicted admission-queue sojourn

  template <class Archive>
  void serialize(Archive& ar) {
    ar & node & queue_depth & utilization & est_wait_s;
  }
};

/// Typed degraded-mode hint (partition tolerance): the serving DP's own
/// assessment of how stale its view is. `level` 1 = some site state is
/// stale and believed-free capacity is being discounted; 2 = quorum lost
/// (a majority of peers unreachable past the staleness threshold) and the
/// DP is refusing query admission with kNackDegraded. Clients use the hint
/// to reroute without treating the DP as dead.
struct DegradedHint {
  std::uint8_t level = 0;
  std::uint32_t stale_sites = 0;
  std::uint32_t stale_peers = 0;
  std::int64_t staleness_us = 0;  // worst observed view staleness

  template <class Archive>
  void serialize(Archive& ar) {
    ar & level & stale_sites & stale_peers & staleness_us;
  }
};

struct GetSiteLoadsReply {
  std::vector<gruber::SiteLoad> candidates;
  sim::Time as_of;
  /// Optional trailing field: the serving DP's own hint plus what it has
  /// heard from peers, for power-of-two-choices failover on the client.
  std::vector<DpLoadHint> dp_loads;
  /// Second optional trailing field: the DP's membership view, attached
  /// only when the requesting client reported a stale epoch. Trailing
  /// fields stack positionally, so a sender attaching the membership
  /// trailer MUST also emit `dp_loads` (membership-enabled DPs always
  /// include at least their own hint).
  bool has_membership = false;
  MembershipUpdate membership;
  /// Third optional trailing field (partition tolerance): the DP's state
  /// digest, so any observer can detect divergence between decision
  /// points from query traffic alone. Attaching it forces the two earlier
  /// trailers (an empty MembershipUpdate is a harmless no-op on apply).
  bool has_digest = false;
  gruber::ViewDigest digest;
  /// Fourth optional trailing field (partition tolerance): degraded-mode
  /// admission hint. Same stacking rule: attaching it forces the digest.
  bool has_degraded = false;
  DegradedHint degraded;
  /// Fifth optional trailing field (economy): per-DP price quotes aligned
  /// index-wise with `dp_loads`, so market-placement clients can minimize
  /// cost over the same hint set p2c uses. Attaching it forces every
  /// earlier trailer (empty digest / level-0 degraded hints are harmless
  /// no-ops on receivers).
  std::vector<double> dp_prices;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & candidates & as_of;
    net::wire::trailer(ar, !dp_loads.empty(), dp_loads);
    net::wire::trailer(ar, has_membership, membership);
    net::wire::trailer(ar, has_digest, digest);
    net::wire::trailer(ar, has_degraded, degraded);
    net::wire::trailer(ar, !dp_prices.empty(), dp_prices);
  }
};

struct ReportSelectionRequest {
  JobId job;
  SiteId site;
  VoId vo;
  GroupId group;
  UserId user;
  std::int32_t cpus = 1;
  sim::Duration est_runtime;
  /// Optional trailing field (market placement): the bid the client
  /// placed this job under, echoed so the serving DP can account priced
  /// selections. Absent -> legacy bytes.
  bool has_bid = false;
  double budget = 0.0;
  double deadline_s = 0.0;
  /// Optional trailing field (exactly-once dispatch): a durable client
  /// request id, stable across retries of the same placement, letting the
  /// serving DP collapse a retry to the original decision. Stacks after
  /// the bid trailer, so stamping a request id forces the (possibly
  /// all-zero, harmless) bid bytes to keep positional decoding
  /// unambiguous. Absent -> legacy bytes.
  bool has_request_id = false;
  std::uint64_t request_client = 0;
  std::uint64_t request_seq = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & job & site & vo & group & user & cpus & est_runtime;
    net::wire::trailer(ar, net::wire::Forced{has_bid, has_request_id}, budget,
                       deadline_s);
    net::wire::trailer(ar, has_request_id, request_client, request_seq);
  }
};

struct Ack {
  bool ok = true;
  /// Optional trailing field (exactly-once dispatch): present when the
  /// dedup window collapsed a retried report — carries the placement the
  /// original attempt recorded, so the retry returns the original
  /// decision instead of a re-allocation. Absent -> legacy bytes.
  bool has_original = false;
  SiteId original_site{};

  template <class Archive>
  void serialize(Archive& ar) {
    ar & ok;
    net::wire::trailer(ar, has_original, original_site);
  }
};

struct ExchangeMessage {
  DpId from;
  std::uint64_t exchange_round = 0;
  std::vector<gruber::DispatchRecord> dispatches;
  /// Dissemination strategy 1 additionally carries fresh site snapshots.
  std::vector<grid::SiteSnapshot> snapshots;
  /// Optional trailing field: sender's container-load hint (set when the
  /// DP advertises load; absent keeps the legacy byte layout).
  bool has_load = false;
  DpLoadHint load;
  /// Second optional trailing field: the sender's membership view,
  /// gossiped so join/leave/death verdicts flood the mesh on the frames
  /// it already sends. Positional stacking rule: a sender attaching the
  /// membership trailer MUST also set `has_load` (membership-enabled DPs
  /// always advertise their own hint).
  bool has_membership = false;
  MembershipUpdate membership;
  /// Third optional trailing field (partition tolerance): the sender's
  /// per-VO state digest, piggybacked so peers detect divergence on the
  /// first frame that crosses a healed partition. Positional stacking
  /// rule again: attaching the digest forces `load` and `membership`
  /// (empty ones are harmless no-ops on the receiver).
  bool has_digest = false;
  gruber::ViewDigest digest;
  /// Fourth optional trailing field (economy): the sender's current price
  /// quote, flooded so every DP can relay the full price picture to its
  /// clients. Positional stacking rule: attaching the price forces the
  /// three earlier trailers. An economy-only sender emits an *empty*
  /// digest — receivers must treat an empty digest as "no digest", not as
  /// divergence (see `ViewDigest` equality).
  bool has_price = false;
  double price = 0.0;
  /// Fifth optional trailing field (overlay): per-record relay depths for
  /// `dispatches` (`hop_depths[i]` = relay hops record i has already
  /// traveled; empty means all zero) plus the batch max in `hops` for
  /// telemetry. Stamped by sparse overlays (tree, gossip, super-peer) so
  /// receivers can bound further relaying of each record by the
  /// strategy's TTL — per record, because one deep record must not burn
  /// the relay budget of a fresh one riding the same frame. Positional
  /// stacking rule: attaching hops forces all four earlier trailers
  /// (empty/neutral payloads are no-ops on the receiver). The mesh
  /// strategy never attaches it, keeping the default wire layout
  /// byte-identical to the pre-overlay format.
  bool has_hops = false;
  std::uint32_t hops = 0;
  std::vector<std::uint32_t> hop_depths;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & from & exchange_round & dispatches & snapshots;
    net::wire::trailer(ar, has_load, load);
    net::wire::trailer(ar, has_membership, membership);
    net::wire::trailer(ar, has_digest, digest);
    net::wire::trailer(ar, has_price, price);
    net::wire::trailer(ar, has_hops, hops, hop_depths);
  }
};

struct CreateInstanceRequest {
  std::uint64_t nonce = 0;
  std::string payload;  // pad to model realistic SOAP body sizes

  template <class Archive>
  void serialize(Archive& ar) {
    ar & nonce & payload;
  }
};

struct CreateInstanceReply {
  std::uint64_t nonce = 0;
  std::uint64_t instance = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & nonce & instance;
  }
};

/// Joining DP -> seed peer: ask for the bootstrap snapshot. The joiner
/// identifies itself, but serving the snapshot does not admit it into
/// the seed's membership view: the joiner announces itself with its first
/// exchange once it can serve, so clients never route to a point that is
/// still bootstrapping.
struct JoinSnapshotRequest {
  DpId from;
  std::uint64_t node = 0;  // joiner's RPC server address
  std::uint32_t incarnation = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & from & node & incarnation;
  }
};

/// The bootstrap snapshot: enough for the joiner to serve queries without
/// a full-history replay. `bases` are the seed's base site states (the
/// USLA-filtered capacity ground truth), `records` its recent-dispatch
/// window (every record still active, i.e. not yet aged out), `hints` the
/// load picture, and `membership` the current view + epoch. The
/// post-snapshot delta rides a full kDeltaPull to every neighbor.
struct JoinSnapshotReply {
  DpId from;
  std::uint64_t exchange_round = 0;  // seed's flooding round (diagnostic)
  MembershipUpdate membership;
  std::vector<grid::SiteSnapshot> bases;
  std::vector<gruber::DispatchRecord> records;
  std::vector<DpLoadHint> hints;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & from & exchange_round & membership & bases & records & hints;
  }
};

/// Departing DP -> peers (one-way): graceful leave. Peers mark the member
/// kLeft immediately instead of waiting out the suspicion thresholds.
struct LeaveAnnouncement {
  DpId from;
  std::uint64_t node = 0;
  std::uint32_t incarnation = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & from & node & incarnation;
  }
};

/// Record pull. The targeted form follows a digest mismatch and pulls
/// exactly the diverged state: `vos` is the ascending list of VOs whose
/// digests disagreed, and `want_bases` is set when the base-state hash
/// differed too. The full form (`vos` empty, `want_bases` false) asks for
/// every active record: the re-sync after a restart, a join or a lost
/// flooding round.
struct DeltaPullRequest {
  DpId from;
  /// Exchange round whose digest exposed the divergence, or the puller's
  /// own round for a full pull (diagnostic).
  std::uint64_t digest_round = 0;
  std::vector<VoId> vos;
  bool want_bases = false;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & from & digest_round & vos & want_bases;
  }

  /// True for the full form: every active record.
  [[nodiscard]] bool full() const { return vos.empty() && !want_bases; }
};

struct DeltaPullReply {
  DpId from;
  /// Active records in the requested VOs (every active record for a full
  /// pull).
  std::vector<gruber::DispatchRecord> records;
  /// Base snapshots, present only when the request set `want_bases`.
  std::vector<grid::SiteSnapshot> bases;
  /// The replier's digest at serve time, letting the puller verify
  /// convergence without waiting for the next exchange round (empty for a
  /// full pull, which no digest asked for).
  gruber::ViewDigest digest;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & from & records & bases & digest;
  }
};

struct SaturationSignal {
  DpId from;
  double avg_response_s = 0.0;
  double observed_qps = 0.0;
  std::int32_t queue_depth = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & from & avg_response_s & observed_qps & queue_depth;
  }
};

}  // namespace digruber::digruber
