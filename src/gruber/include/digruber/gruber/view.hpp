#pragma once

#include <deque>
#include <map>
#include <vector>

#include "digruber/common/ids.hpp"
#include "digruber/grid/site.hpp"

namespace digruber::gruber {

/// Compact per-site load record exchanged on the wire (decision point ->
/// client replies and decision point <-> decision point state exchange).
struct SiteLoad {
  SiteId site;
  std::int32_t total_cpus = 0;
  /// Free CPUs usable by the requesting consumer (clipped to USLA headroom
  /// in candidate lists; equals raw_free in plain load reports).
  std::int32_t free_estimate = 0;
  /// Unclipped free-CPU estimate — the decision point's raw belief about
  /// the site, used for scheduling-accuracy auditing.
  std::int32_t raw_free = 0;
  std::int32_t queued = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & site & total_cpus & free_estimate & raw_free & queued;
  }
};

/// One scheduling decision, as tracked locally and disseminated between
/// decision points (dissemination strategy 2: utilization only, no USLAs).
struct DispatchRecord {
  DpId origin;            // decision point that made the decision
  std::uint64_t seq = 0;  // per-origin sequence number (dedup for flooding)
  SiteId site;
  VoId vo;
  GroupId group;
  UserId user;
  std::int32_t cpus = 1;
  sim::Time when;
  sim::Duration est_runtime;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & origin & seq & site & vo & group & user & cpus & when & est_runtime;
  }

  friend bool operator==(const DispatchRecord&, const DispatchRecord&) = default;
};

/// Per-VO summary of the active dispatch records a view holds: an
/// order-independent hash (XOR of per-record mixes) plus totals, so two
/// peers can localize divergence to exactly the VOs whose allocation state
/// differs — the targeting input for delta anti-entropy.
struct VoDigest {
  VoId vo;
  std::uint64_t hash = 0;
  std::uint32_t records = 0;
  std::int32_t cpus = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & vo & hash & records & cpus;
  }

  friend bool operator==(const VoDigest&, const VoDigest&) = default;
};

/// Per-origin epoch-vector entry: the highest dispatch sequence this view
/// has absorbed from `origin`. Sequence numbers are incarnation-shifted
/// (high 32 bits = restart epoch), so the vector also captures restarts.
struct OriginEpoch {
  DpId origin;
  std::uint64_t max_seq = 0;
  std::uint32_t records = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & origin & max_seq & records;
  }

  friend bool operator==(const OriginEpoch&, const OriginEpoch&) = default;
};

/// Compact whole-view digest piggybacked on exchange messages and site-load
/// replies (partition tolerance). A digest summarizes the *settled* window
/// of a view — records old enough (`when <= as_of`) that normal exchange
/// propagation has delivered them everywhere, and long-lived enough
/// (`when + est_runtime > horizon`) that they cannot expire between the
/// sender computing the digest and the receiver comparing against it.
/// Both bounds ride in the digest so the receiver evaluates the *same*
/// window; within it, digest equality means the views agree on base state
/// and on every VO's active allocations, and inequality means a partition
/// (not propagation lag or expiry skew) diverged them.
struct ViewDigest {
  sim::Time as_of;                   // settled cutoff: records `when <= as_of`
  sim::Time horizon;                 // expiry guard: `when + est > horizon`
  std::uint64_t base_hash = 0;       // over base snapshots
  std::vector<VoDigest> vos;         // ascending vo id
  std::vector<OriginEpoch> epochs;   // ascending origin id

  template <class Archive>
  void serialize(Archive& ar) {
    ar & as_of & horizon & base_hash & vos & epochs;
  }

  /// Window bounds are comparison parameters, not state: two digests match
  /// iff they summarize the same contents over their (shared) window.
  friend bool operator==(const ViewDigest& a, const ViewDigest& b) {
    return a.base_hash == b.base_hash && a.vos == b.vos && a.epochs == b.epochs;
  }
};

/// VOs whose allocation state differs between the two digests (union of
/// mismatched and one-sided entries), ascending — the pull set for delta
/// anti-entropy.
[[nodiscard]] std::vector<VoId> diverged_vos(const ViewDigest& a,
                                             const ViewDigest& b);

/// A decision point's model of the grid. Per the paper's experimental
/// setup, the view starts from complete *static* knowledge of resources
/// (bootstrap snapshots) and is kept current by monitoring scheduling
/// decisions — its own dispatches plus those learned through periodic
/// exchange — not by live site polling.
class GridView {
 public:
  /// Install base snapshots (static knowledge / fresh monitor data).
  void bootstrap(const std::vector<grid::SiteSnapshot>& snapshots);
  void apply_snapshot(const grid::SiteSnapshot& snapshot);

  /// Track a scheduling decision. Records age out after their estimated
  /// runtime, emulating completion without completion notices.
  void record_dispatch(const DispatchRecord& record);

  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }

  /// Estimated free CPUs at `site` at time `now`.
  [[nodiscard]] std::int32_t estimated_free(SiteId site, sim::Time now) const;

  /// Estimated snapshot combining the base snapshot with active dispatch
  /// records (used for USLA evaluation).
  [[nodiscard]] grid::SiteSnapshot estimated_snapshot(SiteId site, sim::Time now) const;

  /// Active (not yet aged-out) CPUs dispatched at `site` for group/user.
  [[nodiscard]] std::int32_t active_for_group(SiteId site, GroupId group,
                                              sim::Time now) const;
  [[nodiscard]] std::int32_t active_for_user(SiteId site, UserId user,
                                             sim::Time now) const;

  /// Per-site load vector (the GetSiteLoads reply body).
  [[nodiscard]] std::vector<SiteLoad> loads(sim::Time now) const;

  /// Every dispatch record that has not yet aged out, across all sites —
  /// the payload a peer hands a restarted decision point during the
  /// anti-entropy catch-up exchange. Deterministic order (site, then age).
  [[nodiscard]] std::vector<DispatchRecord> active_records(sim::Time now) const;

  /// The base snapshots as held (static knowledge plus any applied monitor
  /// or strategy-1 snapshots), *without* folding in active records — paired
  /// with `active_records`, this is a lossless copy of the view, which is
  /// what a joining decision point bootstraps from. Deterministic site
  /// order.
  [[nodiscard]] std::vector<grid::SiteSnapshot> base_snapshots() const;

  /// Forget everything (crash semantics: the view is volatile state).
  void clear();

  [[nodiscard]] std::uint64_t dispatches_recorded() const { return recorded_; }

  /// Compact digest of the settled window `(when <= as_of, expiry >
  /// horizon)` — see ViewDigest. Order-independent: two views holding the
  /// same records inside the window digest identically regardless of
  /// arrival order, physical prune history, or the comparer's clock.
  [[nodiscard]] ViewDigest digest(sim::Time as_of, sim::Time horizon) const;

  /// Active records belonging to any VO in `vos` (ascending input),
  /// deterministic (site, then age) order — a delta anti-entropy reply.
  [[nodiscard]] std::vector<DispatchRecord> records_for_vos(
      const std::vector<VoId>& vos, sim::Time now) const;

  /// Whether the view still holds the record's (origin, seq) at its site
  /// (no pruning; scans that one site only).
  [[nodiscard]] bool holds(const DispatchRecord& record) const;

  /// Sites whose base snapshot has gone stale: refreshed at least once
  /// (as_of > 0 — static strategy-2 knowledge never stales) but not within
  /// `threshold` of `now`. Feeds the degraded-mode admission hint.
  [[nodiscard]] std::size_t stale_site_count(sim::Time now,
                                             sim::Duration threshold) const;

 private:
  struct SiteState {
    grid::SiteSnapshot base;
    std::deque<DispatchRecord> active;  // pruned lazily by est completion
  };

  void prune(SiteState& state, sim::Time now) const;
  [[nodiscard]] const SiteState* find(SiteId site) const;

  mutable std::map<SiteId, SiteState> sites_;
  std::uint64_t recorded_ = 0;
};

}  // namespace digruber::gruber
