#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "digruber/common/ids.hpp"
#include "digruber/metrics/counters.hpp"
#include "digruber/sim/time.hpp"

namespace digruber::digruber {

/// Lifecycle of a decision point as seen by a peer's failure detector.
/// `kSuspect` is an intermediate verdict: the peer missed heartbeats but a
/// single late frame refutes the suspicion. `kDead` and `kLeft` are
/// terminal for an incarnation — only a frame carrying a *higher*
/// incarnation (a restart or rejoin) resurrects the member.
enum class MemberState : std::uint8_t { kAlive = 0, kSuspect, kDead, kLeft };

const char* member_state_name(MemberState state);

/// One decision point's entry in the gossiped membership view.
struct MemberInfo {
  DpId dp;
  std::uint64_t node = 0;  // RPC server address (query + exchange target)
  MemberState state = MemberState::kAlive;
  /// Restart generation: a crashed-and-restarted (or re-joined) member
  /// bumps this so stale dead/suspect claims about the previous life
  /// cannot suppress the new one.
  std::uint32_t incarnation = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & dp & node & state & incarnation;
  }
};

/// The membership trailer gossiped on state exchanges and attached to
/// query replies when the asking client's epoch is stale.
struct MembershipUpdate {
  std::uint64_t epoch = 0;
  std::vector<MemberInfo> members;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & epoch & members;
  }
};

/// Dynamic-membership knobs. Disabled by default: the decision-point mesh
/// is then the frozen, statically-wired set and every message stays
/// byte-identical to the pre-membership wire format.
struct MembershipOptions {
  bool enabled = false;
  /// Interval-with-suspicion failure detector thresholds, in heartbeat
  /// intervals. Heartbeats are implicit — any frame from a peer counts —
  /// and ride the existing state-exchange rounds, so a healthy mesh adds
  /// zero extra frames and zero extra timers. `suspect_after` intervals of
  /// silence mark a peer suspect; `dead_after` mark it dead. The defaults
  /// tolerate two consecutive lost exchange frames and declare death
  /// within two suspicion intervals (2 * suspect_after), the bound the
  /// churn soak asserts.
  double suspect_after = 2.5;
  double dead_after = 4.0;
  /// Join bootstrap: per-seed snapshot-transfer deadline and the backoff
  /// before retrying the next seed after a failed transfer.
  sim::Duration join_snapshot_timeout = sim::Duration::seconds(10);
  sim::Duration join_retry_backoff = sim::Duration::seconds(5);
};

/// One state transition observed by a local membership table (for trace
/// instants and the churn soak's time-to-detect audit).
struct MembershipTransition {
  DpId peer;
  MemberState to = MemberState::kAlive;
  std::uint32_t incarnation = 0;
  sim::Time at;
};

/// Interval-with-suspicion failure detector plus the membership view one
/// decision point holds of its mesh. Pure state machine: it owns no timers
/// and sends no frames — the decision point feeds it direct heartbeat
/// evidence (`heard_from`), gossiped views (`absorb`), and periodic sweep
/// ticks, and reads back the live peer set and an epoch that bumps on
/// every view change (the client-staleness trigger).
///
/// Merge rules (SWIM-style): a higher incarnation always wins; within one
/// incarnation, severity wins (alive < suspect < dead < left), so a
/// graceful leave is never downgraded to a crash verdict. Claims about
/// *this* table's own entry are refuted by bumping the self incarnation
/// past the claim.
class MembershipTable {
 public:
  MembershipTable(DpId self, std::uint64_t self_node, MembershipOptions options);

  /// Install the initial (deployment-time) member set. Kept as durable
  /// seed configuration: `reset_to_seeds` restores it after a crash, when
  /// everything learned since is volatile state that died with the process.
  void seed(const std::vector<MemberInfo>& members, sim::Time now);
  void reset_to_seeds(sim::Time now, std::uint32_t self_incarnation);
  /// Promote the current view to the durable seed list (a joiner calls
  /// this once bootstrapped: a later crash restarts against the learned
  /// mesh, not the original join seeds). Entry states are untouched.
  void adopt_current_as_seeds() { seeds_ = members(); }

  /// Direct evidence: a frame from `peer` arrived. Refutes suspicion at
  /// the same-or-higher incarnation; resurrects dead/left only with a
  /// strictly higher one (late frames from a previous life must not).
  /// Returns the transition if the view changed.
  std::optional<MembershipTransition> heard_from(DpId peer, std::uint64_t node,
                                                 std::uint32_t incarnation,
                                                 sim::Time now);

  /// Merge a gossiped view; returns every transition it caused.
  std::vector<MembershipTransition> absorb(const MembershipUpdate& update,
                                           sim::Time now);

  /// Explicit departure announcement.
  std::optional<MembershipTransition> mark_left(DpId peer,
                                                std::uint32_t incarnation,
                                                sim::Time now);

  struct SweepResult {
    std::vector<MembershipTransition> transitions;
  };
  /// Failure-detector tick: one pass over the table applying the
  /// suspect/dead thresholds against each peer's last-heard time.
  /// `watch` (sorted by DpId) restricts the timers to the peers direct
  /// frames are expected from — under a sparse overlay silence from a
  /// non-adjacent peer is the topology working, not a failure; verdicts
  /// about unwatched peers arrive only via gossip (`absorb`) from their
  /// own watchers. nullptr (the mesh default) watches everyone.
  SweepResult sweep(sim::Time now, sim::Duration heartbeat_interval,
                    const std::vector<DpId>* watch = nullptr);

  /// Reset the silence clocks of `peers` to `now` at the latest. Called
  /// when an overlay repair changes the watch set: a peer that just
  /// became a neighbor has legitimately never pushed here, so its timer
  /// must start from the re-wiring, not from deployment time.
  void start_watch_grace(const std::vector<DpId>& peers, sim::Time now);

  void set_self_incarnation(std::uint32_t incarnation);
  /// Flip the self entry (leave announcements gossip this as kLeft).
  void set_self_state(MemberState state);

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] const MembershipOptions& options() const { return options_; }
  [[nodiscard]] const metrics::DetectorCounters& counters() const { return counters_; }
  /// Every transition this table ever made, in order (churn-soak audit).
  [[nodiscard]] const std::vector<MembershipTransition>& transitions() const {
    return transitions_;
  }

  [[nodiscard]] std::optional<MemberState> state_of(DpId peer) const;
  [[nodiscard]] MemberInfo self() const { return self_; }
  /// Full view including self, sorted by DpId (deterministic wire bytes).
  [[nodiscard]] std::vector<MemberInfo> members() const;
  [[nodiscard]] MembershipUpdate update() const;
  /// Exchange/catch-up targets: alive and suspect peers (a suspect still
  /// receives frames — its reply refutes the suspicion), excluding self
  /// and terminal members. DpId order, deterministic.
  [[nodiscard]] std::vector<NodeId> live_peer_nodes() const;
  [[nodiscard]] std::size_t peer_count() const { return peers_.size(); }

 private:
  struct Entry {
    MemberInfo info;
    sim::Time last_heard;
    sim::Time since;  // when the current state was entered
  };

  static int severity(MemberState state);
  void log_transition(DpId peer, MemberState to, std::uint32_t incarnation,
                      sim::Time at);
  /// Merge one gossiped entry; returns the transition if the view changed.
  std::optional<MembershipTransition> merge_one(const MemberInfo& info,
                                                sim::Time now);

  MemberInfo self_;
  MembershipOptions options_;
  std::map<DpId, Entry> peers_;
  std::vector<MemberInfo> seeds_;
  std::uint64_t epoch_ = 1;
  metrics::DetectorCounters counters_;
  std::vector<MembershipTransition> transitions_;
};

}  // namespace digruber::digruber
