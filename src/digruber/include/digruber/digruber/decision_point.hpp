#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <map>
#include <tuple>

#include "digruber/common/stats.hpp"
#include "digruber/digruber/durability.hpp"
#include "digruber/digruber/membership.hpp"
#include "digruber/digruber/protocol.hpp"
#include "digruber/economy/economy.hpp"
#include "digruber/grid/topology.hpp"
#include "digruber/gruber/engine.hpp"
#include "digruber/metrics/counters.hpp"
#include "digruber/net/rpc.hpp"
#include "digruber/overlay/overlay.hpp"
#include "digruber/sim/simulation.hpp"
#include "digruber/trace/trace.hpp"

namespace digruber::digruber {

/// How brokering state is disseminated among decision points (paper
/// Section 3.5). The experiments use kUsageOnly.
enum class Dissemination : std::uint8_t {
  /// Strategy 1: exchange USLA/snapshot state and usage.
  kUslaAndUsage = 0,
  /// Strategy 2: exchange only utilization (dispatch records); static
  /// resource knowledge is assumed complete.
  kUsageOnly,
  /// Strategy 3: no exchange; each decision point relies on its own
  /// observations only.
  kNone,
};

/// Partition tolerance: split-brain detection via piggybacked state
/// digests, targeted delta anti-entropy on divergence, and
/// staleness-guarded admission. Off by default — no digest trailers are
/// emitted, no delta pulls happen, admission is never degraded, and every
/// message keeps its legacy byte layout.
struct PartitionToleranceOptions {
  bool enabled = false;
  /// A peer not heard from for longer than this is *stale*: its dispatch
  /// decisions may be missing from the local view. With membership on,
  /// suspect/dead verdicts also mark a peer stale regardless of this
  /// clock, so the failure detector drives admission directly.
  sim::Duration staleness_threshold = sim::Duration::minutes(2);
  /// Fraction of believed-free capacity discounted in query replies while
  /// degraded (level 1): stale peers may have committed part of that
  /// capacity on the other side of the split.
  double stale_discount = 0.5;
  /// Settled-window padding for digests (see gruber::ViewDigest): records
  /// younger than one exchange interval plus this slack are too fresh to
  /// compare (still propagating), and records expiring within this slack
  /// of the sender's clock are excluded so in-flight expiry cannot fake a
  /// divergence. Must exceed the worst one-way exchange delay.
  sim::Duration digest_slack = sim::Duration::seconds(5);
  /// Throttle: at most one delta pull per peer per this interval (a digest
  /// mismatch repeats on every exchange round until the views converge).
  sim::Duration delta_pull_min_gap = sim::Duration::seconds(30);
};

struct DecisionPointOptions {
  net::ContainerProfile profile = net::ContainerProfile::gt3();
  sim::Duration exchange_interval = sim::Duration::minutes(3);
  Dissemination dissemination = Dissemination::kUsageOnly;
  /// Modelled per-site USLA evaluation cost inside the engine handler.
  sim::Duration eval_cost_per_site = sim::Duration::millis(2.5);
  /// Saturation detection (Section 5): sliding response-time window.
  sim::Duration saturation_window = sim::Duration::seconds(60);
  double saturation_response_s = 30.0;
  sim::Duration saturation_cooldown = sim::Duration::minutes(2);
  std::optional<NodeId> infrastructure_monitor;
  /// Deadline for each record pull (kDeltaPull), full or targeted.
  sim::Duration pull_timeout = sim::Duration::seconds(30);
  /// Piggyback this point's container-load hint on outgoing exchanges and
  /// attach known DP loads to query replies (for client-side load-aware
  /// failover). Off by default: legacy messages stay byte-identical.
  bool advertise_load = false;
  /// Dynamic membership (failure detector + runtime join/leave). Off by
  /// default: the mesh is the static `set_neighbors` wiring and all
  /// messages keep their legacy byte layout. When enabled, the neighbor
  /// set is derived from the membership table, exchanges carry the
  /// gossiped view, and heartbeats piggyback on the exchange rounds.
  MembershipOptions membership{};
  /// Partition tolerance (digest piggyback + delta anti-entropy +
  /// staleness-guarded admission). Off by default: byte-identical wire.
  PartitionToleranceOptions partition{};
  /// Emit CRC-32C frame-checksum trailers (v3 frames) on every frame this
  /// point sends. Verification of incoming v3 frames is always on; this
  /// only controls emission, so the default stays byte-identical.
  bool frame_checksums = false;
  /// Economic brokering (price quoting + the karma credit allocator). Off
  /// by default: no price trailers are emitted, no credit bank exists, and
  /// every message keeps its legacy byte layout.
  economy::EconomyOptions economy{};
  /// Durable local state (WAL + checkpoints on a simulated device) with
  /// checkpoint+WAL replay on restart and an exactly-once dispatch dedup
  /// window. Off by default: no disk exists and recovery stays the
  /// peer-only anti-entropy path.
  DurabilityOptions durability{};
  /// Dissemination overlay strategy (who each exchange round pushes to
  /// and the relay TTL riding along). Defaults to the paper's full mesh:
  /// every live neighbor, no hop trailer, byte-identical wire.
  overlay::Options overlay{};
  /// Observer-only I13 bookkeeping (chaos --overlay): log every own
  /// accepted record's (seq, time) so the harness can bound convergence.
  /// Reads state, changes no decision path.
  bool overlay_audit = false;
};

/// Everything a decision point counts, as plain data (see
/// DecisionPoint::counters()). The metrics bases are its shares of the
/// run's counter sections; the fields here are its own brokering and
/// flooding totals. Counters survive crash() and restart().
struct DpCounters : metrics::DpResilience, metrics::DpMembership,
                    metrics::DpPartition, metrics::DpEconomy,
                    metrics::DpDurability, metrics::OverlayCounters {
  std::uint64_t queries = 0;             // site-load queries served
  std::uint64_t selections = 0;          // selection reports recorded
  std::uint64_t exchanges_received = 0;
  std::uint64_t records_applied = 0;     // flooded records new to this point
  std::uint64_t records_duplicate = 0;   // flooded or pulled records already known
  std::uint64_t saturation_signals = 0;  // signals sent to the monitor
  /// Records shipped TO this point in full-pull replies, duplicates
  /// included: the full-snapshot transfer a restart pays, and the number
  /// durable replay and delta pulls exist to shrink.
  std::uint64_t catchup_records_received = 0;
};

/// A DI-GRUBER decision point: a GRUBER engine exposed as a Web service
/// on a GT3/GT4-like container, loosely synchronized with its peers by a
/// periodic flooding exchange of dispatch records.
class DecisionPoint {
 public:
  DecisionPoint(sim::Simulation& sim, net::Transport& transport, DpId id,
                const grid::VoCatalog& catalog, const usla::AllocationTree& tree,
                DecisionPointOptions options);

  [[nodiscard]] DpId id() const { return id_; }
  [[nodiscard]] NodeId node() const { return server_.node(); }
  /// Address of the outbound peer-RPC endpoint (needed when partitioning:
  /// both of the host's endpoints live on the same island).
  [[nodiscard]] NodeId peer_node() const { return peer_client_.node(); }
  [[nodiscard]] gruber::GruberEngine& engine() { return engine_; }
  [[nodiscard]] const net::RpcServer& server() const { return server_; }
  [[nodiscard]] const DecisionPointOptions& options() const { return options_; }

  /// Install complete static knowledge of the grid (strategy 2 premise).
  void bootstrap(const std::vector<grid::SiteSnapshot>& snapshots);

  /// Peers this decision point pushes exchange messages to.
  void set_neighbors(std::vector<NodeId> neighbors);

  /// Static overlay wiring: install the full live peer roster (sorted or
  /// not; it is sorted by DpId here) and let the strategy derive this
  /// point's push set from it. `set_neighbors` remains the raw
  /// mesh-equivalent wiring; under membership the view is re-derived from
  /// the table instead and both calls are superseded by refresh.
  void set_overlay_view(std::vector<overlay::Member> peers);

  /// Fault injection: kill this decision point. It detaches from the
  /// network (in-flight requests are lost, packets to it drop), its timers
  /// stop, and all volatile brokering state — grid view, dedup sets, the
  /// un-flooded record buffer — is discarded. Idempotent.
  void crash();

  /// Bring a crashed decision point back at the same address: re-bootstrap
  /// static grid knowledge, restart timers, and pull every active record
  /// from every neighbor so dedup state and dispatch records re-converge.
  /// New own records use a fresh sequence epoch so peers never mistake
  /// them for pre-crash duplicates.
  void restart(const std::vector<grid::SiteSnapshot>& snapshots);

  [[nodiscard]] bool running() const { return running_; }
  /// Restart generation (0 until the first restart).
  [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }
  /// Every counter this point keeps (layer counters stay zero while their
  /// layer is off).
  [[nodiscard]] const DpCounters& counters() const { return counters_; }

  /// --- Dynamic membership (no-ops unless options.membership.enabled) ---

  /// Install the deployment-time member set (self included or not; the
  /// table filters its own entry) and derive the neighbor list from it.
  void seed_membership(const std::vector<MemberInfo>& members);
  /// Runtime join: bootstrap from one of `seeds` via a state snapshot,
  /// then serve. Until the snapshot lands this point is *not serving*:
  /// query traffic is refused with a typed draining NACK, and no exchange
  /// frames are emitted. A failed transfer rotates to the next seed after
  /// a backoff.
  void join(std::vector<NodeId> seeds);
  /// Graceful leave: stop accepting queries, flush the final exchange,
  /// announce departure to every neighbor, and stop the timers. The
  /// server stays attached so stragglers get drain NACKs.
  void leave();

  /// False while joining (pre-snapshot) or after leave().
  [[nodiscard]] bool serving() const { return serving_; }
  [[nodiscard]] bool left() const { return left_; }
  /// The membership view (nullptr when membership is disabled).
  [[nodiscard]] const MembershipTable* membership() const {
    return membership_.get();
  }
  /// Join lifecycle timestamps (zero until reached): when join() was
  /// called and when the point reached query-serving state.
  [[nodiscard]] sim::Time join_started_at() const { return join_started_; }
  [[nodiscard]] sim::Time serving_since() const { return serving_since_; }

  /// Current degraded assessment (level 0 when healthy or partition
  /// tolerance is off).
  [[nodiscard]] DegradedHint degraded_hint(sim::Time now) const;

  /// The credit bank (nullptr unless the karma allocator is active).
  [[nodiscard]] const economy::CreditBank* bank() const { return bank_.get(); }

  /// The simulated storage device (nullptr when durability is off). The
  /// device survives crash() by design: crash models lost RAM, not lost
  /// disk.
  [[nodiscard]] const durable::SimDisk* disk() const { return disk_.get(); }
  /// Accounted sim-time cost of the most recent recovery replay.
  [[nodiscard]] sim::Duration last_recovery_cost() const { return last_recovery_cost_; }

  /// I13 audit snapshots: every (origin, seq) this point has applied, and
  /// the (seq, accepted-at-seconds) log of its own records (only kept
  /// when options.overlay_audit; survives crash like the other audit
  /// notebooks — observer-only ground truth).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  applied_keys() const;
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, double>>&
  own_record_log() const {
    return own_record_log_;
  }

  /// Disk fault hooks (FaultPlan-driven; no-ops when durability is off).
  void inject_disk_tear();
  void inject_disk_rot();
  void set_disk_stall(double factor);

  /// Response-time samples the detector monitors (exposed for GRUB-SIM).
  [[nodiscard]] const StreamingStats& response_stats() const {
    return server_.container().sojourn_stats();
  }

  void stop();

 private:
  net::Served handle_get_site_loads(std::span<const std::uint8_t> body, NodeId from);
  net::Served handle_report_selection(std::span<const std::uint8_t> body, NodeId from);
  net::Served handle_exchange(std::span<const std::uint8_t> body, NodeId from);
  net::Served handle_join_snapshot(std::span<const std::uint8_t> body, NodeId from);
  net::Served handle_leave(std::span<const std::uint8_t> body, NodeId from);
  net::Served handle_delta_pull(std::span<const std::uint8_t> body, NodeId from);
  /// Digest-mismatch check on a received exchange (after its records were
  /// applied); issues a throttled delta pull when the views diverge.
  /// This point's digest over the settled window ending one exchange
  /// interval (plus slack) before `now` — the window every healthy peer
  /// has fully absorbed, so any mismatch is real divergence.
  [[nodiscard]] gruber::ViewDigest settled_digest(sim::Time now) const;
  void maybe_delta_pull(const ExchangeMessage& message);
  /// Pull the diverged VO ranges (and base state when `want_bases`) from a
  /// peer.
  void run_delta_pull(NodeId peer_node, DpId peer, std::uint64_t round,
                      std::vector<VoId> vos, bool want_bases);
  /// Full re-sync: pull every active record from every neighbor.
  void run_full_pull();
  /// Issue one kDeltaPull and apply its reply under `ctx`.
  void send_pull(NodeId peer_node, const DeltaPullRequest& request,
                 trace::SpanContext ctx);
  /// Apply records pulled from a peer (pull replies and join snapshots):
  /// skip those already in the dedup set, apply, WAL-log and meter the
  /// rest, then commit the batch once. With `restore` (targeted pulls) a
  /// known record the view no longer holds is applied again: a newer base
  /// snapshot erased it, and the digest that asked for it says the peer
  /// still counts it. Pulled records are not re-flooded: the peer already
  /// holds them. Returns the number applied.
  std::uint64_t apply_pulled(const std::vector<gruber::DispatchRecord>& records,
                             bool restore);
  /// Snapshot of this point's container load for piggybacking.
  [[nodiscard]] DpLoadHint self_hint() const;
  /// Congestion-derived price quote for placements through this point.
  [[nodiscard]] double self_price() const;
  /// Grid free fraction from the local view (the karma scarcity signal).
  [[nodiscard]] double free_fraction(sim::Time now) const;
  /// Meter a newly-applied dispatch record against the credit bank (all
  /// record-apply paths: own selections, flooding, pulls, join snapshots).
  void charge_bank(const gruber::DispatchRecord& record);
  /// Same, metered at an explicit time: recovery replay re-drives charges
  /// with their original apply times so settlement lands in the original
  /// epochs.
  void charge_bank_at(const gruber::DispatchRecord& record, sim::Time at);
  /// Append one frame to the WAL (no-op when durability is off or while
  /// replaying). The accounted write latency accumulates into
  /// pending_wal_cost_, folded into the next wal_commit().
  void wal_append_frame(WalRecordType type, std::span<const std::uint8_t> payload);
  /// Append one applied dispatch record to the WAL.
  void wal_log_dispatch(const gruber::DispatchRecord& record,
                        bool has_request_id, std::uint64_t request_client,
                        std::uint64_t request_seq);
  /// Durability barrier after a batch of appends. Returns the accumulated
  /// append latency plus the fsync cost (zero when nothing was appended).
  sim::Duration wal_commit();
  /// Remember (client, seq) -> site in the bounded dedup window.
  void dedup_insert(std::uint64_t client, std::uint64_t seq, SiteId site);
  /// I12 ground-truth audit: count dispatch records per request id.
  void audit_dispatch(std::uint64_t client, std::uint64_t seq);
  /// Periodic checkpoint: serialize state, replace the slot, truncate the
  /// WAL.
  void write_checkpoint();
  /// Recovery replay at restart: restore checkpoint, scan the WAL, rebuild
  /// view/bank/dedup/incarnation. Returns the accounted replay cost.
  sim::Duration replay_from_disk();

  void run_exchange(bool final_flush = false);
  void check_saturation();
  void start_timers();
  /// Re-derive the neighbor list from the membership table's live set.
  void refresh_neighbors();
  /// Re-derive the strategy's structure from the current overlay view;
  /// counts (and traces) the rebuild when the push set changed and the
  /// call is a repair rather than initial wiring.
  void rebuild_strategy(bool initial);
  /// Emit one trace instant per membership transition ("membership.<state>").
  void trace_transitions(const std::vector<MembershipTransition>& transitions);
  /// One join attempt against the next seed in rotation.
  void try_join();

  sim::Simulation& sim_;
  DpId id_;
  DecisionPointOptions options_;
  gruber::GruberEngine engine_;
  net::RpcServer server_;
  net::RpcClient peer_client_;

  std::vector<NodeId> neighbors_;
  /// Dissemination strategy (never null; FullMesh by default) plus the
  /// live roster it derives structure from. Under static wiring the
  /// roster comes from set_overlay_view; under membership it is rebuilt
  /// from the table's live set on every refresh.
  std::unique_ptr<overlay::Strategy> strategy_;
  std::vector<overlay::Member> overlay_peers_;
  /// Per-record relay bookkeeping parallel to fresh_: which peer the
  /// record was learned from (self for own records) and the relay depth
  /// it arrived at. Sparse overlays compose per-target frames from it —
  /// split-horizon: a record is never relayed back to the peer that sent
  /// it, and each frame's hop trailer is the max depth of the records it
  /// actually carries, so one deep record cannot poison the relay budget
  /// of records that rode in shallow. Volatile, like fresh_.
  struct FreshMeta {
    DpId from;
    std::uint32_t depth = 0;
  };
  std::vector<FreshMeta> fresh_meta_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t exchange_round_ = 0;
  /// Records learned since the last exchange tick (own + relayed).
  std::vector<gruber::DispatchRecord> fresh_;
  /// Dedup for flooding: per-origin applied sequence numbers.
  std::unordered_map<DpId, std::unordered_set<std::uint64_t>> applied_;
  /// Last exchange round seen per peer. A jump of more than one means
  /// flooding rounds were lost (partition, loss) — since flooding never
  /// retransmits, the gap triggers a full pull.
  std::unordered_map<DpId, std::uint64_t> last_peer_round_;
  sim::Time last_full_pull_;
  /// Freshest load hint heard from each peer (keyed by its server node),
  /// attached to query replies when advertise_load is on. Volatile: lost
  /// on crash like the rest of the soft state.
  std::unordered_map<std::uint64_t, DpLoadHint> peer_hints_;
  /// Freshest price quote heard from each peer (keyed by its server node),
  /// relayed to clients beside the load hints. Volatile like peer_hints_.
  std::unordered_map<std::uint64_t, double> peer_prices_;

  bool running_ = true;
  std::uint32_t incarnation_ = 0;

  /// Dynamic-membership state (unused when options.membership.enabled is
  /// false: membership_ stays null and serving_ stays true forever).
  std::unique_ptr<MembershipTable> membership_;
  bool serving_ = true;
  bool joining_ = false;
  bool left_ = false;
  std::vector<NodeId> join_seeds_;
  std::uint32_t join_attempt_ = 0;
  sim::Time join_started_;
  sim::Time serving_since_;

  DpCounters counters_;

  /// Partition-tolerance state (only touched when options.partition.enabled):
  /// per-peer last-heard times — the staleness clock behind degraded-mode
  /// admission — and per-peer delta-pull throttle stamps. Volatile.
  std::unordered_map<DpId, sim::Time> peer_last_heard_;
  std::unordered_map<DpId, sim::Time> last_delta_pull_;

  /// Economy state (only touched when options.economy.enabled): the credit
  /// bank is created when the karma allocator is selected and survives
  /// crashes only as a fresh endowment (reset(), like the rest of the soft
  /// state).
  std::unique_ptr<economy::CreditBank> bank_;

  /// Durable state (only when options.durability.enabled). The disk is
  /// deliberately *not* reset by crash(); everything else here is volatile
  /// and rebuilt from the disk at restart.
  std::unique_ptr<durable::SimDisk> disk_;
  bool replaying_ = false;
  bool wal_dirty_ = false;  // appends since the last fsync barrier
  sim::Duration pending_wal_cost_;  // append latency awaiting the barrier
  /// Exactly-once dedup window: (client, seq) -> original placement,
  /// bounded by options.durability.dedup_window, persisted through the WAL.
  std::map<std::pair<std::uint64_t, std::uint64_t>, SiteId> dedup_;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> dedup_order_;
  sim::Duration last_recovery_cost_;
  /// Audit state for the I11/I12 invariants. Observer-only ground truth:
  /// intentionally NOT cleared by crash() (it survives the way an external
  /// checker's notebook would), never serialized, never read by any
  /// decision path.
  std::vector<std::tuple<DpId, std::uint64_t, sim::Time>> pre_crash_committed_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> dispatch_audit_;
  /// I13 audit log of own accepted records (options.overlay_audit only).
  std::vector<std::pair<std::uint64_t, double>> own_record_log_;

  /// Saturation detector state: last emitted signal and the completed
  /// count / sojourn sum at the previous check (for windowed averages).
  sim::Time last_signal_;
  std::uint64_t window_base_count_ = 0;
  double window_base_sum_s_ = 0.0;

  std::unique_ptr<sim::PeriodicTimer> exchange_timer_;
  std::unique_ptr<sim::PeriodicTimer> saturation_timer_;
  std::unique_ptr<sim::PeriodicTimer> checkpoint_timer_;
};

/// Wire a set of decision points under a dissemination strategy. With
/// `Kind::kMesh` every point's neighbors are all the others, in `dps`
/// order (the paper's full mesh); a sparse strategy gets the full roster
/// and derives the actual per-round push set from it.
void connect(std::vector<DecisionPoint*> dps, const overlay::Options& options);

}  // namespace digruber::digruber
