#pragma once

#include <string>
#include <vector>

#include "digruber/digruber/decision_point.hpp"
#include "digruber/diperf/diperf.hpp"
#include "digruber/metrics/metrics.hpp"
#include "digruber/net/wan.hpp"
#include "digruber/sim/fault_plan.hpp"
#include "digruber/trace/trace.hpp"
#include "digruber/workload/generator.hpp"
#include "digruber/workload/trace.hpp"

namespace digruber::experiments {

/// Full description of one PlanetLab-style DI-GRUBER experiment: the
/// emulated grid, the decision-point deployment, the DiPerF client fleet,
/// and the workload overlay. Every figure/table bench is a point (or
/// sweep) in this space.
struct ScenarioConfig {
  std::string name = "scenario";
  std::uint64_t seed = 7;

  // Decision-point deployment.
  int n_dps = 3;
  net::ContainerProfile profile = net::ContainerProfile::gt3();
  sim::Duration exchange_interval = sim::Duration::minutes(3);
  digruber::Dissemination dissemination = digruber::Dissemination::kUsageOnly;
  /// Dissemination overlay strategy (mesh | tree | gossip | superpeer)
  /// with its knobs. The default mesh floods to every peer; a sparse
  /// strategy gets the full roster and narrows the per-round push set
  /// inside each decision point. A zero seed derives the gossip stream
  /// from `seed` arithmetically — no rng draws, so same-seed runs replay
  /// bit-identically.
  overlay::Options overlay_options{};
  /// Observer-only I13 audit (chaos --overlay): harvest per-point applied
  /// record keys and own-record acceptance logs into DpStats.
  bool overlay_audit = false;

  // Emulated grid (OSG x grid_scale).
  int grid_scale = 10;
  /// Mean fraction of each site's CPUs held by site-local (non-grid) work,
  /// drawn per site from uniform(0.5x, 1.5x) of this value. Grid sites are
  /// never empty in practice; this also gives site queues something to do.
  double background_util = 0.45;

  // Client fleet (DiPerF testers / submission hosts).
  int n_clients = 120;
  sim::Duration client_timeout = sim::Duration::seconds(60);
  /// Closed-loop think time between a query outcome and the next job.
  sim::Duration think = sim::Duration::seconds(9);
  /// Testers start staggered over this span (DiPerF's slow ramp); zero
  /// spreads them over the first half of the run.
  sim::Duration ramp_span = sim::Duration::zero();
  std::string selector = "top-k";

  // Measurement window.
  sim::Duration duration = sim::Duration::hours(1);

  // Workload overlay.
  workload::WorkloadSpec workload;

  // Network.
  net::WanParams wan;

  // USLAs: grid->VO and VO->group fair-share targets are auto-generated
  // (equal shares) unless disabled.
  bool install_uslas = true;

  // Section 5 enhancement: saturation-triggered provisioning.
  bool dynamic_provisioning = false;
  int max_dynamic_dps = 10;
  /// Windowed mean response above which a decision point signals
  /// saturation to the infrastructure monitor.
  double saturation_response_s = 30.0;

  // Fault injection (resilience bench). Indices in the plan name decision
  // points by deployment order; an empty plan changes nothing — the run is
  // byte-identical to a build without the fault subsystem.
  sim::FaultPlan fault_plan;
  /// Give each client a failover list (its primary plus `failover_backups`
  /// subsequent decision points) with per-attempt deadlines inside the
  /// 60 s budget. Implied by a non-empty fault plan.
  bool enable_failover = false;
  int failover_backups = 2;
  sim::Duration attempt_timeout = sim::Duration::seconds(10);

  /// Overload control (off by default: default runs stay byte-identical).
  /// Enables deadline-aware admission, typed overload NACKs, and
  /// LIFO-under-overload at every decision-point container; load-hint
  /// piggybacking on exchanges and query replies; and the client fleet's
  /// adaptive retry (token budget, retry_after honoring, power-of-two-
  /// choices failover).
  bool overload_control = false;
  net::OverloadPolicy overload_policy{};

  /// Dynamic membership (off by default: default runs stay byte-identical).
  /// Enables the heartbeat failure detector piggybacked on exchanges, the
  /// join/leave fault verbs (snapshot bootstrap / graceful drain), and
  /// membership-aware client routing (joiners become targets, dead points
  /// are quarantined). Implies client failover.
  bool membership = false;
  digruber::MembershipOptions membership_options{};

  /// Partition tolerance (off by default: default runs stay byte-identical).
  /// Enables the per-VO state digest piggybacked on exchanges and query
  /// replies, targeted delta anti-entropy on digest mismatch, and
  /// staleness-guarded admission (capacity discounting + typed degraded
  /// NACKs when a quorum of peers is stale).
  bool partition_tolerance = false;
  digruber::PartitionToleranceOptions partition_options{};

  /// Economic brokering (off by default: default runs stay byte-identical).
  /// `economy_options.allocator == kKarma` enables the per-decision-point
  /// credit bank (epoch settlement + severity-then-credit admission);
  /// `market_placement` enables client-side budget/deadline bids and
  /// cost-minimizing selection over the price quotes piggybacked on query
  /// replies. Either one turns on the price/bid wire trailers; grid
  /// capacity for the banks is filled in from the emulated grid.
  economy::EconomyOptions economy_options{};
  bool market_placement = false;

  /// Durable decision points (off by default: default runs stay
  /// byte-identical). Every decision point gets a simulated disk with a
  /// CRC-framed write-ahead log and periodic checkpoints; a restart
  /// replays checkpoint+WAL locally and runs anti-entropy only for the
  /// gap. The disktorn/diskrot/diskstall fault verbs act on these disks.
  bool durability = false;
  digruber::DurabilityOptions durability_options{};
  /// Exactly-once dispatch (off by default; implies nothing unless
  /// durability is also on at the serving point): clients stamp selection
  /// reports with durable (client, seq) request ids and retry failed
  /// reports to the same decision point, whose persisted dedup window
  /// collapses them to one dispatch.
  bool request_ids = false;

  /// CRC-32C frame checksums (off by default: legacy v2/v1 frames). When
  /// on, every decision point and client emits v3 frames with a checksum
  /// trailer; corrupted frames are dropped at parse with a typed counter
  /// instead of feeding garbage to handlers.
  bool frame_checksums = false;

  /// Event tracing (optional, off by default). When set, the tracer is
  /// installed as the thread-current tracer for the whole run and bound to
  /// the scenario's simulation clock; phase boundaries, fault injections,
  /// queries, rpc serves, and packet hops are recorded into it. Tracing
  /// never perturbs the simulation: no events are scheduled and no
  /// randomness is drawn, so traced and untraced runs produce identical
  /// results.
  trace::Tracer* tracer = nullptr;
};

/// One decision point at harvest: its counters plus the values its
/// container, disk and failure detector keep, and its end-of-run state.
/// The bases are summed into the ScenarioResult sections.
struct DpStats : digruber::DpCounters, metrics::ContainerLoad,
                 metrics::DeviceCounters, metrics::DetectorCounters {
  /// Container admission, with ContainerLoad (chaos-harness conservation
  /// input: submitted == completed + refused + shed_deadline + aborted +
  /// residue).
  std::uint64_t completed = 0;
  std::uint64_t queue_residue = 0;  // still queued/busy at harvest
  double container_utilization = 0.0;
  double mean_sojourn_s = 0.0;

  // Dynamic membership (defaults with membership off).
  bool serving = true;
  bool left = false;
  /// Join lifecycle (-1 for points that never joined at runtime).
  double join_started_s = -1.0;
  double serving_since_s = -1.0;
  /// Every membership transition this point's table observed, in order
  /// (the churn soak and the bench derive time-to-detect from these).
  std::vector<digruber::MembershipTransition> membership_transitions;

  /// This point's credit-bank ledgers (economy off: empty); the chaos
  /// harness checks per-bank conservation against it.
  economy::BankStats economy{};
  double last_recovery_s = 0.0;
  /// Alive at harvest (crashed-and-not-restarted points report false).
  bool running = true;
  /// I13 audit payloads (filled only when config.overlay_audit): every
  /// (origin, seq) this point applied, and its own accepted records as
  /// (seq, accepted-at-seconds).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> applied_keys;
  std::vector<std::pair<std::uint64_t, double>> own_records;
};

struct ScenarioResult {
  ScenarioConfig config;

  // DiPerF outputs (figure material).
  diperf::Collector collector;
  diperf::PerfModel model;

  // Job accounting (table material).
  metrics::MetricValues handled;
  metrics::MetricValues not_handled;
  metrics::MetricValues all;

  std::vector<DpStats> dps;
  workload::TraceLog trace;

  /// Per-request samples with issue timestamps (the resilience bench
  /// buckets these into an availability/accuracy timeline).
  std::vector<metrics::RequestSample> samples;

  /// Fault-tolerance counters (all zero for fault-free configurations).
  metrics::ResilienceCounters resilience;

  /// Overload-control counters (all zero with overload_control off and no
  /// queue-full refusals).
  metrics::OverloadCounters overload;

  /// Dynamic-membership counters (all zero with membership off).
  metrics::MembershipCounters membership;

  /// Partition-tolerance counters (all zero with partition_tolerance off
  /// and no corruption/checksum activity).
  metrics::PartitionCounters partition;

  /// Economic-brokering counters (all zero with the economy off).
  metrics::EconomyCounters economy;

  /// Durability counters (all zero with durability off).
  metrics::DurabilityCounters durability;

  /// Dissemination-overlay counters (mesh fanout under the default).
  metrics::OverlayCounters overlay;

  /// Client-fleet query outcomes (conservation: queries == handled +
  /// fallbacks).
  metrics::ClientTotals clients;

  /// Sites whose free-CPU accounting is negative at harvest — any nonzero
  /// value means allocation bookkeeping leaked (USLA over-allocation).
  std::size_t sites_overcommitted = 0;

  /// Brokered placements that pushed a VO past its USLA cap at the
  /// selected site, judged against ground truth at dispatch time. A
  /// single fresh view never admits past the cap; breaches appear when
  /// divergent views (a split) each admitted within their own believed
  /// headroom and the union breached the entitlement. The worst single
  /// excess is in CPUs.
  std::uint64_t entitlement_breaches = 0;
  std::int32_t entitlement_worst_excess = 0;

  /// Ground-truth USLA audit taken at window end (before the drain):
  /// (site, VO) pairs running past their entitlement cap right then, and
  /// the worst excess in CPUs. Zero on every honest single-view run;
  /// reported by every scenario summary.
  std::uint64_t overcommits_final = 0;
  std::int32_t overcommit_worst_excess = 0;

  // Grid-level facts.
  std::size_t sites = 0;
  std::int64_t total_cpus = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_started = 0;
  double grid_cpu_seconds = 0.0;

  /// Fairness of delivered CPU time across VOs and across groups (the
  /// paper's Section 4.1 question), over the brokered workload.
  metrics::FairnessReport vo_fairness;
  metrics::FairnessReport group_fairness;

  /// Fairness of *brokered granted* CPU time across VOs: cpu x runtime for
  /// jobs a decision point placed (fallback placements excluded). This is
  /// what the karma allocator governs — denied queries divert to the
  /// client's random fallback (out-of-band submission), so delivered grid
  /// CPU stays demand-shaped while brokered grants track entitlements.
  metrics::FairnessReport brokered_vo_fairness;

  int final_dps = 0;  // > n_dps when dynamic provisioning fired
  std::uint64_t sim_events = 0;
};

/// Run one scenario end to end on the discrete-event substrate.
ScenarioResult run_scenario(const ScenarioConfig& config);

/// The default equal-share USLA set for a catalog: grid gives each VO a
/// target of 100/n_vos %, each VO gives each group 100/groups %.
std::vector<usla::Agreement> default_agreements(const grid::VoCatalog& catalog);

/// Estimated single-query service cost (seconds of worker time) for a
/// brokering query under `profile` on a grid with `n_sites` sites — feeds
/// the GRUB-SIM capacity model.
double query_service_seconds(const net::ContainerProfile& profile,
                             std::size_t n_sites,
                             sim::Duration eval_cost_per_site);

/// Per-decision-point capacity in queries/second under `profile`.
double dp_capacity_qps(const net::ContainerProfile& profile, std::size_t n_sites,
                       sim::Duration eval_cost_per_site);

}  // namespace digruber::experiments
