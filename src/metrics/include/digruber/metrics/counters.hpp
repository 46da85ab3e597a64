#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>

namespace digruber::metrics {

/// The counter registry. Every counter is one field of one plain struct
/// below, plus one row in that struct's CounterTable: the DiPerF label and
/// how a fleet combines it. The generic accumulate() and
/// diperf::render_counters() are driven by the tables alone.
///
/// A section struct (ResilienceCounters, OverloadCounters, ...) is what a
/// scenario reports for the whole run. It derives from *parts*, one per
/// source that increments it: the decision point (Dp*), its container
/// (ContainerLoad), disk (DeviceCounters) and failure detector
/// (DetectorCounters), and the client (Client*). digruber::DpCounters and
/// digruber::ClientCounters derive from their parts, so a source's share
/// of a section is a base-class slice, folded in by accumulate_part(). The
/// few fields a section declares itself (transport drops, bank ledgers)
/// are filled by the scenario harvest.

/// How a fleet combines one counter across its members.
enum class Agg : std::uint8_t { kSum, kMax };

/// One row of a counter table: a member of S (a count or an amount),
/// combined across a fleet by `agg`, or a row derived from other members.
/// `shown`, when set, is the value the row prints instead of the member
/// (a member row that prints a ratio still sums its member).
template <class S>
struct Counter {
  const char* label;
  std::uint64_t S::*count = nullptr;
  double S::*amount = nullptr;
  Agg agg = Agg::kSum;
  double (*shown)(const S&) = nullptr;
  int decimals = 0;

  constexpr Counter(const char* l, std::uint64_t S::*member, Agg a = Agg::kSum)
      : label(l), count(member), agg(a) {}
  constexpr Counter(const char* l, double S::*member) : label(l), amount(member) {}
  constexpr Counter(const char* l, std::uint64_t S::*member,
                    double (*show)(const S&), int places)
      : label(l), count(member), shown(show), decimals(places) {}
  constexpr Counter(const char* l, double (*derive)(const S&), int places = 0)
      : label(l), shown(derive), decimals(places) {}

  [[nodiscard]] constexpr bool is_member() const { return count || amount; }
  /// The value this row prints.
  [[nodiscard]] double value(const S& s) const {
    if (shown) return shown(s);
    return count ? double(s.*count) : s.*amount;
  }
};

/// Specialised once per counter struct with `static constexpr
/// Counter<S> rows[]`, in report order.
template <class S>
struct CounterTable;

/// True when the rows name every field of S exactly once. Every counter
/// is 8 bytes wide, so a missing or repeated member shows in the count.
template <class S>
constexpr bool covers_every_field() {
  const auto& rows = CounterTable<S>::rows;
  std::size_t members = 0;
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    if (!rows[i].is_member()) continue;
    ++members;
    for (std::size_t j = 0; j < i; ++j) {
      if ((rows[i].count && rows[i].count == rows[j].count) ||
          (rows[i].amount && rows[i].amount == rows[j].amount)) {
        return false;
      }
    }
  }
  return members * 8 == sizeof(S);
}

/// Fold `from` into `into` row by row: a sum, or the larger value for
/// kMax rows.
template <class S>
void accumulate(S& into, const S& from) {
  for (const Counter<S>& row : CounterTable<S>::rows) {
    if (row.count) {
      into.*row.count = row.agg == Agg::kMax
                            ? std::max(into.*row.count, from.*row.count)
                            : into.*row.count + from.*row.count;
    } else if (row.amount) {
      into.*row.amount += from.*row.amount;
    }
  }
}

/// Fold one source's share of section S — its `Part` base, every other
/// field zero — into `into`.
template <class Part, class S>
void accumulate_part(S& into, const Part& part) {
  S share{};
  static_cast<Part&>(share) = part;
  accumulate(into, share);
}

/// Client-fleet query outcomes (conservation: every scheduled query
/// resolves once, so queries == handled + fallbacks).
struct ClientTotals {
  std::uint64_t queries = 0;
  std::uint64_t handled = 0;      // a decision point's site was used
  std::uint64_t fallbacks = 0;    // random site: deadline, all down, starved
  std::uint64_t starvations = 0;  // reply arrived with no admissible site
};

template <>
struct CounterTable<ClientTotals> {
  static constexpr Counter<ClientTotals> rows[] = {
      {"client queries", &ClientTotals::queries},
      {"handled by GRUBER", &ClientTotals::handled},
      {"random-site fallbacks", &ClientTotals::fallbacks},
      {"starvations", &ClientTotals::starvations},
  };
};

/// Fault tolerance, surfaced by the resilience bench.
struct ClientResilience {
  std::uint64_t failovers = 0;      // attempts retried on another (or, after
                                    // backoff, the same) decision point
  std::uint64_t breaker_trips = 0;  // breaker opens, failed half-open probes too
  std::uint64_t all_dps_down_fallbacks = 0;  // no decision point was eligible
};

struct DpResilience {
  std::uint64_t restarts = 0;
  std::uint64_t resync_records = 0;  // records re-learned through full pulls
  std::uint64_t pulls_served = 0;    // record pulls answered, full + targeted
  std::uint64_t gap_resyncs = 0;     // full pulls from flooding-round gaps
};

struct ResilienceCounters : ClientResilience, DpResilience {
  // Transport (SimTransport drop accounting by cause).
  std::uint64_t drops_loss = 0;
  std::uint64_t drops_partition = 0;
  std::uint64_t drops_unknown_destination = 0;

  [[nodiscard]] std::uint64_t drops_total() const {
    return drops_loss + drops_partition + drops_unknown_destination;
  }
};

template <>
struct CounterTable<ResilienceCounters> {
  using S = ResilienceCounters;
  static constexpr Counter<S> rows[] = {
      {"client failovers", &S::failovers},
      {"breaker trips", &S::breaker_trips},
      {"all-DPs-down fallbacks", &S::all_dps_down_fallbacks},
      {"DP restarts", &S::restarts},
      {"re-sync records applied", &S::resync_records},
      {"pulls served", &S::pulls_served},
      {"round-gap re-syncs", &S::gap_resyncs},
      {"drops: loss", &S::drops_loss},
      {"drops: partition", &S::drops_partition},
      {"drops: unknown destination", &S::drops_unknown_destination},
      {"drops: total", [](const S& c) { return double(c.drops_total()); }},
  };
};

/// Overload control: container admission plus the client retry layer,
/// surfaced by the overload-shedding bench and the chaos harness.
/// Queue-full refusals appear here as typed rejections, apart from
/// network loss.
struct ContainerLoad {
  std::uint64_t submitted = 0;      // requests reaching admission
  std::uint64_t refused = 0;        // typed rejections: queue at limit
  std::uint64_t shed_deadline = 0;  // typed rejections: deadline doomed
  std::uint64_t lifo_pickups = 0;   // query pickups served newest-first
  std::uint64_t aborted = 0;        // queued/in-flight work lost to crashes

  [[nodiscard]] std::uint64_t shed_total() const { return refused + shed_deadline; }
};

struct ClientOverload {
  std::uint64_t overload_nacks = 0;         // typed NACKs received
  std::uint64_t retry_after_honored = 0;    // delays stretched to the hint
  std::uint64_t retries_budget_denied = 0;  // retries suppressed, bucket empty
  std::uint64_t p2c_decisions = 0;          // power-of-two-choices routings
};

struct OverloadCounters : ContainerLoad, ClientOverload {};

template <>
struct CounterTable<OverloadCounters> {
  using S = OverloadCounters;
  static constexpr Counter<S> rows[] = {
      {"requests submitted", &S::submitted},
      {"shed: queue full", &S::refused},
      {"shed: deadline doomed", &S::shed_deadline},
      {"shed: total", [](const S& c) { return double(c.shed_total()); }},
      {"LIFO pickups", &S::lifo_pickups},
      {"aborted by crash", &S::aborted},
      {"overload NACKs received", &S::overload_nacks},
      {"retry_after honored", &S::retry_after_honored},
      {"retries denied (budget)", &S::retries_budget_denied},
      {"p2c routing decisions", &S::p2c_decisions},
  };
};

/// Dynamic membership: failure-detector verdicts, join/leave traffic and
/// client-side quarantine, surfaced by the resilience bench and the churn
/// soak. All zero with membership off.
struct DetectorCounters {
  std::uint64_t suspicions = 0;       // alive -> suspect verdicts
  std::uint64_t deaths_declared = 0;  // -> dead (detector or gossip)
  std::uint64_t refutations = 0;      // suspect/dead -> alive resurrections
  std::uint64_t joins_observed = 0;   // previously-unknown members learned
  std::uint64_t leaves_observed = 0;  // graceful departures learned
};

struct DpMembership {
  std::uint64_t join_snapshot_retries = 0;  // failed transfers, seed rotated
  std::uint64_t join_snapshot_records = 0;  // records bootstrapped (no replay)
  std::uint64_t snapshots_served = 0;       // bootstrap snapshots handed out
};

struct ClientMembership {
  std::uint64_t client_updates_applied = 0;  // epoch-gated updates folded in
  std::uint64_t client_dps_added = 0;        // joiners added as targets
  std::uint64_t client_dps_quarantined = 0;  // dead/left points, no probes
  std::uint64_t client_drain_redirects = 0;  // draining NACKs redirected
};

struct MembershipCounters : DetectorCounters, DpMembership, ClientMembership {
  std::uint64_t joins_started = 0;    // join() bootstraps initiated
  std::uint64_t joins_completed = 0;  // joiners that reached serving
  std::uint64_t drain_nacks = 0;      // query refusals while not serving
};

template <>
struct CounterTable<MembershipCounters> {
  using S = MembershipCounters;
  static constexpr Counter<S> rows[] = {
      {"suspicions", &S::suspicions},
      {"deaths declared", &S::deaths_declared},
      {"refutations", &S::refutations},
      {"joins observed", &S::joins_observed},
      {"leaves observed", &S::leaves_observed},
      {"joins started", &S::joins_started},
      {"joins completed", &S::joins_completed},
      {"join snapshot retries", &S::join_snapshot_retries},
      {"join snapshot records", &S::join_snapshot_records},
      {"snapshots served", &S::snapshots_served},
      {"drain NACKs sent", &S::drain_nacks},
      {"client updates applied", &S::client_updates_applied},
      {"client DPs added", &S::client_dps_added},
      {"client DPs quarantined", &S::client_dps_quarantined},
      {"client drain redirects", &S::client_drain_redirects},
  };
};

/// Partition tolerance: digest piggyback, delta anti-entropy, staleness-
/// guarded admission, client rerouting and frame-corruption accounting,
/// surfaced by the partition-divergence bench and the partition soak.
struct DpPartition {
  std::uint64_t digest_mismatches = 0;      // exchange digests that disagreed
  std::uint64_t delta_pulls_sent = 0;       // targeted pulls issued
  std::uint64_t delta_records_applied = 0;  // records learned via targeted pulls
  std::uint64_t delta_converged = 0;        // pulls after which digests matched
  std::uint64_t degraded_refusals = 0;      // queries NACKed: quorum stale
  std::uint64_t degraded_replies = 0;       // replies carrying a degraded hint
};

struct ClientPartition {
  // A degraded point is alive and never quarantined: it recovers as soon
  // as its partition heals.
  std::uint64_t client_degraded_redirects = 0;  // degraded NACKs rerouted
  std::uint64_t client_degraded_hints = 0;      // degraded hints absorbed
};

struct PartitionCounters : DpPartition, ClientPartition {
  std::uint64_t packets_corrupted = 0;    // bit flips injected in flight
  std::uint64_t frames_bad_checksum = 0;  // frames dropped by CRC mismatch
};

template <>
struct CounterTable<PartitionCounters> {
  using S = PartitionCounters;
  static constexpr Counter<S> rows[] = {
      {"digest mismatches", &S::digest_mismatches},
      {"delta pulls sent", &S::delta_pulls_sent},
      {"delta records applied", &S::delta_records_applied},
      {"delta pulls converged", &S::delta_converged},
      {"degraded refusals", &S::degraded_refusals},
      {"degraded replies", &S::degraded_replies},
      {"client degraded redirects", &S::client_degraded_redirects},
      {"client degraded hints", &S::client_degraded_hints},
      {"packets corrupted", &S::packets_corrupted},
      {"frames with bad checksum", &S::frames_bad_checksum},
  };
};

/// Economic brokering: credit banks, karma admission and market
/// placement, surfaced by the economy bench and the chaos harness. All
/// zero with the economy off. Credit amounts are CPU-seconds.
struct DpEconomy {
  std::uint64_t credit_denials = 0;     // queries refused: allowance spent
  std::uint64_t grace_admissions = 0;   // over-allowance admits, idle grid
  std::uint64_t priced_replies = 0;     // replies carrying price quotes
  std::uint64_t priced_selections = 0;  // selection reports carrying a bid
};

struct ClientEconomy {
  std::uint64_t priced_dispatches = 0;  // dispatches won by a price offer
  std::uint64_t budget_rejections = 0;  // cheapest offer still over budget
  std::uint64_t market_fallbacks = 0;   // no usable offer, fell back to p2c
};

struct EconomyCounters : DpEconomy, ClientEconomy {
  // Credit banks (karma allocator, summed over decision points).
  std::uint64_t epochs_settled = 0;
  double credits_initial = 0.0;       // endowments at bank creation/reset
  double credits_earned = 0.0;        // transferred to under-share VOs
  double credits_spent = 0.0;         // surrendered by over-share VOs
  double credits_expired_pool = 0.0;  // spent but unabsorbed (no deficit)
  double credits_expired_cap = 0.0;   // clipped by the balance cap
};

template <>
struct CounterTable<EconomyCounters> {
  using S = EconomyCounters;
  static constexpr Counter<S> rows[] = {
      {"epochs settled", &S::epochs_settled},
      {"credits endowed (cpu-s)", &S::credits_initial},
      {"credits earned (cpu-s)", &S::credits_earned},
      {"credits spent (cpu-s)", &S::credits_spent},
      {"credits expired: pool", &S::credits_expired_pool},
      {"credits expired: cap", &S::credits_expired_cap},
      {"credit denials", &S::credit_denials},
      {"grace admissions", &S::grace_admissions},
      {"priced replies", &S::priced_replies},
      {"priced selections", &S::priced_selections},
      {"priced dispatches", &S::priced_dispatches},
      {"budget rejections", &S::budget_rejections},
      {"market fallbacks", &S::market_fallbacks},
  };
};

/// Durability: simulated disks, checkpoint/replay recovery and the
/// exactly-once dispatch window, surfaced by the recovery bench and the
/// chaos harness.
struct DeviceCounters {
  std::uint64_t wal_appends = 0;          // frames written
  std::uint64_t wal_bytes = 0;            // framed bytes written
  std::uint64_t fsyncs = 0;               // durability barriers
  std::uint64_t checkpoints_written = 0;  // checkpoint images replaced
  std::uint64_t log_truncations = 0;      // WAL resets after a checkpoint
  std::uint64_t torn_tails = 0;           // injected torn-write faults
  std::uint64_t bit_flips = 0;            // injected bit-rot faults
};

struct DpDurability {
  std::uint64_t recoveries = 0;            // checkpoint+WAL replays at restart
  std::uint64_t replay_frames = 0;         // WAL frames read back intact
  std::uint64_t replay_records = 0;        // dispatch records restored locally
  std::uint64_t replay_dedup_entries = 0;  // dedup entries restored
  std::uint64_t replay_truncations = 0;    // scans stopped at a torn tail
  std::uint64_t checkpoint_fallbacks = 0;  // absent or corrupt images
  std::uint64_t replay_mismatches = 0;     // I11: committed records lost
  std::uint64_t dedup_hits = 0;            // retries answered from the window
  std::uint64_t duplicate_dispatches = 0;  // I12: one request id, 2+ commits
};

struct ClientDurability {
  std::uint64_t report_retries = 0;  // selection reports re-sent
  std::uint64_t dedup_replies = 0;   // acks carrying the original decision
};

struct DurabilityCounters : DeviceCounters, DpDurability, ClientDurability {};

template <>
struct CounterTable<DurabilityCounters> {
  using S = DurabilityCounters;
  static constexpr Counter<S> rows[] = {
      {"WAL appends", &S::wal_appends},
      {"WAL bytes", &S::wal_bytes},
      {"fsyncs", &S::fsyncs},
      {"checkpoints written", &S::checkpoints_written},
      {"log truncations", &S::log_truncations},
      {"torn tails", &S::torn_tails},
      {"bit flips", &S::bit_flips},
      {"recoveries", &S::recoveries},
      {"replay frames", &S::replay_frames},
      {"replay records", &S::replay_records},
      {"replay dedup entries", &S::replay_dedup_entries},
      {"replay truncations", &S::replay_truncations},
      {"checkpoint fallbacks", &S::checkpoint_fallbacks},
      {"replay mismatches", &S::replay_mismatches},
      {"dedup hits", &S::dedup_hits},
      {"duplicate dispatches", &S::duplicate_dispatches},
      {"client report retries", &S::report_retries},
      {"client dedup replies", &S::dedup_replies},
  };
};

/// Dissemination overlay: per-round push sets, observed relay depth, TTL
/// suppressions and structure repairs, all counted by decision points and
/// surfaced by the overlay ablation and the chaos overlay soak. Under the
/// default mesh only exchanges_sent, rounds, fanout_total and bytes_sent
/// move.
struct OverlayCounters {
  std::uint64_t exchanges_sent = 0;     // actual per-strategy sends
  std::uint64_t rounds = 0;             // exchange rounds that pushed
  std::uint64_t fanout_total = 0;       // sum of per-round push-set sizes
  std::uint64_t max_hops = 0;           // deepest relay depth observed
  std::uint64_t relays_suppressed = 0;  // fresh records stopped by the TTL
  std::uint64_t rebuilds = 0;           // tree/super-peer structure repairs
  std::uint64_t grave_probes = 0;       // frames copied to believed-dead peers
  /// Exchange body bytes put on the wire, counting every copy sent (the
  /// wire-stats encode counter sees a mesh broadcast as one encode), so
  /// sparse-vs-mesh cost comparisons are honest.
  std::uint64_t bytes_sent = 0;

  [[nodiscard]] double mean_fanout() const {
    return rounds > 0 ? double(fanout_total) / double(rounds) : 0.0;
  }
  [[nodiscard]] double bytes_per_round() const {
    return rounds > 0 ? double(bytes_sent) / double(rounds) : 0.0;
  }
};

template <>
struct CounterTable<OverlayCounters> {
  using S = OverlayCounters;
  static constexpr Counter<S> rows[] = {
      {"exchanges sent", &S::exchanges_sent},
      {"exchange rounds", &S::rounds},
      {"mean fan-out", &S::fanout_total, [](const S& c) { return c.mean_fanout(); }, 2},
      {"max relay depth", &S::max_hops, Agg::kMax},
      {"relays suppressed (TTL)", &S::relays_suppressed},
      {"strategy rebuilds", &S::rebuilds},
      {"grave probes", &S::grave_probes},
      {"bytes sent", &S::bytes_sent},
      {"bytes / round", [](const S& c) { return c.bytes_per_round(); }},
  };
};

static_assert(covers_every_field<ClientTotals>());
static_assert(covers_every_field<ResilienceCounters>());
static_assert(covers_every_field<OverloadCounters>());
static_assert(covers_every_field<MembershipCounters>());
static_assert(covers_every_field<PartitionCounters>());
static_assert(covers_every_field<EconomyCounters>());
static_assert(covers_every_field<DurabilityCounters>());
static_assert(covers_every_field<OverlayCounters>());

}  // namespace digruber::metrics
