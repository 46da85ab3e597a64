// hostbench-plain / hostbench-traced: run one DI-GRUBER scenario through
// the public experiments::run_scenario and print one JSON line with its
// host times, memory, simulated guards, correctness checks, simulated
// fingerprint and layer counters.  The traced build also prints the
// per-layer spans recorded by the link-time wrappers.
//
//   hostbench-plain key=value ...   (keys as for digruber-run)
//
// Both builds run the same code; they differ only in which entry points
// the linker wraps (see gen_wraps.py).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "digruber/experiments/config.hpp"
#include "digruber/gruber/engine.hpp"
#include "digruber/net/wire/stats.hpp"
#include "spans.hpp"

using namespace digruber;

namespace {

std::uint64_t g_crc_bytes = 0;
std::uint64_t g_candidates_kept = 0;

// The engine returns its candidate list by value, so at return rax holds
// the address of the result.
using CandidateList = decltype(std::declval<const gruber::GruberEngine&>().candidates(
    std::declval<const grid::Job&>(), std::declval<sim::Time>()));
static_assert(std::is_class_v<CandidateList>);

void install_hooks() {
  hostbench::on_enter(
      "digruber::net::wire::crc32c(std::span<unsigned char const, "
      "18446744073709551615ul>, unsigned int)",
      [](const std::uint64_t* regs) { g_crc_bytes += regs[1]; });  // span size
  hostbench::on_exit(
      "digruber::gruber::GruberEngine::candidates(digruber::grid::Job const&, "
      "digruber::sim::Time) const",
      [](std::uint64_t rax) {
        g_candidates_kept += reinterpret_cast<const CandidateList*>(rax)->size();
      });
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank.
  const auto rank = std::max<std::size_t>(1, std::size_t(std::ceil(q * double(values.size()))));
  return values[std::min(rank, values.size()) - 1];
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::cerr << "usage: " << argv[0] << " key=value ...\n";
      return 2;
    }
    config.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  const auto scenario = experiments::scenario_from_config(config);
  if (!scenario.ok()) {
    std::cerr << "config error: " << scenario.error() << "\n";
    return 2;
  }
  install_hooks();

  const double entered = hostbench::now_s();
  const experiments::ScenarioResult result = experiments::run_scenario(scenario.value());
  const double returned = hostbench::now_s();
  const double kernel = hostbench::first_kernel_call_s();
  if (kernel < entered) {
    std::cerr << "hostbench: no event-kernel call was seen\n";
    return 3;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  // A query whose selection report is not acknowledged resolves exactly at
  // the client timeout, so past saturation every high percentile reads the
  // timeout itself.  The tail guard is taken over the queries that resolved
  // before it; it equals the plain p99 wherever under 1% hit the timeout.
  const double timeout_s = result.config.client_timeout.to_seconds();
  std::vector<double> responses, before_timeout;
  responses.reserve(result.samples.size());
  for (const auto& s : result.samples) {
    responses.push_back(s.response_s);
    if (s.response_s < timeout_s) before_timeout.push_back(s.response_s);
  }

  // Correctness: every query resolves once, every container admission is
  // accounted for, no site is over-allocated, no request id commits twice
  // and replay loses no committed record.
  std::vector<std::string> violations;
  const auto& c = result.clients;
  if (c.queries == 0) violations.push_back("no queries resolved");
  if (c.queries != c.handled + c.fallbacks) {
    violations.push_back("client queries " + std::to_string(c.queries) +
                         " != handled " + std::to_string(c.handled) +
                         " + fallbacks " + std::to_string(c.fallbacks));
  }
  std::uint64_t records_applied = 0, records_duplicate = 0, catchup_records = 0,
                duplicate_dispatches = 0, replay_mismatches = 0;
  std::ostringstream per_dp;
  for (std::size_t d = 0; d < result.dps.size(); ++d) {
    const auto& dp = result.dps[d];
    const std::uint64_t accounted = dp.completed + dp.refused + dp.shed_deadline +
                                    dp.aborted + dp.queue_residue;
    if (dp.submitted != accounted) {
      violations.push_back("dp" + std::to_string(d) + " submitted " +
                           std::to_string(dp.submitted) + " != accounted " +
                           std::to_string(accounted));
    }
    records_applied += dp.records_applied;
    records_duplicate += dp.records_duplicate;
    catchup_records += dp.catchup_records_received;
    duplicate_dispatches += dp.duplicate_dispatches;
    replay_mismatches += dp.replay_mismatches;
    per_dp << d << ':' << dp.queries << ',' << dp.selections << ','
           << dp.exchanges_sent << ',' << dp.exchanges_received << ','
           << dp.records_applied << ',' << dp.records_duplicate << ','
           << dp.submitted << ',' << dp.completed << ',' << dp.refused << ','
           << dp.wal_appends << ',' << dp.fsyncs << ';';
  }
  if (result.sites_overcommitted != 0) {
    violations.push_back("sites overcommitted: " +
                         std::to_string(result.sites_overcommitted));
  }
  if (duplicate_dispatches != 0) {
    violations.push_back("duplicate dispatches: " + std::to_string(duplicate_dispatches));
  }
  if (replay_mismatches != 0) {
    violations.push_back("replay mismatches: " + std::to_string(replay_mismatches));
  }

  const double p50 = quantile(responses, 0.50);
  const double p99 = quantile(before_timeout, 0.99);
  const double placed = ratio(double(c.handled), double(c.queries));
  const double accuracy = result.all.accuracy;

  // Simulated fingerprint: everything here is a function of the seed and
  // the configuration only, never of host time.
  std::ostringstream fp;
  fp.precision(17);
  fp << p50 << '|' << p99 << '|' << placed << '|' << accuracy << '|'
     << result.sim_events << '|' << c.queries << ',' << c.handled << ','
     << c.fallbacks << '|' << per_dp.str();
  char fingerprint[17];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(fnv1a(fp.str())));

  const auto& wire = net::wire::wire_stats();
  std::ostringstream out;
  out.precision(12);
  out << "{\"fingerprint\": \"" << fingerprint << "\""
      << ", \"setup_s\": " << kernel - entered
      << ", \"wall_s\": " << returned - kernel
      << ", \"peak_rss_mb\": " << double(usage.ru_maxrss) / 1024.0
      << ", \"queries\": " << c.queries
      << ", \"sim_response_p50_s\": " << p50
      << ", \"sim_response_p99_s\": " << p99
      << ", \"placed_frac\": " << placed
      << ", \"accuracy\": " << accuracy
      << ", \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    out << (i ? ", " : "") << '"' << violations[i] << '"';
  }
  out << "], \"counters\": {"
      << "\"sim.events\": " << result.sim_events
      << ", \"gruber.sites_scored\": "
      << hostbench::nested_calls("digruber::gruber::GruberEngine::candidates",
                                 "digruber::usla::UslaEvaluator::chain_headroom")
      << ", \"gruber.candidates_kept\": " << g_candidates_kept
      << ", \"gruber.view_digest.calls\": "
      << hostbench::symbol_calls("digruber::gruber::GridView::digest")
      << ", \"net.crc32c.bytes\": " << g_crc_bytes
      << ", \"digruber.records_applied\": " << records_applied
      << ", \"digruber.dup_frac\": "
      << ratio(double(records_duplicate), double(records_applied + records_duplicate))
      << ", \"digruber.catchup_records\": " << catchup_records
      << ", \"overlay.bytes_sent\": " << result.overlay.bytes_sent
      << ", \"overlay.rounds\": " << result.overlay.rounds
      << ", \"wire.encodes\": " << wire.total_encodes()
      << ", \"wire.encode_bytes\": " << wire.total_bytes()
      << ", \"durable.appends_per_fsync\": "
      << ratio(double(result.durability.wal_appends), double(result.durability.fsyncs))
      << "}, \"spans\": " << hostbench::spans_json() << "}";
  std::cout << out.str() << std::endl;
  return 0;
}
