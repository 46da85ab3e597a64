// digruber-run: drive a full DI-GRUBER experiment from a flat config file
// without recompiling.
//
//   digruber-run [scenario.conf] [key=value ...]
//                [--query-trace out.csv]
//                [--trace out.json] [--trace-format chrome|jsonl]
//
// Prints the DiPerF figure (load / response / throughput vs time), the
// Tables-1/2-style performance breakdown, response-time percentiles, and
// per-decision-point stats. `--query-trace` saves the brokering-query
// trace for grubsim-replay; `--trace` records the event trace (spans,
// instants, packet hops) for Perfetto (chrome) or trace_inspect (jsonl).
//
// Example config (all keys optional; see experiments/config.hpp):
//   dps = 3
//   profile = gt3          # gt3 | gt4 | gt4-c
//   clients = 120
//   duration_minutes = 60
//   exchange_minutes = 3
#include <cstring>
#include <iostream>

#include "digruber/common/table.hpp"
#include "digruber/diperf/report.hpp"
#include "digruber/experiments/config.hpp"
#include "digruber/trace/export.hpp"

using namespace digruber;

int main(int argc, char** argv) {
  Config config;
  std::string query_trace_path;
  std::string trace_path;
  std::string trace_format = "chrome";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--query-trace" && i + 1 < argc) {
      query_trace_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--trace-format" && i + 1 < argc) {
      trace_format = argv[++i];
      if (trace_format != "chrome" && trace_format != "jsonl") {
        std::cerr << "unknown trace format '" << trace_format
                  << "' (expected chrome or jsonl)\n";
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [scenario.conf] [key=value ...] [--query-trace out.csv]"
                   " [--trace out.json] [--trace-format chrome|jsonl]\n";
      return 0;
    } else if (arg.find('=') != std::string::npos) {
      const std::size_t eq = arg.find('=');
      config.set(arg.substr(0, eq), arg.substr(eq + 1));
    } else {
      try {
        const Config file = Config::from_file(arg);
        for (const auto& [key, value] : file.entries()) {
          if (!config.has(key)) config.set(key, value);
        }
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
      }
    }
  }

  const auto scenario = experiments::scenario_from_config(config);
  if (!scenario.ok()) {
    std::cerr << "config error: " << scenario.error() << "\n";
    return 1;
  }
  experiments::ScenarioConfig cfg = scenario.value();

  trace::Tracer tracer;
  if (!trace_path.empty()) cfg.tracer = &tracer;

  std::cerr << "running '" << cfg.name << "': " << cfg.n_dps << " x "
            << cfg.profile.name << " decision point(s), " << cfg.n_clients
            << " clients, " << cfg.duration.to_minutes() << " min...\n";
  experiments::ScenarioResult r;
  try {
    r = experiments::run_scenario(cfg);
  } catch (const std::exception& e) {
    std::cerr << "scenario failed: " << e.what() << "\n";
    return 1;
  }

  diperf::render_figure(std::cout, cfg.name, r.collector, cfg.duration.to_seconds());

  Table perf({"", "% of Req", "# of Req", "Response (s)", "QTime (s)", "Util",
              "Accuracy"});
  auto row = [&](const char* label, const metrics::MetricValues& v, bool acc) {
    perf.add_row({label, Table::pct(v.request_share), std::to_string(v.requests),
                  Table::num(v.response_s, 2), Table::num(v.qtime_s, 1),
                  Table::pct(v.utilization),
                  acc && v.requests ? Table::pct(v.accuracy) : "-"});
  };
  row("Handled by GRUBER", r.handled, true);
  row("NOT handled (fallback)", r.not_handled, false);
  row("All requests", r.all, true);
  perf.render(std::cout);

  diperf::render_latency_percentiles(std::cout, r.handled, r.not_handled, r.all);

  // Queue-full drops and deadline sheds surface as typed overload
  // rejections rather than vanishing into the fallback population.
  if (r.overload.submitted > 0 &&
      (r.overload.shed_total() > 0 || r.overload.overload_nacks > 0 ||
       r.overload.aborted > 0)) {
    diperf::render_counters(std::cout, "overload counters", r.overload);
  }

  Table dps({"DP", "Queries", "Selections", "Exchanges out/in", "Records",
             "Sojourn (s)", "Container util"});
  for (std::size_t i = 0; i < r.dps.size(); ++i) {
    const experiments::DpStats& d = r.dps[i];
    dps.add_row({std::to_string(i), std::to_string(d.queries),
                 std::to_string(d.selections),
                 std::to_string(d.exchanges_sent) + "/" +
                     std::to_string(d.exchanges_received),
                 std::to_string(d.records_applied),
                 Table::num(d.mean_sojourn_s, 2),
                 Table::pct(d.container_utilization)});
  }
  dps.render(std::cout);

  std::cout << "grid: " << r.sites << " sites, " << r.total_cpus << " CPUs; "
            << r.jobs_completed << " jobs completed, "
            << Table::num(r.grid_cpu_seconds / 3600.0, 1) << " cpu-hours\n";
  if (r.final_dps != cfg.n_dps) {
    std::cout << (r.membership.joins_completed > 0
                      ? "membership joins grew the deployment to "
                      : "dynamic provisioning grew the deployment to ")
              << r.final_dps << " decision points\n";
  }
  if (cfg.overlay_options.kind != overlay::Kind::kMesh) {
    const std::string strategy = overlay::kind_name(cfg.overlay_options.kind);
    diperf::render_counters(std::cout, "overlay counters (" + strategy + ")",
                            r.overlay);
    std::cout << "overlay: " << strategy
              << ", mean fan-out " << Table::num(r.overlay.mean_fanout(), 2)
              << " over " << r.overlay.rounds << " round(s), max relay depth "
              << r.overlay.max_hops << ", " << r.overlay.relays_suppressed
              << " relay(s) suppressed, " << r.overlay.rebuilds
              << " rebuild(s)\n";
  }
  if (cfg.membership) {
    std::cout << "membership: " << r.membership.deaths_declared
              << " death(s) declared, " << r.membership.joins_completed << "/"
              << r.membership.joins_started << " join(s) completed, "
              << r.membership.leaves_observed << " leave notice(s), "
              << r.membership.client_dps_quarantined
              << " client quarantine(s)\n";
  }
  if (cfg.partition_tolerance || r.partition.frames_bad_checksum > 0) {
    std::cout << "partition: " << r.partition.digest_mismatches
              << " digest mismatch(es), " << r.partition.delta_pulls_sent
              << " delta pull(s) moving " << r.partition.delta_records_applied
              << " record(s), " << r.partition.degraded_refusals
              << " degraded refusal(s), " << r.partition.frames_bad_checksum
              << "/" << r.partition.packets_corrupted
              << " corrupt frame(s) caught\n";
  }
  if (cfg.durability) {
    std::cout << "durability: " << r.durability.wal_appends
              << " WAL append(s) over " << r.durability.fsyncs
              << " fsync(s), " << r.durability.checkpoints_written
              << " checkpoint(s), " << r.durability.recoveries
              << " recover(ies) replaying " << r.durability.replay_records
              << " record(s), " << r.durability.dedup_hits
              << " retry collapse(s), " << r.durability.replay_mismatches
              << " replay mismatch(es), "
              << r.durability.torn_tails + r.durability.bit_flips
              << " disk fault(s) injected\n";
  }
  // Entitlement state is part of every summary: per-dispatch breaches over
  // the whole run plus the ground-truth audit snapshot at window end.
  std::cout << "usla: " << r.entitlement_breaches << " entitlement breach(es)";
  if (r.entitlement_breaches > 0) {
    std::cout << " (worst " << r.entitlement_worst_excess
              << " CPU(s) past a VO cap)";
  }
  std::cout << ", " << r.overcommits_final << " over-commit(s) at window end";
  if (r.overcommits_final > 0) {
    std::cout << " (worst " << r.overcommit_worst_excess << " CPU(s))";
  }
  std::cout << "\n";

  const bool economy_on =
      cfg.economy_options.allocator == economy::Allocator::kKarma ||
      cfg.market_placement || cfg.economy_options.enabled;
  if (!economy_on && cfg.workload.strategic_vo >= 0) {
    // Strategic-VO baseline run: show what the gate would have governed.
    std::cout << "economy: brokered VO fairness (Jain) "
              << Table::num(r.brokered_vo_fairness.jain, 3) << " (economy off)\n";
  }
  if (economy_on) {
    diperf::render_counters(std::cout, "economy counters", r.economy);
    std::cout << "economy: brokered VO fairness (Jain) "
              << Table::num(r.brokered_vo_fairness.jain, 3) << ", "
              << r.economy.credit_denials << " credit denial(s), "
              << r.economy.grace_admissions << " grace admission(s), "
              << r.economy.priced_dispatches << " priced dispatch(es)\n";
  }

  if (!query_trace_path.empty()) {
    r.trace.save(query_trace_path);
    std::cout << "query trace (" << r.trace.size() << " queries) -> "
              << query_trace_path << "\n";
  }
  if (!trace_path.empty()) {
    const std::string error =
        trace::write_trace_file(trace_path, trace_format, tracer);
    if (!error.empty()) {
      std::cerr << "trace export failed: " << error << "\n";
      return 1;
    }
    std::cout << "event trace (" << tracer.total_recorded() << " events, "
              << tracer.total_dropped() << " dropped) -> " << trace_path
              << " [" << trace_format << "]\n";
  }
  return 0;
}
