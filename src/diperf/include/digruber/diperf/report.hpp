#pragma once

#include <ostream>
#include <string>
#include <string_view>

#include "digruber/common/table.hpp"
#include "digruber/diperf/diperf.hpp"
#include "digruber/metrics/metrics.hpp"
#include "digruber/net/wire/stats.hpp"

namespace digruber::diperf {

/// Render a figure the way the paper does: the load / response /
/// throughput series (downsampled) followed by the response-time and
/// throughput summary rows.
void render_figure(std::ostream& os, const std::string& title,
                   const Collector& collector, double end_s,
                   double bucket_s = 60.0, std::size_t max_rows = 20);

/// Render a counter section as a two-column DiPerF table titled
/// `title`: one row per CounterTable<S> row, in table order. Counts and
/// credit amounts print as integers; a derived row prints with its own
/// decimals.
template <class S>
void render_counters(std::ostream& os, std::string_view title, const S& counters) {
  os << "== " << title << " ==\n";
  Table table({"counter", "value"});
  for (const metrics::Counter<S>& row : metrics::CounterTable<S>::rows) {
    table.add_row({row.label, Table::num(row.value(counters), row.decimals)});
  }
  table.render(os);
  os << "\n";
}

/// Render the per-category bytes-on-wire / encode-count block. With the
/// zero-copy message path, `encodes` counts serializations (one per
/// exchange round, not one per peer); bytes are the frames those encodes
/// produced.
void render_wire(std::ostream& os, const net::wire::WireStats& stats);

/// Render the response-time percentile block (p50/p95/p99 from the
/// HDR-style histogram in MetricValues) for the handled / not-handled /
/// all slices. Kept out of render_figure so the paper-figure benches stay
/// byte-identical with tracing and telemetry disabled.
void render_latency_percentiles(std::ostream& os,
                                const metrics::MetricValues& handled,
                                const metrics::MetricValues& not_handled,
                                const metrics::MetricValues& all);

}  // namespace digruber::diperf
