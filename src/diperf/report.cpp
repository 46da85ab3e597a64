#include "digruber/diperf/report.hpp"

#include <algorithm>
#include <ostream>

#include "digruber/common/table.hpp"
#include "digruber/net/wire/stats.hpp"

namespace digruber::diperf {

void render_figure(std::ostream& os, const std::string& title,
                   const Collector& collector, double end_s, double bucket_s,
                   std::size_t max_rows) {
  os << "== " << title << " ==\n";

  const std::vector<Collector::Bucket> buckets = collector.series(bucket_s, end_s);
  Table series({"time (s)", "load (clients)", "response (s)", "throughput (q/s)"});
  const std::size_t stride = std::max<std::size_t>(1, buckets.size() / max_rows);
  for (std::size_t b = 0; b < buckets.size(); b += stride) {
    series.add_row({Table::num(buckets[b].t_s, 0), Table::num(buckets[b].load, 0),
                    Table::num(buckets[b].response_avg_s, 2),
                    Table::num(buckets[b].throughput_qps, 2)});
  }
  series.render(os);

  const Summary response = collector.response_summary();
  Table summary({"", "Minimum", "Median", "Average", "Maximum", "Std Dev"});
  summary.add_row({"Response Time (seconds)", Table::num(response.min, 2),
                   Table::num(response.median, 2), Table::num(response.average, 2),
                   Table::num(response.max, 2), Table::num(response.stddev, 2)});
  SampleSet tp;
  for (const Collector::Bucket& b : buckets) {
    if (b.completions > 0) tp.add(b.throughput_qps);
  }
  const Summary throughput = summarize(tp);
  summary.add_row({"Throughput (queries/second)", Table::num(throughput.min, 2),
                   Table::num(throughput.median, 2), Table::num(throughput.average, 2),
                   Table::num(throughput.max, 2), Table::num(throughput.stddev, 2)});
  summary.render(os);

  os << "peak throughput: " << Table::num(collector.peak_throughput(bucket_s, end_s), 2)
     << " q/s, plateau: " << Table::num(collector.plateau_throughput(bucket_s, end_s), 2)
     << " q/s, completions: " << collector.records().size()
     << ", failures: " << collector.failures() << "\n\n";
}

void render_latency_percentiles(std::ostream& os,
                                const metrics::MetricValues& handled,
                                const metrics::MetricValues& not_handled,
                                const metrics::MetricValues& all) {
  os << "== response-time percentiles ==\n";
  Table table({"", "# of Req", "Mean (s)", "p50 (s)", "p95 (s)", "p99 (s)"});
  auto row = [&](const char* label, const metrics::MetricValues& v) {
    if (v.requests == 0) {
      table.add_row({label, "0", "-", "-", "-", "-"});
      return;
    }
    table.add_row({label, std::to_string(v.requests), Table::num(v.response_s, 2),
                   Table::num(v.response_p50_s, 2), Table::num(v.response_p95_s, 2),
                   Table::num(v.response_p99_s, 2)});
  };
  row("Handled by GRUBER", handled);
  row("NOT handled (fallback)", not_handled);
  row("All requests", all);
  table.render(os);
  os << "\n";
}

void render_wire(std::ostream& os, const net::wire::WireStats& stats) {
  os << "== wire traffic by category ==\n";
  Table table({"category", "encodes", "bytes"});
  const auto row = [&](const char* name, std::uint64_t encodes,
                       std::uint64_t bytes) {
    table.add_row({name, Table::num(double(encodes), 0),
                   Table::num(double(bytes), 0)});
  };
  using net::wire::MsgCategory;
  const auto category = [&](const char* name, MsgCategory c) {
    row(name, stats.encodes(c), stats.bytes(c));
  };
  category("queries", MsgCategory::kQuery);
  category("state exchange", MsgCategory::kStateExchange);
  category("control", MsgCategory::kControl);
  category("other", MsgCategory::kOther);
  row("total", stats.total_encodes(), stats.total_bytes());
  table.render(os);
  os << "\n";
}

}  // namespace digruber::diperf
