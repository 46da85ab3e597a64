// Ablation: the three information-dissemination strategies of Section 3.5
// under the paper's 3-decision-point GT3 deployment —
//   1) USLA/snapshot state + usage exchanged,
//   2) usage (dispatch records) only  [the paper's choice],
//   3) no exchange at all.
// *How* the chosen strategy's records travel (the src/overlay/ strategies)
// is swept by ablation_topology.
#include <iostream>

#include "bench_util.hpp"

using namespace digruber;
using ::digruber::digruber::Dissemination;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);

  struct Row {
    const char* name;
    Dissemination strategy;
  };
  const Row rows[] = {
      {"1: USLAs + usage", Dissemination::kUslaAndUsage},
      {"2: usage only (paper)", Dissemination::kUsageOnly},
      {"3: none", Dissemination::kNone},
  };

  Table table({"Strategy", "Accuracy (handled)", "QTime (s)", "Exchanges",
               "Records applied", "Response (s)"});
  for (const Row& row : rows) {
    experiments::ScenarioConfig cfg =
        bench::paper_config(args, net::ContainerProfile::gt3(), 3);
    cfg.name = std::string("dissemination-") + row.name;
    cfg.dissemination = row.strategy;
    const experiments::ScenarioResult r = experiments::run_scenario(cfg);

    std::uint64_t exchanges = 0, applied = 0;
    for (const auto& dp : r.dps) {
      exchanges += dp.exchanges_sent;
      applied += dp.records_applied;
    }
    table.add_row({row.name, Table::pct(r.handled.accuracy),
                   Table::num(r.handled.qtime_s, 1), std::to_string(exchanges),
                   std::to_string(applied), Table::num(r.handled.response_s, 2)});
  }
  std::cout << "== Ablation: Dissemination Strategies (3 GT3 decision points) ==\n";
  table.render(std::cout);
  std::cout << "Strategy 3 loses accuracy (each decision point is blind to\n"
               "2/3 of dispatches). Strategy 1 is heavier on the wire and, at\n"
               "high load, actively *worse* than strategy 2: exchanged state\n"
               "estimates blur the receiver's own precise dispatch records, so\n"
               "decision points herd toward the same seemingly-free sites\n"
               "(watch the QTime column). The paper's choice of strategy 2 is\n"
               "justified by robustness as well as simplicity.\n";
  return 0;
}
