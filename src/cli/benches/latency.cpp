// E9 "latency under smooth adversaries" — Corollary 3.6.
//
// Under a "smooth" adversary (arrivals O(j/f(j)) and jamming O(j/g(j)) in
// every suffix window of length j), every node arriving before slot t−j has
// departed by slot t w.h.p. in j. Operationally: latency tails are bounded
// by j ≈ latency·f-factor, and the maximum latency grows slowly with the
// run length.
//
// A trickle of single arrivals would make latency trivially 1 (a lone
// node's stage-0 backoff wins its arrival slot), so we use the burstiest
// arrival pattern that still satisfies the smooth budget — the registered
// "bursty" scenario: batches of B nodes every ceil(16·B·f(t)) slots, with
// budget-paced jamming on top. The interesting quantity is how the latency
// tail scales with B and with the g regime; a WindowedMetrics observer
// streams the backlog alongside, whose peak should stay ~one burst.
//
// Runs on the registry's preferred engine (fast_cjz attributes node stats).
// The --csv table is diffed against tests/golden/bench_latency_quick.csv by
// the golden CTest entry — keep its byte format stable.
#include <ostream>

#include "cli/bench_driver.hpp"
#include "cli/benches/benches.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"
#include "metrics/metrics.hpp"
#include "metrics/windowed.hpp"

namespace cr::benches {

namespace {

struct Rep {
  LatencyReport lat;
  std::uint64_t peak_backlog = 0;
};

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  const int reps = driver.reps(10, 4);
  const int max_exp = static_cast<int>(driver.get_int("max_exp", 18, 16));

  out << "E9 (Corollary 3.6): node latency under smooth adversaries\n"
      << "Paced arrivals 1/(8f), budget jamming 1/(8g). Latency = slots in system.\n\n";

  Table table({"g regime", "t", "burst B", "departed", "stranded", "lat p50", "lat p99",
               "lat max", "peak backlog", "p99/(B f)"});
  std::vector<std::vector<std::string>> csv_rows;
  struct Regime {
    const char* label;
    const char* name;  ///< functions_for_regime key
    double gamma;      ///< const's value / exp_sqrt_log's scale
  } regimes[] = {
      {"const(4)", "const", 4.0},
      {"log2(x)", "log", 4.0},  // gamma unused
      {"2^sqrt(log)", "exp_sqrt_log", 1.0},
  };
  const slot_t t = static_cast<slot_t>(1) << max_exp;
  for (const auto& regime : regimes) {
    const FunctionSet fs = functions_for_regime(regime.name, regime.gamma);
    for (const std::uint64_t burst : {16ull, 64ull, 256ull}) {
      const double ft = fs.f(static_cast<double>(t));
      ScenarioParams params;
      params.horizon = t;
      params.n = burst;
      params.arrival_margin = 16.0;
      params.jam_margin = 8.0;
      params.g_regime = regime.name;
      params.gamma = regime.gamma;
      const auto runs = driver.replicate(reps, driver.seed(81000), [&](std::uint64_t s) {
        ScenarioParams p = params;
        p.seed = s;
        Scenario sc = ScenarioRegistry::instance().build("bursty", p);
        sc.config.recording = RecordingConfig::node_stats();
        WindowedMetrics windows(std::max<slot_t>(1, t / 64));
        const SimResult res =
            run_scenario(EngineRegistry::instance().preferred(sc.protocol), sc, &windows);
        return Rep{latency_report(res), windows.peak_backlog()};
      });
      Accumulator departed, stranded, p50, p99, maxv, backlog;
      for (const Rep& rep : runs) {
        departed.add(static_cast<double>(rep.lat.departed));
        stranded.add(static_cast<double>(rep.lat.stranded));
        p50.add(rep.lat.p50);
        p99.add(rep.lat.p99);
        maxv.add(rep.lat.max);
        backlog.add(static_cast<double>(rep.peak_backlog));
      }
      table.add_row({regime.label, Cell(static_cast<std::uint64_t>(t)), Cell(burst),
                     Cell(departed.mean(), 0), Cell(stranded.mean(), 1), Cell(p50.mean(), 0),
                     Cell(p99.mean(), 0), Cell(maxv.mean(), 0), Cell(backlog.mean(), 1),
                     Cell(p99.mean() / (static_cast<double>(burst) * ft), 2)});
      // Every CSV value is a mean of integer-valued samples — exact IEEE
      // arithmetic, so the bytes are reproducible on a given platform and
      // can be golden-diffed. The p99/(B·f) ratio is deliberately
      // excluded: f(t) feeds straight through libm into the output and
      // would differ in the last ulp across platforms.
      csv_rows.push_back({regime.label, std::to_string(t), std::to_string(burst),
                          format_double(departed.mean(), 17), format_double(stranded.mean(), 17),
                          format_double(p50.mean(), 17), format_double(p99.mean(), 17),
                          format_double(maxv.mean(), 17), format_double(backlog.mean(), 17)});
    }
  }
  table.print(out);

  if (!driver.write_csv(csv_rows)) return 1;

  out << "\nReading: p99 latency scales like burst·f (the last column is a roughly\n"
         "constant service factor), peak backlog and stranded counts stay ~one burst —\n"
         "every node that arrived before the tail window departs, as Corollary 3.6\n"
         "predicts for smooth adversaries.\n";
  return 0;
}

}  // namespace

BenchSpec latency() {
  BenchSpec spec;
  spec.name = "latency";
  spec.id = "E9";
  spec.summary = "node latency under smooth adversaries (Cor 3.6)";
  spec.claim = "Corollary 3.6 (smooth adversaries)";
  spec.outcome =
      "p99 latency ~ burst·f (constant service factor); stranded count and peak "
      "backlog ~ one burst";
  spec.flags = {{"max_exp", "horizon exponent: runs at t = 2^max_exp (default 18, quick 16)"}};
  spec.csv_columns = {"regime", "t",       "burst",   "departed",    "stranded",
                      "lat_p50", "lat_p99", "lat_max", "peak_backlog"};
  spec.csv_row_desc =
      "one (g regime, burst) cell at t = 2^max_exp; means over reps (exact IEEE "
      "means of integers — golden-diffable)";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches
