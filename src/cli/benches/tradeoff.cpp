// E1 "trade-off curve" — Theorem 1.2.
//
// For each jamming-tolerance regime g ∈ {const, log, 2^√log}, run the CJZ
// algorithm against a smooth adversary that saturates both budgets
// (arrivals ≈ t/(8·f(t)), jamming ≈ t/(8·g(t))) and measure the
// (f,g)-throughput ratio  a_t / (n_t·f(t) + d_t·g(t))  as t grows.
//
// Paper prediction: the ratio stays O(1) for every regime (the algorithm
// achieves (Θ(f), Θ(g))-throughput with f = Θ(log t / log² g)). In the
// 2^√log regime f is constant — constant throughput per Remark 2.
#include <algorithm>
#include <ostream>

#include "cli/bench_driver.hpp"
#include "cli/benches/benches.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"
#include "metrics/throughput_check.hpp"
#include "metrics/windowed.hpp"

namespace cr::benches {

namespace {

struct Regime {
  const char* label;
  FunctionSet fs;
};

struct Rep {
  SimResult res;
  double final_ratio = 0;
  double max_ratio = 0;
};

void run_regime(const Regime& regime, const BenchDriver& driver, int reps, int min_exp,
                int max_exp, Table& table) {
  for (int e = min_exp; e <= max_exp; e += 2) {
    const slot_t t = static_cast<slot_t>(1) << e;
    const auto runs = driver.replicate(reps, driver.seed(9000), [&](std::uint64_t s) {
      Scenario sc = smooth_scenario(t, regime.fs, 8.0, 8.0);
      sc.config.seed = s;
      ThroughputChecker checker(sc.fs);
      Rep rep;
      rep.res = run_scenario(EngineRegistry::instance().preferred(sc.protocol), sc, &checker);
      rep.final_ratio = checker.final_ratio();
      rep.max_ratio = checker.max_ratio();
      return rep;
    });
    Accumulator final_ratio, max_ratio, arrivals, jammed, active, served;
    for (const Rep& rep : runs) {
      final_ratio.add(rep.final_ratio);
      max_ratio.add(rep.max_ratio);
      arrivals.add(static_cast<double>(rep.res.arrivals));
      jammed.add(static_cast<double>(rep.res.jammed_slots));
      active.add(static_cast<double>(rep.res.active_slots));
      served.add(rep.res.arrivals ? static_cast<double>(rep.res.successes) /
                                        static_cast<double>(rep.res.arrivals)
                                  : 1.0);
    }
    const double td = static_cast<double>(t);
    table.add_row({regime.label, Cell(static_cast<std::uint64_t>(t)),
                   Cell(regime.fs.f(td), 3), Cell(regime.fs.g(td), 1),
                   Cell(arrivals.mean(), 0), Cell(jammed.mean(), 0), Cell(active.mean(), 0),
                   mean_sd(final_ratio, 3), mean_sd(max_ratio, 3), Cell(served.mean(), 3)});
  }
}

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  const int reps = driver.reps(10, 3);
  const int max_exp = static_cast<int>(driver.get_int("max_exp", 20, 16));
  const int min_exp = 14;

  out << "E1 (Theorem 1.2): (f,g)-throughput ratio vs t across g regimes\n"
      << "Smooth adversary saturating both budgets; ratio = a_t/(n_t f + d_t g).\n"
      << "Prediction: ratio stays O(1) in every regime as t grows.\n\n";

  Table table({"g regime", "t", "f(t)", "g(t)", "n_t", "d_t", "a_t", "ratio(final)",
               "ratio(max)", "served"});
  Regime regimes[] = {
      {"const(4)", functions_constant_g(4.0)},
      {"log2(x)", functions_log_g()},
      {"log2(x)^2", FunctionSet{fn::poly_log(1.0, 2.0)}},
      {"2^sqrt(log)", functions_exp_sqrt_log_g(1.0)},
  };
  for (const Regime& regime : regimes) run_regime(regime, driver, reps, min_exp, max_exp, table);
  table.print(out);

  // Optional: dump a per-window series (one representative seed per regime
  // at the largest t) for plotting — the (f,g) ratio from the checker plus
  // windowed throughput/backlog from the streaming WindowedMetrics observer,
  // both attached to the same run through an ObserverChain.
  if (driver.wants_csv()) {
    std::vector<std::vector<std::string>> rows;
    const slot_t t = static_cast<slot_t>(1) << max_exp;
    const slot_t window = std::max<slot_t>(1, t / 256);
    for (const Regime& regime : regimes) {
      Scenario sc = smooth_scenario(t, regime.fs, 8.0, 8.0);
      sc.config.seed = driver.seed(9000);
      ThroughputChecker checker(sc.fs, window);
      WindowedMetrics windows(window);
      ObserverChain chain{&checker, &windows};
      run_scenario(EngineRegistry::instance().preferred(sc.protocol), sc, &chain);
      const std::size_t n = std::min(checker.series().size(), windows.series().size());
      for (std::size_t i = 0; i < n; ++i) {
        const auto& pt = checker.series()[i];
        const WindowStats& win = windows.series()[i];
        rows.push_back({regime.label, std::to_string(pt.t), std::to_string(pt.n_t),
                        std::to_string(pt.d_t), std::to_string(pt.a_t),
                        format_double(pt.ratio, 5), std::to_string(win.successes),
                        format_double(win.live_mean, 2), std::to_string(win.live_max)});
      }
    }
    if (!driver.write_csv(rows)) return 1;
  }

  out << "\nReading: within each regime the ratio column is flat in t (bounded\n"
         "constant), i.e. active slots track n_t·f + d_t·g as Theorem 1.2 predicts.\n";
  return 0;
}

}  // namespace

BenchSpec tradeoff() {
  BenchSpec spec;
  spec.name = "tradeoff";
  spec.id = "E1";
  spec.summary = "(f,g)-throughput ratio vs t across g regimes (Thm 1.2)";
  spec.claim = "Theorem 1.2 (f,g)-throughput";
  spec.outcome =
      "ratio a_t/(n_t·f + d_t·g) flat in t for every g regime; constant throughput "
      "in the 2^√log regime (Remark 2)";
  spec.flags = {{"max_exp", "largest horizon exponent: t sweeps 2^14..2^max_exp "
                            "(default 20, quick 16)"}};
  spec.csv_columns = {"regime", "t",   "n_t",           "d_t",          "a_t",
                      "ratio",  "win_successes", "win_live_mean", "win_live_max"};
  spec.csv_row_desc =
      "one window of a representative largest-t run per regime (ThroughputChecker + "
      "WindowedMetrics series)";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches
