// E3 "batch completion" — Claim 3.5.1.
//
// h_data-batch (send w.p. 1/i in slot i — the standard implementation of
// binary exponential backoff) CANNOT deliver all n batch messages in O(n)
// slots w.h.p.; the CJZ algorithm finishes the same batch in Θ(n·f(n))
// slots (n·log n for g = const).
//
// Two measurements:
//   (a) P[all n delivered within c·n slots] for c ∈ {50, 200}: for h_data
//       this probability collapses toward 0 as n grows (that IS the claim);
//       for CJZ it is ~1 throughout.
//   (b) median slots to deliver 90% of the batch — a concentrated statistic
//       (the all-n completion time has a truncated-Pareto tail driven by
//       the lone-survivor phase, so its mean/median are very noisy).
#include <cmath>
#include <ostream>
#include <vector>

#include "cli/bench_driver.hpp"
#include "cli/benches/benches.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"
#include "metrics/metrics.hpp"
#include "protocols/batch.hpp"

namespace cr::benches {

namespace {

struct BatchStats {
  double p_done_by_50n = 0;
  double p_done_by_200n = 0;
  double median_90pct = 0;  ///< median slot of the ceil(0.9n)-th success
};

BatchStats measure(const ProtocolSpec& spec, std::uint64_t n, const BenchDriver& driver,
                   int reps, std::uint64_t base_seed) {
  const Engine& engine = EngineRegistry::instance().preferred(spec);
  const slot_t horizon = 400 * n;
  const auto results = driver.replicate(reps, base_seed, [&](std::uint64_t s) {
    Scenario sc = batch_scenario(n, 0.0, horizon, functions_constant_g(4.0));
    sc.protocol = spec;
    sc.config.seed = s;
    sc.config.recording = RecordingConfig::success_times();
    return run_scenario(engine, sc);
  });
  BatchStats out;
  Quantiles q90;
  for (const SimResult& res : results) {
    const std::uint64_t target90 = (9 * n + 9) / 10;
    if (res.success_times.size() >= target90)
      q90.add(static_cast<double>(res.success_times[target90 - 1]));
    else
      q90.add(static_cast<double>(horizon));  // censored
  }
  out.p_done_by_50n =
      fraction(results, [&](const SimResult& r) { return successes_in_window(r, 1, 50 * n) == n; });
  out.p_done_by_200n = fraction(
      results, [&](const SimResult& r) { return successes_in_window(r, 1, 200 * n) == n; });
  out.median_90pct = q90.median();
  return out;
}

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  const int reps = driver.reps(20, 8);
  const auto max_n = static_cast<std::uint64_t>(driver.get_int("max_n", 4096, 1024));

  out << "E3 (Claim 3.5.1): delivering ALL n batch messages\n"
      << "Prediction: P[h_data-batch finishes within c*n slots] -> 0 as n grows\n"
      << "(omega(n) completion w.h.p.), while CJZ finishes in Theta(n log n).\n\n";

  const ProtocolSpec cjz = cjz_protocol(functions_constant_g(4.0));
  const ProtocolSpec h_data = profile_protocol(profiles::h_data());

  Table table({"n", "protocol", "P[done<=50n]", "P[done<=200n]", "median slots to 90%",
               "90% slots /n"});
  std::vector<double> log_n, log_cjz90;
  for (std::uint64_t n = 128; n <= max_n; n <<= 1) {
    const BatchStats h = measure(h_data, n, driver, reps, driver.seed(21000));
    const BatchStats c = measure(cjz, n, driver, reps, driver.seed(22000));
    table.add_row({Cell(n), "h_data", Cell(h.p_done_by_50n, 2), Cell(h.p_done_by_200n, 2),
                   Cell(h.median_90pct, 0), Cell(h.median_90pct / static_cast<double>(n), 1)});
    table.add_row({Cell(n), "cjz", Cell(c.p_done_by_50n, 2), Cell(c.p_done_by_200n, 2),
                   Cell(c.median_90pct, 0), Cell(c.median_90pct / static_cast<double>(n), 1)});
    log_n.push_back(std::log2(static_cast<double>(n)));
    log_cjz90.push_back(std::log2(c.median_90pct));
  }
  table.print(out);

  if (!driver.write_csv(table)) return 1;

  const LinearFit fit_c = fit_linear(log_n, log_cjz90);
  out << "\nCJZ 90%-completion log-log slope = " << format_double(fit_c.slope, 2)
      << " (R2=" << format_double(fit_c.r2, 3) << ", ~1 expected: linear in n)\n"
      << "Reading: h_data's probability of finishing everything within a fixed\n"
         "multiple of n collapses as n grows — exactly Claim 3.5.1 — while CJZ\n"
         "finishes every time with near-linear scaling.\n";
  return 0;
}

}  // namespace

BenchSpec batch_completion() {
  BenchSpec spec;
  spec.name = "batch_completion";
  spec.id = "E3";
  spec.summary = "delivering ALL n batch messages (Claim 3.5.1)";
  spec.claim = "Claim 3.5.1";
  spec.outcome =
      "P[h_data finishes within c·n] → 0 as n grows; CJZ finishes every time, "
      "~linear 90%-completion scaling";
  spec.flags = {{"max_n", "largest batch size: n sweeps 128..max_n doubling "
                          "(default 4096, quick 1024)"}};
  spec.csv_columns = {"n", "protocol", "p_done_50n", "p_done_200n", "median_slots_90pct",
                      "slots90_over_n"};
  spec.csv_row_desc = "one (n, protocol) cell; empirical probabilities and medians over reps";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches
