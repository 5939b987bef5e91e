// E7 "baseline comparison" — related-work framing (§1).
//
// Plain backoff schemes (binary exponential, polynomial, sawtooth) are known
// not to deliver constant throughput on batch arrivals; the CJZ algorithm
// does (up to its f factor). We race them on an n-node batch with no
// jamming and report the median completion time (capped at the horizon) and
// the fraction delivered within 32n slots.
//
// Every contender is a ProtocolSpec; the registry picks the fastest engine
// that can execute it (cohort engines for CJZ and the probability profile,
// the per-node reference engine for the windowed schemes).
#include <ostream>
#include <vector>

#include "cli/bench_driver.hpp"
#include "cli/benches/benches.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"
#include "metrics/metrics.hpp"
#include "protocols/baselines.hpp"
#include "protocols/batch.hpp"

namespace cr::benches {

namespace {

struct Contender {
  const char* label;
  ProtocolSpec spec;
};

std::vector<Contender> contenders(bool with_profile) {
  std::vector<Contender> out;
  out.push_back({"cjz", cjz_protocol(functions_constant_g(4.0))});
  out.push_back({"beb", factory_protocol("windowed-beb", [] {
                   return windowed_backoff_factory({});
                 })});
  out.push_back({"sawtooth", factory_protocol("windowed-sawtooth", [] {
                   return windowed_backoff_factory({.scheme = WindowScheme::kSawtooth});
                 })});
  out.push_back({"poly", factory_protocol("windowed-poly", [] {
                   return windowed_backoff_factory(
                       {.scheme = WindowScheme::kPolynomial, .poly_exponent = 2.0});
                 })});
  if (with_profile) out.push_back({"h_data", profile_protocol(profiles::h_data())});
  return out;
}

struct Outcome {
  double median_completion;
  double frac_by_32n;
  bool capped;
};

Outcome race(const ProtocolSpec& spec, std::uint64_t n, const BenchDriver& driver, int reps,
             std::uint64_t base_seed) {
  const Engine& engine = EngineRegistry::instance().preferred(spec);
  const slot_t horizon = 4000 * n;
  const auto results = driver.replicate(reps, base_seed, [&](std::uint64_t s) {
    Scenario sc = batch_scenario(n, 0.0, horizon, functions_constant_g(4.0));
    sc.protocol = spec;
    sc.config.seed = s;
    sc.config.stop_when_empty = true;
    sc.config.recording = RecordingConfig::success_times();
    return run_scenario(engine, sc);
  });
  Quantiles completion;
  Accumulator frac;
  bool capped = false;
  for (const SimResult& res : results) {
    if (res.live_at_end != 0) capped = true;
    completion.add(static_cast<double>(res.live_at_end == 0 ? res.last_success : res.slots));
    frac.add(static_cast<double>(successes_in_window(res, 1, 32 * n)) /
             static_cast<double>(n));
  }
  return {completion.median(), frac.mean(), capped};
}

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  const bool quick = driver.quick();
  const int reps = driver.reps(7, 3);
  const auto max_n = static_cast<std::uint64_t>(driver.get_int("max_n", 512, 256));

  out << "E7: CJZ vs classical backoff baselines on an n-node batch (no jamming)\n"
      << "median completion (slots; '>' = some runs hit the horizon cap) and\n"
      << "fraction delivered within 32n slots.\n\n";

  Table table({"n", "protocol", "median completion", "completion/n", "frac by 32n"});
  for (std::uint64_t n = 64; n <= max_n; n <<= 1) {
    for (const Contender& c : contenders(/*with_profile=*/true)) {
      const Outcome o = race(c.spec, n, driver, reps, driver.seed(61000));
      std::string med = o.capped ? ">" : "";
      med += format_double(o.median_completion, 0);
      table.add_row({Cell(n), c.label, med,
                     Cell(o.median_completion / static_cast<double>(n), 1),
                     Cell(o.frac_by_32n, 3)});
    }
  }
  table.print(out);

  if (!driver.write_csv(table)) return 1;

  out << "\nReading: on a clean batch the windowed schemes and CJZ are all ~n·polylog\n"
         "(constants differ); the probability-profile BEB (h_data) collapses. The\n"
         "structural separations show under dynamic arrivals and jamming:\n\n";

  // E7b/E7c are narrative-only (outside the CSV schema), so under --quiet
  // their entire computation would stream into the null sink — skip it.
  if (driver.quiet()) return 0;

  // E7b: sustained arrival stream, moderate and overload rates.
  out << "E7b: Bernoulli arrival stream for t slots, no jamming\n\n";
  Table t2({"t", "rate", "protocol", "arrivals", "served", "backlog at end"});
  const slot_t t = quick ? (1 << 15) : (1 << 17);
  for (const double rate : {0.1, 0.45}) {
    for (const Contender& c : contenders(/*with_profile=*/false)) {
      const Engine& engine = EngineRegistry::instance().preferred(c.spec);
      ScenarioParams params;
      params.horizon = t;
      params.rate = rate;
      params.jam = 0.0;
      const auto results = driver.replicate(reps, driver.seed(66000), [&](std::uint64_t s) {
        ScenarioParams p = params;
        p.seed = s;
        Scenario sc = ScenarioRegistry::instance().build("bernoulli_stream", p);
        sc.protocol = c.spec;
        return run_scenario(engine, sc);
      });
      const auto arrivals =
          collect(results, [](const SimResult& r) { return static_cast<double>(r.arrivals); });
      const auto served = collect(results, [](const SimResult& r) {
        return r.arrivals ? static_cast<double>(r.successes) / static_cast<double>(r.arrivals)
                          : 1.0;
      });
      const auto backlog =
          collect(results, [](const SimResult& r) { return static_cast<double>(r.live_at_end); });
      t2.add_row({Cell(static_cast<std::uint64_t>(t)), Cell(rate, 2), c.label,
                  Cell(arrivals.mean(), 0), Cell(served.mean(), 3), mean_sd(backlog, 1)});
    }
  }
  t2.print(out);

  // E7c: batch under 25% jamming.
  out << "\nE7c: batch of n under 25% i.i.d. jamming — fraction delivered by 64n\n\n";
  Table t3({"n", "protocol", "frac by 64n"});
  const std::uint64_t nj = quick ? 128 : 256;
  for (const Contender& c : contenders(/*with_profile=*/true)) {
    const Engine& engine = EngineRegistry::instance().preferred(c.spec);
    const auto results = driver.replicate(reps, driver.seed(67000), [&](std::uint64_t s) {
      Scenario sc = batch_scenario(nj, 0.25, 64 * nj, functions_constant_g(4.0));
      sc.protocol = c.spec;
      sc.config.seed = s;
      return run_scenario(engine, sc);
    });
    const auto frac = collect(results, [&](const SimResult& r) {
      return static_cast<double>(r.successes) / static_cast<double>(nj);
    });
    t3.add_row({Cell(nj), c.label, mean_sd(frac, 3)});
  }
  t3.print(out);

  out << "\nReading (honest): on benign workloads — clean batches, Bernoulli streams,\n"
         "even i.i.d. jamming — the windowed schemes are competitive with CJZ (their\n"
         "constants are smaller; CJZ pays its f = Theta(log) overhead). The paper's\n"
         "separations are adversarial: the probability-profile BEB collapses on\n"
         "batches (E3/Claim 3.5.1), and every windowed scheme is a non-adaptive\n"
         "sequence in Theorem 4.2's sense, losing to h-backoff under prefix jamming\n"
         "(see `cr bench nonadaptive`). CJZ is the only contender with worst-case\n"
         "guarantees across all of these at once.\n";
  return 0;
}

}  // namespace

BenchSpec baselines() {
  BenchSpec spec;
  spec.name = "baselines";
  spec.id = "E7";
  spec.summary = "CJZ vs classical backoff baselines";
  spec.claim = "§1 related-work framing";
  spec.outcome =
      "on benign workloads windowed schemes are competitive; h_data collapses on "
      "batches; only CJZ has worst-case guarantees across all tables";
  spec.flags = {{"max_n", "largest batch size for the race table (default 512, quick 256)"}};
  spec.csv_columns = {"n", "protocol", "median_completion", "completion_over_n",
                      "frac_by_32n"};
  spec.csv_row_desc =
      "one (n, protocol) cell of the clean-batch race (E7b/E7c tables are "
      "narrative-only); '>' prefixes horizon-capped medians";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches
