// S1 "scenario" — generic registry-scenario runner.
//
// Unlike the E-numbered benches (each tied to one paper claim with a fixed
// sweep), this subcommand runs ANY registered scenario at one parameter
// point and reports the aggregate counters, means over --reps seeds. It is
// the composition primitive for suite manifests: a grid over
// (--scenario, --n, --jam, ...) turns one manifest cell block into an
// arbitrary workload sweep without writing a new bench.
//
//   cr bench scenario --scenario=bursty --n=64 --jam_margin=8 --reps=8
//   cr suite run ... with "grid": {"scenario": ["batch","worst_case"], ...}
#include <cstdio>
#include <ostream>

#include "cli/bench_driver.hpp"
#include "cli/benches/benches.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"
#include "exp/workload.hpp"

namespace cr::benches {

namespace {

/// The ScenarioParams-backed flags of this bench (everything except
/// --scenario/--engine). Each preset declares which of these it consumes
/// (ScenarioEntry::params); passing one a preset ignores is a hard error —
/// the same no-silent-no-op rule the WorkloadSpec API enforces.
const std::vector<std::string>& scenario_param_flags() {
  static const std::vector<std::string> flags = {
      "horizon", "n", "jam", "rate", "arrival_margin", "jam_margin", "g_regime", "gamma"};
  return flags;
}

/// "" when every explicitly-passed param flag is consumed by `entry` under
/// `g_regime`, else an error naming the first offending key. The g=log
/// regime has no scale, so an explicit --gamma there is the same silent
/// no-op the WorkloadSpec validator rejects (functions_log_g ignores it).
std::string check_consumed(const ScenarioEntry& entry,
                           const std::vector<std::string>& passed,
                           const std::string& g_regime) {
  for (const std::string& name : passed) {
    if (name == "gamma" && g_regime == "log")
      return "scenario \"" + entry.name + "\" does not consume --gamma under "
             "--g_regime=log (the log regime has no scale; it would be a silent no-op); "
             "drop it or pick const/exp_sqrt_log";
    if (entry.consumes(name)) continue;
    std::string consumed;
    for (const std::string& p : entry.params) consumed += " " + p;
    return "scenario \"" + entry.name + "\" does not consume --" + name +
           " (it would be a silent no-op); its parameters are:" + consumed;
  }
  return "";
}

std::string validate_cell(const std::vector<std::pair<std::string, std::string>>& flags) {
  std::string scenario_name = "batch";
  std::string g_regime = "const";
  for (const auto& [key, value] : flags) {
    if (key == "scenario") scenario_name = value;
    if (key == "g_regime") g_regime = value;
  }
  const ScenarioEntry* entry = ScenarioRegistry::instance().find(scenario_name);
  if (entry == nullptr) {
    std::string error = "unknown scenario \"" + scenario_name + "\"";
    const std::string hint =
        closest_match(scenario_name, ScenarioRegistry::instance().names());
    if (!hint.empty()) error += " (did you mean \"" + hint + "\"?)";
    error += "; known scenarios:";
    for (const std::string& name : ScenarioRegistry::instance().names()) error += " " + name;
    return error;
  }
  std::vector<std::string> passed;
  for (const auto& [key, value] : flags)
    for (const std::string& param : scenario_param_flags())
      if (key == param) passed.push_back(key);
  return check_consumed(*entry, passed, g_regime);
}

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  const int reps = driver.reps(8, 3);

  ScenarioParams params;
  params.horizon = static_cast<slot_t>(driver.get_int("horizon", 1 << 16, 1 << 14));
  params.n = static_cast<std::uint64_t>(driver.get_int("n", 256, 128));
  params.jam = driver.cli().get_double("jam", 0.25);
  params.rate = driver.cli().get_double("rate", 0.1);
  params.arrival_margin = driver.cli().get_double("arrival_margin", 4.0);
  params.jam_margin = driver.cli().get_double("jam_margin", 8.0);
  params.g_regime = driver.cli().get_string("g_regime", "const");
  params.gamma = driver.cli().get_double("gamma", 4.0);
  const std::string scenario_name = driver.cli().get_string("scenario", "batch");
  const std::string engine_name = driver.cli().get_string("engine", "preferred");

  // Validate the scenario name and the passed params before burning any
  // replication time: an unknown scenario exits 2 with a suggestion, and a
  // param this preset does not consume is a hard error instead of a silent
  // no-op (the suite validator applies the same rule at parse time).
  const ScenarioEntry* entry = ScenarioRegistry::instance().find(scenario_name);
  std::string error;
  if (entry == nullptr) {
    std::vector<std::pair<std::string, std::string>> probe_flags = {
        {"scenario", scenario_name}};
    error = validate_cell(probe_flags);
  } else {
    std::vector<std::string> passed;
    for (const std::string& name : scenario_param_flags())
      if (driver.cli().has(name)) passed.push_back(name);
    error = check_consumed(*entry, passed, params.g_regime);
  }
  if (!error.empty()) {
    std::fprintf(stderr, "cr bench scenario: %s\n", error.c_str());
    return 2;
  }

  // Resolve the engine from one probe build — the protocol spec does not
  // depend on the seed, so it picks the engine for every replication.
  const Scenario probe = ScenarioRegistry::instance().build(scenario_name, params);
  const Engine& engine = engine_name == "preferred"
                             ? EngineRegistry::instance().preferred(probe.protocol)
                             : EngineRegistry::instance().at(engine_name);
  if (!engine.supports(probe.protocol)) {
    std::string compatible;
    for (const Engine* candidate : EngineRegistry::instance().compatible(probe.protocol)) {
      compatible += ' ';
      compatible += candidate->name();
    }
    std::fprintf(stderr,
                 "cr bench scenario: engine \"%s\" cannot execute scenario \"%s\"'s protocol; "
                 "compatible engines:%s\n",
                 engine_name.c_str(), scenario_name.c_str(), compatible.c_str());
    return 2;
  }
  const std::string engine_used = engine.name();

  out << "S1: scenario \"" << scenario_name << "\" at one parameter point, engine "
      << engine_used << ", means over " << reps << " seeds\n\n";

  // replicate_scenario picks the lockstep sweep path or the per-seed harness
  // loop from the engine.
  const auto results = replicate_scenario(engine, scenario_name, params, reps,
                                          driver.seed(50000), driver.threads());

  const auto slots =
      collect(results, [](const SimResult& r) { return static_cast<double>(r.slots); });
  const auto arrivals =
      collect(results, [](const SimResult& r) { return static_cast<double>(r.arrivals); });
  const auto successes =
      collect(results, [](const SimResult& r) { return static_cast<double>(r.successes); });
  const auto jammed =
      collect(results, [](const SimResult& r) { return static_cast<double>(r.jammed_slots); });
  const auto served = collect(results, [](const SimResult& r) {
    return r.arrivals ? static_cast<double>(r.successes) / static_cast<double>(r.arrivals)
                      : 1.0;
  });
  const auto sends =
      collect(results, [](const SimResult& r) { return static_cast<double>(r.total_sends); });
  const auto backlog =
      collect(results, [](const SimResult& r) { return static_cast<double>(r.live_at_end); });

  Table table({"scenario", "engine", "horizon", "n", "jam", "slots", "arrivals", "successes",
               "jammed", "served", "sends", "backlog at end"});
  table.add_row({scenario_name, engine_used, Cell(static_cast<std::uint64_t>(params.horizon)),
                 Cell(params.n), Cell(params.jam, 2), Cell(slots.mean(), 0),
                 Cell(arrivals.mean(), 1), Cell(successes.mean(), 1), Cell(jammed.mean(), 1),
                 Cell(served.mean(), 3), Cell(sends.mean(), 1), mean_sd(backlog, 1)});
  table.print(out);

  if (!driver.write_csv(table)) return 1;

  out << "\nReading: one row per invocation by design — sweeps come from suite grids\n"
         "(see suites/*.json), which expand a cell block into many invocations and\n"
         "concatenate the per-cell CSVs.\n";
  return 0;
}

}  // namespace

BenchSpec scenario() {
  BenchSpec spec;
  spec.name = "scenario";
  spec.id = "S1";
  spec.summary = "generic registry-scenario runner (suite composition primitive)";
  spec.claim = "— (runs any ScenarioRegistry workload)";
  spec.outcome =
      "one CSV row of aggregate counters for the named scenario at one parameter "
      "point; sweeps come from suite grids";
  spec.flags = {
      {"scenario", "ScenarioRegistry workload name (default batch)"},
      {"engine", "engine name, or \"preferred\" for the fastest compatible (default)"},
      {"horizon", "slot horizon (default 65536, quick 16384)"},
      {"n", "batch / burst size (default 256, quick 128)"},
      {"jam", "i.i.d. jam fraction (default 0.25)"},
      {"rate", "Bernoulli arrival rate, bernoulli_stream only (default 0.1)"},
      {"arrival_margin", "paced-arrival margin, worst_case/smooth/bursty (default 4)"},
      {"jam_margin", "budget-paced jam margin, smooth/bursty (default 8)"},
      {"g_regime", "g regime: const | log | exp_sqrt_log (default const)"},
      {"gamma", "const-g value / exp_sqrt_log scale (default 4)"},
  };
  spec.validate_cell = validate_cell;
  spec.csv_columns = {"scenario", "engine", "horizon", "n",      "jam",   "slots",
                      "arrivals", "successes", "jammed", "served", "sends", "backlog_at_end"};
  spec.csv_row_desc = "exactly one row: aggregate counters, means over reps";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches
