// S2 "workload" — composable WorkloadSpec runner.
//
// Where `cr bench scenario` runs a NAMED preset, this subcommand composes a
// workload from first principles: any registered arrival process × any
// registered jammer × g regime × named protocol, each component configured
// through its own ParamSchema via dotted flags:
//
//   cr bench workload --arrival=bernoulli --arrival.rate=0.2
//                     --jammer=reactive --jammer.burst=3 --protocol=cjz
//
// Every key is validated against the component registries before anything
// runs — an unknown or unconsumed parameter is a hard error naming the key
// (exit 2), both here and at suite-manifest parse time (validate_cell). The
// same grid works from a suite cell, e.g.
//   "grid": {"arrival": ["batch", "paced"], "jammer": ["none", "iid"]}
// — the (arrival × jammer) product with zero new C++.
#include <cstdio>
#include <fstream>
#include <ostream>

#include "cli/benches/benches.hpp"
#include "common/table.hpp"
#include "exp/bench_driver.hpp"
#include "exp/harness.hpp"
#include "exp/workload.hpp"

namespace cr::benches {

namespace {

bool is_component_param(const std::string& name) {
  return name.rfind("arrival.", 0) == 0 || name.rfind("jammer.", 0) == 0;
}

/// Flags the driver layer owns; everything else a workload invocation
/// carries is a workload key.
bool is_driver_flag(const std::string& name) {
  if (name == "engine") return true;
  for (const BenchFlag& flag : BenchDriver::standard_flags())
    if (flag.name == name) return true;
  return false;
}

/// Shared by the CLI path and the suite validator: split `flags` into
/// workload keys, parse + validate them, resolve the engine. Returns "" and
/// fills the outputs on success.
std::string resolve(const std::vector<std::pair<std::string, std::string>>& flags,
                    const std::string& engine_name, WorkloadParse* parsed,
                    const Engine** engine) {
  std::vector<std::pair<std::string, std::string>> kvs;
  for (const auto& [key, value] : flags)
    if (!is_driver_flag(key)) kvs.emplace_back(key, value);
  *parsed = parse_workload(kvs);
  if (!parsed->ok()) return parsed->error;
  // Engine choice needs only the protocol spec — do NOT materialise the
  // workload here: suite validation runs this per expanded cell, and some
  // arrival processes (uniform_random) pay construction costs proportional
  // to their parameters.
  const ProtocolSpec protocol = workload_protocol(
      parsed->spec.protocol, functions_for_regime(parsed->spec.g_regime, parsed->spec.gamma));
  if (engine_name == "preferred") {
    *engine = &EngineRegistry::instance().preferred(protocol);
  } else {
    *engine = EngineRegistry::instance().find(engine_name);
    if (*engine == nullptr) {
      std::string error = "unknown engine \"" + engine_name + "\"; known engines:";
      for (const std::string& name : EngineRegistry::instance().names()) error += " " + name;
      error += " (or \"preferred\")";
      return error;
    }
    if (!(*engine)->supports(protocol)) {
      std::string error = "engine \"" + engine_name + "\" cannot execute protocol \"" +
                          parsed->spec.protocol + "\"; compatible engines:";
      for (const Engine* candidate : EngineRegistry::instance().compatible(protocol)) {
        error += ' ';
        error += candidate->name();
      }
      return error;
    }
  }
  return "";
}

int run(int argc, const char* const* argv) {
  const BenchSpec& self = workload();
  const BenchDriver driver(argc, argv,
                           {self.id, self.summary, self.flags, is_component_param});
  std::ostream& out = driver.out();
  const int reps = driver.reps(8, 3);
  const std::string engine_name = driver.cli().get_string("engine", "preferred");

  std::vector<std::pair<std::string, std::string>> flags;
  for (const auto& [key, value] : driver.cli().raw_flags()) flags.emplace_back(key, value);
  WorkloadParse parsed;
  const Engine* engine = nullptr;
  if (const std::string error = resolve(flags, engine_name, &parsed, &engine);
      !error.empty()) {
    std::fprintf(stderr, "cr bench workload: %s\n", error.c_str());
    return 2;
  }
  WorkloadSpec spec = parsed.spec;
  if (!driver.cli().has("horizon"))
    spec.horizon = static_cast<slot_t>(driver.get_int("horizon", 1 << 16, 1 << 14));

  // One probe build names the composition for the narrative line; every
  // replication builds a fresh adversary (stateful, consumed per run).
  spec.seed = driver.seed(60000);
  const std::string composed = build_workload(spec).adversary->name();

  out << "S2: workload " << composed << ", g=" << spec.g_regime << ", protocol "
      << spec.protocol << ", engine " << engine->name() << ", means over " << reps
      << " seeds\n\n";

  // replicate_workload picks the lockstep sweep path or the per-seed harness
  // loop from the engine.
  const auto results =
      replicate_workload(*engine, spec, reps, driver.seed(60000), driver.threads());

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

  Table table({"arrival", "jammer", "g", "protocol", "engine", "horizon", "slots", "arrivals",
               "successes", "jammed", "served", "sends", "backlog at end"});
  table.add_row({spec.arrival.name, spec.jammer.name, spec.g_regime, spec.protocol,
                 engine->name(), Cell(static_cast<std::uint64_t>(spec.horizon)),
                 Cell(slots.mean(), 0), Cell(arrivals.mean(), 1), Cell(successes.mean(), 1),
                 Cell(jammed.mean(), 1), Cell(served.mean(), 3), Cell(sends.mean(), 1),
                 mean_sd(backlog, 1)});
  table.print(out);

  const std::string csv_path = driver.csv_path("workload.csv");
  if (!csv_path.empty()) {
    std::ofstream file(csv_path);
    write_table_csv(table, workload().csv_columns, file);
    out << "\ntable written to " << csv_path << "\n";
  }

  out << "\nReading: one row per invocation by design — grids over\n"
         "(arrival × jammer × g × protocol) come from suite manifests\n"
         "(see suites/workload_grid_quick.json).\n";
  return 0;
}

std::string validate_cell(const std::vector<std::pair<std::string, std::string>>& flags) {
  std::string engine_name = "preferred";
  for (const auto& [key, value] : flags)
    if (key == "engine") engine_name = value;
  WorkloadParse parsed;
  const Engine* engine = nullptr;
  return resolve(flags, engine_name, &parsed, &engine);
}

}  // namespace

BenchSpec workload() {
  BenchSpec spec;
  spec.name = "workload";
  spec.id = "S2";
  spec.summary = "composable WorkloadSpec runner (arrival × jammer × g × protocol)";
  spec.claim = "— (runs any registered component composition)";
  spec.outcome =
      "one CSV row of aggregate counters for the composed workload at one "
      "parameter point; grids come from suite manifests";
  spec.flags = {
      {"arrival", "ArrivalRegistry component name (default none); parameters via "
                  "--arrival.<param>"},
      {"jammer", "JammerRegistry component name (default none); parameters via "
                 "--jammer.<param>"},
      {"g", "g regime: const | log | exp_sqrt_log (default const)"},
      {"gamma", "const-g value / exp_sqrt_log scale (default 4; rejected under g=log)"},
      {"protocol", "named protocol: cjz | h_backoff | h_data | beb | sawtooth | poly "
                   "(default cjz)"},
      {"engine", "engine name, or \"preferred\" for the fastest compatible (default)"},
      {"horizon", "slot horizon (default 65536, quick 16384)"},
  };
  spec.allows_flag = is_component_param;
  spec.validate_cell = validate_cell;
  spec.csv_columns = {"arrival", "jammer", "g",      "protocol", "engine",
                      "horizon", "slots",  "arrivals", "successes", "jammed",
                      "served",  "sends",  "backlog_at_end"};
  spec.csv_row_desc = "exactly one row: aggregate counters, means over reps";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches
