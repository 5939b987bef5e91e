// P1 "perf" — engine throughput trajectory.
//
// Times every engine that can run a scenario against that scenario at fixed
// seeds and reports slots/sec and runs/sec, plus the lockstep-vs-fast_cjz
// aggregate speedup per cell (the growth target this subcommand exists to
// track). Numbers go to the narrative table, the optional --csv, and a JSON
// snapshot that CI archives per commit so throughput regressions show up as
// a trajectory, not an anecdote.
//
//   cr perf                          # full sweep (R=1000 per fast-engine cell)
//   cr perf --quick                  # CI smoke: small horizons, R=64
//   cr perf --baseline BENCH_6.json  # also print per-cell deltas vs a prior
//                                    # snapshot; exit 1 when any fast-engine
//                                    # cell regresses past --tolerance
//
// Independently of --baseline, the run exits 1 when the memory cell's peak
// resident set exceeds kMemoryCellRssLimitKb.
//
// The snapshot name is derived, not hardcoded: the next BENCH_<n+1>.json
// after the baseline (when --baseline names a BENCH_<n>.json) or after the
// highest BENCH_<n>.json in the working directory. --json still overrides,
// and --json "" disables the snapshot.
//
// Measurement notes: each (engine, scenario) cell is timed around the same
// replication entry point the benches use (replicate_scenario), so the
// numbers include adversary construction and per-run setup — what a real
// sweep pays. The reference engine runs a reduced rep count (its per-run
// cost is orders of magnitude higher and runs/sec normalises it out);
// slots/sec counts simulated slots, so the lockstep engine's plan path and
// analytic tail skip (engine/lockstep.hpp) legitimately count the slots
// they prove they can skip.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "cli/bench_driver.hpp"
#include "cli/benches/benches.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "engine/fast_cjz.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"
#include "exp/workload.hpp"

namespace cr::benches {

namespace {

struct PerfCell {
  std::string scenario;
  slot_t horizon = 0;
};

struct PerfRow {
  std::string scenario;
  std::string engine;
  slot_t horizon = 0;
  int reps = 0;
  int threads = 1;
  double seconds = 0.0;
  double slots_per_sec = 0.0;
  double runs_per_sec = 0.0;
  double mean_successes = 0.0;
  double mean_sends = 0.0;
  double speedup_vs_fast_cjz = 0.0;  ///< lockstep rows only; 0 = not applicable

  /// Memory-cell rows only (engine "fast_cjz_sparse"); all zero elsewhere.
  bool memory_cell = false;
  std::uint64_t peak_live_nodes = 0;     ///< max simultaneously live nodes
  std::uint64_t node_table_slots = 0;    ///< resident node-table slots at finish
  std::uint64_t resident_bytes = 0;      ///< node_table_slots * sizeof(Node)
  std::uint64_t dense_extrap_bytes = 0;  ///< arrivals * sizeof(Node) — dense cost
  std::uint64_t peak_rss_kb = 0;         ///< process peak RSS over the cell (KB)
  bool rss_cell_only = false;            ///< peak reset before the cell (VmHWM)
};

/// The memory cell's process peak RSS bound at its 2^24 horizon: the run is
/// O(peak live nodes), not O(horizon), so the whole process stays small.
constexpr std::uint64_t kMemoryCellRssLimitKb = 16 * 1024;

/// Reset the process's peak-RSS mark (VmHWM) to its current RSS. False where
/// /proc/self/clear_refs is unavailable.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << '5' << std::flush;
  return clear.good();
}

/// VmHWM from /proc/self/status in KB; 0 when unreadable.
std::uint64_t read_peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  return 0;
}

/// BENCH_<n>.json -> n; -1 when `name` is not of that shape.
int snapshot_index(const std::string& name) {
  const std::string prefix = "BENCH_";
  const std::string suffix = ".json";
  if (name.size() <= prefix.size() + suffix.size()) return -1;
  if (name.rfind(prefix, 0) != 0) return -1;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) return -1;
  const std::string digits = name.substr(prefix.size(),
                                         name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return -1;
  int value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return -1;
    value = value * 10 + (c - '0');
  }
  return value;
}

/// The next snapshot name in the trajectory: baseline's n+1 when --baseline
/// names a BENCH_<n>.json, otherwise one past the highest BENCH_<n>.json in
/// the working directory (BENCH_1.json on a clean slate).
std::string derive_snapshot_path(const std::string& baseline_path) {
  int highest = 0;
  const int from_baseline =
      snapshot_index(std::filesystem::path(baseline_path).filename().string());
  if (from_baseline >= 0) {
    highest = from_baseline;
  } else {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(".", ec)) {
      const int n = snapshot_index(entry.path().filename().string());
      if (n > highest) highest = n;
    }
  }
  return "BENCH_" + std::to_string(highest + 1) + ".json";
}

/// A baseline cell's slots/sec, or 0 when the snapshot has no matching
/// (scenario, horizon, engine) row.
double baseline_slots_per_sec(const JsonValue& snapshot, const PerfRow& row) {
  const JsonValue* cells = snapshot.find("cells");
  if (cells == nullptr || !cells->is_array()) return 0.0;
  for (const auto& cell : cells->items()) {
    if (!cell->is_object()) continue;
    const JsonValue* scenario = cell->find("scenario");
    const JsonValue* horizon = cell->find("horizon");
    const JsonValue* engine = cell->find("engine");
    const JsonValue* slots = cell->find("slots_per_sec");
    if (scenario == nullptr || horizon == nullptr || engine == nullptr || slots == nullptr)
      continue;
    if (!scenario->is_string() || !horizon->is_number() || !engine->is_string() ||
        !slots->is_number())
      continue;
    if (scenario->as_string() == row.scenario && engine->as_string() == row.engine &&
        static_cast<slot_t>(horizon->as_number()) == row.horizon)
      return slots->as_number();
  }
  return 0.0;
}

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  const int reps = driver.reps(1000, 64);
  const std::uint64_t base_seed = driver.seed(70000);
  const int threads = driver.threads();
  const std::string baseline_path = driver.cli().get_string("baseline", "");
  const double tolerance = driver.cli().get_double("tolerance", 0.15);
  const std::string json_path =
      driver.cli().get_string("json", derive_snapshot_path(baseline_path));

  std::shared_ptr<JsonValue> baseline;
  if (!baseline_path.empty()) {
    JsonParseResult parsed = JsonValue::parse_file(baseline_path);
    if (!parsed.ok()) {
      out << "perf: cannot read baseline " << baseline_path << ": " << parsed.error << "\n";
      return 2;
    }
    baseline = parsed.value;
  }

  // The paper_repro workload axis: batch cells at two horizons (the large
  // one is where quiescent tails dominate a scalar sweep), plus the two
  // always-active workloads where no tail skip is possible — honest
  // lower-bound cells for the lockstep engine's plan path. Quick mode keeps
  // a subset of the SAME cells (fewer reps) so a CI smoke's --baseline diff
  // against a committed full snapshot has matching rows.
  const std::vector<PerfCell> cells =
      driver.quick()
          ? std::vector<PerfCell>{{"batch", slot_t{1} << 16}, {"worst_case", slot_t{1} << 16}}
          : std::vector<PerfCell>{{"batch", slot_t{1} << 16},
                                  {"batch", slot_t{1} << 20},
                                  {"worst_case", slot_t{1} << 16},
                                  {"bernoulli_stream", slot_t{1} << 16}};
  const std::vector<std::string> engines = {"generic", "fast_cjz", "lockstep"};

  out << "P1: engine throughput at fixed seeds, " << reps << " reps per fast-engine cell, "
      << threads << " thread(s)\n\n";

  std::vector<PerfRow> rows;
  for (const PerfCell& cell : cells) {
    ScenarioParams params;
    params.horizon = cell.horizon;
    for (const std::string& engine_name : engines) {
      const Engine& engine = EngineRegistry::instance().at(engine_name);
      // The reference engine is O(nodes) per slot — a handful of runs gives
      // a stable per-run rate without dominating the wall clock.
      const int engine_reps = engine_name == "generic" ? std::min(reps, 4) : reps;

      const auto start = std::chrono::steady_clock::now();
      const auto results = replicate_scenario(engine, cell.scenario, params, engine_reps,
                                              base_seed, threads);
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

      PerfRow row;
      row.scenario = cell.scenario;
      row.engine = engine_name;
      row.horizon = cell.horizon;
      row.reps = engine_reps;
      row.threads = threads;
      row.seconds = elapsed.count();
      double slots = 0.0;
      row.mean_successes =
          collect(results, [](const SimResult& r) { return static_cast<double>(r.successes); })
              .mean();
      row.mean_sends =
          collect(results,
                  [](const SimResult& r) { return static_cast<double>(r.total_sends); })
              .mean();
      for (const SimResult& r : results) slots += static_cast<double>(r.slots);
      row.slots_per_sec = row.seconds > 0.0 ? slots / row.seconds : 0.0;
      row.runs_per_sec =
          row.seconds > 0.0 ? static_cast<double>(engine_reps) / row.seconds : 0.0;
      rows.push_back(row);
    }
  }

  // Memory cell: one sparse-table fast_cjz run at a streaming-scale horizon
  // (2^24 slots of Bernoulli(0.1) arrivals — ~1.7M nodes pass through the
  // system). reps=1 and run directly (not via replicate_scenario) because
  // the signal is the footprint, not throughput: resident node-table bytes
  // against the dense extrapolation (arrivals × node record), plus the
  // process's peak RSS over the cell alone (VmHWM reset just before it, so
  // earlier cells do not count; ru_maxrss of the whole process where the
  // reset is unavailable), gated at kMemoryCellRssLimitKb. Same horizon in
  // quick mode so a CI smoke's --baseline diff against a committed full
  // snapshot finds the matching row.
  {
    ScenarioParams params;
    params.horizon = slot_t{1} << 24;
    params.seed = base_seed;
    Scenario sc = ScenarioRegistry::instance().build("bernoulli_stream", params);
    sc.config.node_table = NodeTableKind::kSparse;

    const bool rss_reset = reset_peak_rss();
    const auto start = std::chrono::steady_clock::now();
    FastCjzSimulator sim(sc.protocol.fs, *sc.adversary, sc.config,
                         sc.protocol.cjz_options);
    const SimResult r = sim.run();
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    const CjzCoreMemoryStats mem = sim.memory_stats();

    PerfRow row;
    row.scenario = "bernoulli_stream";
    row.engine = "fast_cjz_sparse";
    row.horizon = params.horizon;
    row.reps = 1;
    row.threads = 1;
    row.seconds = elapsed.count();
    row.mean_successes = static_cast<double>(r.successes);
    row.mean_sends = static_cast<double>(r.total_sends);
    row.slots_per_sec =
        row.seconds > 0.0 ? static_cast<double>(r.slots) / row.seconds : 0.0;
    row.runs_per_sec = row.seconds > 0.0 ? 1.0 / row.seconds : 0.0;
    row.memory_cell = true;
    row.peak_live_nodes = mem.peak_live_nodes;
    row.node_table_slots = mem.node_table_slots;
    row.resident_bytes = mem.node_bytes;
    const std::uint64_t node_record_bytes =
        mem.node_table_slots > 0 ? mem.node_bytes / mem.node_table_slots : 0;
    row.dense_extrap_bytes = r.arrivals * node_record_bytes;
    row.peak_rss_kb = rss_reset ? read_peak_rss_kb() : 0;
    row.rss_cell_only = row.peak_rss_kb > 0;
    struct rusage usage{};
    if (!row.rss_cell_only && getrusage(RUSAGE_SELF, &usage) == 0)
      row.peak_rss_kb = static_cast<std::uint64_t>(usage.ru_maxrss);
    rows.push_back(row);
  }

  // Attach the headline ratio to the lockstep rows so the JSON snapshot
  // carries it as a machine-readable field, not just table narrative.
  for (PerfRow& row : rows) {
    if (row.engine != "lockstep") continue;
    for (const PerfRow& fast : rows) {
      if (fast.engine == "fast_cjz" && fast.scenario == row.scenario &&
          fast.horizon == row.horizon && fast.slots_per_sec > 0.0)
        row.speedup_vs_fast_cjz = row.slots_per_sec / fast.slots_per_sec;
    }
  }

  Table table({"scenario", "horizon", "engine", "reps", "seconds", "slots/sec", "runs/sec",
               "successes", "sends"});
  for (const PerfRow& row : rows)
    table.add_row({row.scenario, Cell(static_cast<std::uint64_t>(row.horizon)), row.engine,
                   Cell(static_cast<std::int64_t>(row.reps)), Cell(row.seconds, 3),
                   Cell(row.slots_per_sec, 0), Cell(row.runs_per_sec, 1),
                   Cell(row.mean_successes, 1), Cell(row.mean_sends, 1)});
  table.print(out);

  // Headline: lockstep aggregate throughput over the threaded fast_cjz sweep
  // of the same cell (both sides used the same --threads).
  out << "\nlockstep speedup over fast_cjz (aggregate slots/sec, same thread count):\n";
  for (const PerfRow& row : rows)
    if (row.engine == "lockstep" && row.speedup_vs_fast_cjz > 0.0)
      out << "  " << row.scenario << " @ " << static_cast<std::uint64_t>(row.horizon) << ": "
          << format_double(row.speedup_vs_fast_cjz, 2) << "x\n";

  // Memory headline: the process's peak RSS over the cell (gated), then the
  // sparse node-table footprint vs what a dense table would have resident at
  // the same arrival count.
  int memory_failures = 0;
  for (const PerfRow& row : rows) {
    if (!row.memory_cell) continue;
    const double ratio = row.resident_bytes > 0
                             ? static_cast<double>(row.dense_extrap_bytes) /
                                   static_cast<double>(row.resident_bytes)
                             : 0.0;
    const bool over = row.peak_rss_kb > kMemoryCellRssLimitKb;
    if (over) ++memory_failures;
    out << "\nmemory cell (" << row.scenario << " @ " << static_cast<std::uint64_t>(row.horizon)
        << ", 1 run, sparse node table):\n"
        << "  process peak RSS " << row.peak_rss_kb << " KB "
        << (row.rss_cell_only ? "(VmHWM over the cell)" : "(ru_maxrss, whole process)")
        << ", limit " << kMemoryCellRssLimitKb << " KB" << (over ? "  OVER LIMIT" : "") << "\n"
        << "  peak live nodes " << row.peak_live_nodes << ", resident slots "
        << row.node_table_slots << " (" << row.resident_bytes << " bytes); dense would hold "
        << row.dense_extrap_bytes << " bytes — " << format_double(ratio, 0) << "x smaller\n";
  }
  if (memory_failures > 0)
    out << "\nmemory cell peak RSS over " << kMemoryCellRssLimitKb
        << " KB — exiting nonzero\n";

  // Baseline comparison: per-cell slots/sec delta against the prior
  // snapshot. Only the fast engines gate — the reference engine's 4-rep
  // cells are too noisy to regress meaningfully.
  int regressions = 0;
  if (baseline != nullptr) {
    out << "\ndelta vs " << baseline_path << " (tolerance "
        << format_double(tolerance * 100.0, 0) << "%):\n";
    Table delta_table({"scenario", "horizon", "engine", "baseline", "current", "delta"});
    for (const PerfRow& row : rows) {
      const double before = baseline_slots_per_sec(*baseline, row);
      if (before <= 0.0) continue;
      const double delta = (row.slots_per_sec - before) / before;
      const bool gates = row.engine != "generic";
      const bool regressed = gates && delta < -tolerance;
      if (regressed) ++regressions;
      delta_table.add_row({row.scenario, Cell(static_cast<std::uint64_t>(row.horizon)),
                           row.engine, Cell(before, 0), Cell(row.slots_per_sec, 0),
                           std::string(delta >= 0.0 ? "+" : "") +
                               format_double(delta * 100.0, 1) + "%" +
                               (regressed ? "  REGRESSION" : "")});
    }
    delta_table.print(out);
    if (regressions > 0)
      out << "\n" << regressions << " cell(s) regressed more than "
          << format_double(tolerance * 100.0, 0) << "% — exiting nonzero\n";
  }

  if (!driver.write_csv(table)) return 1;

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    json << "{\n  \"bench\": \"perf\",\n  \"quick\": " << (driver.quick() ? "true" : "false")
         << ",\n  \"threads\": " << threads << ",\n  \"reps\": " << reps
         << ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const PerfRow& row = rows[i];
      char buf[640];
      std::snprintf(buf, sizeof(buf),
                    "    {\"scenario\": \"%s\", \"horizon\": %llu, \"engine\": \"%s\", "
                    "\"reps\": %d, \"threads\": %d, \"seconds\": %.6f, "
                    "\"slots_per_sec\": %.1f, \"runs_per_sec\": %.3f, "
                    "\"mean_successes\": %.2f, \"mean_sends\": %.2f",
                    row.scenario.c_str(),
                    static_cast<unsigned long long>(row.horizon), row.engine.c_str(),
                    row.reps, row.threads, row.seconds, row.slots_per_sec, row.runs_per_sec,
                    row.mean_successes, row.mean_sends);
      json << buf;
      if (row.speedup_vs_fast_cjz > 0.0) {
        std::snprintf(buf, sizeof(buf), ", \"speedup_vs_fast_cjz\": %.3f",
                      row.speedup_vs_fast_cjz);
        json << buf;
      }
      if (row.memory_cell) {
        std::snprintf(buf, sizeof(buf),
                      ", \"peak_live_nodes\": %llu, \"node_table_slots\": %llu, "
                      "\"resident_bytes\": %llu, \"dense_extrap_bytes\": %llu, "
                      "\"peak_rss_kb\": %llu, \"peak_rss_scope\": \"%s\"",
                      static_cast<unsigned long long>(row.peak_live_nodes),
                      static_cast<unsigned long long>(row.node_table_slots),
                      static_cast<unsigned long long>(row.resident_bytes),
                      static_cast<unsigned long long>(row.dense_extrap_bytes),
                      static_cast<unsigned long long>(row.peak_rss_kb),
                      row.rss_cell_only ? "cell" : "process");
        json << buf;
      }
      json << "}" << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    json << "  ]\n}\n";
    out << "\nperf snapshot written to " << json_path << "\n";
  }

  out << "\nReading: slots/sec counts simulated slots (the lockstep engine's plan\n"
         "path and analytic tail skip count the slots they certify away); runs/sec\n"
         "is the end-to-end replication rate a sweep observes. Compare rows within\n"
         "a scenario cell.\n";
  return regressions > 0 || memory_failures > 0 ? 1 : 0;
}

}  // namespace

BenchSpec perf() {
  BenchSpec spec;
  spec.name = "perf";
  spec.id = "P1";
  spec.summary = "engine throughput per scenario (slots/sec, runs/sec, lockstep speedup)";
  spec.claim = "— (performance trajectory, not a paper claim)";
  spec.outcome =
      "per (scenario × engine) timing rows plus the lockstep-vs-fast_cjz aggregate "
      "speedup and a sparse node-table memory cell (process peak RSS over the cell, "
      "gated at 16 MB; resident bytes vs dense extrapolation); JSON snapshot for CI "
      "trend tracking; delta gate vs a prior snapshot";
  spec.flags = {
      {"json", "JSON snapshot path (default: next BENCH_<n+1>.json; empty string disables)"},
      {"baseline", "prior snapshot to diff against (per-cell slots/sec deltas; exit 1 on "
                   "fast-engine regressions past --tolerance)"},
      {"tolerance", "allowed fractional slots/sec regression vs --baseline (default 0.15)"},
  };
  spec.csv_columns = {"scenario", "horizon", "engine", "reps", "seconds",
                      "slots_per_sec", "runs_per_sec", "successes", "sends"};
  spec.csv_row_desc = "one row per (scenario × engine) timing cell";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches
