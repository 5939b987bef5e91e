/// \file
/// BenchRegistry — the third name-keyed registry (after EngineRegistry and
/// ScenarioRegistry): every CLI experiment registers its name, paper claim,
/// flag declarations and CSV column schema here, and the `cr` tool derives
/// everything else from it:
///
///   * `cr bench <name> [flags]`, `cr perf`, `cr stream` and every forked
///     suite cell go through BenchRegistry::run, which builds the bench's
///     BenchDriver from its spec and calls the registered run function;
///   * `cr suite run <manifest>` validates manifest cells against the same
///     flag rule (BenchSpec::accepts_flag) before running anything;
///   * `cr list --md` renders docs/EXPERIMENTS.md from these specs, and the
///     `docs`-labelled CTest entry diffs the committed file against that
///     output — so the registry is the single source of truth and the docs
///     cannot drift from the code.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace cr {

class BenchDriver;

/// One bench-specific flag: its name and the one-line help shown by
/// --help, `cr list --md` and docs/EXPERIMENTS.md (all generated from the
/// same declaration, so they cannot drift).
struct BenchFlag {
  std::string name;  ///< flag name without the leading "--"
  std::string help;  ///< one-line description
};

/// Everything `cr` needs to run and document one experiment.
struct BenchSpec {
  std::string name;     ///< subcommand, e.g. "latency"
  std::string id;       ///< experiment number, e.g. "E9"
  std::string summary;  ///< one-line description (--help, `cr list`)
  std::string claim;    ///< paper claim / section the bench exercises
  std::string outcome;  ///< expected qualitative outcome (docs index table)
  /// Bench-specific flags beyond the uniform BenchDriver set.
  std::vector<BenchFlag> flags;
  /// Column schema of the --csv output (machine-readable names; the
  /// rendered table may use prettier display headers).
  std::vector<std::string> csv_columns;
  /// What one CSV row is (docs: e.g. "one (regime, t, burst) cell,
  /// means over reps").
  std::string csv_row_desc;
  /// Entry point, handed the driver BenchRegistry::run built from this
  /// spec and the flags. Returns the process exit code.
  int (*run)(const BenchDriver& driver);

  /// Optional: accept flags whose names are dynamic (the workload bench's
  /// `arrival.<param>`/`jammer.<param>` keys). Precise validation (is the
  /// parameter real for the chosen component?) stays with the bench.
  bool (*allows_flag)(const std::string& name) = nullptr;

  /// Optional: semantic validation of one fully-expanded suite cell (the
  /// flag list the cell would pass, minus runner-controlled flags). Returns
  /// "" when valid, else a message naming the offending key. Runs at
  /// manifest-parse time, so a bad cell fails BEFORE anything executes.
  std::string (*validate_cell)(const std::vector<std::pair<std::string, std::string>>& flags) =
      nullptr;

  /// The one flag rule: a flag declared in `flags`, a standard BenchDriver
  /// flag, or one `allows_flag` accepts. BenchDriver rejects everything
  /// else; the suite validator additionally refuses runner-reserved flags.
  bool accepts_flag(const std::string& name) const;
};

/// Name-keyed registry of all CLI benches. Seeded with the 16 built-in
/// benches (the 12 paper experiments, the scenario and workload runners,
/// stream and perf); register_bench() is the extension point. Registration
/// is not thread-safe — register before fanning out runs.
class BenchRegistry {
 public:
  static BenchRegistry& instance();

  /// nullptr when unknown.
  const BenchSpec* find(const std::string& name) const;
  /// Exits 2 with the known-name list on unknown names (CLI contract).
  const BenchSpec& at(const std::string& name) const;

  std::vector<std::string> names() const;
  const std::vector<BenchSpec>& entries() const { return entries_; }

  void register_bench(BenchSpec spec);

  /// The single way to run a bench: build the BenchDriver from `at(name)`
  /// and `args` (the flags after the name), then call the spec's run.
  int run(const std::string& name, const std::vector<std::string>& args) const;

 private:
  BenchRegistry();
  std::vector<BenchSpec> entries_;
};

}  // namespace cr
