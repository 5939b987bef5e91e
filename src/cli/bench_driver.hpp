/// \file
/// The per-run side of a bench: BenchRegistry::run builds one BenchDriver
/// from the bench's BenchSpec and the flags after its name, and hands it to
/// BenchSpec::run. The driver owns the contract every bench shares:
///
///   * uniform flags: --reps, --seed, --threads, --quick, --csv, --quiet,
///     --help, plus the spec's own flags (each with a help line for --help
///     and `cr list`); a flag BenchSpec::accepts_flag refuses exits 2 with a
///     did-you-mean message (a typo like --rep=10 never runs);
///   * quick-aware defaults: reps(6, 3) reads --reps with a default of 6,
///     or 3 under --quick;
///   * deterministic parallel replication: replicate() fans seeds across
///     --threads workers (default: all hardware threads) and returns
///     seed-ordered results bit-identical to a serial run;
///   * output: narrative tables go to out(), which --quiet silences so
///     `cr suite run` logs stay readable; write_csv() writes the --csv table
///     under the spec's csv_columns and reports a failed write, and is never
///     silenced.
///
/// Usage, inside a bench's run function:
///   const int reps = driver.reps(6, 3);
///   const auto results = driver.replicate(reps, 11000, [&](std::uint64_t s) {
///     Scenario sc = ...; sc.config.seed = s;
///     return run_scenario(engine, sc);
///   });
///   ...
///   if (!driver.write_csv(table)) return 1;
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cli/bench_registry.hpp"
#include "common/cli.hpp"
#include "exp/harness.hpp"

namespace cr {

class Table;

class BenchDriver {
 public:
  /// Parses `args` (the flags after the bench name), handles --help (prints
  /// usage, exits 0) and rejects flags the spec does not accept (exits 2
  /// with a did-you-mean message). `spec` must outlive the driver.
  BenchDriver(const BenchSpec& spec, const std::vector<std::string>& args);

  const Cli& cli() const { return cli_; }

  bool quick() const { return quick_; }
  /// --quiet: narrative output is discarded (out() is a null sink), so
  /// benches skip narrative-ONLY sub-experiments (tables outside their CSV
  /// schema, e.g. baselines' E7b/E7c) — the suite runner would otherwise
  /// pay their full wall-clock for output that goes nowhere. The CSV is
  /// identical either way.
  bool quiet() const { return quiet_; }
  /// Worker count for replicate(): --threads, defaulting to the hardware
  /// concurrency (results do not depend on it).
  int threads() const { return threads_; }

  /// Narrative output stream: std::cout normally, a null sink under
  /// --quiet. CSV files are written regardless — --quiet only mutes the
  /// human-facing tables and commentary.
  std::ostream& out() const { return *out_; }

  /// --reps, defaulting to `full` (or `quick_def` under --quick).
  int reps(int full, int quick_def) const;
  /// Any integer flag with quick-aware defaults.
  std::int64_t get_int(const std::string& name, std::int64_t full,
                       std::int64_t quick_def) const;
  /// --seed, defaulting to the bench's fixed base seed.
  std::uint64_t seed(std::uint64_t def) const;

  /// True when --csv was passed, for benches whose CSV needs extra runs.
  bool wants_csv() const { return cli_.has("csv"); }
  /// Writes `rows` under the spec's csv_columns to the --csv path (a bare
  /// --csv means "<name>.csv"); a no-op returning true without --csv. On a
  /// failed open, write or close it removes the partial file, says so on
  /// stderr and returns false — the bench then exits nonzero.
  [[nodiscard]] bool write_csv(const std::vector<std::vector<std::string>>& rows) const;
  /// The rendered table's cells, exactly as formatted for print() — display
  /// headers are not machine-readable, so the spec's csv_columns (which must
  /// match the table's width) name the columns. The formatted text is
  /// deterministic for a given platform, which the suite runner's
  /// bit-identical resume and shard guarantees build on.
  [[nodiscard]] bool write_csv(const Table& table) const;

  /// Deterministic parallel replication over seeds base .. base+reps-1,
  /// honouring --threads. `run` must be safe to call concurrently (build all
  /// per-run state inside it); results come back in seed order, identical
  /// for every thread count. See replicate_map() in exp/harness.hpp.
  template <typename Fn>
  auto replicate(int n, std::uint64_t base_seed, Fn&& run) const {
    return replicate_map(n, base_seed, std::forward<Fn>(run), threads_);
  }

  /// The uniform flags every bench accepts, for docs generation.
  static const std::vector<BenchFlag>& standard_flags();

 private:
  const BenchSpec& spec_;
  Cli cli_;
  bool quick_ = false;
  bool quiet_ = false;
  int threads_ = 1;
  std::ostream* out_ = nullptr;
};

}  // namespace cr
