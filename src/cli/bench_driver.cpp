#include "cli/bench_driver.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <streambuf>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

namespace cr {

namespace {

int default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Discards everything written to it (--quiet).
std::ostream& null_stream() {
  struct NullBuf final : std::streambuf {
    int overflow(int c) override { return traits_type::not_eof(c); }
  };
  static NullBuf buf;
  static std::ostream os(&buf);
  return os;
}

/// Cli over `args` with "cr bench <name>" as its program name.
Cli parse_args(const std::string& name, const std::vector<std::string>& args) {
  const std::string program = "cr bench " + name;
  std::vector<const char*> argv;
  argv.reserve(args.size() + 1);
  argv.push_back(program.c_str());
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

}  // namespace

const std::vector<BenchFlag>& BenchDriver::standard_flags() {
  static const std::vector<BenchFlag> flags = {
      {"reps", "replications per table cell (quick-aware default)"},
      {"seed", "base seed; seeds S..S+reps-1 are used"},
      {"threads", "parallel replication workers (default: all cores; results identical)"},
      {"quick", "smaller sizes/reps for smoke runs"},
      {"csv", "write the machine-readable result table to PATH (a bare --csv writes BENCH.csv)"},
      {"quiet", "suppress narrative output and skip narrative-only sub-tables; "
                "CSV unchanged"},
      {"help", "print usage and exit"},
  };
  return flags;
}

BenchDriver::BenchDriver(const BenchSpec& spec, const std::vector<std::string>& args)
    : spec_(spec), cli_(parse_args(spec.name, args)) {
  if (cli_.get_bool("help", false)) {
    std::printf("%s — %s\n\nflags:\n", spec_.id.c_str(), spec_.summary.c_str());
    for (const BenchFlag& flag : standard_flags())
      std::printf("  --%-10s %s\n", flag.name.c_str(), flag.help.c_str());
    for (const BenchFlag& flag : spec_.flags)
      std::printf("  --%-10s %s\n", flag.name.c_str(), flag.help.c_str());
    std::exit(0);
  }
  for (const std::string& name : cli_.unknown_flags())
    if (spec_.accepts_flag(name)) cli_.declare({name.c_str()});
  // Declared names stay known so a typo gets a did-you-mean suggestion.
  for (const BenchFlag& flag : standard_flags()) cli_.declare({flag.name.c_str()});
  for (const BenchFlag& flag : spec_.flags) cli_.declare({flag.name.c_str()});
  cli_.reject_unknown();
  quick_ = cli_.get_bool("quick", false);
  quiet_ = cli_.get_bool("quiet", false);
  out_ = quiet_ ? &null_stream() : &std::cout;
  const auto threads = cli_.get_int("threads", default_threads());
  if (threads < 1) {
    std::fprintf(stderr, "%s: --threads must be >= 1, got %lld\n", cli_.program().c_str(),
                 static_cast<long long>(threads));
    std::exit(2);
  }
  threads_ = static_cast<int>(threads);
}

int BenchDriver::reps(int full, int quick_def) const {
  return static_cast<int>(cli_.get_int("reps", quick_ ? quick_def : full));
}

std::int64_t BenchDriver::get_int(const std::string& name, std::int64_t full,
                                  std::int64_t quick_def) const {
  return cli_.get_int(name, quick_ ? quick_def : full);
}

std::uint64_t BenchDriver::seed(std::uint64_t def) const {
  return static_cast<std::uint64_t>(cli_.get_int("seed", static_cast<std::int64_t>(def)));
}

bool BenchDriver::write_csv(const std::vector<std::vector<std::string>>& rows) const {
  if (!wants_csv()) return true;
  std::string path = cli_.get_string("csv", "");
  if (path.empty() || path == "true") path = spec_.name + ".csv";
  std::ofstream file(path);
  const bool opened = file.is_open();
  if (opened) {
    CsvWriter csv(file, spec_.csv_columns);
    for (const auto& row : rows) csv.row(row);
    file.close();
  }
  if (!file) {
    if (opened) std::remove(path.c_str());  // never leave a truncated table behind
    std::fprintf(stderr, "%s: cannot write CSV to %s\n", cli_.program().c_str(), path.c_str());
    return false;
  }
  out() << "\ntable written to " << path << " (" << rows.size() << " rows)\n";
  return true;
}

bool BenchDriver::write_csv(const Table& table) const {
  CR_CHECK(spec_.csv_columns.size() == table.cols());
  return write_csv(table.row_text());
}

}  // namespace cr
