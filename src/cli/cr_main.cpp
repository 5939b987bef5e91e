// `cr` — the single entry point for every experiment in this repo.
//
//   cr list [--md]                     registry listing / docs/EXPERIMENTS.md
//   cr bench <name> [flags…]           one experiment (cr bench <name> --help)
//   cr perf [flags…]                   engine throughput snapshot (alias for
//                                      `cr bench perf`)
//   cr stream [flags…]                 streaming service mode (alias for
//                                      `cr bench stream`)
//   cr suite run <manifest> [flags…]   manifest-driven grid of cells
//   cr suite expand <manifest> […]     print the cell plan, run nothing
//   cr help                            this text
//
// Every experiment is a BenchRegistry entry, so new experiments, their docs
// and their suite cells all come from one registration.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cli/bench_registry.hpp"
#include "cli/docs_gen.hpp"
#include "cli/suite.hpp"
#include "common/cli.hpp"
#include "common/source_digest.hpp"
#include "dist/cell_cache.hpp"
#include "dist/merge.hpp"
#include "verify/verify.hpp"

namespace {

int usage(int exit_code) {
  std::FILE* os = exit_code == 0 ? stdout : stderr;
  std::fprintf(os,
               "cr — contention-resolution experiment tool (conf_podc_ChenJZ21)\n"
               "\n"
               "usage:\n"
               "  cr list [--md]                      list benches/scenarios/engines\n"
               "                                      (--md: emit docs/EXPERIMENTS.md)\n"
               "  cr bench <name> [flags...]          run one experiment\n"
               "                                      (cr bench <name> --help for flags)\n"
               "  cr perf [flags...]                  engine throughput snapshot\n"
               "                                      (alias for cr bench perf)\n"
               "  cr stream [flags...]                streaming service mode: ring-fed\n"
               "                                      arrivals, windowed JSONL, bit-exact\n"
               "                                      checkpoint/restore (alias for\n"
               "                                      cr bench stream)\n"
               "  cr suite run <manifest> [flags...]  run a suite manifest\n"
               "      --out=DIR      override the manifest's output_dir\n"
               "      --quick        append --quick to every cell\n"
               "      --shard=i/n    run only cells with index %% n == i-1 (1-based)\n"
               "      --threads=N    core budget: up to N cells in flight, each with\n"
               "                     N replication workers (default: all cores)\n"
               "      --force        rerun cells whose CSV already exists\n"
               "      --cache=DIR    content-addressed CellCache: restore finished\n"
               "                     cells byte-identically instead of recomputing\n"
               "  cr suite expand <manifest> [--shard=i/n] [--quick] [--out=DIR]\n"
               "                                      print the cell plan, run nothing\n"
               "  cr suite merge <manifest...> [--out=PATH]\n"
               "                                      union per-shard run manifests\n"
               "                                      (matching config required; cell\n"
               "                                      checksum conflicts are hard errors)\n"
               "                                      into the manifest cr verify reads\n"
               "  cr cache stats <DIR>                CellCache entry/byte/corruption counts\n"
               "  cr cache gc <DIR> [--max_bytes=N]   evict oldest entries past the byte\n"
               "                                      budget (default 256 MiB); corrupt\n"
               "                                      entries always removed\n"
               "  cr verify <out_dir> [flags...]      check every registered paper claim\n"
               "                                      against a suite run's CSVs and write\n"
               "                                      <out_dir>/verify_report.json\n"
               "      --quick        evidence came from a --quick run (quick cells/bounds)\n"
               "      --report=PATH  write the report JSON to PATH instead\n"
               "  cr version [--json]                 git SHA, build type, source digest\n"
               "                                      (--json: machine-readable, incl. the\n"
               "                                      CellCache source-digest key component)\n"
               "  cr help                             this text\n");
  return exit_code;
}

#ifndef CR_BUILD_TYPE
#define CR_BUILD_TYPE "unspecified"
#endif

/// `cr version` — provenance for bug reports and cache keys: the git SHA of
/// the repository at the CWD (same `git -C` path the suite run-manifests
/// use), the CMake build type baked in at compile time, the C++ standard,
/// and the source digest (the running binary's FNV-1a — the code component
/// of every CellCache key). --json emits the same facts as one JSON object.
int run_version(int argc, const char* const* argv) {
  const cr::Cli cli(argc, argv);
  cli.declare({"json"});
  cli.reject_unknown();
  const char* build = CR_BUILD_TYPE[0] == '\0' ? "unspecified" : CR_BUILD_TYPE;
  if (cli.get_bool("json", false)) {
    std::fputs(cr::version_json(cr::git_head_sha("."), build).c_str(), stdout);
    return 0;
  }
  std::printf("cr (conf_podc_ChenJZ21 experiment tool)\n");
  std::printf("  git_sha:        %s (repository at the current directory)\n",
              cr::git_head_sha(".").c_str());
  std::printf("  build:          %s\n", build);
  std::printf("  C++:            %ld\n", static_cast<long>(__cplusplus));
  std::printf("  source_digest:  %s (CellCache key component)\n",
              cr::source_digest().c_str());
  return 0;
}

int run_list(int argc, const char* const* argv) {
  const cr::Cli cli(argc, argv);
  cli.declare({"md"});
  cli.reject_unknown();
  if (cli.get_bool("md", false))
    std::cout << cr::experiments_markdown();
  else
    std::cout << cr::registry_listing_text();
  return 0;
}

int run_suite_cmd(const std::string& sub, int argc, const char* const* argv) {
  const cr::Cli cli(argc, argv);
  cli.declare({"out", "quick", "shard", "threads", "force", "cache"});
  cli.reject_unknown();
  cr::SuiteRunOptions opts;
  // Cli's `--name value` rule means a bare boolean written BEFORE the
  // manifest path swallows the path as its value (`cr suite run --force
  // suites/x.json`). A boolean flag carrying a non-boolean value is exactly
  // that case: reinterpret the value as the manifest path and the flag as
  // set.
  std::vector<std::string> paths = cli.positional();
  const auto take_bool = [&](const char* name) {
    const std::string value = cli.get_string(name, "");
    if (value.empty()) return false;
    if (value == "true" || value == "1" || value == "yes") return true;
    if (value == "false" || value == "0" || value == "no") return false;
    paths.push_back(value);
    return true;
  };
  opts.quick = take_bool("quick");
  opts.force = take_bool("force");
  if (paths.size() != 1) {
    std::fprintf(stderr, "cr suite %s: exactly one manifest path is required\n", sub.c_str());
    return 2;
  }
  const cr::SuiteLoadResult loaded = cr::load_suite(paths[0]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cr suite %s: %s\n", sub.c_str(), loaded.error.c_str());
    return 2;
  }
  opts.output_dir = cli.get_string("out", "");
  opts.threads = cli.get_int("threads", 0);
  opts.cache_dir = cli.get_string("cache", "");
  opts.dry_run = sub == "expand";
  if (cli.has("threads") && opts.threads < 1) {
    std::fprintf(stderr, "cr suite %s: --threads must be >= 1\n", sub.c_str());
    return 2;
  }
  const std::string shard = cli.get_string("shard", "");
  if (!shard.empty() && !cr::parse_shard(shard, &opts.shard)) {
    std::fprintf(stderr, "cr suite %s: --shard expects i/n with 1 <= i <= n, got \"%s\"\n",
                 sub.c_str(), shard.c_str());
    return 2;
  }
  return cr::run_suite(loaded.spec, opts, std::cout);
}

int run_suite_merge_cmd(int argc, const char* const* argv) {
  const cr::Cli cli(argc, argv);
  cli.declare({"out"});
  cli.reject_unknown();
  cr::MergeOptions opts;
  opts.manifest_paths = cli.positional();
  opts.out_path = cli.get_string("out", "");
  if (opts.manifest_paths.empty()) {
    std::fprintf(stderr,
                 "cr suite merge: at least one run-manifest path is required "
                 "(e.g. out/q/manifest.1of2.json out/q/manifest.2of2.json)\n");
    return 2;
  }
  return cr::merge_manifests(opts, std::cout);
}

int run_cache_cmd(int argc, const char* const* argv) {
  if (argc < 2 ||
      (std::string(argv[1]) != "stats" && std::string(argv[1]) != "gc")) {
    std::fprintf(stderr, "cr cache: expected \"stats\" or \"gc\"\n");
    return 2;
  }
  const std::string sub = argv[1];
  const cr::Cli cli(argc - 1, argv + 1);
  cli.declare({"max_bytes"});
  cli.reject_unknown();
  if (cli.positional().size() != 1) {
    std::fprintf(stderr, "cr cache %s: exactly one cache directory is required\n",
                 sub.c_str());
    return 2;
  }
  cr::CellCache cache(cli.positional()[0]);
  if (sub == "gc") {
    const std::int64_t max_bytes = cli.get_int("max_bytes", 256ll << 20);
    if (max_bytes < 0) {
      std::fprintf(stderr, "cr cache gc: --max_bytes must be >= 0\n");
      return 2;
    }
    const std::size_t removed = cache.gc(static_cast<std::uint64_t>(max_bytes));
    std::printf("cr cache gc: removed %zu entries from %s\n", removed, cache.dir().c_str());
  }
  const cr::CacheStats stats = cache.stats();
  std::printf("cache %s\n", cache.dir().c_str());
  std::printf("  entries:      %zu\n", stats.entries);
  std::printf("  csv_bytes:    %llu\n", static_cast<unsigned long long>(stats.csv_bytes));
  std::printf("  total_bytes:  %llu\n", static_cast<unsigned long long>(stats.total_bytes));
  std::printf("  corrupt:      %zu\n", stats.corrupt);
  std::printf("  stray:        %zu\n", stats.stray);
  return 0;
}

int run_verify_cmd(int argc, const char* const* argv) {
  const cr::Cli cli(argc, argv);
  cli.declare({"quick", "report"});
  cli.reject_unknown();
  cr::verify::VerifyOptions opts;
  // Same bare-boolean-before-positional fixup as `cr suite run`: `cr verify
  // --quick out/quick` parses "out/quick" as --quick's value.
  std::vector<std::string> paths = cli.positional();
  const std::string quick_value = cli.get_string("quick", "");
  if (!quick_value.empty()) {
    if (quick_value == "true" || quick_value == "1" || quick_value == "yes") {
      opts.quick = true;
    } else if (quick_value == "false" || quick_value == "0" || quick_value == "no") {
      opts.quick = false;
    } else {
      paths.push_back(quick_value);
      opts.quick = true;
    }
  }
  if (paths.size() != 1) {
    std::fprintf(stderr, "cr verify: exactly one suite output directory is required\n");
    return 2;
  }
  opts.out_dir = paths[0];
  opts.report_path = cli.get_string("report", "");
  return cr::verify::run_verify(opts, std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(2);
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") return usage(0);
  if (cmd == "version" || cmd == "--version") return run_version(argc - 1, argv + 1);
  // Cli treats argv[0] as the program name, so hand each subcommand an argv
  // that starts at its own token ("list" / "run" / "expand").
  if (cmd == "list") return run_list(argc - 1, argv + 1);
  if (cmd == "bench") {
    if (argc < 3) {
      std::fprintf(stderr, "cr bench: a bench name is required; known:");
      for (const auto& name : cr::BenchRegistry::instance().names())
        std::fprintf(stderr, " %s", name.c_str());
      std::fprintf(stderr, "\n");
      return 2;
    }
    const std::vector<std::string> args(argv + 3, argv + argc);
    return cr::BenchRegistry::instance().run(argv[2], args);
  }
  if (cmd == "perf") {
    const std::vector<std::string> args(argv + 2, argv + argc);
    return cr::BenchRegistry::instance().run("perf", args);
  }
  if (cmd == "stream") {
    const std::vector<std::string> args(argv + 2, argv + argc);
    return cr::BenchRegistry::instance().run("stream", args);
  }
  if (cmd == "verify") return run_verify_cmd(argc - 1, argv + 1);
  if (cmd == "suite") {
    const std::string sub = argc >= 3 ? argv[2] : "";
    if (sub == "merge") return run_suite_merge_cmd(argc - 2, argv + 2);
    if (sub != "run" && sub != "expand") {
      std::fprintf(stderr, "cr suite: expected \"run\", \"expand\" or \"merge\"\n");
      return 2;
    }
    return run_suite_cmd(sub, argc - 2, argv + 2);
  }
  if (cmd == "cache") return run_cache_cmd(argc - 1, argv + 1);
  std::fprintf(stderr, "cr: unknown command \"%s\"\n\n", cmd.c_str());
  return usage(2);
}
