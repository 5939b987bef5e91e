// perfbench — the simulator's benchmark. See perfbench/README.md.
//
//   perfbench --workload repro|sweep --seed N --seconds S --trace 0|1
//             [--root DIR] [--work DIR] [--spans PATH]
//
// Runs rounds of the three paths (sweep, repro, stream) for at most S
// seconds; the workload chooses whether repro or sweep runs at full size.
// The last stdout line is one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/source_digest.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unspecified"
#endif

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::median;

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks every printed name against it).
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"repro_s", "s"},
    {"fast_cjz_slots_per_s", "slots/s"},
    {"lockstep_slots_per_s", "slots/s"},
    {"events_per_s", "events/s"},
    {"lag_p50_us", "us"},
    {"lag_p90_us", "us"},
};

const std::vector<Metric> kPerLayer = {
    {"cli.suite.cell_s.worstcase", "s"},
    {"cli.suite.cell_s.cd_contrast", "s"},
    {"cli.suite.cell_s.tradeoff", "s"},
    {"cli.suite.cell_s.rest", "s"},
    {"cli.suite.overhead_s", "s"},
    {"exp.harness.cores_busy", "cores"},
    {"verify.evaluate_ms", "ms"},
    {"dist.cache.hit_ms_per_cell", "ms"},
    {"engine.fast_cjz.slots_per_s.bernoulli_iid", "slots/s"},
    {"engine.fast_cjz.slots_per_s.bernoulli_reactive", "slots/s"},
    {"engine.fast_cjz.slots_per_s.paced_iid", "slots/s"},
    {"engine.fast_cjz.slots_per_s.paced_reactive", "slots/s"},
    {"engine.fast_cjz.slots_per_s.batch_iid", "slots/s"},
    {"engine.fast_cjz.slots_per_s.batch_reactive", "slots/s"},
    {"engine.fast_cjz.slots_per_s.long", "slots/s"},
    {"engine.fast_cjz.long_rss_mb", "MB"},
    {"engine.lockstep.slots_per_s.bernoulli_iid", "slots/s"},
    {"engine.lockstep.slots_per_s.bernoulli_reactive", "slots/s"},
    {"engine.lockstep.slots_per_s.paced_iid", "slots/s"},
    {"engine.lockstep.slots_per_s.paced_reactive", "slots/s"},
    {"engine.lockstep.slots_per_s.batch_iid", "slots/s"},
    {"engine.lockstep.slots_per_s.batch_reactive", "slots/s"},
    {"engine.lockstep.sweep_build_ms", "ms"},
    {"exp.workload.build_us", "us"},
    {"adversary.on_slot_ns.bernoulli", "ns"},
    {"adversary.on_slot_ns.paced", "ns"},
    {"adversary.on_slot_ns.batch", "ns"},
    {"adversary.on_slot_ns.iid", "ns"},
    {"adversary.on_slot_ns.reactive", "ns"},
    {"engine.cjz_core.silent_ns_per_slot", "ns"},
    {"common.rng.xoshiro_words_per_s", "words/s"},
    {"common.rng.philox_words_per_s", "words/s"},
    {"engine.stream.consumer_cpu_ns_per_event", "ns"},
    {"engine.stream.producer_stall_ms", "ms"},
    {"engine.stream.ring_highwater", "count"},
    {"common.snapshot.bytes", "bytes"},
    {"common.snapshot.save_us", "us"},
    {"common.snapshot.restore_us", "us"},
    {"engine.stream.generator_late_us_p90", "us"},
    {"engine.stream.lag_p99_us", "us"},
    {"cli.suite.cells", "count"},
    {"dist.cache.hits", "count"},
    {"engine.slots", "count"},
    {"engine.stream.slots", "count"},
    {"metrics.windowed.windows", "count"},
    {"cli.self_s", "s"},
    {"verify.self_s", "s"},
    {"dist.self_s", "s"},
    {"exp.self_s", "s"},
    {"engine.self_s", "s"},
    {"adversary.self_s", "s"},
    {"common.self_s", "s"},
    {"perfbench.trace.overhead_pct", "%"},
    {"perfbench.trace.spans", "count"},
};

/// Sizes of the repro and sweep paths in one workload: the focus path at
/// full size, the other as a small fixed probe. The stream path runs at full
/// size (kStreamEvents) on every workload.
struct Plan {
  std::string repro_manifest;  ///< relative to the checkout root
  bool repro_claims = false;
  cr::slot_t sweep_horizon = 0;
  cr::slot_t sweep_long = 0;
  cr::slot_t lockstep_horizon = 0;
};

constexpr int kSweepReps = 16;
constexpr double kOpenRate = 500000.0;  // ~a quarter of closed-loop capacity
// Open-loop events arrive in bursts of this many, one burst every
// kOpenBurst / kOpenRate = 512 us: a window's lag is then mostly the time
// the consumer takes to work through the burst ahead of the window's
// closing event, not the ~2 us hand-off between two CPUs, which on a shared
// host drifted from 1.5 to 2.8 us within one minute with no code change.
constexpr std::size_t kOpenBurst = 256;
constexpr std::uint64_t kStreamEvents = 1000000;
// Set-ups per run, about a second in all: one set-up lasts ~12 ms, and its
// time shifts by a third for tens of milliseconds at a time on a shared host.
constexpr int kSetups = 81;

bool make_plan(const std::string& workload, Plan* plan) {
  const Plan probe = {"perfbench/mini_suite.json", false, cr::slot_t{1} << 17,
                      cr::slot_t{1} << 20, cr::slot_t{1} << 19};
  *plan = probe;
  if (workload == "repro") {
    plan->repro_manifest = "suites/quick.json";
    plan->repro_claims = true;
  } else if (workload == "sweep") {
    plan->sweep_horizon = cr::slot_t{1} << 20;
    plan->sweep_long = cr::slot_t{1} << 24;
    plan->lockstep_horizon = plan->sweep_horizon;
  } else {
    return false;
  }
  return true;
}

struct Inputs {
  perfbench::ReproInput repro;
  perfbench::SweepInput sweep;
  perfbench::StreamInput stream;
};

Inputs set_up(const std::string& root, const Plan& plan, std::uint64_t seed) {
  return {perfbench::load_repro(root + "/" + plan.repro_manifest, plan.repro_claims),
          perfbench::make_sweep(plan.sweep_horizon, kSweepReps, plan.sweep_long,
                                plan.lockstep_horizon),
          perfbench::make_stream(seed, kStreamEvents, kOpenRate, kOpenBurst)};
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload repro|sweep --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--work DIR] [--spans PATH]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, root = ".", work, spans_path;
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--root") {
      root = value;
    } else if (key == "--work") {
      work = value;
    } else if (key == "--spans") {
      spans_path = value;
    } else if (key == "--seed" || key == "--seconds" || key == "--trace") {
      const long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 0) usage("bad number");
      (key == "--seed" ? seed : key == "--seconds" ? seconds : trace) = parsed;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) usage("flags come in --key value pairs");
  Plan plan;
  if (!make_plan(workload, &plan)) usage("--workload must be repro or sweep");
  if (seed < 0 || seconds < 1 || (trace != 0 && trace != 1)) usage("--seed, --seconds, --trace");
  if (!std::filesystem::exists(root + "/suites/quick.json") ||
      !std::filesystem::exists(root + "/" + plan.repro_manifest)) {
    std::cerr << "perfbench: " << root << " is not a checkout of the simulator\n";
    return 2;
  }
  if (work.empty()) work = root + "/.bench_build/work-" + std::to_string(::getpid());
  std::filesystem::create_directories(work);

  const bool traced_run = trace == 1;
  const int threads =
      static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  // Every number below carries the binary and host that produced it.
  std::cout << "{\"provenance\": {\"workload\": " << json_string(workload)
            << ", \"seed\": " << seed << ", \"seconds\": " << seconds
            << ", \"trace\": " << trace << ", \"threads\": " << threads
            << ", \"params\": {\"repro_manifest\": " << json_string(plan.repro_manifest)
            << ", \"sweep_horizon\": " << plan.sweep_horizon
            << ", \"sweep_reps\": " << kSweepReps << ", \"sweep_long\": " << plan.sweep_long
            << ", \"lockstep_horizon\": " << plan.lockstep_horizon
            << ", \"stream_events\": " << kStreamEvents
            << ", \"open_rate\": " << number(kOpenRate)
            << ", \"open_burst\": " << kOpenBurst
            << "}, \"cpu\": " << json_string(cpu_model())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": " << json_string(__VERSION__)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"source_digest\": " << json_string(cr::source_digest()) << "}}" << std::endl;

  perfbench::Tracer tracer(false, workload);
  perfbench::Gates gates;
  perfbench::Samples samples;
  perfbench::Context ctx;
  ctx.work_dir = work;
  ctx.seed = static_cast<std::uint64_t>(seed);
  ctx.threads = threads;
  ctx.trace_mode = traced_run;
  ctx.tracer = &tracer;
  ctx.gates = &gates;
  ctx.samples = &samples;

  // Set-up: build every input from the seed, several times; the median is
  // setup_s and the last build is used.
  std::vector<double> setup_s;
  Inputs inputs;
  for (int k = 0; k < kSetups; ++k) {
    const Clock::time_point t0 = Clock::now();
    inputs = set_up(root, plan, ctx.seed);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  // Rounds until the time budget is spent. Within a round a path runs only
  // if its previous call still fits in the time left, so once the focus path
  // no longer fits, the shorter paths fill the rest of the budget with more
  // samples. A traced run alternates untraced and traced rounds (at least
  // one of each) so it can report the tracing overhead on the focus path.
  // The stream path runs last, after the single-threaded repro path: its
  // open-loop lag was measured most disturbed right after the sweep's
  // multi-threaded burst.
  struct Path {
    bool focus;
    std::function<void()> run;
    double last_s = 0.0;
  };
  Path paths[] = {
      {workload == "sweep", [&] { perfbench::run_sweep(ctx, inputs.sweep, workload == "sweep"); }},
      {workload == "repro", [&] { perfbench::run_repro(ctx, inputs.repro, workload == "repro"); }},
      {false, [&] { perfbench::run_stream(ctx, inputs.stream); }},
  };
  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] { return std::chrono::duration<double>(Clock::now() - start).count(); };
  std::vector<double> focus_wall[2];
  int round = 0;
  for (bool ran = true; ran; ++round) {
    const bool traced = traced_run && round % 2 == 1;
    const bool forced = traced_run && round < 2;
    tracer.set_enabled(traced);
    ran = false;
    for (Path& path : paths) {
      if (!forced && elapsed() + path.last_s > static_cast<double>(seconds)) continue;
      const Clock::time_point t0 = Clock::now();
      path.run();
      path.last_s = std::chrono::duration<double>(Clock::now() - t0).count();
      if (path.focus) focus_wall[traced ? 1 : 0].push_back(path.last_s);
      ran = true;
    }
  }

  std::vector<std::pair<std::string, double>> metrics;
  if (!traced_run) {
    for (const Metric& m : kEndToEnd) {
      const std::string name = m.name;
      double v = 0.0;
      if (name == "setup_s") v = median(setup_s);
      else if (name == "peak_rss_mb") v = perfbench::peak_rss_mb();
      else v = median(samples.values[name]);
      metrics.emplace_back(name, v);
    }
  } else {
    tracer.set_enabled(true);
    perfbench::run_layer_probes(ctx, inputs.sweep);
    const std::vector<perfbench::Span> spans = tracer.spans();
    const auto self = perfbench::module_self_times(spans);
    for (const Metric& m : kPerLayer) {
      const std::string name = m.name;
      double v = 0.0;
      if (name == "perfbench.trace.spans") v = static_cast<double>(spans.size());
      else if (name == "perfbench.trace.overhead_pct")
        v = 100.0 * (median(focus_wall[1]) / median(focus_wall[0]) - 1.0);
      else if (name.size() > 7 && name.compare(name.size() - 7, 7, ".self_s") == 0) {
        const auto it = self.find(name.substr(0, name.size() - 7));
        v = it == self.end() ? 0.0 : it->second;
      } else {
        const auto it = samples.values.find(name);
        if (it == samples.values.end()) {
          std::cerr << "perfbench: no samples for per-layer metric " << name << "\n";
          return 1;
        }
        v = median(it->second);
      }
      metrics.emplace_back(name, v);
    }
    if (!spans_path.empty()) {
      std::ofstream out(spans_path);
      tracer.write_jsonl(out);
    }
    // The per-layer table, self times included, for a human reader.
    std::cout << "per-layer table (" << workload << ", seed " << seed << ", "
              << focus_wall[0].size() + focus_wall[1].size() << " focus calls, "
              << focus_wall[1].size() << " traced; " << spans.size()
              << " spans)\n";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-48s %16.6g %s\n", metrics[i].first.c_str(),
                    metrics[i].second, kPerLayer[i].unit);
      std::cout << line;
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(work, ec);

  const std::vector<Metric>& table = traced_run ? kPerLayer : kEndToEnd;
  std::cout << "{\"correct\": " << (gates.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << gates.attempted << ", \"failed\": " << gates.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << json_string(metrics[i].first) << ": {\"value\": "
              << number(metrics[i].second) << ", \"unit\": " << json_string(table[i].unit)
              << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;  // a failed gate is reported as "correct": false, not as a crash
}
