// The three measured paths of the simulator and the inputs they run on.
//
// Every workload runs all three paths each round, so every workload reports
// every end-to-end metric; the workload decides whether repro or sweep runs
// at full size (its focus), the other running as a small fixed probe. The
// stream path runs at full size on every workload:
//
//   repro   cr suite run + cr verify (run_suite, evaluate_claims, CellCache)
//   sweep   parameter-space replication (replicate_workload on fast_cjz and
//           lockstep, run_fast_cjz on one long point)
//   stream  StreamSim fed through an EventRing, closed loop then open loop
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cli/suite.hpp"
#include "engine/stream.hpp"
#include "exp/workload.hpp"
#include "trace.hpp"

namespace perfbench {

/// Correctness checks of a run; failures count against attempts.
struct Gates {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok, const std::string& what);
};

/// Per-round samples of every metric, by metric name.
struct Samples {
  std::map<std::string, std::vector<double>> values;
  void add(const std::string& name, double value) { values[name].push_back(value); }
};

/// What one phase call needs from the run.
struct Context {
  std::string work_dir;  ///< scratch directory inside the checkout
  std::uint64_t seed = 1;
  int threads = 4;
  bool trace_mode = false;  ///< a --trace 1 run: per-layer metrics are wanted
  Tracer* tracer = nullptr;
  Gates* gates = nullptr;
  Samples* samples = nullptr;
};

struct ReproInput {
  cr::SuiteSpec spec;
  bool check_claims = false;  ///< the manifest carries the claims' evidence
};

struct SweepPoint {
  std::string name;  ///< "<arrival>_<jammer>"
  cr::WorkloadSpec spec;
  /// The timed lockstep call's spec: `spec`, or in a probe `spec` at a
  /// longer horizon. lockstep runs several times faster than fast_cjz, and
  /// at a probe's short horizon one call lasts only milliseconds, of which a
  /// third is per-call set-up; a longer call measures the engine, and its
  /// throughput spread less from run to run. The cross-engine gates then
  /// use an untimed lockstep call on `spec`.
  cr::WorkloadSpec lockstep_spec;
  /// Neither component reads the channel history, so both engines see the
  /// same adversary draws per seed: arrivals must match exactly.
  bool history_independent = false;
  /// Jammed slots must match exactly too. Where lockstep's certificate
  /// allows its quiescent-tail skip (e.g. a batch that drains before the
  /// horizon), the tail's jam coins are replaced by one binomial draw, so
  /// jammed slots agree only in distribution (src/engine/lockstep.hpp).
  bool exact_jams = false;
};

struct SweepInput {
  std::vector<SweepPoint> points;
  int reps = 16;
  cr::WorkloadSpec long_point;  ///< one rep, fast_cjz, sparse node table
};

struct StreamInput {
  std::vector<cr::StreamEvent> feed;
  double open_rate = 0.0;       ///< offered events per second in the open loop
  std::size_t open_burst = 1;   ///< open loop: events due together, as one burst

  /// Open loop: seconds after the loop's start at which event `i` is due.
  /// Bursts of `open_burst` events are due every open_burst / open_rate s.
  double due_s(std::size_t i) const {
    return static_cast<double>(i / open_burst * open_burst) / open_rate;
  }
};

/// Loads a suite manifest; exits the process with a message on error.
ReproInput load_repro(const std::string& manifest_path, bool check_claims);
SweepInput make_sweep(cr::slot_t horizon, int reps, cr::slot_t long_horizon,
                      cr::slot_t lockstep_horizon);
StreamInput make_stream(std::uint64_t seed, std::uint64_t events, double open_rate,
                        std::size_t open_burst);

/// One repro pass: cold suite run into a fresh output and cache directory,
/// verify, then a warm rerun on the same cache. `focus` records cores_busy.
void run_repro(Context& ctx, const ReproInput& in, bool focus);
void run_sweep(Context& ctx, const SweepInput& in, bool focus);
void run_stream(Context& ctx, const StreamInput& in);

/// Traced runs only: single-layer measurements made by calling each layer's
/// entry point directly, plus one sweep point replicated through replicate()
/// with build_workload / run_scenario child spans.
void run_layer_probes(Context& ctx, const SweepInput& sweep);

/// Process CPU seconds (user + sys), including waited-for children.
double cpu_seconds();

/// Peak resident set size in MB of this process and of its waited-for
/// children, whichever is larger.
double peak_rss_mb();

}  // namespace perfbench
