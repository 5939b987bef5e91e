#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <streambuf>
#include <thread>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "engine/engine.hpp"
#include "engine/fast_cjz.hpp"
#include "exp/harness.hpp"
#include "stats.hpp"
#include "verify/verify.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Keeps the results of timed loops observable so they are not optimised away.
volatile std::uint64_t g_sink = 0;

// ---------------------------------------------------------------- repro ----

struct ManifestCell {
  std::string id;
  std::string bench;
  std::string status;
  double seconds = 0.0;
  std::string csv_fnv;
};

std::vector<ManifestCell> read_manifest_cells(const std::string& path) {
  std::vector<ManifestCell> cells;
  const cr::JsonParseResult parsed = cr::JsonValue::parse_file(path);
  if (!parsed.ok()) return cells;
  const cr::JsonValue* list = parsed.value->find("cells");
  if (list == nullptr || !list->is_array()) return cells;
  for (const auto& item : list->items()) {
    ManifestCell cell;
    if (const auto* v = item->find("id"); v != nullptr && v->is_string()) cell.id = v->as_string();
    if (const auto* v = item->find("bench"); v != nullptr && v->is_string())
      cell.bench = v->as_string();
    if (const auto* v = item->find("status"); v != nullptr && v->is_string())
      cell.status = v->as_string();
    if (const auto* v = item->find("seconds"); v != nullptr && v->is_number())
      cell.seconds = v->as_number();
    if (const auto* v = item->find("csv_fnv"); v != nullptr && v->is_string())
      cell.csv_fnv = v->as_string();
    cells.push_back(cell);
  }
  return cells;
}

int g_repro_pass = 0;

// ---------------------------------------------------------------- sweep ----

/// The sweep's adversary components, as workload flags.
struct Component {
  std::string name;
  std::vector<std::pair<std::string, std::string>> kvs;
};

const std::vector<Component> kArrivals = {
    {"bernoulli", {{"arrival", "bernoulli"}, {"arrival.rate", "0.1"}}},
    {"paced", {{"arrival", "paced"}}},
    {"batch", {{"arrival", "batch"}, {"arrival.n", "1024"}}},
};

const std::vector<Component> kJammers = {
    {"iid", {{"jammer", "iid"}, {"jammer.fraction", "0.25"}}},
    {"reactive", {{"jammer", "reactive"}}},
};

cr::WorkloadSpec parse_spec(const std::vector<std::pair<std::string, std::string>>& kvs) {
  const cr::WorkloadParse parsed = cr::parse_workload(kvs);
  if (!parsed.ok()) {
    std::cerr << "perfbench: bad workload spec: " << parsed.error << "\n";
    std::exit(2);
  }
  return parsed.spec;
}

std::uint64_t sum_slots(const std::vector<cr::SimResult>& results) {
  std::uint64_t slots = 0;
  for (const cr::SimResult& r : results) slots += r.slots;
  return slots;
}

/// Reads a "VmHWM:" style line of /proc/self/status in MB; -1 when absent.
double proc_status_mb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0)
      return std::strtod(line.c_str() + key_len, nullptr) / 1024.0;
  }
  return -1.0;
}

/// Resets the process's RSS high-water mark (VmHWM); false when unsupported.
bool reset_rss_high_water() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

// --------------------------------------------------------------- stream ----

/// Output sink for StreamSim::run that keeps the JSONL bytes and stamps each
/// line with the time it was flushed (StreamSim flushes after every line).
class LineClock : public std::streambuf {
 public:
  explicit LineClock(std::size_t expected_lines) {
    text_.reserve(expected_lines * 192);
    stamps_.reserve(expected_lines + 16);
  }

  const std::string& text() const { return text_; }
  const std::vector<Clock::time_point>& stamps() const { return stamps_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) text_.push_back(static_cast<char>(ch));
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text_.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int sync() override {
    const Clock::time_point now = Clock::now();
    for (; scanned_ < text_.size(); ++scanned_)
      if (text_[scanned_] == '\n') stamps_.push_back(now);
    return 0;
  }

 private:
  std::string text_;
  std::vector<Clock::time_point> stamps_;
  std::size_t scanned_ = 0;
};

cr::StreamOptions stream_options(std::uint64_t seed) {
  cr::StreamOptions opts;
  opts.seed = seed;
  opts.window = 1024;
  opts.checkpoint_every = 100000;  // the CI soak's checkpoint period
  opts.node_table = cr::NodeTableKind::kSparse;
  return opts;
}

std::uint64_t json_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      lines.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

/// Pins the calling thread to one CPU and restores its previous CPU mask on
/// destruction (threads it starts meanwhile inherit the pin). A negative
/// CPU pins nothing.
class CpuPin {
 public:
  explicit CpuPin(int cpu) {
    if (cpu < 0 || pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
  }
  ~CpuPin() {
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// The CPUs for the stream loop's consumer and producer: the last two CPUs
/// the process may use, or {-1, -1} (no pinning) when it has only one. Left
/// to the scheduler, the two threads shared one CPU in some runs and had
/// two in others, which moved closed-loop throughput by ~1.5x and the lag
/// tail several-fold from run to run; fixing the placement removes that.
std::pair<int, int> stream_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {-1, -1};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  if (cpus.size() < 2) return {-1, -1};
  return {cpus[cpus.size() - 2], cpus.back()};
}

struct LoopOutcome {
  cr::StreamRunSummary summary;
  std::unique_ptr<LineClock> lines;
  double wall_s = 0.0;
  double consumer_cpu_s = 0.0;
  double stall_s = 0.0;
  std::size_t highwater = 0;
  Clock::time_point t0;  ///< open loop: when event 0 was due
};

/// Feeds `feed` through a 1024-slot ring (block policy) from a producer
/// thread into `sim` on this thread. Closed loop: push as fast as the ring
/// accepts. Open loop: event i is due at t0 + in.due_s(i), the producer
/// waits for each due time, and `late_us[i]` records how late it pushed.
LoopOutcome stream_loop(Context& ctx, cr::StreamSim& sim, const StreamInput& in, bool open,
                        std::vector<double>* late_us) {
  LoopOutcome out;
  const std::size_t n = in.feed.size();
  out.lines = std::make_unique<LineClock>(n / 64 + 16);
  std::ostream os(out.lines.get());
  cr::EventRing ring(1024);
  out.t0 = Clock::now() + std::chrono::milliseconds(2);
  if (late_us != nullptr) late_us->assign(n, 0.0);

  Clock::duration stall{};
  std::size_t highwater = 0;
  const auto [consumer_cpu, producer_cpu] = stream_cpus();
  const CpuPin consumer_pin(consumer_cpu);
  // jthread: if run() throws, the destructor stops and joins the producer.
  std::jthread producer([&](std::stop_token stop) {
    const CpuPin producer_pin(producer_cpu);
    ScopedSpan span(*ctx.tracer, "engine.stream.ring_feed", 0);
    for (std::size_t i = 0; i < n; ++i) {
      const cr::StreamEvent& ev = in.feed[i];
      Clock::time_point due{};
      if (open) {
        due = out.t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 * in.due_s(i)));
        // Yield-wait: sleeping overshoots a sub-millisecond schedule, and on
        // a shared 4-vCPU KVM guest a pure busy-wait showed millisecond
        // producer stalls at p99 where yielding did not.
        while (Clock::now() < due) std::this_thread::yield();
      }
      if (!ring.try_push(ev)) {
        const Clock::time_point wait0 = Clock::now();
        while (!ring.try_push(ev)) {
          if (stop.stop_requested()) return;
          std::this_thread::yield();
        }
        stall += Clock::now() - wait0;
      }
      if (open) (*late_us)[i] = 1e6 * seconds_between(due, Clock::now());
      highwater = std::max(highwater, ring.size());
    }
    ring.close();
  });

  const double cpu0 = thread_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(*ctx.tracer, "engine.stream.run");
    out.summary = sim.run(ring, os);
  }
  out.wall_s = seconds_between(t0, Clock::now());
  out.consumer_cpu_s = thread_cpu_seconds() - cpu0;
  producer.join();
  out.stall_s = std::chrono::duration<double>(stall).count();
  out.highwater = highwater;
  return out;
}

/// Checks one loop's output (`lines` is its text split at newlines);
/// returns the FNV-1a of its JSONL bytes.
std::uint64_t check_loop(Context& ctx, const LoopOutcome& loop,
                         const std::vector<std::string>& lines, std::size_t events,
                         const char* label) {
  const std::string& text = loop.lines->text();
  const std::string tag = std::string("stream ") + label;
  ctx.gates->check(loop.summary.ok(), tag + ": run reported no error");
  ctx.gates->check(loop.summary.events_applied == events,
                   tag + ": every event applied (0 drops)");
  ctx.gates->check(!lines.empty() && lines.back().rfind("{\"done\":true", 0) == 0 &&
                       json_field(lines.back(), "arrivals") == events,
                   tag + ": done line has arrivals = N");
  ctx.gates->check(loop.lines->stamps().size() == lines.size(),
                   tag + ": every line flushed and stamped");
  return cr::fnv1a64(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
}

}  // namespace

void Gates::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "perfbench: gate failed: " << what << "\n";
  }
}

double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec) + 1e-6 * usage.ru_utime.tv_usec +
             static_cast<double>(usage.ru_stime.tv_sec) + 1e-6 * usage.ru_stime.tv_usec;
  }
  return total;
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

// ---------------------------------------------------------------- repro ----

ReproInput load_repro(const std::string& manifest_path, bool check_claims) {
  cr::SuiteLoadResult loaded = cr::load_suite(manifest_path);
  if (!loaded.ok()) {
    std::cerr << "perfbench: " << loaded.error << "\n";
    std::exit(2);
  }
  return {std::move(loaded.spec), check_claims};
}

void run_repro(Context& ctx, const ReproInput& in, bool focus) {
  namespace fs = std::filesystem;
  const std::string dir = ctx.work_dir + "/repro-" + std::to_string(g_repro_pass++);
  cr::SuiteRunOptions opts;
  opts.output_dir = dir + "/cold";
  opts.quick = true;
  opts.threads = ctx.threads;
  opts.cache_dir = dir + "/cache";
  std::ostringstream log;

  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  int cold_rc = 0;
  {
    ScopedSpan span(*ctx.tracer, "cli.run_suite");
    cold_rc = cr::run_suite(in.spec, opts, log);
  }
  const Clock::time_point t1 = Clock::now();
  const double cpu1 = cpu_seconds();
  std::vector<cr::verify::ClaimOutcome> claims;
  {
    ScopedSpan span(*ctx.tracer, "verify.evaluate_claims");
    claims = cr::verify::evaluate_claims(opts.output_dir, true);
  }
  const Clock::time_point t2 = Clock::now();
  const std::string cold_dir = opts.output_dir;
  opts.output_dir = dir + "/warm";
  int warm_rc = 0;
  {
    ScopedSpan span(*ctx.tracer, "dist.cache.warm_suite");
    warm_rc = cr::run_suite(in.spec, opts, log);
  }
  const Clock::time_point t3 = Clock::now();

  const std::vector<ManifestCell> cold = read_manifest_cells(cold_dir + "/manifest.json");
  const std::vector<ManifestCell> warm = read_manifest_cells(opts.output_dir + "/manifest.json");
  const std::string tag = "repro " + in.spec.name;
  ctx.gates->check(cold_rc == 0 && !cold.empty() &&
                       std::all_of(cold.begin(), cold.end(),
                                   [](const ManifestCell& c) { return c.status == "ok"; }),
                   tag + ": every cell ok");
  if (in.check_claims) {
    const std::size_t passed = static_cast<std::size_t>(std::count_if(
        claims.begin(), claims.end(), [](const auto& c) { return c.passed(); }));
    ctx.gates->check(!claims.empty() && passed == claims.size(),
                     tag + ": verify " + std::to_string(passed) + "/" +
                         std::to_string(claims.size()) + " claims pass");
  }
  std::size_t hits = 0;
  bool same_bytes = warm.size() == cold.size();
  for (std::size_t i = 0; i < warm.size(); ++i) {
    if (warm[i].status == "hit") ++hits;
    same_bytes = same_bytes && warm[i].id == cold[i].id && !warm[i].csv_fnv.empty() &&
                 warm[i].csv_fnv == cold[i].csv_fnv;
  }
  ctx.gates->check(warm_rc == 0 && hits == cold.size(), tag + ": warm rerun hits every cell");
  ctx.gates->check(same_bytes, tag + ": warm csv_fnv equals the cold run's");

  double cells_s = 0.0;
  std::map<std::string, double> by_bench = {
      {"worstcase", 0.0}, {"cd_contrast", 0.0}, {"tradeoff", 0.0}, {"rest", 0.0}};
  for (const ManifestCell& c : cold) {
    cells_s += c.seconds;
    by_bench[by_bench.count(c.bench) != 0 ? c.bench : "rest"] += c.seconds;
  }
  Samples& s = *ctx.samples;
  s.add("repro_s", seconds_between(t0, t2));
  for (const auto& [bench, secs] : by_bench) s.add("cli.suite.cell_s." + bench, secs);
  s.add("cli.suite.overhead_s", seconds_between(t0, t1) - cells_s);
  s.add("verify.evaluate_ms", 1e3 * seconds_between(t1, t2));
  s.add("dist.cache.hit_ms_per_cell",
        1e3 * seconds_between(t2, t3) / static_cast<double>(std::max<std::size_t>(cold.size(), 1)));
  s.add("cli.suite.cells", static_cast<double>(cold.size()));
  s.add("dist.cache.hits", static_cast<double>(hits));
  if (focus) s.add("exp.harness.cores_busy", (cpu1 - cpu0) / seconds_between(t0, t1));

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------- sweep ----

SweepInput make_sweep(cr::slot_t horizon, int reps, cr::slot_t long_horizon,
                      cr::slot_t lockstep_horizon) {
  SweepInput in;
  in.reps = reps;
  for (const Component& a : kArrivals) {
    for (const Component& j : kJammers) {
      std::vector<std::pair<std::string, std::string>> kvs = a.kvs;
      kvs.insert(kvs.end(), j.kvs.begin(), j.kvs.end());
      std::vector<std::pair<std::string, std::string>> lockstep_kvs = kvs;
      kvs.emplace_back("horizon", std::to_string(horizon));
      lockstep_kvs.emplace_back("horizon", std::to_string(lockstep_horizon));
      // reactive jams after observed successes, so it reads the history.
      SweepPoint point{a.name + "_" + j.name, parse_spec(kvs), parse_spec(lockstep_kvs),
                       j.name != "reactive", false};
      const cr::LockstepCertificate cert = cr::lockstep_certificate(point.spec);
      point.exact_jams = point.history_independent &&
                         !(cert.eligible && cert.quiet_after < point.spec.horizon);
      in.points.push_back(std::move(point));
    }
  }
  cr::ScenarioParams params;
  params.horizon = long_horizon;
  in.long_point = cr::scenario_preset_workload("bernoulli_stream", params);
  return in;
}

void run_sweep(Context& ctx, const SweepInput& in, bool focus) {
  const cr::Engine& fast = cr::EngineRegistry::instance().at("fast_cjz");
  const cr::Engine& lock = cr::EngineRegistry::instance().at("lockstep");
  Samples& s = *ctx.samples;
  double fast_slots = 0.0, fast_s = 0.0, lock_slots = 0.0, lock_s = 0.0;
  const double cpu0 = cpu_seconds();

  const auto replicate = [&](const cr::Engine& engine, const cr::WorkloadSpec& spec) {
    ScopedSpan span(*ctx.tracer, "exp.replicate_workload");
    return cr::replicate_workload(engine, spec, in.reps, ctx.seed, ctx.threads);
  };
  for (const SweepPoint& p : in.points) {
    std::vector<cr::SimResult> results[2];
    const cr::Engine* engines[2] = {&fast, &lock};
    for (int e = 0; e < 2; ++e) {
      const Clock::time_point t0 = Clock::now();
      results[e] = replicate(*engines[e], e == 0 ? p.spec : p.lockstep_spec);
      const double secs = seconds_between(t0, Clock::now());
      const double slots = static_cast<double>(sum_slots(results[e]));
      s.add("engine." + engines[e]->name() + ".slots_per_s." + p.name, slots / secs);
      (e == 0 ? fast_slots : lock_slots) += slots;
      (e == 0 ? fast_s : lock_s) += secs;
    }
    if (p.lockstep_spec.horizon != p.spec.horizon) results[1] = replicate(lock, p.spec);
    const auto& f = results[0];
    const auto& l = results[1];
    bool full = f.size() == static_cast<std::size_t>(in.reps) && l.size() == f.size();
    bool bounded = full;
    bool arrivals_match = full;
    bool jams_match = full;
    double jam_diff = 0.0;
    for (std::size_t r = 0; full && r < f.size(); ++r) {
      full = f[r].slots == p.spec.horizon && l[r].slots == p.spec.horizon;
      bounded = bounded && f[r].successes <= f[r].arrivals && l[r].successes <= l[r].arrivals;
      arrivals_match = arrivals_match && f[r].arrivals == l[r].arrivals;
      jams_match = jams_match && f[r].jammed_slots == l[r].jammed_slots;
      jam_diff += static_cast<double>(f[r].jammed_slots) - static_cast<double>(l[r].jammed_slots);
    }
    ctx.gates->check(full, "sweep " + p.name + ": every run simulates the horizon");
    ctx.gates->check(bounded, "sweep " + p.name + ": successes <= arrivals");
    if (p.history_independent) {
      ctx.gates->check(arrivals_match,
                       "sweep " + p.name + ": fast_cjz and lockstep agree on arrivals per seed");
      if (p.exact_jams) {
        ctx.gates->check(jams_match, "sweep " + p.name +
                                         ": fast_cjz and lockstep agree on jammed slots per seed");
      } else {
        // Six standard deviations of the difference of two independent
        // Binomial(horizon, 1/4) sums over all reps: a loose bound that
        // still catches a wrong jam rate or a lost tail.
        const double sd = std::sqrt(2.0 * static_cast<double>(f.size()) *
                                    static_cast<double>(p.spec.horizon) * 0.25 * 0.75);
        ctx.gates->check(std::fabs(jam_diff) <= 6.0 * sd,
                         "sweep " + p.name + ": jammed slots agree in distribution");
      }
    }
  }

  cr::WorkloadSpec spec = in.long_point;
  spec.seed = ctx.seed;
  cr::Scenario sc = cr::build_workload(spec);
  sc.config = cr::SimConfig{};
  sc.config.horizon = spec.horizon;
  sc.config.seed = ctx.seed;
  sc.config.node_table = cr::NodeTableKind::kSparse;
  const bool hwm_reset = ctx.trace_mode && reset_rss_high_water();
  const Clock::time_point t0 = Clock::now();
  cr::SimResult r;
  {
    ScopedSpan span(*ctx.tracer, "engine.run_fast_cjz");
    r = cr::run_fast_cjz(sc.protocol.fs, *sc.adversary, sc.config, nullptr,
                         sc.protocol.cjz_options);
  }
  const double secs = seconds_between(t0, Clock::now());
  ctx.gates->check(r.slots == spec.horizon && r.successes <= r.arrivals,
                   "sweep long point: horizon simulated, successes <= arrivals");
  s.add("engine.fast_cjz.slots_per_s.long", static_cast<double>(r.slots) / secs);
  if (ctx.trace_mode) {
    const double hwm = hwm_reset ? proc_status_mb("VmHWM:") : -1.0;
    s.add("engine.fast_cjz.long_rss_mb", hwm > 0.0 ? hwm : peak_rss_mb());
  }
  fast_slots += static_cast<double>(r.slots);
  fast_s += secs;

  s.add("fast_cjz_slots_per_s", fast_slots / fast_s);
  s.add("lockstep_slots_per_s", lock_slots / lock_s);
  s.add("engine.slots", fast_slots + lock_slots);
  if (focus) s.add("exp.harness.cores_busy", (cpu_seconds() - cpu0) / (fast_s + lock_s));
}

// --------------------------------------------------------------- stream ----

StreamInput make_stream(std::uint64_t seed, std::uint64_t events, double open_rate,
                        std::size_t open_burst) {
  return {cr::synth_stream_events(seed, events), open_rate, open_burst};
}

void run_stream(Context& ctx, const StreamInput& in) {
  const std::size_t n = in.feed.size();
  Samples& s = *ctx.samples;
  const cr::StreamOptions opts = stream_options(ctx.seed);

  // (a) closed loop, with periodic checkpoints cut as in the CI soak.
  cr::StreamSim closed_sim(opts);
  std::uint64_t checkpoints = 0;
  closed_sim.set_checkpoint_sink([&](const std::vector<std::uint8_t>&) { ++checkpoints; });
  const LoopOutcome closed = stream_loop(ctx, closed_sim, in, false, nullptr);
  const std::uint64_t closed_fnv =
      check_loop(ctx, closed, split_lines(closed.lines->text()), n, "closed loop");
  ctx.gates->check(checkpoints > 0, "stream closed loop: periodic checkpoints cut");
  s.add("events_per_s", static_cast<double>(n) / closed.wall_s);
  s.add("engine.stream.consumer_cpu_ns_per_event", 1e9 * closed.consumer_cpu_s / static_cast<double>(n));
  s.add("engine.stream.producer_stall_ms", 1e3 * closed.stall_s);
  s.add("engine.stream.ring_highwater", static_cast<double>(closed.highwater));
  s.add("engine.stream.slots", static_cast<double>(closed.summary.slots));
  s.add("metrics.windowed.windows", static_cast<double>(closed.summary.windows));

  // Snapshot cost at the end-of-feed state, and a bit-exact restore.
  std::vector<double> save_us, restore_us;
  std::vector<std::uint8_t> blob;
  for (int k = 0; k < 5; ++k) {
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(*ctx.tracer, "engine.stream.snapshot");
      blob = closed_sim.snapshot();
    }
    save_us.push_back(1e6 * seconds_between(t0, Clock::now()));
  }
  bool restored = true;
  for (int k = 0; k < 5; ++k) {
    cr::StreamSim fresh(opts);
    std::string error;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(*ctx.tracer, "engine.stream.restore");
      restored = fresh.restore(blob, &error) && restored;
    }
    restore_us.push_back(1e6 * seconds_between(t0, Clock::now()));
    restored = restored && fresh.snapshot() == blob;
  }
  ctx.gates->check(restored, "stream: snapshot restores bit-exactly");
  s.add("common.snapshot.bytes", static_cast<double>(blob.size()));
  s.add("common.snapshot.save_us", median(save_us));
  s.add("common.snapshot.restore_us", median(restore_us));

  // (b) open loop at the fixed offered rate, in bursts, on the same feed.
  cr::StreamSim open_sim(opts);
  open_sim.set_checkpoint_sink([](const std::vector<std::uint8_t>&) {});
  std::vector<double> late;
  const LoopOutcome open = stream_loop(ctx, open_sim, in, true, &late);
  const std::vector<std::string> lines = split_lines(open.lines->text());
  const std::uint64_t open_fnv = check_loop(ctx, open, lines, n, "open loop");
  ctx.gates->check(open_fnv == closed_fnv,
                   "stream: closed-loop and open-loop JSONL are byte-identical");

  std::vector<std::uint64_t> event_slots(n);
  for (std::size_t i = 0; i < n; ++i) event_slots[i] = in.feed[i].slot;
  std::vector<std::uint64_t> window_ends;
  std::vector<Clock::time_point> window_stamps;
  for (std::size_t i = 0; i < lines.size() && i < open.lines->stamps().size(); ++i) {
    if (lines[i].rfind("{\"window\"", 0) != 0) continue;
    window_ends.push_back(json_field(lines[i], "end"));
    window_stamps.push_back(open.lines->stamps()[i]);
  }
  const std::vector<std::size_t> closers = closing_events(event_slots, window_ends);
  std::vector<double> lag_us;
  for (std::size_t w = 0; w < closers.size(); ++w) {
    const std::size_t closer = std::min(closers[w], n - 1);  // EOF: due with the last event
    const Clock::time_point due =
        open.t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 * in.due_s(closer)));
    lag_us.push_back(1e6 * seconds_between(due, window_stamps[w]));
  }
  // p50 and p90 per segment of kLagSegment windows (~90 ms of feed), reported
  // as the median over the run's segments: a burst of host steal time that
  // stalls the generator for a few milliseconds then moves the segments it
  // spans, not the run's figure. p99 is per round, so that it has at least
  // ten windows beyond it.
  constexpr std::size_t kLagSegment = 500;
  for (const double p50 : segment_percentiles(lag_us, kLagSegment, 0.50)) s.add("lag_p50_us", p50);
  for (const double p90 : segment_percentiles(lag_us, kLagSegment, 0.90)) s.add("lag_p90_us", p90);
  s.add("engine.stream.lag_p99_us", percentile(lag_us, 0.99));
  s.add("engine.stream.generator_late_us_p90", percentile(late, 0.90));
}

// --------------------------------------------------------- layer probes ----

void run_layer_probes(Context& ctx, const SweepInput& sweep) {
  Samples& s = *ctx.samples;
  Tracer& tracer = *ctx.tracer;
  const SweepPoint& point = sweep.points.front();  // bernoulli_iid

  std::vector<double> build_us;
  for (int k = 0; k < 32; ++k) {
    cr::WorkloadSpec spec = point.spec;
    spec.seed = ctx.seed + static_cast<std::uint64_t>(k);
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "exp.build_workload");
      const cr::Scenario sc = cr::build_workload(spec);
      g_sink = g_sink + sc.config.horizon;
    }
    build_us.push_back(1e6 * seconds_between(t0, Clock::now()));
  }
  s.add("exp.workload.build_us", median(build_us));

  std::vector<double> sweep_ms;
  for (int k = 0; k < 3; ++k) {
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "exp.lockstep_sweep");
      const cr::LockstepSweep built = cr::lockstep_sweep(point.spec, sweep.reps, ctx.seed, ctx.threads);
      g_sink = g_sink + built.reps;
    }
    sweep_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
  }
  s.add("engine.lockstep.sweep_build_ms", median(sweep_ms));

  // Adversary::on_slot per component, the other side set to "none", over an
  // empty counting history.
  std::vector<Component> components = kArrivals;
  components.insert(components.end(), kJammers.begin(), kJammers.end());
  constexpr cr::slot_t kAdversarySlots = cr::slot_t{1} << 20;
  for (const Component& c : components) {
    auto with_horizon = c.kvs;
    with_horizon.emplace_back("horizon", std::to_string(kAdversarySlots));
    cr::WorkloadSpec spec = parse_spec(with_horizon);
    spec.seed = ctx.seed;
    cr::Scenario sc = cr::build_workload(spec);
    cr::Trace trace(cr::Trace::Storage::kCounting);
    const cr::PublicHistory history(trace);
    cr::Rng rng(ctx.seed);
    std::uint64_t acc = 0;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "adversary.on_slot");
      for (cr::slot_t slot = 1; slot <= kAdversarySlots; ++slot) {
        const cr::AdversaryAction action = sc.adversary->on_slot(slot, history, rng);
        acc += action.inject + (action.jam ? 1 : 0);
        trace.advance(1);
      }
    }
    const double secs = seconds_between(t0, Clock::now());
    g_sink = g_sink + acc;
    s.add("adversary.on_slot_ns." + c.name, 1e9 * secs / static_cast<double>(kAdversarySlots));
  }

  // CjzCore on slots with nothing to do: no arrivals, no jamming.
  {
    constexpr cr::slot_t kSilent = cr::slot_t{1} << 22;
    cr::WorkloadSpec spec = parse_spec({{"horizon", std::to_string(kSilent)}});
    spec.seed = ctx.seed;
    cr::Scenario sc = cr::build_workload(spec);
    sc.config = cr::SimConfig{};
    sc.config.horizon = kSilent;
    sc.config.seed = ctx.seed;
    const Clock::time_point t0 = Clock::now();
    cr::SimResult r;
    {
      ScopedSpan span(tracer, "engine.run_fast_cjz");
      r = cr::run_fast_cjz(sc.protocol.fs, *sc.adversary, sc.config, nullptr,
                           sc.protocol.cjz_options);
    }
    const double secs = seconds_between(t0, Clock::now());
    ctx.gates->check(r.slots == kSilent && r.arrivals == 0, "probe: silent run covers its horizon");
    s.add("engine.cjz_core.silent_ns_per_slot", 1e9 * secs / static_cast<double>(kSilent));
  }

  // RNG substrates: words per second through their block fill.
  {
    constexpr std::size_t kBlock = 4096;
    constexpr std::size_t kWords = std::size_t{1} << 24;
    std::vector<std::uint64_t> buf(kBlock);
    cr::Rng rng(ctx.seed);
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "common.rng.fill");
      for (std::size_t done = 0; done < kWords; done += buf.size()) rng.fill(buf.data(), buf.size());
    }
    s.add("common.rng.xoshiro_words_per_s",
          static_cast<double>(kWords) / seconds_between(t0, Clock::now()));
    g_sink = g_sink + buf[kBlock - 1];
    const cr::CounterRng counter(ctx.seed);
    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "common.counter_rng.fill");
      for (std::size_t done = 0; done < kWords; done += buf.size())
        counter.fill(0, done, buf.data(), buf.size());
    }
    s.add("common.rng.philox_words_per_s",
          static_cast<double>(kWords) / seconds_between(t0, Clock::now()));
    g_sink = g_sink + buf[kBlock - 1];
  }

  // The scalar replication loop replicate_workload runs, split into spans:
  // per seed one build_workload and one run_scenario, on parallel workers.
  {
    const cr::Engine& fast = cr::EngineRegistry::instance().at("fast_cjz");
    std::vector<cr::SimResult> split;
    {
      ScopedSpan parent(tracer, "exp.replicate");
      const std::uint64_t parent_id = parent.id();
      split = cr::replicate(
          sweep.reps, ctx.seed,
          [&](std::uint64_t seed) {
            cr::WorkloadSpec per = point.spec;
            per.seed = seed;
            cr::Scenario sc;
            {
              ScopedSpan span(tracer, "exp.build_workload", parent_id);
              sc = cr::build_workload(per);
            }
            sc.config = cr::SimConfig{};
            sc.config.horizon = per.horizon;
            sc.config.seed = seed;
            ScopedSpan span(tracer, "engine.run_scenario", parent_id);
            return cr::run_scenario(fast, sc);
          },
          ctx.threads);
    }
    const std::vector<cr::SimResult> direct =
        cr::replicate_workload(fast, point.spec, sweep.reps, ctx.seed, ctx.threads);
    bool same = split.size() == direct.size();
    for (std::size_t r = 0; same && r < split.size(); ++r)
      same = split[r].successes == direct[r].successes && split[r].arrivals == direct[r].arrivals;
    ctx.gates->check(same, "probe: split replicate() equals replicate_workload");
  }
}

}  // namespace perfbench
