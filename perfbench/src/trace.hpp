// Spans recorded by the benchmark around its own calls into the simulator's
// layers. Nothing inside src/ is instrumented: a span brackets one call the
// benchmark makes (run_suite, replicate_workload, StreamSim::run, ...), so a
// layer's time is what its public entry point costs the caller.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span. Times are seconds since the tracer's epoch.
struct Span {
  std::uint64_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint64_t parent = 0;  ///< enclosing span id, 0 for a root
  std::string name;          ///< "<module>.<call>", e.g. "exp.replicate_workload"
  std::string workload;      ///< workload id the span belongs to
  double start = 0.0;
  double end = 0.0;

  double duration() const { return end - start; }
  /// Layer name: the text before the first '.'.
  std::string module() const { return name.substr(0, name.find('.')); }
};

/// In-memory span recorder, safe to use from several threads. Disabled
/// tracers record nothing and cost one branch per span, so the untraced
/// runs that give the end-to-end metrics execute the same benchmark code.
class Tracer {
 public:
  Tracer(bool enabled, std::string workload);

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its id (0 when disabled).
  std::uint64_t begin(const std::string& name, std::uint64_t parent);
  void end(std::uint64_t id);

  /// Closed spans, in the order they were opened.
  std::vector<Span> spans() const;

  /// Writes every closed span as one JSON object per line.
  void write_jsonl(std::ostream& os) const;

 private:
  double now() const;

  bool enabled_;
  std::string workload_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span. The parent defaults to the innermost ScopedSpan open on the
/// calling thread; a worker thread passes its parent explicitly.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name);
  ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
  std::uint64_t saved_current_;
};

/// Self time of every span: its duration minus the part of [start, end]
/// covered by the union of its direct children (children that overlap in
/// time, e.g. replications on parallel threads, are counted once). Indexed
/// like `spans`.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Sum of self times per module ("cli", "exp", "engine", ...).
std::map<std::string, double> module_self_times(const std::vector<Span>& spans);

}  // namespace perfbench
