#include "trace.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

thread_local std::uint64_t t_current_span = 0;

}  // namespace

Tracer::Tracer(bool enabled, std::string workload)
    : enabled_(enabled), workload_(std::move(workload)), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

std::uint64_t Tracer::begin(const std::string& name, std::uint64_t parent) {
  if (!enabled_) return 0;
  const double start = now();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = name;
  span.workload = workload_;
  span.start = start;
  span.end = -1.0;  // open
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const double end = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> closed;
  for (const Span& s : spans_)
    if (s.end >= 0.0) closed.push_back(s);
  return closed;
}

void Tracer::write_jsonl(std::ostream& os) const {
  for (const Span& s : spans()) {
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
       << "\",\"workload\":\"" << s.workload << "\",\"start_s\":" << s.start
       << ",\"end_s\":" << s.end << "}\n";
  }
}

ScopedSpan::ScopedSpan(Tracer& tracer, const std::string& name)
    : ScopedSpan(tracer, name, t_current_span) {}

ScopedSpan::ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t parent)
    : tracer_(tracer), id_(tracer.begin(name, parent)), saved_current_(t_current_span) {
  if (id_ != 0) t_current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  tracer_.end(id_);
  t_current_span = saved_current_;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    const auto parent = index_of.find(s.parent);
    if (s.parent != 0 && parent != index_of.end())
      children[parent->second].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool in_run = false;
    for (const auto& [lo_raw, hi_raw] : kids) {
      const double lo = std::max(lo_raw, s.start);
      const double hi = std::min(hi_raw, s.end);
      if (hi <= lo) continue;
      if (in_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (in_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      in_run = true;
    }
    if (in_run) covered += run_hi - run_lo;
    self[i] = s.duration() - covered;
  }
  return self;
}

std::map<std::string, double> module_self_times(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> by_module;
  for (std::size_t i = 0; i < spans.size(); ++i) by_module[spans[i].module()] += self[i];
  return by_module;
}

}  // namespace perfbench
