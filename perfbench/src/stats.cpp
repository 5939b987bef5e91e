#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> segment_percentiles(const std::vector<double>& values,
                                        std::size_t segment, double q) {
  std::vector<double> out;
  for (std::size_t lo = 0; lo + segment <= values.size(); lo += segment)
    out.push_back(percentile({values.begin() + static_cast<std::ptrdiff_t>(lo),
                              values.begin() + static_cast<std::ptrdiff_t>(lo + segment)},
                             q));
  if (out.empty() && !values.empty()) out.push_back(percentile(values, q));
  return out;
}

std::vector<std::size_t> closing_events(const std::vector<std::uint64_t>& event_slots,
                                        const std::vector<std::uint64_t>& window_ends) {
  std::vector<std::size_t> closers;
  closers.reserve(window_ends.size());
  std::size_t next = 0;
  for (const std::uint64_t end : window_ends) {
    while (next < event_slots.size() && event_slots[next] < end) ++next;
    closers.push_back(next);
  }
  return closers;
}

}  // namespace perfbench
