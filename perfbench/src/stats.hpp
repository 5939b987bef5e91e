// Order statistics and the open-loop lag matcher.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q·n samples at
/// or below it (q in (0, 1]). `values` need not be sorted; empty gives 0.
double percentile(std::vector<double> values, double q);

/// Median; the mean of the two middle samples when n is even. Empty gives 0.
double median(std::vector<double> values);

/// The q-percentile of each run of `segment` consecutive values. A trailing
/// partial segment is dropped, unless it is the only one.
std::vector<double> segment_percentiles(const std::vector<double>& values,
                                        std::size_t segment, double q);

/// For each window end slot, the index of the event that closed the window:
/// the first event whose slot is >= the window's end. StreamSim steps a slot
/// only once it holds an event at or beyond it, so that event is what let
/// the window's last slot run. A window no event reaches (the last one,
/// padded to its boundary at end of feed) is closed by end of feed and gets
/// index `event_slots.size()`. Both inputs must be non-decreasing.
std::vector<std::size_t> closing_events(const std::vector<std::uint64_t>& event_slots,
                                        const std::vector<std::uint64_t>& window_ends);

}  // namespace perfbench
