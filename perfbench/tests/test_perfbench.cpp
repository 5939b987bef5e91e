// Tests of the benchmark's own arithmetic: span self time, the open-loop
// window-lag matcher, and percentile selection.
#include <gtest/gtest.h>

#include <thread>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

Span make_span(std::uint64_t id, std::uint64_t parent, const std::string& name, double start,
               double end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.workload = "test";
  s.start = start;
  s.end = end;
  return s;
}

TEST(SelfTime, NestedSpansSubtractOnlyDirectChildren) {
  // root [0,10] > child [2,7] > grandchild [3,5]
  const std::vector<Span> spans = {
      make_span(1, 0, "cli.run_suite", 0.0, 10.0),
      make_span(2, 1, "exp.replicate", 2.0, 7.0),
      make_span(3, 2, "engine.run_scenario", 3.0, 5.0),
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 5.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
  const auto by_module = module_self_times(spans);
  EXPECT_DOUBLE_EQ(by_module.at("cli"), 5.0);
  EXPECT_DOUBLE_EQ(by_module.at("exp"), 3.0);
  EXPECT_DOUBLE_EQ(by_module.at("engine"), 2.0);
}

TEST(SelfTime, OverlappingChildrenFromParallelThreadsCountOnce) {
  // Two workers run children at the same time: [1,4] and [2,6] cover [1,6];
  // a third child [8,9] is disjoint. Parent [0,10] keeps 10 - 5 - 1 = 4.
  const std::vector<Span> spans = {
      make_span(1, 0, "exp.replicate", 0.0, 10.0),
      make_span(2, 1, "exp.build_workload", 1.0, 4.0),
      make_span(3, 1, "engine.run_scenario", 2.0, 6.0),
      make_span(4, 1, "engine.run_scenario", 8.0, 9.0),
  };
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 4.0);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans = {
      make_span(1, 0, "engine.stream.run", 0.0, 4.0),
      make_span(2, 1, "engine.stream.snapshot", 3.0, 6.0),
  };
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 3.0);
}

TEST(SelfTime, TracerRecordsParentsAcrossThreads) {
  Tracer tracer(true, "sweep");
  std::uint64_t parent_id = 0;
  {
    ScopedSpan parent(tracer, "exp.replicate");
    parent_id = parent.id();
    { ScopedSpan nested(tracer, "exp.build_workload"); }
    std::thread worker([&] { ScopedSpan child(tracer, "engine.run_scenario", parent_id); });
    worker.join();
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, parent_id);
  EXPECT_EQ(spans[2].parent, parent_id);
  EXPECT_EQ(spans[2].workload, "sweep");
  const std::vector<double> self = self_times(spans);
  EXPECT_GE(self[0], 0.0);
  EXPECT_LE(self[0], spans[0].duration());
}

TEST(SelfTime, DisabledTracerRecordsNothing) {
  Tracer tracer(false, "repro");
  { ScopedSpan span(tracer, "cli.run_suite"); }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(ClosingEvents, FirstEventAtOrBeyondTheWindowEnd) {
  // Windows of 4 slots end at 4, 8, 12, 16. The event at slot 8 sits exactly
  // on the second window's end, so it closes that window; the event at 13
  // closes the third; no event reaches 16, so the last window (padded at end
  // of feed) is closed by end of feed.
  const std::vector<std::uint64_t> events = {1, 3, 6, 8, 13};
  const std::vector<std::uint64_t> ends = {4, 8, 12, 16};
  const std::vector<std::size_t> closers = closing_events(events, ends);
  ASSERT_EQ(closers.size(), 4u);
  EXPECT_EQ(closers[0], 2u);  // slot 6
  EXPECT_EQ(closers[1], 3u);  // slot 8, exactly at the end
  EXPECT_EQ(closers[2], 4u);  // slot 13
  EXPECT_EQ(closers[3], events.size());  // end of feed
}

TEST(ClosingEvents, OneEventClosesSeveralWindows) {
  const std::vector<std::uint64_t> events = {2, 30};
  const std::vector<std::uint64_t> ends = {4, 8, 12};
  EXPECT_EQ(closing_events(events, ends), (std::vector<std::size_t>{1, 1, 1}));
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(percentile(v, 0.50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.90), 9.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.91), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.00), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.01), 1.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, P99OfAHundredSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.999), 100.0);
}

TEST(Percentile, PerSegment) {
  // Two full segments of 4 and a partial one of 2, which is dropped.
  const std::vector<double> v = {4, 3, 2, 1, 40, 30, 20, 10, 99, 98};
  EXPECT_EQ(segment_percentiles(v, 4, 0.5), (std::vector<double>{2, 20}));
  EXPECT_EQ(segment_percentiles(v, 4, 1.0), (std::vector<double>{4, 40}));
  // Fewer values than one segment: the whole input is the one segment.
  EXPECT_EQ(segment_percentiles({5, 1, 3}, 4, 0.5), (std::vector<double>{3}));
  EXPECT_TRUE(segment_percentiles({}, 4, 0.5).empty());
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

}  // namespace
}  // namespace perfbench
