// Streaming service mode (engine/stream.hpp): the SPSC event ring, the feed
// parser, the synthetic generator, and the StreamSim driver's bit-exact
// kill/restore contract — all in-process (the CLI end-to-end byte-diff is
// the golden_stream_kill_restore CTest in tests/golden/stream_diff.cmake),
// plus the CLI's checkpoint sink under a failing write.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/bench_registry.hpp"
#include "engine/stream.hpp"

namespace cr {
namespace {

// ---------------------------------------------------------------------------
// EventRing.
// ---------------------------------------------------------------------------

TEST(EventRing, CapacityOneBackpressure) {
  EventRing ring(1);
  const StreamEvent a{1, 1, false};
  const StreamEvent b{2, 2, true};
  EXPECT_TRUE(ring.try_push(a));
  EXPECT_FALSE(ring.try_push(b)) << "capacity-1 ring must refuse a second push";
  StreamEvent out;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, a);
  EXPECT_TRUE(ring.try_push(b)) << "pop must free the slot";
  EXPECT_FALSE(ring.exhausted()) << "not closed yet";
  ring.close();
  EXPECT_FALSE(ring.exhausted()) << "closed but not drained";
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, b);
  EXPECT_TRUE(ring.exhausted());
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(EventRing, BlockPolicyIsLosslessAtCapacityOne) {
  // Producer thread pushes N events through a capacity-1 ring with the
  // block (spin/yield) policy; the consumer must see every event in order.
  constexpr std::uint64_t kEvents = 2000;
  EventRing ring(1);
  std::thread producer([&ring] {
    for (std::uint64_t i = 1; i <= kEvents; ++i) {
      const StreamEvent ev{i, i, false};
      while (!ring.try_push(ev)) std::this_thread::yield();
    }
    ring.close();
  });
  std::uint64_t received = 0;
  StreamEvent ev;
  while (!ring.exhausted()) {
    if (!ring.try_pop(ev)) {
      std::this_thread::yield();
      continue;
    }
    ++received;
    EXPECT_EQ(ev.slot, received) << "events must arrive in push order";
  }
  producer.join();
  EXPECT_EQ(received, kEvents);
}

TEST(EventRing, DropPolicyCountsEveryLoss) {
  // Same setup with the drop policy: delivered + dropped must equal the
  // total — no event may vanish unaccounted.
  constexpr std::uint64_t kEvents = 2000;
  EventRing ring(1);
  std::atomic<std::uint64_t> dropped{0};
  std::thread producer([&ring, &dropped] {
    for (std::uint64_t i = 1; i <= kEvents; ++i) {
      const StreamEvent ev{i, i, false};
      if (!ring.try_push(ev)) dropped.fetch_add(1, std::memory_order_relaxed);
    }
    ring.close();
  });
  std::uint64_t received = 0;
  std::uint64_t last_slot = 0;
  StreamEvent ev;
  while (!ring.exhausted()) {
    if (!ring.try_pop(ev)) {
      std::this_thread::yield();
      continue;
    }
    ++received;
    EXPECT_GT(ev.slot, last_slot) << "drops must preserve the survivors' order";
    last_slot = ev.slot;
  }
  producer.join();
  EXPECT_EQ(received + dropped.load(), kEvents);
  EXPECT_GE(received, 1u);
}

// ---------------------------------------------------------------------------
// Feed parsing and the synthetic generator.
// ---------------------------------------------------------------------------

TEST(StreamParse, AcceptsTwoAndThreeFieldLines) {
  StreamEvent ev;
  std::string error;
  ASSERT_TRUE(parse_stream_event("12 3", &ev, &error)) << error;
  EXPECT_EQ(ev, (StreamEvent{12, 3, false}));
  ASSERT_TRUE(parse_stream_event("40 1 1", &ev, &error)) << error;
  EXPECT_EQ(ev, (StreamEvent{40, 1, true}));
  ASSERT_TRUE(parse_stream_event("  7 0 0  # trailing comment", &ev, &error)) << error;
  EXPECT_EQ(ev, (StreamEvent{7, 0, false}));
}

TEST(StreamParse, SkipsBlankAndCommentLines) {
  StreamEvent ev;
  std::string error;
  EXPECT_FALSE(parse_stream_event("", &ev, &error));
  EXPECT_TRUE(error.empty());
  EXPECT_FALSE(parse_stream_event("   ", &ev, &error));
  EXPECT_TRUE(error.empty());
  EXPECT_FALSE(parse_stream_event("# a comment", &ev, &error));
  EXPECT_TRUE(error.empty());
}

TEST(StreamParse, RejectsMalformedLines) {
  StreamEvent ev;
  std::string error;
  EXPECT_FALSE(parse_stream_event("nonsense", &ev, &error));
  EXPECT_NE(error.find("malformed trace line"), std::string::npos);
  EXPECT_FALSE(parse_stream_event("5", &ev, &error));
  EXPECT_NE(error.find("malformed trace line"), std::string::npos);
  EXPECT_FALSE(parse_stream_event("5 1 2", &ev, &error));
  EXPECT_NE(error.find("malformed trace line"), std::string::npos);
  EXPECT_FALSE(parse_stream_event("0 1", &ev, &error));
  EXPECT_NE(error.find("slot 0 is invalid"), std::string::npos);
}

TEST(StreamSynth, DeterministicAndStrictlyIncreasing) {
  const auto a = synth_stream_events(7, 500);
  const auto b = synth_stream_events(7, 500);
  ASSERT_EQ(a.size(), 500u);
  EXPECT_EQ(a, b) << "same (seed, count) must reproduce the same feed";
  slot_t last = 0;
  for (const StreamEvent& ev : a) {
    EXPECT_GT(ev.slot, last);
    last = ev.slot;
  }
  const auto c = synth_stream_events(8, 500);
  EXPECT_NE(a, c) << "different seeds must differ";
}

// ---------------------------------------------------------------------------
// StreamSim: determinism, kill/restore, sparse-vs-dense.
// ---------------------------------------------------------------------------

struct DrainResult {
  std::string jsonl;
  StreamRunSummary summary;
  std::vector<std::uint8_t> last_checkpoint;
};

/// Preload every event (minus the first `skip`) into a ring sized to hold
/// them all, close it, and drain through `sim` — single-threaded and fully
/// deterministic.
DrainResult drain(StreamSim& sim, const std::vector<StreamEvent>& events, std::uint64_t skip) {
  DrainResult out;
  sim.set_checkpoint_sink(
      [&out](const std::vector<std::uint8_t>& blob) { out.last_checkpoint = blob; });
  EventRing ring(events.size() + 1);
  for (std::size_t i = static_cast<std::size_t>(skip); i < events.size(); ++i)
    EXPECT_TRUE(ring.try_push(events[i]));
  ring.close();
  std::ostringstream os;
  out.summary = sim.run(ring, os);
  out.jsonl = os.str();
  return out;
}

StreamOptions test_options() {
  StreamOptions opts;
  opts.seed = 5;
  opts.window = 64;
  return opts;
}

TEST(StreamSim, RerunIsByteIdentical) {
  const auto events = synth_stream_events(5, 400);
  StreamSim a(test_options());
  StreamSim b(test_options());
  const DrainResult ra = drain(a, events, 0);
  const DrainResult rb = drain(b, events, 0);
  ASSERT_TRUE(ra.summary.ok()) << ra.summary.error;
  EXPECT_EQ(ra.jsonl, rb.jsonl);
  EXPECT_GT(ra.summary.windows, 4u);
  EXPECT_EQ(ra.summary.events_applied, events.size());
  EXPECT_NE(ra.jsonl.find("\"done\":true"), std::string::npos);
}

TEST(StreamSim, KillAtWindowRestoreIsByteIdentical) {
  const auto events = synth_stream_events(5, 400);

  StreamSim full(test_options());
  const DrainResult whole = drain(full, events, 0);
  ASSERT_TRUE(whole.summary.ok()) << whole.summary.error;
  ASSERT_GT(whole.summary.windows, 6u) << "need enough windows to kill mid-run";

  // Kill after 3 windows anywhere in the run...
  StreamOptions head_opts = test_options();
  head_opts.max_windows = 3;
  StreamSim head(head_opts);
  const DrainResult head_out = drain(head, events, 0);
  ASSERT_TRUE(head_out.summary.ok()) << head_out.summary.error;
  EXPECT_TRUE(head_out.summary.stopped_by_max_windows);
  ASSERT_FALSE(head_out.last_checkpoint.empty()) << "max_windows stop must cut a checkpoint";

  // ...restore, re-feed the SAME events minus the consumed prefix, run to EOF.
  StreamSim tail(test_options());
  std::string error;
  ASSERT_TRUE(tail.restore(head_out.last_checkpoint, &error)) << error;
  const DrainResult tail_out = drain(tail, events, tail.feed_skip());
  ASSERT_TRUE(tail_out.summary.ok()) << tail_out.summary.error;

  EXPECT_EQ(head_out.jsonl + tail_out.jsonl, whole.jsonl)
      << "head+tail must concatenate to the uninterrupted output byte for byte";
}

TEST(StreamSim, PeriodicCheckpointsAllRestoreExactly) {
  const auto events = synth_stream_events(9, 300);
  StreamOptions opts = test_options();
  opts.seed = 9;
  opts.checkpoint_every = 128;

  // Collect EVERY periodic checkpoint, then verify each one resumes to the
  // same final output tail.
  StreamSim full(opts);
  std::vector<std::vector<std::uint8_t>> checkpoints;
  full.set_checkpoint_sink(
      [&checkpoints](const std::vector<std::uint8_t>& blob) { checkpoints.push_back(blob); });
  EventRing ring(events.size() + 1);
  for (const StreamEvent& ev : events) ASSERT_TRUE(ring.try_push(ev));
  ring.close();
  std::ostringstream os;
  const StreamRunSummary summary = full.run(ring, os);
  ASSERT_TRUE(summary.ok()) << summary.error;
  const std::string whole = os.str();
  ASSERT_GT(checkpoints.size(), 3u);

  for (std::size_t ci = 0; ci + 1 < checkpoints.size(); ci += 2) {
    StreamOptions tail_opts = opts;
    tail_opts.checkpoint_every = 0;
    StreamSim tail(tail_opts);
    std::string error;
    ASSERT_TRUE(tail.restore(checkpoints[ci], &error)) << "checkpoint " << ci << ": " << error;
    const DrainResult tail_out = drain(tail, events, tail.feed_skip());
    ASSERT_TRUE(tail_out.summary.ok()) << tail_out.summary.error;
    EXPECT_TRUE(whole.ends_with(tail_out.jsonl)) << "checkpoint " << ci;
  }
}

TEST(StreamSim, SparseAndDenseTablesMatchByteForByte) {
  const auto events = synth_stream_events(13, 400);
  StreamOptions sparse_opts = test_options();
  sparse_opts.seed = 13;
  sparse_opts.node_table = NodeTableKind::kSparse;
  StreamOptions dense_opts = sparse_opts;
  dense_opts.node_table = NodeTableKind::kDense;

  StreamSim sparse(sparse_opts);
  StreamSim dense(dense_opts);
  const DrainResult rs = drain(sparse, events, 0);
  const DrainResult rd = drain(dense, events, 0);
  ASSERT_TRUE(rs.summary.ok()) << rs.summary.error;
  ASSERT_TRUE(rd.summary.ok()) << rd.summary.error;
  EXPECT_EQ(rs.jsonl, rd.jsonl);

  // The sparse table's residency tracks the backlog, not the arrival count.
  const CjzCoreMemoryStats ms = sparse.memory_stats();
  const CjzCoreMemoryStats md = dense.memory_stats();
  EXPECT_EQ(ms.node_table_slots, ms.peak_live_nodes);
  EXPECT_EQ(md.node_table_slots, rd.summary.arrivals);
  EXPECT_LE(ms.node_table_slots, md.node_table_slots);
}

TEST(StreamSim, NonMonotoneFeedIsANamedError) {
  const std::vector<StreamEvent> events = {{10, 1, false}, {10, 1, false}};
  StreamSim sim(test_options());
  const DrainResult r = drain(sim, events, 0);
  EXPECT_FALSE(r.summary.ok());
  EXPECT_NE(r.summary.error.find("strictly increasing"), std::string::npos);
}

TEST(StreamSim, RestoreRejectsForeignAndCorruptBlobs) {
  StreamSim sim(test_options());
  std::string error;
  EXPECT_FALSE(sim.restore(std::vector<std::uint8_t>{1, 2, 3}, &error));
  EXPECT_NE(error.find("truncated header"), std::string::npos);

  // A stream snapshot corrupted in transit must name the checksum.
  const auto events = synth_stream_events(5, 100);
  StreamOptions opts = test_options();
  opts.max_windows = 1;
  StreamSim head(opts);
  DrainResult head_out = drain(head, events, 0);
  ASSERT_FALSE(head_out.last_checkpoint.empty());
  head_out.last_checkpoint[head_out.last_checkpoint.size() / 2] ^= 0x10;
  StreamSim tail(test_options());
  EXPECT_FALSE(tail.restore(head_out.last_checkpoint, &error));
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos);
}

// ---------------------------------------------------------------------------
// `cr stream --checkpoint` through the real bench path.
// ---------------------------------------------------------------------------

TEST(StreamCheckpoint, FailedWriteKeepsLastGoodCheckpointAndExitsNonzero) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("cr_test_stream_ckpt_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path checkpoint = dir / "run.snap";
  const std::string good = "last good checkpoint bytes";
  std::ofstream(checkpoint, std::ios::binary) << good;

  std::fflush(nullptr);  // the child must not replay this process's buffers
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Every file write past 64 bytes fails with EFBIG instead of killing the
    // process, so each checkpoint blob (hundreds of bytes) is a short write.
    const rlimit limit{64, 64};
    std::FILE* sink = std::fopen("/dev/null", "w");
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0 || std::signal(SIGXFSZ, SIG_IGN) == SIG_ERR ||
        sink == nullptr || ::dup2(::fileno(sink), 1) < 0 || ::dup2(::fileno(sink), 2) < 0)
      std::_Exit(99);
    std::_Exit(BenchRegistry::instance().run(
        "stream", {"--synth=400", "--window=64", "--seed=5", "--threads=1",
                   "--checkpoint_every=128", "--checkpoint=" + checkpoint.string()}));
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_NE(WEXITSTATUS(status), 0);
  EXPECT_NE(WEXITSTATUS(status), 99) << "child setup failed";
  std::ifstream in(checkpoint, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), good) << "a failed write must never replace the last checkpoint";
  EXPECT_FALSE(fs::exists(dir / "run.snap.tmp"));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cr
