// Stop/restore differential suite (determinism rule 8): restoring a
// snapshot and continuing must be BIT-IDENTICAL to never having stopped.
//
// Layers:
//   1. the k-sweep — on every registry scenario, stop at slots spread across
//      the run (coarse fractions plus the slots around the first/last
//      success: mid-cohort, mid-calendar-event, pre-tail and tail
//      boundaries), restore into a fresh core, continue, and require
//      SimResult equality (operator== covers every counter, success time,
//      node stat and slot outcome) — on both node-table kinds;
//   2. adversarial input — corrupted, truncated, version-mismatched and
//      config-mismatched blobs must be rejected with the named diagnostics
//      from common/snapshot.hpp, and arbitrary truncations/bit-flips must
//      never crash (the sanitized CI ctest run covers this suite);
//   3. WindowedMetrics round-trip — the open window crosses a snapshot
//      boundary intact, and a window-width mismatch is a named error.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "exp/scenarios.hpp"
#include "metrics/windowed.hpp"
#include "snapshot_harness.hpp"

namespace cr {
namespace {

using snaptest::materialize;
using snaptest::replay;
using snaptest::ReplayCase;
using snaptest::restore_and_continue;
using snaptest::snapshot_at;
using snaptest::stop_restore_replay;
using snaptest::sweep_points;

ScenarioParams small_params() {
  ScenarioParams p;
  p.horizon = 1024;
  p.n = 24;
  p.jam = 0.2;
  p.rate = 0.05;
  return p;
}

ReplayCase make_case(const std::string& scenario, RecordingConfig recording,
                     NodeTableKind table, std::uint64_t seed = 11) {
  ScenarioParams p = small_params();
  p.seed = seed;
  Scenario sc = ScenarioRegistry::instance().build(scenario, p);
  sc.config.recording = recording;
  sc.config.node_table = table;
  return materialize(sc);
}

TEST(SnapshotRestore, KSweepBitExactOnEveryRegistryScenario) {
  // Both table kinds, and the two recording extremes: full_trace carries the
  // densest result state across the snapshot; node_stats carries the node
  // table's id/arrival/sends bookkeeping.
  const struct {
    RecordingConfig recording;
    NodeTableKind table;
    const char* tag;
  } modes[] = {
      {RecordingConfig::full_trace(), NodeTableKind::kDense, "full_trace/dense"},
      {RecordingConfig::full_trace(), NodeTableKind::kSparse, "full_trace/sparse"},
      {RecordingConfig::node_stats(), NodeTableKind::kSparse, "node_stats/sparse"},
  };
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    for (const auto& mode : modes) {
      const ReplayCase rc = make_case(name, mode.recording, mode.table);
      const SimResult full = replay(rc);
      ASSERT_GT(full.slots, 0u) << name;
      for (const slot_t k : sweep_points(full)) {
        std::string error;
        const SimResult resumed = stop_restore_replay(rc, k, &error);
        ASSERT_TRUE(error.empty()) << name << " " << mode.tag << " k=" << k << ": " << error;
        EXPECT_EQ(full, resumed) << name << " " << mode.tag << " k=" << k;
      }
    }
  }
}

TEST(SnapshotRestore, StopConditionRunsSurviveRestore) {
  // A run that trips stop_when_empty ends before the horizon; stopping at or
  // past the stop slot must restore and finish without stepping further.
  ScenarioParams p = small_params();
  p.seed = 23;
  Scenario sc = ScenarioRegistry::instance().build("batch", p);
  sc.config.stop_when_empty = true;
  sc.config.recording = RecordingConfig::full_trace();
  sc.config.node_table = NodeTableKind::kSparse;
  const ReplayCase rc = materialize(sc);
  const SimResult full = replay(rc);
  ASSERT_LT(full.slots, static_cast<slot_t>(p.horizon)) << "batch should drain early";
  for (const slot_t k : sweep_points(full)) {
    std::string error;
    const SimResult resumed = stop_restore_replay(rc, k, &error);
    ASSERT_TRUE(error.empty()) << "k=" << k << ": " << error;
    EXPECT_EQ(full, resumed) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Adversarial blobs: every failure mode is a named diagnostic, never UB.
// ---------------------------------------------------------------------------

class SnapshotRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    rc_ = make_case("batch", RecordingConfig::full_trace(), NodeTableKind::kSparse);
    blob_ = snapshot_at(rc_, 64);
    // Sanity: the pristine blob restores bit-exactly.
    std::string error;
    const SimResult resumed = restore_and_continue(rc_, blob_, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(replay(rc_), resumed);
  }

  std::string restore_error(const std::vector<std::uint8_t>& blob) {
    std::string error;
    restore_and_continue(rc_, blob, &error);
    return error;
  }

  ReplayCase rc_;
  std::vector<std::uint8_t> blob_;
};

TEST_F(SnapshotRejection, TruncatedHeader) {
  const std::vector<std::uint8_t> t(blob_.begin(), blob_.begin() + 16);
  EXPECT_NE(restore_error(t).find("truncated header"), std::string::npos);
}

TEST_F(SnapshotRejection, BadMagic) {
  std::vector<std::uint8_t> b = blob_;
  b[0] ^= 0xFF;
  EXPECT_NE(restore_error(b).find("bad magic"), std::string::npos);
}

TEST_F(SnapshotRejection, VersionMismatch) {
  // Patch the u32 version at header offset 8 (checksum covers the payload
  // only, so this isolates the version check).
  std::vector<std::uint8_t> b = blob_;
  b[8] ^= 0x01;
  EXPECT_NE(restore_error(b).find("schema version mismatch"), std::string::npos);
}

TEST_F(SnapshotRejection, TruncatedPayload) {
  std::vector<std::uint8_t> b = blob_;
  b.pop_back();
  EXPECT_NE(restore_error(b).find("truncated payload"), std::string::npos);
}

TEST_F(SnapshotRejection, CorruptedPayloadByte) {
  std::vector<std::uint8_t> b = blob_;
  b[b.size() / 2] ^= 0x40;
  EXPECT_NE(restore_error(b).find("checksum mismatch"), std::string::npos);
}

TEST_F(SnapshotRejection, TrailingBytesInsidePayload) {
  // A well-formed blob whose payload has extra bytes after the last field:
  // re-serialize the core state with an extra word appended before sealing.
  CounterCjzStreams streams(rc_.config.seed);
  snaptest::CounterCore core(&rc_.fs, rc_.config, rc_.options, std::move(streams),
                             Trace::Storage::kDisabled);
  for (std::size_t i = 0; i < 64 && i < rc_.actions.size(); ++i)
    core.step(static_cast<slot_t>(i + 1), rc_.actions[i], nullptr);
  SnapshotWriter w;
  core.save(w);
  w.u64(0xDEADBEEF);
  EXPECT_NE(restore_error(w.seal(snaptest::kHarnessSnapshotVersion))
                .find("trailing bytes after the last field"),
            std::string::npos);
}

TEST_F(SnapshotRejection, ConfigMismatch) {
  ReplayCase other = rc_;
  other.config.seed += 1;
  std::string error;
  restore_and_continue(other, blob_, &error);
  EXPECT_NE(error.find("config mismatch on config.seed"), std::string::npos);

  other = rc_;
  other.config.node_table = NodeTableKind::kDense;
  restore_and_continue(other, blob_, &error);
  EXPECT_NE(error.find("config mismatch on config.node_table"), std::string::npos);
}

TEST_F(SnapshotRejection, ImplausibleCountIsRejected) {
  // A count field larger than the remaining payload must fail check_count,
  // not allocate or loop out of bounds.
  SnapshotWriter w;
  w.u64(~std::uint64_t{0});
  const std::vector<std::uint8_t> tiny = w.seal(snaptest::kHarnessSnapshotVersion);
  SnapshotReader r(tiny, snaptest::kHarnessSnapshotVersion);
  const std::uint64_t n = r.u64("count");
  EXPECT_FALSE(r.check_count(n, 8, "elements"));
  EXPECT_NE(r.error().find("implausible count"), std::string::npos);
}

TEST_F(SnapshotRejection, EveryTruncationFailsCleanly) {
  // Sweep truncation lengths across the whole blob: all must produce a
  // diagnostic (and, under the CI sanitizers, no out-of-bounds access).
  for (std::size_t len = 0; len < blob_.size(); len += 7) {
    const std::vector<std::uint8_t> t(blob_.begin(),
                                      blob_.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(restore_error(t).empty()) << "len=" << len;
  }
}

TEST_F(SnapshotRejection, BitFlipsNeverDivergeSilently) {
  // Flip one byte at a time across header and payload. Flips in validated
  // bytes must fail with a diagnostic; flips in the header's reserved bytes
  // (offsets 6-7 and 12-15, not covered by the checksum) are framing no-ops
  // and must restore to the exact uninterrupted result. Either way: never a
  // silent divergence, never a crash.
  const SimResult full = replay(rc_);
  for (std::size_t pos = 0; pos < blob_.size(); pos += 13) {
    std::vector<std::uint8_t> b = blob_;
    b[pos] ^= 0x80;
    std::string error;
    const SimResult resumed = restore_and_continue(rc_, b, &error);
    if (error.empty()) {
      EXPECT_EQ(full, resumed) << "pos=" << pos;
    }
  }
}

// ---------------------------------------------------------------------------
// WindowedMetrics round-trip.
// ---------------------------------------------------------------------------

SlotOutcome synth_outcome(slot_t slot) {
  SlotOutcome out;
  out.slot = slot;
  out.senders = slot % 3;
  out.jammed = slot % 7 == 0;
  out.winner = (out.senders == 1 && !out.jammed) ? slot : kNoNode;
  return out;
}

TEST(WindowedSnapshot, OpenWindowCrossesSnapshotIntact) {
  constexpr slot_t kWindow = 16;
  constexpr slot_t kSlots = 100;  // deliberately not a multiple of 16
  constexpr slot_t kCut = 41;     // mid-window

  const auto drive = [](WindowedMetrics& m, slot_t from, slot_t to) {
    for (slot_t s = from; s <= to; ++s)
      m.on_slot(synth_outcome(s), /*injected=*/s % 2, /*live_nodes=*/3 + s % 5);
  };
  const auto collect_into = [](WindowedMetrics& m, std::vector<WindowStats>& sink) {
    m.set_sink([&sink](const WindowStats& ws) { sink.push_back(ws); });
  };

  std::vector<WindowStats> uninterrupted;
  WindowedMetrics full(kWindow);
  collect_into(full, uninterrupted);
  drive(full, 1, kSlots);
  full.on_run_end(SimResult{});

  std::vector<WindowStats> spliced;
  WindowedMetrics head(kWindow);
  collect_into(head, spliced);
  drive(head, 1, kCut);
  SnapshotWriter w;
  head.save(w);
  const std::vector<std::uint8_t> blob = w.seal(1);

  WindowedMetrics tail(kWindow);
  collect_into(tail, spliced);
  SnapshotReader r(blob, 1);
  tail.load(r);
  ASSERT_TRUE(r.ok()) << r.error();
  r.expect_end();
  ASSERT_TRUE(r.ok()) << r.error();
  drive(tail, kCut + 1, kSlots);
  tail.on_run_end(SimResult{});

  ASSERT_EQ(uninterrupted.size(), spliced.size());
  for (std::size_t i = 0; i < uninterrupted.size(); ++i)
    EXPECT_EQ(uninterrupted[i], spliced[i]) << "window " << i;
  EXPECT_EQ(full.peak_backlog(), tail.peak_backlog());
}

TEST(WindowedSnapshot, WindowWidthMismatchIsNamed) {
  WindowedMetrics src(16);
  src.on_slot(synth_outcome(1), 0, 1);
  SnapshotWriter w;
  src.save(w);
  const std::vector<std::uint8_t> blob = w.seal(1);

  WindowedMetrics dst(32);
  SnapshotReader r(blob, 1);
  dst.load(r);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("window width mismatch"), std::string::npos);
}

}  // namespace
}  // namespace cr
