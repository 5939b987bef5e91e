// Feedback history.
//
// Trace keeps the running counters of a run's channel history (slots,
// successes, jams, last success); it stores no per-slot outcome. A run that
// needs single slots asks for RecordingTier::kFullTrace and reads
// SimResult::slot_outcomes. PublicHistory is a read-only facade over a Trace
// exposing exactly what the registered adversaries read: the slot count and
// the success bookkeeping. Adversary strategies receive PublicHistory only —
// the type system enforces the paper's "Eve has no collision detection
// either" rule.
#pragma once

#include <cstdint>

#include "channel/types.hpp"
#include "common/check.hpp"

namespace cr {

class Trace {
 public:
  /// Storage policy: kCounting keeps the running counters (slots,
  /// successes, jams, last success). kDisabled keeps nothing at all: the
  /// owner promises no component ever reads the history (the lockstep plan
  /// path, whose adversaries are precomputed, and StreamSim), and the engine
  /// skips record() entirely — the Trace is a dead field. Calling
  /// record()/advance() on a disabled trace is a bug.
  enum class Storage : std::uint8_t { kCounting = 0, kDisabled = 1 };

  Trace() = default;
  explicit Trace(Storage storage) : storage_(storage) {}

  /// Record the outcome of the next slot. Outcomes must arrive in slot order
  /// starting at slot 1.
  void record(const SlotOutcome& out) {
    CR_DCHECK(storage_ != Storage::kDisabled);
    CR_CHECK(out.slot == slots_ + 1);
    ++slots_;
    if (out.success()) {
      ++total_successes_;
      last_success_slot_ = out.slot;
    }
    if (out.jammed) ++total_jammed_;
  }

  /// Account `n` slots that were provably protocol-silent without recording
  /// them individually (the lockstep engine's idle-skip). The skipped slots
  /// carry no successes; jam accounting for them is the caller's
  /// responsibility (the engine tallies skipped jams outside the trace).
  void advance(slot_t n) {
    CR_CHECK(storage_ == Storage::kCounting);
    slots_ += n;
  }

  slot_t slots() const { return slots_; }
  bool empty() const { return slots_ == 0; }
  Storage storage() const { return storage_; }

  std::uint64_t total_successes() const { return total_successes_; }
  std::uint64_t total_jammed() const { return total_jammed_; }
  /// 0 when no success yet.
  slot_t last_success_slot() const { return last_success_slot_; }

 private:
  Storage storage_ = Storage::kCounting;
  slot_t slots_ = 0;
  std::uint64_t total_successes_ = 0;
  std::uint64_t total_jammed_ = 0;
  slot_t last_success_slot_ = 0;
};

/// The adversary's (and conceptually every node's) view of the past:
/// counters only. A component that needs per-slot feedback must first
/// extend this class (and Trace's storage with it).
class PublicHistory {
 public:
  explicit PublicHistory(const Trace& trace) : trace_(&trace) {}

  /// Number of completed slots (the upcoming slot is slots()+1).
  slot_t slots() const { return trace_->slots(); }

  std::uint64_t total_successes() const { return trace_->total_successes(); }
  slot_t last_success_slot() const { return trace_->last_success_slot(); }

 private:
  const Trace* trace_;
};

}  // namespace cr
