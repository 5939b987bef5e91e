// Backon/backoff protocol for the WITH-collision-detection model.
//
// The paper's introduction contrasts its no-CD setting with the known
// result that, WITH collision detection, constant throughput is attainable
// even under constant-fraction jamming (Awerbuch–Richa–Scheideler '08,
// Bender et al. '18, Chang–Jin–Pettie '19). This module implements the
// simplest representative of that family — a multiplicative backon/backoff
// contention controller:
//
//   each node holds a sending probability p (init p0);
//     on COLLISION heard:  p <- p / mult    (too much contention: back off)
//     on SILENCE heard:    p <- min(p_max, p · mult)  (too little: back on)
//     on SUCCESS heard:    p unchanged      (a departure lowers contention
//                                            by itself)
//
// The ternary feedback is exactly what the no-CD model forbids: silence and
// collision trigger OPPOSITE corrections. This breaks the dilemma behind
// Theorem 1.3, which is why this protocol can deliver Θ(n) batch messages
// in Θ(n) slots under jamming while the best no-CD algorithm pays the
// Θ(log) factor. `cr bench cd_contrast` measures that boundary.
#pragma once

#include <memory>

#include "protocols/protocol.hpp"

namespace cr {

struct CdBackonOptions {
  double p0 = 0.5;      ///< initial sending probability
  double p_max = 0.5;   ///< backon ceiling (p > 1/2 mostly collides)
  double p_min = 1e-9;  ///< floor so recovery stays geometric
  double mult = 2.0;    ///< multiplicative step
};

/// Per-node backon/backoff state machine (requires CD feedback; when run on
/// the no-CD dispatch path it would never hear kSilence and decay forever —
/// itself an instructive failure, see tests).
class CdBackonNode final : public NodeProtocol {
 public:
  explicit CdBackonNode(const CdBackonOptions& opts) : opts_(opts), p_(opts.p0) {}

  bool on_slot(slot_t now, Rng& rng) override;
  void on_feedback(slot_t now, Feedback fb, bool sent, bool own_success) override;
  void on_feedback_cd(slot_t now, CdFeedback fb, bool sent, bool own_success) override;

  double sending_probability() const { return p_; }

 private:
  CdBackonOptions opts_;
  double p_;
};

std::unique_ptr<ProtocolFactory> cd_backon_factory(CdBackonOptions opts = {});

}  // namespace cr
