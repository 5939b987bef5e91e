// Tests for the algorithm-variant (ablation) switches: semantics of the
// pinned-channel and no-phase-2 variants in both engines.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"
#include "engine/fast_cjz.hpp"
#include "common/stats.hpp"
#include "engine/generic_sim.hpp"
#include "exp/scenarios.hpp"
#include "protocols/cjz_node.hpp"

namespace cr {
namespace {

TEST(CjzVariants, NoSwapKeepsControlParityAcrossRestarts) {
  const FunctionSet fs = functions_constant_g(4.0);
  Rng rng(1);
  CjzOptions opts;
  opts.swap_channels_on_restart = false;
  CjzNode node(&fs, 2, rng, opts);
  node.on_feedback(9, Feedback::kSuccess, false, false);   // -> P2 on even
  node.on_feedback(14, Feedback::kSuccess, false, false);  // -> P3, anchored 14
  // Pinned convention: ctrl parity = parity(anchor) = 0.
  ASSERT_EQ(node.phase(), CjzNode::Phase::kThree);
  ASSERT_EQ(node.ctrl_channel(), 0);
  // Restart on an even (ctrl) success: parity must NOT flip.
  node.on_feedback(20, Feedback::kSuccess, false, false);
  EXPECT_EQ(node.l3(), 20u);
  EXPECT_EQ(node.ctrl_channel(), 0);
  node.on_feedback(26, Feedback::kSuccess, false, false);
  EXPECT_EQ(node.l3(), 26u);
  EXPECT_EQ(node.ctrl_channel(), 0);
}

TEST(CjzVariants, NoPhase2JumpsStraightToPhase3) {
  const FunctionSet fs = functions_constant_g(4.0);
  Rng rng(2);
  CjzOptions opts;
  opts.use_phase2 = false;
  CjzNode node(&fs, 2, rng, opts);
  node.on_feedback(9, Feedback::kSuccess, false, false);
  EXPECT_EQ(node.phase(), CjzNode::Phase::kThree);
  EXPECT_EQ(node.l3(), 9u);
  EXPECT_EQ(node.ctrl_channel(), parity_channel(10));
}

TEST(CjzVariants, DefaultMatchesPaperSemantics) {
  const FunctionSet fs = functions_constant_g(4.0);
  Rng rng(3);
  CjzNode node(&fs, 2, rng);  // defaults
  node.on_feedback(9, Feedback::kSuccess, false, false);
  EXPECT_EQ(node.phase(), CjzNode::Phase::kTwo);
  node.on_feedback(14, Feedback::kSuccess, false, false);
  EXPECT_EQ(node.ctrl_channel(), parity_channel(15));
  node.on_feedback(15, Feedback::kSuccess, false, false);  // ctrl success
  EXPECT_EQ(node.ctrl_channel(), parity_channel(16)) << "paper variant swaps";
}

struct VariantCase {
  const char* name;
  CjzOptions opts;
};

// Print the case by name: gtest's default dumps the raw bytes, which include the
// address of `name` and so make the listed test name depend on binary layout.
void PrintTo(const VariantCase& c, std::ostream* os) { *os << c.name; }

class VariantDrains : public ::testing::TestWithParam<VariantCase> {};

TEST_P(VariantDrains, FastEngineDrainsBatchUnderJamming) {
  FunctionSet fs = functions_constant_g(4.0);
  ComposedAdversary adv(batch_arrival(128, 1), iid_jammer(0.2));
  SimConfig cfg;
  cfg.horizon = 1'000'000;
  cfg.seed = 11;
  cfg.stop_when_empty = true;
  const SimResult res = run_fast_cjz(fs, adv, cfg, nullptr, GetParam().opts);
  EXPECT_EQ(res.successes, 128u) << GetParam().name;
}

TEST_P(VariantDrains, GenericEngineDrainsBatchUnderJamming) {
  CjzFactory factory(functions_constant_g(4.0), GetParam().opts);
  ComposedAdversary adv(batch_arrival(48, 1), iid_jammer(0.2));
  SimConfig cfg;
  cfg.horizon = 500'000;
  cfg.seed = 13;
  cfg.stop_when_empty = true;
  const SimResult res = run_generic(factory, adv, cfg);
  EXPECT_EQ(res.successes, 48u) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VariantDrains,
    ::testing::Values(VariantCase{"paper", {}},
                      VariantCase{"no_swap", {.swap_channels_on_restart = false}},
                      VariantCase{"no_phase2",
                                  {.swap_channels_on_restart = true, .use_phase2 = false}},
                      VariantCase{"neither",
                                  {.swap_channels_on_restart = false, .use_phase2 = false}}),
    [](const ::testing::TestParamInfo<VariantCase>& info) { return info.param.name; });

TEST(CjzVariants, CrossEngineAgreementForNoPhase2) {
  const std::uint64_t n = 48;
  const int reps = 16;
  CjzOptions opts;
  opts.use_phase2 = false;
  Accumulator gen, fast;
  for (int r = 0; r < reps; ++r) {
    {
      CjzFactory factory(functions_constant_g(4.0), opts);
      ComposedAdversary adv(batch_arrival(n, 1), no_jam());
      SimConfig cfg;
      cfg.horizon = 400'000;
      cfg.seed = 800 + static_cast<std::uint64_t>(r);
      cfg.stop_when_empty = true;
      gen.add(static_cast<double>(run_generic(factory, adv, cfg).last_success));
    }
    {
      FunctionSet fs = functions_constant_g(4.0);
      ComposedAdversary adv(batch_arrival(n, 1), no_jam());
      SimConfig cfg;
      cfg.horizon = 400'000;
      cfg.seed = 800 + static_cast<std::uint64_t>(r);
      cfg.stop_when_empty = true;
      fast.add(static_cast<double>(run_fast_cjz(fs, adv, cfg, nullptr, opts).last_success));
    }
  }
  EXPECT_LT(std::abs(gen.mean() - fast.mean()), 0.35 * std::max(gen.mean(), fast.mean()))
      << "generic=" << gen.mean() << " fast=" << fast.mean();
}

TEST(CjzVariants, BatchProbHelperConsistency) {
  // cjz_batch_prob must reproduce the specialized helpers in paper mode.
  const FunctionSet fs = functions_constant_g(4.0);
  const slot_t l3 = 14;
  const int ctrl = parity_channel(l3 + 1);
  for (slot_t s = l3 + 1; s <= l3 + 40; ++s) {
    if (parity_channel(s) == ctrl)
      EXPECT_DOUBLE_EQ(cjz_batch_prob(fs, l3, ctrl, true, s), cjz_ctrl_prob(fs, l3, s));
    else
      EXPECT_DOUBLE_EQ(cjz_batch_prob(fs, l3, 1 - ctrl, false, s), cjz_data_prob(fs, l3, s));
  }
}

}  // namespace
}  // namespace cr
