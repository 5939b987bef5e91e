// The unified Engine interface and its registry: name lookup, capability
// matrix, preferred-engine selection, and spec → factory materialisation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"
#include "engine/engine.hpp"
#include "exp/scenarios.hpp"
#include "protocols/baselines.hpp"
#include "protocols/batch.hpp"

namespace cr {
namespace {

TEST(EngineRegistryTest, KnowsTheBuiltInEngines) {
  const auto names = EngineRegistry::instance().names();
  for (const char* expected : {"generic", "fast_cjz", "fast_batch"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing engine: " << expected;
  }
  EXPECT_EQ(EngineRegistry::instance().find("warp"), nullptr);
}

TEST(EngineRegistryDeathTest, AtRejectsUnknownNames) {
  EXPECT_DEATH(EngineRegistry::instance().at("warp"), "unknown engine");
}

TEST(EngineRegistryTest, CapabilityMatrix) {
  const auto& registry = EngineRegistry::instance();
  const ProtocolSpec cjz = cjz_protocol(functions_constant_g(4.0));
  const ProtocolSpec profile = profile_protocol(profiles::h_data());
  const ProtocolSpec custom =
      factory_protocol("beb", [] { return windowed_backoff_factory({}); });

  // The reference engine executes everything; each cohort engine exactly its
  // own protocol family.
  EXPECT_TRUE(registry.at("generic").supports(cjz));
  EXPECT_TRUE(registry.at("generic").supports(profile));
  EXPECT_TRUE(registry.at("generic").supports(custom));
  EXPECT_TRUE(registry.at("fast_cjz").supports(cjz));
  EXPECT_FALSE(registry.at("fast_cjz").supports(profile));
  EXPECT_FALSE(registry.at("fast_cjz").supports(custom));
  EXPECT_TRUE(registry.at("fast_batch").supports(profile));
  EXPECT_FALSE(registry.at("fast_batch").supports(cjz));
  EXPECT_FALSE(registry.at("fast_batch").supports(custom));
}

TEST(EngineRegistryTest, PreferredPicksTheFastestCompatibleEngine) {
  const auto& registry = EngineRegistry::instance();
  EXPECT_EQ(registry.preferred(cjz_protocol(functions_constant_g(4.0))).name(), "fast_cjz");
  EXPECT_EQ(registry.preferred(profile_protocol(profiles::h_data())).name(), "fast_batch");
  EXPECT_EQ(registry
                .preferred(factory_protocol("beb",
                                            [] { return windowed_backoff_factory({}); }))
                .name(),
            "generic");
}

TEST(EngineRegistryTest, CompatibleIsOrderedFastestFirst) {
  const auto engines =
      EngineRegistry::instance().compatible(cjz_protocol(functions_constant_g(4.0)));
  ASSERT_EQ(engines.size(), 3u);  // fast_cjz (rank 100) + lockstep (50) + generic (0)
  EXPECT_EQ(engines[0]->name(), "fast_cjz");
  EXPECT_EQ(engines[1]->name(), "lockstep");
  EXPECT_EQ(engines[2]->name(), "generic");
}

TEST(ProtocolSpecTest, MakeFactoryMaterialisesEveryKind) {
  EXPECT_EQ(make_protocol_factory(cjz_protocol(functions_constant_g(4.0)))->name(),
            "cjz[g=const(4), cf=1, a=1, c3=2]");
  EXPECT_EQ(make_protocol_factory(profile_protocol(profiles::h_data()))->name(),
            "profile[h_data]");
  const ProtocolSpec custom =
      factory_protocol("beb", [] { return windowed_backoff_factory({}); });
  EXPECT_NE(make_protocol_factory(custom), nullptr);
  // Each call builds a FRESH factory (the contract parallel replication
  // relies on).
  EXPECT_NE(make_protocol_factory(custom), make_protocol_factory(custom));
}

TEST(EngineInterface, AllCompatibleEnginesRunTheSameScenarioShape) {
  // Structural check (statistical agreement lives in test_cross_engine):
  // every compatible engine consumes the same spec/adversary/config and
  // reports the same arrival count.
  const ProtocolSpec spec = cjz_protocol(functions_constant_g(4.0));
  for (const Engine* engine : EngineRegistry::instance().compatible(spec)) {
    ComposedAdversary adv(batch_arrival(16, 1), no_jam());
    SimConfig cfg;
    cfg.horizon = 50'000;
    cfg.seed = 3;
    cfg.stop_when_empty = true;
    const SimResult res = engine->run(spec, adv, cfg);
    EXPECT_EQ(res.arrivals, 16u) << engine->name();
    EXPECT_EQ(res.successes, 16u) << engine->name();
  }
}

TEST(EngineInterface, EveryEngineHonoursEveryTier) {
  // docs/ARCHITECTURE.md, "Recording tiers": every registered engine fills
  // SimResult::slot_outcomes under kFullTrace — one outcome per simulated
  // slot, consistent with the aggregate counters — and recording never
  // moves the trajectory, so the aggregates equal the kNone run's.
  const std::vector<ProtocolSpec> specs = {
      cjz_protocol(functions_constant_g(4.0)), profile_protocol(profiles::h_data()),
      factory_protocol("beb", [] { return windowed_backoff_factory({}); })};
  const auto run_at = [](const Engine& engine, const ProtocolSpec& spec, RecordingConfig rec) {
    ComposedAdversary adv(batch_arrival(24, 1), iid_jammer(0.25));
    SimConfig cfg;
    cfg.horizon = 8'000;
    cfg.seed = 61;
    cfg.recording = rec;
    return engine.run(spec, adv, cfg);
  };
  const auto& registry = EngineRegistry::instance();
  for (const std::string& name : registry.names()) {
    const Engine& engine = registry.at(name);
    int ran = 0;
    for (const ProtocolSpec& spec : specs) {
      if (!engine.supports(spec)) continue;
      ++ran;
      const std::string tag = name + "/" + spec.label;
      const SimResult none = run_at(engine, spec, RecordingConfig{});
      const SimResult full = run_at(engine, spec, RecordingConfig::full_trace());
      EXPECT_TRUE(none.slot_outcomes.empty()) << tag;

      ASSERT_EQ(full.slot_outcomes.size(), full.slots) << tag;
      std::uint64_t successes = 0, jammed = 0;
      for (std::size_t i = 0; i < full.slot_outcomes.size(); ++i) {
        const SlotOutcome& out = full.slot_outcomes[i];
        EXPECT_EQ(out.slot, i + 1) << tag;
        successes += out.success() ? 1 : 0;
        jammed += out.jammed ? 1 : 0;
      }
      EXPECT_EQ(successes, full.successes) << tag;
      EXPECT_EQ(jammed, full.jammed_slots) << tag;
      EXPECT_GT(full.successes, 0u) << tag;
      EXPECT_GT(full.jammed_slots, 0u) << tag;

      EXPECT_EQ(full.slots, none.slots) << tag;
      EXPECT_EQ(full.arrivals, none.arrivals) << tag;
      EXPECT_EQ(full.successes, none.successes) << tag;
      EXPECT_EQ(full.jammed_slots, none.jammed_slots) << tag;
      EXPECT_EQ(full.active_slots, none.active_slots) << tag;
      EXPECT_EQ(full.total_sends, none.total_sends) << tag;
      EXPECT_EQ(full.live_at_end, none.live_at_end) << tag;
      EXPECT_EQ(full.first_success, none.first_success) << tag;
      EXPECT_EQ(full.last_success, none.last_success) << tag;
    }
    EXPECT_GT(ran, 0) << name << " supports none of the probe specs";
  }
}

}  // namespace
}  // namespace cr
