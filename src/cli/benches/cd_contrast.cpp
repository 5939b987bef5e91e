// E13 "collision-detection contrast" — the introduction's framing.
//
// The paper's trade-off is specific to the NO-collision-detection model:
// with CD, constant throughput is possible even under constant-fraction
// jamming (Awerbuch et al. '08; Bender et al. '18). We measure both sides
// of that boundary on the same workloads:
//
//   * cd-backon   — multiplicative backon/backoff with ternary feedback
//   * cjz         — the paper's algorithm, binary feedback
//   * cd-backon run WITHOUT CD (its backon signal removed) — a controller
//     built for the wrong model, to show the degradation is structural.
//
// Prediction: cd-backon's batch completion/n is ~constant in n (constant
// throughput) even at 25% jamming; CJZ pays the Θ(log n) factor (the best
// possible without CD, Theorem 1.3); the degraded controller collapses.
#include <memory>
#include <ostream>

#include "cli/bench_driver.hpp"
#include "cli/benches/benches.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"
#include "protocols/cd_backon.hpp"

namespace cr::benches {

namespace {

/// Strips the CD feedback from an inner protocol: routes the ternary signal
/// through the binary no-CD path, emulating the same controller deployed on
/// a channel without collision detection.
class NoCdWrapper final : public NodeProtocol {
 public:
  explicit NoCdWrapper(std::unique_ptr<NodeProtocol> inner) : inner_(std::move(inner)) {}
  bool on_slot(slot_t now, Rng& rng) override { return inner_->on_slot(now, rng); }
  void on_feedback(slot_t now, Feedback fb, bool sent, bool own) override {
    inner_->on_feedback(now, fb, sent, own);
  }
  void on_feedback_cd(slot_t now, CdFeedback fb, bool sent, bool own) override {
    inner_->on_feedback(now,
                        fb == CdFeedback::kSuccess ? Feedback::kSuccess
                                                   : Feedback::kSilenceOrCollision,
                        sent, own);
  }

 private:
  std::unique_ptr<NodeProtocol> inner_;
};

class NoCdFactory final : public ProtocolFactory {
 public:
  explicit NoCdFactory(std::unique_ptr<ProtocolFactory> inner) : inner_(std::move(inner)) {}
  std::unique_ptr<NodeProtocol> spawn(node_id id, slot_t arrival, Rng& rng) override {
    return std::make_unique<NoCdWrapper>(inner_->spawn(id, arrival, rng));
  }
  std::string name() const override { return inner_->name() + "-no-cd"; }

 private:
  std::unique_ptr<ProtocolFactory> inner_;
};

struct Contender {
  const char* label;
  ProtocolSpec spec;
  /// The degraded controller provably stalls; a tighter guard horizon keeps
  /// the bench fast (it reports '>cap' either way).
  slot_t horizon_per_n;
};

double median_completion(const Contender& c, std::uint64_t n, double jam,
                         const BenchDriver& driver, int reps, std::uint64_t base_seed,
                         bool* capped) {
  const Engine& engine = EngineRegistry::instance().preferred(c.spec);
  const auto results = driver.replicate(reps, base_seed, [&](std::uint64_t s) {
    Scenario sc = batch_scenario(n, jam, c.horizon_per_n * n, functions_constant_g(4.0));
    sc.protocol = c.spec;
    sc.config.seed = s;
    sc.config.stop_when_empty = true;
    return run_scenario(engine, sc);
  });
  Quantiles q;
  *capped = false;
  for (const SimResult& res : results) {
    if (res.live_at_end != 0) *capped = true;
    q.add(static_cast<double>(res.live_at_end == 0 ? res.last_success : res.slots));
  }
  return q.median();
}

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  const int reps = driver.reps(8, 4);
  const auto max_n = static_cast<std::uint64_t>(driver.get_int("max_n", 4096, 1024));

  out << "E13: the collision-detection boundary (intro framing)\n"
      << "Batch of n, median completion/n ('>' = horizon-capped runs).\n"
      << "Prediction: WITH CD completion/n is ~constant (constant throughput even\n"
      << "under jamming); withOUT CD the same controller collapses, and the best\n"
      << "possible (CJZ) pays the Theta(log n) factor.\n\n";

  const Contender cd_backon{"cd-backon",
                            factory_protocol("cd-backon", [] { return cd_backon_factory({}); }),
                            200};
  const Contender cjz{"cjz", cjz_protocol(functions_constant_g(4.0)), 200};
  const Contender no_cd{"no-cd", factory_protocol("cd-backon-no-cd", [] {
                          return std::make_unique<NoCdFactory>(cd_backon_factory({}));
                        }),
                        20};

  Table table({"n", "jam", "cd-backon /n", "cjz /n", "backon-without-cd /n"});
  for (std::uint64_t n = 256; n <= max_n; n <<= 1) {
    for (const double jam : {0.0, 0.25}) {
      bool cap_cd = false, cap_cjz = false, cap_nocd = false;
      const double cd = median_completion(cd_backon, n, jam, driver, reps, driver.seed(97000),
                                          &cap_cd);
      const double cjz_med = median_completion(cjz, n, jam, driver, reps, driver.seed(98000),
                                               &cap_cjz);
      const double nocd = median_completion(no_cd, n, jam, driver, reps, driver.seed(99000),
                                            &cap_nocd);
      auto cell = [&](double v, bool cap) {
        std::string text = cap ? ">" : "";
        text += format_double(v / static_cast<double>(n), 1);
        return text;
      };
      table.add_row({Cell(n), Cell(jam, 2), cell(cd, cap_cd), cell(cjz_med, cap_cjz),
                     cell(nocd, cap_nocd)});
    }
  }
  table.print(out);

  if (!driver.write_csv(table)) return 1;

  out << "\nReading: the cd-backon column is flat in n (constant throughput, even at\n"
         "25% jamming) — the very capability Theorem 1.3 proves unattainable without\n"
         "collision detection, where CJZ's growing-but-logarithmic column is optimal\n"
         "and the CD controller deprived of its backon signal falls off a cliff.\n";
  return 0;
}

}  // namespace

BenchSpec cd_contrast() {
  BenchSpec spec;
  spec.name = "cd_contrast";
  spec.id = "E13";
  spec.summary = "the collision-detection boundary";
  spec.claim = "introduction: the CD boundary";
  spec.outcome =
      "with CD, completion/n is flat even under jamming; without CD the same "
      "controller collapses while CJZ pays only the optimal Θ(log n)";
  spec.flags = {{"max_n", "largest batch size: n sweeps 256..max_n doubling "
                          "(default 4096, quick 1024)"}};
  spec.csv_columns = {"n", "jam", "cd_backon_over_n", "cjz_over_n", "no_cd_over_n"};
  spec.csv_row_desc =
      "one (n, jam) row; median completion/n per contender, '>' prefixes "
      "horizon-capped medians";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches
