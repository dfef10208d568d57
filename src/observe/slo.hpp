// Service-level-objective tracking over the two signals an operator
// actually promises on: detection completeness (per-epoch report_fraction)
// and epoch-close latency.
//
// Model (the standard SRE error-budget formulation):
//   * An epoch is *good* for the completeness SLI when report_fraction >=
//     report_fraction_min, and good for the latency SLI when the epoch
//     close's wall-clock cost is <= latency_target_ms.
//   * The objective is a target fraction of good epochs (e.g. 0.99).  The
//     lifetime error budget is (1 - objective) * epochs; budget remaining
//     is 1 - bad / budget, clamped to [0, 1] and exported in permille.
//   * The burn rate is computed over a rolling window of the last W epochs:
//     (bad_in_window / W) / (1 - objective).  1000 permille = burning
//     exactly the sustainable rate; above that the budget is shrinking.
//
// Determinism: the completeness SLI is pure seeded-pipeline arithmetic —
// byte-identical across runs and thread counts, persisted per epoch and
// reproducible offline by jaal_doctor --store.  The latency SLI is
// wall-clock derived; its exported metrics are named with "_ms" so the
// deterministic export filter (telemetry::is_wall_clock_metric) already
// excludes them, and to_jsonl() reports the completeness side only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"

namespace jaal::observe {

/// SLO targets (ObserveConfig::slo_config).
struct SloConfig {
  /// Target fraction of good epochs, in (0, 1).
  double objective = 0.99;
  /// Completeness SLI threshold: epoch good iff report_fraction >= this.
  double report_fraction_min = 0.999;
  /// Latency SLI threshold in wall-clock ms per epoch close.
  double latency_target_ms = 250.0;
  /// Rolling window (epochs) for the burn rate.
  std::size_t window = 64;

  /// Throws std::invalid_argument on a degenerate configuration.
  void validate() const;
};

/// Folds per-epoch observations into error budgets.  Fed from the serial
/// epoch-close phase; all completeness-side outputs are deterministic.
class SloTracker {
 public:
  SloTracker() : SloTracker(SloConfig{}) {}
  explicit SloTracker(const SloConfig& cfg);

  /// Folds one epoch.  latency_ms < 0 means "no latency sample" (offline
  /// reconstruction, where wall clock was not persisted).
  void observe_epoch(std::uint64_t epoch, double report_fraction,
                     double latency_ms);

  /// Mirrors the tracker into `registry` as the jaal_slo_* series (epochs
  /// observed, breaches, budgets remaining, burn rate), updated by every
  /// observe_epoch — the RuntimeStats::bind idiom.  Call at wiring time.
  void bind(telemetry::MetricsRegistry& registry);

  /// Attributes the epoch most recently folded by observe_epoch to the
  /// stage that dominated its critical path (telemetry::CriticalPath).
  /// When that epoch breached the latency target, the stage's breach
  /// count increments — the "which stage ate the budget" side channel the
  /// live jaal_doctor surfaces.  Kept out of to_jsonl(): the latency SLI
  /// is wall-clock derived, and to_jsonl() is pinned byte-identical
  /// between live runs and offline store reconstruction.
  void attribute_latency(const std::string& dominant_stage);

  /// Dominant stage of the last attributed epoch ("" before any).
  [[nodiscard]] const std::string& last_dominant_stage() const noexcept {
    return last_dominant_stage_;
  }
  /// (stage, latency-breach count) pairs, sorted by stage name — only
  /// epochs that breached the latency target count.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  breaches_by_stage() const;

  [[nodiscard]] const SloConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }
  [[nodiscard]] std::uint64_t rf_breaches() const noexcept {
    return rf_bad_;
  }
  [[nodiscard]] std::uint64_t latency_breaches() const noexcept {
    return lat_bad_;
  }

  /// Lifetime budget remaining, in permille of the allowed bad epochs
  /// (1000 = untouched, 0 = exhausted or overdrawn).
  [[nodiscard]] std::int64_t rf_budget_remaining_permille() const noexcept;
  [[nodiscard]] std::int64_t latency_budget_remaining_permille()
      const noexcept;

  /// Rolling-window burn rate in permille (1000 = burning exactly the
  /// sustainable rate).  Completeness SLI only.
  [[nodiscard]] std::int64_t rf_burn_rate_permille() const noexcept;

  /// One deterministic "slo_summary" JSON line (trailing newline),
  /// completeness SLI only; doubles as %.17g.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  [[nodiscard]] std::int64_t budget_permille(std::uint64_t bad) const noexcept;

  SloConfig cfg_;
  std::uint64_t epochs_ = 0;
  std::uint64_t rf_bad_ = 0;
  std::uint64_t lat_bad_ = 0;
  /// Last `window` completeness verdicts (1 = bad), ring-indexed by epoch
  /// order.
  std::vector<std::uint8_t> rf_window_;
  std::size_t window_pos_ = 0;
  std::uint64_t window_bad_ = 0;
  bool last_latency_breached_ = false;
  std::string last_dominant_stage_;
  /// Unordered (stage, breach count); breaches_by_stage() sorts.
  std::vector<std::pair<std::string, std::uint64_t>> stage_breaches_;
  /// jaal_slo_* handles (bind); null when unbound.
  telemetry::Counter* tel_epochs_ = nullptr;
  telemetry::Counter* tel_rf_breaches_ = nullptr;
  telemetry::Counter* tel_lat_breaches_ = nullptr;
  telemetry::Gauge* tel_burn_ = nullptr;
  telemetry::Gauge* tel_rf_budget_ = nullptr;
  telemetry::Gauge* tel_lat_budget_ = nullptr;
};

}  // namespace jaal::observe
