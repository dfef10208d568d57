// The traced run: JaalController::close_epoch recomposed from each layer's
// public calls, in close_epoch's order, with a span recorded around every
// call.  Nothing inside the library is instrumented for this: the spans
// live here, in memory, and are written when the run ends (JSONL plus a
// Perfetto-loadable trace through telemetry::export_chrome_trace).
//
// The recomposition must produce exactly the controller's alerts; the
// benchmark compares the two digests every epoch.  Work the controller does
// around the layer calls (flight events, SLO, critical-path profiling, the
// ops events batch) is deliberately not recomposed — it is what
// core.close_overhead_ms measures.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// In-memory span store.  Span ids follow telemetry::derive_span_id, the
/// trace id is the epoch (or query) index.
class SpanLog {
 public:
  /// Records [start, end) under `parent` and returns the duration in ms.
  /// Past the cap spans are counted, not kept.
  double add(std::string_view name, std::uint64_t trace, std::uint64_t parent,
             std::uint64_t key, Clock::time_point start, Clock::time_point end);
  /// Writes <stem>.spans.jsonl and <stem>.trace.json.
  void write(const std::string& stem) const;
  [[nodiscard]] std::size_t kept() const noexcept { return spans_.size(); }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

 private:
  static constexpr std::size_t kMaxSpans = 200'000;
  Clock::time_point base_ = Clock::now();
  std::vector<jaal::telemetry::SpanRecord> spans_;
  std::size_t dropped_ = 0;
};

/// Busy time per layer for one recomposed epoch close, plus the counts
/// measured at the same boundaries.
struct EpochLayers {
  double summarize_ms = 0.0;       ///< Sum of Monitor::flush_epoch calls.
  double summarize_wall_ms = 0.0;  ///< The flush phase, wall clock.
  double health_ms = 0.0;  ///< HealthTracker observe_fidelity + end_epoch.
  double shard_add_ms = 0.0;       ///< InferenceTier::add_summary.
  double aggregate_ms = 0.0;       ///< InferenceTier::aggregate_epoch.
  double match_ms = 0.0;           ///< InferenceEngine::match.
  double decide_ms = 0.0;  ///< InferenceEngine::decide minus its fetches.
  double fetch_ms = 0.0;           ///< The timed RawPacketFetcher.
  double snapshot_ms = 0.0;        ///< MetricsRegistry::snapshot + diff.
  double store_append_ms = 0.0;    ///< DeploymentStore::put_*.
  double store_commit_ms = 0.0;    ///< DeploymentStore::commit_epoch.
  double close_ms = 0.0;           ///< The whole recomposed close, wall.
  std::uint64_t rows = 0;          ///< Aggregate rows.
  std::uint64_t distance_evals = 0;  ///< rows x questions x 2 thresholds.
  std::uint64_t feedback_requests = 0;
  std::uint64_t via_feedback = 0;    ///< Alerts decided by raw analysis.
  std::uint64_t summary_bytes = 0;
  std::uint64_t feedback_bytes = 0;
  std::uint64_t feedback_fallbacks = 0;
  std::vector<jaal::inference::Alert> alerts;

  /// Wall time of every timed layer call inside the close.
  [[nodiscard]] double layer_sum_ms() const noexcept {
    return summarize_wall_ms + health_ms + shard_add_ms + aggregate_ms +
           match_ms + decide_ms + fetch_ms + snapshot_ms + store_append_ms +
           store_commit_ms;
  }
};

class TracedPipeline {
 public:
  /// Stands up the same layers JaalController would for `w` (store under
  /// `store_dir` when the workload persists).
  TracedPipeline(const Workload& w, const std::string& store_dir,
                 SpanLog& log);
  TracedPipeline(const TracedPipeline&) = delete;
  TracedPipeline& operator=(const TracedPipeline&) = delete;

  /// JaalController::ingest: flow-hash routing, then Monitor::observe.
  void ingest(const jaal::packet::PacketRecord& pkt);

  /// The recomposed close_epoch.  `packets` is the epoch's ingested count.
  [[nodiscard]] EpochLayers close_epoch(std::uint64_t epoch, double now,
                                        std::uint64_t packets);

  [[nodiscard]] const std::vector<jaal::core::Monitor>& monitors()
      const noexcept {
    return monitors_;
  }
  /// The summaries of the last close, in monitor order (nullopt = silent).
  [[nodiscard]] const std::vector<
      std::optional<jaal::summarize::MonitorSummary>>&
  last_summaries() const noexcept {
    return slots_;
  }
  [[nodiscard]] const jaal::store::DeploymentStore* store() const noexcept {
    return store_.get();
  }

 private:
  jaal::core::JaalConfig cfg_;
  SpanLog& log_;
  std::unique_ptr<jaal::telemetry::Telemetry> tel_;
  std::shared_ptr<jaal::runtime::ThreadPool> pool_;
  std::vector<jaal::core::Monitor> monitors_;
  jaal::shard::InferenceTier tier_;
  jaal::observe::HealthTracker health_;
  std::unique_ptr<jaal::store::DeploymentStore> store_;
  jaal::telemetry::MetricsSnapshot prev_metrics_;
  std::vector<std::optional<jaal::summarize::MonitorSummary>> slots_;
};

/// Times the summarizer's stages on the batches the monitors just
/// summarized: normalize, SVD, k-means++ seeding (kmeans with
/// max_iterations = 0, i.e. seeding plus one assignment) and the Lloyd
/// remainder (full kmeans minus the seeding run).  Runs outside the traced
/// close; it only measures.
class SummarizeProbe {
 public:
  explicit SummarizeProbe(const Workload& w);

  /// Routes one epoch's packets exactly as ingest() does (untimed).
  void route(const std::vector<jaal::packet::PacketRecord>& packets);
  /// True when every monitor buffers exactly the batch the probe routed.
  [[nodiscard]] bool matches(
      const std::vector<jaal::core::Monitor>& monitors) const;

  struct Times {
    double normalize_ms = 0.0;
    double svd_ms = 0.0;
    double kmeans_seed_ms = 0.0;
    double kmeans_lloyd_ms = 0.0;
    double lloyd_iterations = 0.0;  ///< Mean over this epoch's batches.
    bool counts_match = true;  ///< Probe clustering == shipped summaries.
  };
  /// Measures every batch that produced a summary this epoch; silent
  /// monitors keep their batch for the next epoch, as Monitor does.
  [[nodiscard]] Times measure(
      std::uint64_t epoch,
      const std::vector<std::optional<jaal::summarize::MonitorSummary>>&
          summaries);

 private:
  jaal::summarize::SummarizerConfig cfg_;
  bool split_ = true;
  std::vector<std::vector<jaal::packet::PacketRecord>> pending_;
};

}  // namespace perfbench
