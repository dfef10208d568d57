#include "traced.hpp"

#include <algorithm>
#include <fstream>
#include <future>
#include <random>
#include <stdexcept>
#include <variant>

#include "linalg/svd.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/export.hpp"

namespace perfbench {
namespace {

using namespace jaal;

/// The deployment-level provenance toggle gates the engine's own knob
/// (as JaalController does).
inference::EngineConfig merged_engine_config(const core::JaalConfig& cfg) {
  inference::EngineConfig e = cfg.engine;
  e.record_provenance = e.record_provenance && cfg.observe.provenance;
  return e;
}

/// The summarizer's per-epoch RNG stream derivation
/// (summarize::Summarizer::begin_epoch), so the probe clusters with the
/// exact seeds the monitor used.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::size_t monitor_of(const packet::PacketRecord& pkt, std::size_t n) {
  return packet::FlowKeyHash{}(pkt.flow()) % n;
}

}  // namespace

// ---- SpanLog ---------------------------------------------------------------

double SpanLog::add(std::string_view name, std::uint64_t trace,
                    std::uint64_t parent, std::uint64_t key,
                    Clock::time_point start, Clock::time_point end) {
  const double ms = ms_between(start, end);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return ms;
  }
  telemetry::SpanRecord rec;
  rec.trace_id = trace;
  rec.parent_id = parent;
  rec.span_id = telemetry::derive_span_id(parent, name, key);
  rec.name = std::string(name);
  rec.key = key;
  rec.start_ms = ms_between(base_, start);
  rec.duration_ms = ms;
  spans_.push_back(std::move(rec));
  return ms;
}

void SpanLog::write(const std::string& stem) const {
  std::ofstream(stem + ".spans.jsonl")
      << telemetry::to_jsonl(telemetry::MetricsSnapshot{}, spans_);
  std::ofstream(stem + ".trace.json") << telemetry::export_chrome_trace(spans_);
}

// ---- TracedPipeline --------------------------------------------------------

TracedPipeline::TracedPipeline(const Workload& w, const std::string& store_dir,
                               SpanLog& log)
    : cfg_(w.config),
      log_(log),
      tier_(cfg_.sharding, parse_workload_rules(w.rules_text),
            merged_engine_config(cfg_), cfg_.aggregation),
      health_(cfg_.observe, cfg_.monitor_count) {
  if (w.telemetry) {
    tel_ = std::make_unique<telemetry::Telemetry>();
    tier_.set_telemetry(tel_.get());
  }
  if (cfg_.threads > 1) {
    pool_ = std::make_shared<runtime::ThreadPool>(cfg_.threads);
    tier_.set_pool(pool_);
  }
  if (w.store) {
    // Summaries are persisted here, next to add_summary, instead of through
    // InferenceTier::set_store, so store appends get a span of their own.
    // The order of the records is the tier's.
    store_ = std::make_unique<store::DeploymentStore>(
        store::StoreConfig{store_dir, cfg_.store_epochs_per_shard},
        /*writable=*/true, tel_.get());
  }
  monitors_.reserve(cfg_.monitor_count);
  for (std::size_t i = 0; i < cfg_.monitor_count; ++i) {
    summarize::SummarizerConfig scfg = cfg_.summarizer;
    scfg.seed = cfg_.summarizer.seed + i;
    scfg.record_fidelity = scfg.record_fidelity && cfg_.observe.drift;
    monitors_.emplace_back(static_cast<summarize::MonitorId>(i), scfg);
    if (pool_) monitors_.back().set_pool(pool_);
    if (tel_) monitors_.back().set_telemetry(tel_.get());
  }
}

void TracedPipeline::ingest(const packet::PacketRecord& pkt) {
  monitors_[monitor_of(pkt, monitors_.size())].observe(pkt);
}

EpochLayers TracedPipeline::close_epoch(std::uint64_t epoch, double now,
                                        std::uint64_t packets) {
  EpochLayers out;
  const Clock::time_point close_start = Clock::now();
  const std::uint64_t root = telemetry::derive_span_id(0, "close_epoch", epoch);
  const auto span = [&](std::string_view name, Clock::time_point a,
                        Clock::time_point b, std::uint64_t key = 0,
                        std::uint64_t parent = 0) {
    return log_.add(name, epoch, parent == 0 ? root : parent, key, a, b);
  };
  inference::InferenceEngine& engine = tier_.engine();
  const inference::InferenceStats before = engine.stats();

  for (core::Monitor& m : monitors_) m.begin_epoch(epoch);
  tier_.begin_epoch(epoch);

  // Summarize: every monitor flushes, on the pool when there is one.
  const std::size_t n = monitors_.size();
  slots_.assign(n, std::nullopt);
  std::vector<Clock::time_point> flush_start(n), flush_end(n);
  const Clock::time_point sum_start = Clock::now();
  const auto flush = [&](std::size_t i) {
    flush_start[i] = Clock::now();
    slots_[i] = monitors_[i].flush_epoch();
    flush_end[i] = Clock::now();
  };
  if (pool_) {
    std::vector<std::future<void>> done;
    done.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      done.push_back(pool_->submit([&flush, i] { flush(i); }));
    }
    for (auto& f : done) f.get();
  } else {
    for (std::size_t i = 0; i < n; ++i) flush(i);
  }
  const Clock::time_point sum_end = Clock::now();
  out.summarize_wall_ms = span("summarize", sum_start, sum_end);
  const std::uint64_t sum_id = telemetry::derive_span_id(root, "summarize", 0);
  for (std::size_t i = 0; i < n; ++i) {
    out.summarize_ms +=
        span("flush_epoch", flush_start[i], flush_end[i], i, sum_id);
  }

  // Drift monitoring, serially in monitor order, before inference.
  Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    if (!slots_[i]) continue;
    if (const auto& f = monitors_[i].last_fidelity()) {
      observe::FidelityStats fs = *f;
      fs.epoch = epoch;
      health_.observe_fidelity(fs);
    }
  }
  out.health_ms += span("observe_fidelity", t0, Clock::now());

  // Ship + tier admission (+ persistence of accepted summaries), serial in
  // monitor order.  The transport is fault-free, so every summary arrives.
  std::size_t produced = 0, reporting = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!slots_[i]) continue;
    ++produced;
    out.summary_bytes += summarize::wire_bytes(*slots_[i]);
    t0 = Clock::now();
    const bool accepted = tier_.add_summary(*slots_[i]);
    Clock::time_point t1 = Clock::now();
    out.shard_add_ms += span("add_summary", t0, t1, i);
    if (!accepted) continue;
    ++reporting;
    if (store_) {
      store_->put_summary(epoch, *slots_[i]);
      out.store_append_ms += span("put_summary", t1, Clock::now(), i);
    }
  }
  const double report_fraction =
      produced == 0 ? 1.0
                    : static_cast<double>(reporting) /
                          static_cast<double>(produced);
  const double caution = health_.caution();
  tier_.set_caution(caution);

  if (tier_.pending() > 0) {
    t0 = Clock::now();
    const inference::AggregatedSummary& aggregate = tier_.aggregate_epoch();
    out.aggregate_ms = span("aggregate_epoch", t0, Clock::now());
    out.rows = aggregate.rows();
    tier_.set_tau_c_scale(cfg_.engine.tau_c_scale *
                          static_cast<double>(packets) / 2000.0);
    tier_.set_report_fraction(report_fraction);

    t0 = Clock::now();
    const std::vector<inference::QuestionMatch> matches =
        engine.match(aggregate);
    out.match_ms = span("match", t0, Clock::now());
    out.distance_evals = 2 * out.rows * engine.questions().size();

    const std::uint64_t decide_id = telemetry::derive_span_id(root, "decide", 0);
    std::uint64_t fetches = 0;
    const inference::RawPacketFetcher fetch =
        [&](summarize::MonitorId id,
            const std::vector<std::size_t>& centroids) -> inference::RawFetch {
      const Clock::time_point a = Clock::now();
      std::vector<packet::PacketRecord> raw =
          monitors_.at(id).raw_packets_for(centroids);
      out.fetch_ms += span("feedback_fetch", a, Clock::now(), fetches++,
                           decide_id);
      // A fault-free transport succeeds on its first attempt.
      return {std::move(raw), 1, 0.0};
    };
    t0 = Clock::now();
    out.alerts = engine.decide(aggregate, matches, fetch);
    out.decide_ms = span("decide", t0, Clock::now()) - out.fetch_ms;
  }
  for (const inference::Alert& a : out.alerts) {
    out.via_feedback += a.via_feedback ? 1 : 0;
  }
  const inference::InferenceStats& after = engine.stats();
  out.feedback_requests = after.feedback_requests - before.feedback_requests;
  out.feedback_bytes = after.raw_bytes_fetched - before.raw_bytes_fetched;
  out.feedback_fallbacks = after.feedback_fallbacks - before.feedback_fallbacks;

  t0 = Clock::now();
  observe::HealthTracker::EpochDegradation deg;
  deg.report_fraction = report_fraction;
  deg.feedback_fallbacks = out.feedback_fallbacks;
  deg.alerts = out.alerts.size();
  (void)health_.end_epoch(epoch, deg);
  out.health_ms += span("end_epoch", t0, Clock::now());

  if (store_) {
    telemetry::MetricsSnapshot delta;
    const bool ops = cfg_.store_metrics && tel_;
    if (ops) {
      t0 = Clock::now();
      telemetry::MetricsSnapshot cur = tel_->metrics.snapshot();
      delta = cur.diff(prev_metrics_);
      prev_metrics_ = std::move(cur);
      out.snapshot_ms = span("metrics_snapshot", t0, Clock::now());
    }
    t0 = Clock::now();
    for (const inference::Alert& a : out.alerts) {
      store_->put_alert(epoch, a, now);
      if (a.provenance) store_->put_provenance(epoch, a.sid, *a.provenance);
    }
    if (ops) store_->put_metrics(epoch, delta);
    out.store_append_ms += span("put_alerts", t0, Clock::now());
    t0 = Clock::now();
    store::EpochMeta meta{epoch, now, packets, report_fraction, caution};
    meta.shard_count = tier_.shard_count();
    store_->commit_epoch(meta);
    out.store_commit_ms = span("commit_epoch", t0, Clock::now());
  }
  const Clock::time_point close_end = Clock::now();
  out.close_ms = log_.add("close_epoch", epoch, 0, epoch, close_start,
                          close_end);
  // The layers' own telemetry spans (svd/kmeans/feedback) are not part of
  // this trace; drop them so the tracer does not grow across epochs.
  if (tel_) tel_->tracer.clear();
  return out;
}

// ---- SummarizeProbe --------------------------------------------------------

SummarizeProbe::SummarizeProbe(const Workload& w)
    : cfg_(w.config.summarizer), pending_(w.config.monitor_count) {
  const summarize::Summarizer shape(cfg_);
  split_ = cfg_.format == summarize::SummaryFormat::kSplit ||
           (cfg_.format == summarize::SummaryFormat::kAuto &&
            shape.split_cost() < shape.combined_cost());
}

void SummarizeProbe::route(const std::vector<packet::PacketRecord>& packets) {
  for (const packet::PacketRecord& pkt : packets) {
    pending_[monitor_of(pkt, pending_.size())].push_back(pkt);
  }
}

bool SummarizeProbe::matches(const std::vector<core::Monitor>& monitors) const {
  for (std::size_t i = 0; i < monitors.size(); ++i) {
    if (monitors[i].buffered() != pending_[i].size()) return false;
  }
  return true;
}

SummarizeProbe::Times SummarizeProbe::measure(
    std::uint64_t epoch,
    const std::vector<std::optional<summarize::MonitorSummary>>& summaries) {
  Times t;
  std::size_t batches = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (!summaries[i]) continue;  // silent: the batch rolls over
    const auto& batch = pending_[i];
    Clock::time_point a = Clock::now();
    const linalg::Matrix x = summarize::to_normalized_matrix(batch);
    Clock::time_point b = Clock::now();
    t.normalize_ms += ms_between(a, b);
    const linalg::SvdResult svd =
        linalg::truncated_svd(x, std::min(cfg_.rank, batch.size()));
    t.svd_ms += ms_between(b, Clock::now());
    const linalg::Matrix points = split_ ? svd.u : svd.reconstruct();

    std::mt19937_64 rng(splitmix64((cfg_.seed + i) ^ splitmix64(epoch)));
    std::mt19937_64 rng_full = rng;
    summarize::KMeansOptions seed_only = cfg_.kmeans;
    seed_only.max_iterations = 0;
    a = Clock::now();
    (void)summarize::kmeans(points, cfg_.centroids, rng, seed_only);
    b = Clock::now();
    const summarize::KMeansResult full =
        summarize::kmeans(points, cfg_.centroids, rng_full, cfg_.kmeans);
    const Clock::time_point c = Clock::now();
    const double seed_ms = ms_between(a, b);
    t.kmeans_seed_ms += seed_ms;
    t.kmeans_lloyd_ms += ms_between(b, c) - seed_ms;
    t.lloyd_iterations += static_cast<double>(full.iterations);
    ++batches;

    const auto& shipped =
        std::visit([](const auto& s) -> const std::vector<std::uint64_t>& {
          return s.counts;
        }, *summaries[i]);
    t.counts_match = t.counts_match && shipped == full.counts;
    pending_[i].clear();
  }
  if (batches > 0) t.lloyd_iterations /= static_cast<double>(batches);
  return t;
}

}  // namespace perfbench
