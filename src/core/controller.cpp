#include "core/controller.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace jaal::core {
namespace {

/// The deployment-level ObserveConfig::provenance toggle gates the engine's
/// own record_provenance knob (both default on; either turns capture off).
inference::EngineConfig merged_engine_config(const JaalConfig& cfg) {
  inference::EngineConfig e = cfg.engine;
  e.record_provenance = e.record_provenance && cfg.observe.provenance;
  return e;
}

// close_epoch's stages, by span name; each stage's kSpan event carries
// telemetry::profile_stage_id(name).
constexpr std::string_view kObserve = "observe";
constexpr std::string_view kSummarize = "summarize";
constexpr std::string_view kShip = "ship";
constexpr std::string_view kAggregate = "aggregate";
constexpr std::string_view kInfer = "infer";
constexpr std::string_view kPostprocess = "postprocess";

}  // namespace

JaalController::JaalController(const JaalConfig& cfg,
                               std::vector<rules::Rule> rules)
    : cfg_(cfg),
      transport_(cfg.faults, cfg.monitor_count),
      tier_(cfg.sharding, std::move(rules), merged_engine_config(cfg),
            cfg.aggregation, cfg.faults.shard_crashes),
      health_(cfg.observe, std::max<std::size_t>(cfg.monitor_count, 1)) {
  if (cfg_.monitor_count == 0) {
    throw std::invalid_argument("JaalController: need at least one monitor");
  }
  const std::size_t threads =
      cfg_.threads == 0 ? runtime::threads_from_env(1) : cfg_.threads;
  if (threads > 1) {
    pool_ = std::make_shared<runtime::ThreadPool>(threads);
    tier_.set_pool(pool_);
  }
  if (cfg_.observe.flight_recorder) {
    flight_ = std::make_unique<observe::FlightRecorder>(
        cfg_.observe.flight_capacity);
  }
  if (cfg_.observe.slo) {
    slo_ = std::make_unique<observe::SloTracker>(cfg_.observe.slo_config);
  }
  if (cfg_.telemetry != nullptr) bind_telemetry(*cfg_.telemetry);
  if (!cfg_.store_dir.empty()) {
    // Open (and recover) the persistence layer before any epoch runs: torn
    // shard tails and uncommitted epochs are truncated here, and the epoch
    // counter resumes after the last durable epoch so a relaunched
    // deployment continues the same epoch sequence.
    store_ = std::make_unique<store::DeploymentStore>(
        store::StoreConfig{cfg_.store_dir, cfg_.store_epochs_per_shard},
        /*writable=*/true, cfg_.telemetry);
    if (const auto last = store_->last_committed_epoch()) {
      epoch_index_ = *last + 1;
    }
    // Summary persistence rides the tier's accept path: a summary refused
    // by a down shard is lost, not stored — the log records exactly what
    // was aggregated.
    tier_.set_store(store_.get());
  }
  monitors_.reserve(cfg_.monitor_count);
  for (std::size_t i = 0; i < cfg_.monitor_count; ++i) {
    summarize::SummarizerConfig scfg = cfg_.summarizer;
    scfg.seed = cfg_.summarizer.seed + i;  // decorrelate k-means seeding
    // Fidelity stats only matter to the drift monitors; skip the extra
    // energy pass when drift monitoring is off.
    scfg.record_fidelity = scfg.record_fidelity && cfg_.observe.drift;
    monitors_.emplace_back(static_cast<summarize::MonitorId>(i), scfg);
    if (pool_) monitors_.back().set_pool(pool_);
    if (cfg_.telemetry != nullptr) {
      monitors_.back().set_telemetry(cfg_.telemetry);
    }
  }
}

void JaalController::bind_telemetry(telemetry::Telemetry& tel) {
  tier_.set_telemetry(&tel);
  transport_.set_telemetry(&tel);
  auto& m = tel.metrics;
  tel_degraded_epochs_ = &m.counter("jaal_faults_degraded_epochs_total");
  tel_rolled_forward_ =
      &m.counter("jaal_faults_summaries_rolled_forward_total");
  tel_packets_lost_ = &m.counter("jaal_faults_packets_lost_total");
  tel_drift_events_ = &m.counter("jaal_observe_drift_events_total");
  tel_monitors_drifting_ = &m.gauge("jaal_observe_monitors_drifting");
  tel_caution_permille_ = &m.gauge("jaal_observe_caution_permille");
  if (cfg_.observe.flight_recorder || cfg_.store_metrics) {
    // The flight family exists whenever events are raised — into the ring,
    // the persisted ops stream, or both.
    tel_flight_events_ = &m.counter("jaal_observe_flight_events_total");
    tel_flight_dumps_ = &m.counter("jaal_observe_flight_dumps_total");
    if (flight_) {
      flight_->bind(m);
    } else {
      (void)m.counter(observe::FlightRecorder::kDroppedMetric);
    }
  }
  if (slo_) slo_->bind(m);
  if (cfg_.observe.profile) {
    tel_profile_path_ms_ = &m.histogram("jaal_profile_critical_path_ms");
    tel_profile_epochs_ = &m.counter("jaal_profile_epochs_total");
    tel_profile_stragglers_ = &m.counter("jaal_profile_stragglers_total");
  }
  // One stats system: the pool's runtime counters land in the same
  // registry (and the same exports) as every other jaal metric.
  if (pool_) pool_->stats().bind(&m);
}

std::optional<runtime::RuntimeStatsSnapshot> JaalController::runtime_stats()
    const {
  if (!pool_) return std::nullopt;
  return pool_->stats().snapshot(pool_->threads());
}

void JaalController::ingest(const packet::PacketRecord& pkt) {
  const std::size_t m =
      packet::FlowKeyHash{}(pkt.flow()) % monitors_.size();
  if (!transport_.monitor_up(m, epoch_index_)) {
    // The vantage point is dark: packets routed to a crashed monitor are
    // lost, not rerouted (a second monitor never sees these flows, §6).
    ++epoch_lost_packets_;
    if (tel_packets_lost_ != nullptr) tel_packets_lost_->add(1);
    return;
  }
  monitors_[m].observe(pkt);
  ++epoch_packets_;
}

// ---- per-epoch recorder -----------------------------------------------------

/// Everything one epoch close reports about itself, declared once.  The
/// recorder owns the epoch's root span and its flight-event stream: each
/// event is stamped with the epoch and the next deployment-wide sequence
/// number, written to the ring (flight_recorder on), collected for the
/// store's kEvents batch (store_metrics on) and counted.  Every event is
/// raised from the serial phases of close_epoch, so the stream is
/// deterministic across runs and thread counts.
struct JaalController::EpochRecorder {
  /// One open stage.  Closing it (scope exit) finishes its span, records
  /// its kSpan event (actor = telemetry::profile_stage_id) and, on a pool,
  /// its runtime stage timer.
  struct Stage {
    EpochRecorder& rec;
    std::uint8_t id;
    telemetry::Span span;
    runtime::StageTimer timer;
    ~Stage() {
      span.finish();
      rec.event({.kind = observe::FlightEventKind::kSpan,
                 .actor = id,
                 .a = rec.now});
    }
  };

  EpochRecorder(JaalController& controller, std::uint64_t epoch_id,
                double sim_now)
      : ctl(controller),
        epoch(epoch_id),
        now(sim_now),
        tel(controller.cfg_.telemetry),
        profiling(tel != nullptr && controller.cfg_.observe.profile),
        persist_ops(controller.store_ != nullptr &&
                    controller.cfg_.store_metrics),
        // Wall clock only feeds the latency SLI (never a persisted or
        // deterministic output); skip the read when SLO is off.
        wall_start(controller.slo_ ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{}),
        fallbacks_at_open(
            controller.tier_.engine().stats().feedback_fallbacks),
        // One trace per epoch: the trace id is the epoch index, and the
        // simulated end time rides along so traces line up across runs.
        root(tel != nullptr ? tel->tracer.span("epoch", {}, epoch)
                            : telemetry::Span{}) {
    root.set_sim_time(now);
  }

  [[nodiscard]] Stage stage(std::string_view name) {
    return {*this, telemetry::profile_stage_id(name),
            tel != nullptr
                ? tel->tracer.span(std::string(name), root.context())
                : telemetry::Span{},
            {ctl.pool_ ? &ctl.pool_->stats() : nullptr, std::string(name)}};
  }

  void event(observe::FlightEvent ev) {
    if (ctl.flight_ == nullptr && !persist_ops) return;
    ev.epoch = epoch;
    ev.seq = ctl.flight_seq_++;
    if (ctl.flight_) ctl.flight_->record(ev);
    if (persist_ops) persisted.push_back(ev);
    if (ctl.tel_flight_events_ != nullptr) ctl.tel_flight_events_->add(1);
  }

  JaalController& ctl;
  const std::uint64_t epoch;
  const double now;
  telemetry::Telemetry* const tel;
  const bool profiling;
  const bool persist_ops;
  const std::chrono::steady_clock::time_point wall_start;
  /// The root engine's lifetime fallback count when the epoch opened (the
  /// health ledger takes the per-epoch delta).
  const std::uint64_t fallbacks_at_open;
  telemetry::Span root;
  /// This epoch's flight events, for the store's kEvents batch.
  std::vector<observe::FlightEvent> persisted;
};

// ---- close_epoch and its stages ---------------------------------------------

EpochResult JaalController::close_epoch(double now) {
  EpochRecorder rec(*this, epoch_index_++, now);
  EpochResult result = open_epoch(rec);
  const std::uint64_t ship_bytes = summarize(result, rec);
  ship(result, ship_bytes, rec);
  if (tier_.pending() > 0) {
    aggregate(rec);
    infer(result, rec);
  }
  close_out(result, rec);
  return result;
}

EpochResult JaalController::open_epoch(EpochRecorder& rec) {
  EpochResult result;
  result.end_time = rec.now;
  result.packets = epoch_packets_;
  result.packets_lost = epoch_lost_packets_;
  epoch_packets_ = 0;
  epoch_lost_packets_ = 0;
  rec.root.attr("packets", static_cast<double>(result.packets));
  if (store_) {
    // Store appends/commits emit store_append/store_commit/index_finalize
    // spans under this epoch's trace when profiling; the default context
    // keeps the store span-free.
    store_->set_trace_context(rec.profiling ? rec.root.context()
                                            : telemetry::SpanContext{});
  }
  {
    // The observe phase happened during ingest(); record it as a
    // zero-duration stage carrying the epoch's packet count.
    EpochRecorder::Stage observe = rec.stage(kObserve);
    observe.span.attr("packets", static_cast<double>(result.packets));
  }

  // Crash windows: a monitor that is down this epoch loses its buffered
  // packets (a process restart) and ships nothing.
  for (std::size_t i = 0; i < monitors_.size(); ++i) {
    if (!transport_.monitor_up(i, rec.epoch)) {
      monitors_[i].discard_epoch();
      ++result.monitors_crashed;
    } else {
      // Pin this epoch's summarization RNG stream to (seed, epoch): the
      // summary then depends only on the epoch's batch, not on how many
      // epochs ran before — the restart-determinism contract of the store.
      monitors_[i].begin_epoch(rec.epoch);
    }
  }
  transport_.note_crashed(result.monitors_crashed);

  const double deadline =
      rec.now + (cfg_.aggregation.deadline_s > 0.0 ? cfg_.aggregation.deadline_s
                                                   : cfg_.epoch_seconds);
  transport_.begin_epoch(rec.epoch, rec.now, deadline);
  tier_.begin_epoch(rec.epoch);
  return result;
}

/// The summarize stage: flush the monitors, feed their fidelity to the
/// health ledger, and deliver each summary through the fault transport into
/// the tier.  Returns the summary bytes that crossed the links.
std::uint64_t JaalController::summarize(EpochResult& result,
                                        EpochRecorder& rec) {
  EpochRecorder::Stage stage = rec.stage(kSummarize);
  Slots slots = flush_monitors(rec.epoch, stage.span.context());
  observe_fidelity(slots, result, rec);
  const std::uint64_t ship_bytes = deliver(slots, result, rec);
  stage.span.attr("monitors_reporting",
                  static_cast<double>(result.monitors_reporting));
  return ship_bytes;
}

/// Flushes every live monitor into its slot, on the pool when there is one
/// (each Monitor owns its buffer and its seeded RNG, so the flushes are
/// independent).  Slots are read in monitor order afterwards, so everything
/// downstream is bit-identical to the serial loop.
JaalController::Slots JaalController::flush_monitors(
    std::uint64_t epoch, const telemetry::SpanContext& parent) {
  Slots slots(monitors_.size());
  const auto flush = [&](std::size_t i) {
    if (transport_.monitor_up(i, epoch)) {
      slots[i] = monitors_[i].flush_epoch(parent);
    }
  };
  if (pool_) {
    pool_->parallel_for(0, monitors_.size(), flush, 1);
  } else {
    for (std::size_t i = 0; i < monitors_.size(); ++i) flush(i);
  }
  return slots;
}

/// Drift monitoring: feeds each flushed monitor's summary fidelity to the
/// health ledger, serially in monitor order, *before* inference — so this
/// epoch's caution signal reflects this epoch's summaries.
void JaalController::observe_fidelity(const Slots& slots, EpochResult& result,
                                      EpochRecorder& rec) {
  for (std::size_t i = 0; i < monitors_.size(); ++i) {
    if (!slots[i]) continue;
    if (const auto& f = monitors_[i].last_fidelity()) {
      observe::FidelityStats fs = *f;
      fs.epoch = rec.epoch;
      health_.observe_fidelity(fs);
      result.fidelity.push_back(fs);
      rec.event({.kind = observe::FlightEventKind::kFidelity,
                 .actor = fs.monitor,
                 .a = fs.svd_energy_retained,
                 .b = fs.kmeans_inertia,
                 .c = fs.reconstruction_error,
                 .u = {fs.batch_packets}});
    }
  }
  result.caution = health_.caution();
  tier_.set_caution(result.caution);
}

/// Ship + tier admission, serial in monitor order: the transport decides
/// each summary's fate (its draws depend only on seed/epoch/monitor), and
/// the tier routes each delivered summary to its owning shard (and persists
/// it) or refuses it when that shard is down.  Late summaries rolled
/// forward from earlier epochs aggregate first.
std::uint64_t JaalController::deliver(Slots& slots, EpochResult& result,
                                      EpochRecorder& rec) {
  for (summarize::MonitorSummary& s : carry_) {
    if (tier_.add_summary(s)) {
      ++result.summaries_rolled_in;
    } else {
      ++result.summaries_lost_shard;
    }
  }
  carry_.clear();
  if (result.summaries_rolled_in > 0 && tel_rolled_forward_ != nullptr) {
    tel_rolled_forward_->add(result.summaries_rolled_in);
  }

  // kShip outcome codes (flight_recorder.hpp).
  enum : std::uint64_t { kDropped = 1, kLate = 2, kRolled = 3, kShardDown = 4 };
  const auto missed = [&](std::size_t monitor, std::uint64_t outcome) {
    rec.event({.kind = observe::FlightEventKind::kShip,
               .actor = static_cast<std::uint32_t>(monitor),
               .u = {outcome}});
  };
  const bool roll =
      cfg_.aggregation.late_policy == faults::LatePolicy::kRollForward;
  std::uint64_t ship_bytes = 0;
  std::size_t produced = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i]) continue;
    ++produced;
    const std::size_t bytes = summarize::wire_bytes(*slots[i]);
    switch (transport_.ship(i, bytes).status) {
      case faults::ShipStatus::kDelivered:
        ship_bytes += bytes;  // it crossed the link either way
        if (tier_.add_summary(*slots[i])) {
          ++result.monitors_reporting;
        } else {
          // Delivered, but the owning inference shard is down: the summary
          // dies at the tier's door, degrading report_fraction like any
          // other loss.
          ++result.summaries_lost_shard;
          missed(i, kShardDown);
        }
        break;
      case faults::ShipStatus::kDropped:
        ++result.summaries_dropped;
        missed(i, kDropped);
        break;
      case faults::ShipStatus::kLate:
        ++result.summaries_late;
        if (roll) {
          ship_bytes += bytes;  // it did cross the link, just slowly
          carry_.push_back(std::move(*slots[i]));
        }
        missed(i, roll ? kRolled : kLate);
        break;
    }
  }

  // Degraded-mode accounting: what fraction of the summaries this epoch
  // *should* have aggregated actually made it in time.  Crashed monitors
  // count against the epoch (they would plausibly have reported).
  const std::size_t expected = produced + result.monitors_crashed;
  result.report_fraction =
      expected == 0 ? 1.0
                    : static_cast<double>(result.monitors_reporting) /
                          static_cast<double>(expected);
  if (result.degraded() && tel_degraded_epochs_ != nullptr) {
    tel_degraded_epochs_->add(1);
  }
  return ship_bytes;
}

/// The ship stage: the summary bytes that crossed the monitor->controller
/// links.  Since the fault transport it can fail — losses ride on the span
/// next to what got through.
void JaalController::ship(const EpochResult& result, std::uint64_t ship_bytes,
                          EpochRecorder& rec) {
  EpochRecorder::Stage stage = rec.stage(kShip);
  telemetry::Span& span = stage.span;
  span.attr("summary_bytes", static_cast<double>(ship_bytes));
  span.attr("monitors_reporting",
            static_cast<double>(result.monitors_reporting));
  if (result.summaries_dropped > 0 || result.summaries_late > 0 ||
      result.monitors_crashed > 0 || result.summaries_lost_shard > 0) {
    span.attr("dropped", static_cast<double>(result.summaries_dropped));
    span.attr("late", static_cast<double>(result.summaries_late));
    span.attr("crashed", static_cast<double>(result.monitors_crashed));
    if (result.summaries_lost_shard > 0) {
      span.attr("shard_lost", static_cast<double>(result.summaries_lost_shard));
    }
    span.attr("report_fraction", result.report_fraction);
  }
}

/// The aggregate stage: the tier builds the aggregate hierarchy — per-shard
/// aggregates, then the cross-shard merge (at one shard, exactly the flat
/// Aggregator), with per-shard spans under this stage when sharded.
void JaalController::aggregate(EpochRecorder& rec) {
  EpochRecorder::Stage stage = rec.stage(kAggregate);
  const inference::AggregatedSummary& aggregate =
      tier_.aggregate_epoch(stage.span.context());
  stage.span.attr("rows", static_cast<double>(aggregate.origin.size()));
}

/// The infer stage (match, decide, feedback), then the postprocess leg's
/// distributed/feedback classification tallies.
void JaalController::infer(EpochResult& result, EpochRecorder& rec) {
  const inference::RawPacketFetcher fetch =
      [this](summarize::MonitorId id,
             const std::vector<std::size_t>& centroids) -> inference::RawFetch {
    faults::FetchResult fetched = transport_.fetch(id, [&](std::size_t) {
      return monitors_.at(id).raw_packets_for(centroids);
    });
    // Carry the retry accounting along so alert provenance can show what
    // the feedback round-trip actually cost.
    return {std::move(fetched.packets), fetched.attempts, fetched.backoff_s};
  };
  // Scale rule counts to this epoch's actual packet volume (counts are
  // calibrated for a nominal 2000-packet window), on top of the deployment's
  // configured headroom factor; partial epochs additionally scale by the
  // report fraction so a missing monitor raises sensitivity instead of
  // silently missing.
  tier_.set_tau_c_scale(cfg_.engine.tau_c_scale *
                        static_cast<double>(result.packets) / 2000.0);
  tier_.set_report_fraction(result.report_fraction);
  {
    EpochRecorder::Stage stage = rec.stage(kInfer);
    result.alerts = tier_.infer_epoch(fetch, stage.span.context());
    stage.span.attr("alerts", static_cast<double>(result.alerts.size()));
  }
  std::size_t distributed = 0, via_feedback = 0;
  for (const inference::Alert& a : result.alerts) {
    distributed += a.distributed ? 1 : 0;
    via_feedback += a.via_feedback ? 1 : 0;
  }
  EpochRecorder::Stage post = rec.stage(kPostprocess);
  post.span.attr("alerts", static_cast<double>(result.alerts.size()));
  post.span.attr("distributed", static_cast<double>(distributed));
  post.span.attr("via_feedback", static_cast<double>(via_feedback));
}

/// Close-out, on every epoch: health, SLO and flight dump, then the store
/// commit.  The critical-path profile brackets them, so its deterministic
/// digest lands in this epoch's ops stream while the wall-clock profile
/// still covers the store commit itself.
void JaalController::close_out(EpochResult& result, EpochRecorder& rec) {
  std::vector<telemetry::SpanRecord> spans;
  if (rec.profiling) spans = profile_digest(rec);
  close_health(result, rec);
  observe_slo_and_dump(result, rec);
  commit_store(result, rec);
  if (rec.profiling) result.profile = profile_wall(rec, std::move(spans));
  result.shards = tier_.shard_stats();
}

/// Folds the epoch into the health ledger and raises its drift, feedback
/// and close events — the order the offline replay (store/doctor) relies
/// on: fidelity before close.
void JaalController::close_health(EpochResult& result, EpochRecorder& rec) {
  observe::HealthTracker::EpochDegradation deg;
  deg.report_fraction = result.report_fraction;
  deg.monitors_crashed = result.monitors_crashed;
  deg.summaries_dropped = result.summaries_dropped;
  deg.summaries_late = result.summaries_late;
  deg.summaries_rolled_in = result.summaries_rolled_in;
  deg.packets_lost = result.packets_lost;
  deg.feedback_fallbacks =
      tier_.engine().stats().feedback_fallbacks - rec.fallbacks_at_open;
  deg.alerts = result.alerts.size();
  result.drift_events = health_.end_epoch(rec.epoch, deg);
  if (tel_drift_events_ != nullptr) {
    if (!result.drift_events.empty()) {
      tel_drift_events_->add(result.drift_events.size());
    }
    tel_monitors_drifting_->set(
        static_cast<std::int64_t>(health_.monitors_drifting()));
    tel_caution_permille_->set(
        static_cast<std::int64_t>(result.caution * 1000.0 + 0.5));
  }
  for (const observe::HealthEvent& e : result.drift_events) {
    rec.event({.kind = e.kind == observe::HealthEventKind::kDriftStart
                           ? observe::FlightEventKind::kDriftStart
                           : observe::FlightEventKind::kDriftEnd,
               .actor = e.monitor,
               .a = e.value,
               .b = e.baseline,
               .c = e.z,
               .u = {observe::drift_metric_id(e.metric)}});
  }
  if (deg.feedback_fallbacks > 0) {
    rec.event({.kind = observe::FlightEventKind::kFeedback,
               .u = {deg.feedback_fallbacks}});
  }
  rec.event({.kind = observe::FlightEventKind::kEpochClose,
             .actor = static_cast<std::uint32_t>(deg.alerts),
             .a = result.report_fraction,
             .b = result.caution,
             .c = static_cast<double>(cfg_.monitor_count),
             .u = {deg.monitors_crashed, deg.summaries_dropped,
                   deg.summaries_late, deg.summaries_rolled_in,
                   deg.packets_lost, deg.feedback_fallbacks}});
}

/// Feeds the SLO budgets, and takes an automatic flight dump when the
/// health report's worst finding got worse than anything seen before —
/// capturing the ring before later epochs overwrite the lead-up.
void JaalController::observe_slo_and_dump(const EpochResult& result,
                                          EpochRecorder& rec) {
  if (slo_) {
    const double latency_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - rec.wall_start)
            .count();
    slo_->observe_epoch(rec.epoch, result.report_fraction, latency_ms);
  }
  if (!flight_) return;
  const auto findings = health_.report().ranked_findings();
  const double severity = findings.empty() ? 0.0 : findings.front().severity;
  if (severity > last_top_severity_) {
    last_top_severity_ = severity;
    last_flight_dump_ = flight_->dump_jsonl();
    if (tel_flight_dumps_ != nullptr) tel_flight_dumps_->add(1);
  }
}

/// Store commit: alerts and provenance land first, then the ops stream,
/// then the EpochMeta record in the summaries log marks the epoch durable —
/// a crash between any of these appends leaves an uncommitted epoch that
/// recovery truncates wholesale on the next open.
void JaalController::commit_store(const EpochResult& result,
                                  EpochRecorder& rec) {
  if (!store_) return;
  for (const inference::Alert& a : result.alerts) {
    store_->put_alert(rec.epoch, a, result.end_time);
    if (a.provenance) store_->put_provenance(rec.epoch, a.sid, *a.provenance);
  }
  if (rec.persist_ops) {
    // Ops stream: the epoch's flight events and the registry's delta since
    // the previous commit (an uncommitted epoch rolls both back).
    if (!rec.persisted.empty()) store_->put_events(rec.epoch, rec.persisted);
    if (rec.tel != nullptr) {
      telemetry::MetricsSnapshot cur = rec.tel->metrics.snapshot();
      store_->put_metrics(rec.epoch, cur.diff(prev_metrics_));
      prev_metrics_ = std::move(cur);
    }
  }
  store::EpochMeta meta{rec.epoch, result.end_time, result.packets,
                        result.report_fraction, result.caution};
  meta.shard_count = tier_.shard_count();
  store_->commit_epoch(meta);
}

/// Deterministic critical-path digest, taken before anything is persisted:
/// drains the spans recorded so far and raises the kProfile event.  The
/// root is still open (it must cover the store commit), so its record is
/// synthesized — deterministic mode needs only the tree shape.  Returns the
/// drained spans, synthesized root last.
std::vector<telemetry::SpanRecord> JaalController::profile_digest(
    EpochRecorder& rec) {
  std::vector<telemetry::SpanRecord> spans = rec.tel->tracer.drain();
  telemetry::SpanRecord root;
  root.name = "epoch";
  root.key = rec.epoch;
  root.trace_id = rec.epoch;
  root.span_id = rec.root.context().span_id;
  root.sim_time = rec.now;
  spans.push_back(root);
  telemetry::CriticalPathOptions det_opts;
  det_opts.mode = telemetry::DurationMode::kDeterministic;
  const telemetry::CriticalPath det =
      telemetry::CriticalPath::build(spans, rec.epoch, det_opts);
  rec.event({.kind = observe::FlightEventKind::kProfile,
             .actor = telemetry::profile_stage_id(det.dominant_stage),
             .a = det.root_inclusive_ms,
             .b = static_cast<double>(det.path.size()),
             .u = {det.span_count, det.sibling_groups}});
  return spans;
}

/// Closes the root and takes the wall-clock profile over the complete
/// epoch — including the store spans the commit just recorded — into the
/// jaal_profile_* family and the SLO's latency attribution.
telemetry::CriticalPath JaalController::profile_wall(
    EpochRecorder& rec, std::vector<telemetry::SpanRecord> spans) {
  rec.root.finish();
  spans.pop_back();  // the synthesized root; the finished one follows
  std::vector<telemetry::SpanRecord> rest = rec.tel->tracer.drain();
  spans.insert(spans.end(), rest.begin(), rest.end());
  telemetry::CriticalPath wall =
      telemetry::CriticalPath::build(spans, rec.epoch, {});
  if (tel_profile_epochs_ != nullptr) {
    tel_profile_epochs_->add(1);
    tel_profile_path_ms_->observe(wall.root_inclusive_ms);
    if (!wall.stragglers.empty()) {
      tel_profile_stragglers_->add(wall.stragglers.size());
    }
    for (const telemetry::StageTime& st : wall.stages) {
      auto it = std::find_if(tel_profile_stage_.begin(),
                             tel_profile_stage_.end(),
                             [&](const auto& e) { return e.first == st.name; });
      if (it == tel_profile_stage_.end()) {
        tel_profile_stage_.emplace_back(
            st.name, &rec.tel->metrics.histogram(
                         "jaal_profile_stage_exclusive_ms{stage=\"" +
                         st.name + "\"}"));
        it = std::prev(tel_profile_stage_.end());
      }
      // Exclusive self-time can go negative when siblings overlap on the
      // pool (parallelism credit); the histogram records the spent side.
      it->second->observe(std::max(0.0, st.exclusive_ms));
    }
  }
  if (slo_) slo_->attribute_latency(wall.dominant_stage);
  return wall;
}

std::vector<EpochResult> JaalController::run(trace::PacketSource& source,
                                             double duration) {
  std::vector<EpochResult> epochs;
  const double start = source.peek_time();

  if (cfg_.trigger == EpochTrigger::kBatchTriggered) {
    // §5.1 second mode: when any monitor reaches a full batch of n packets,
    // the controller requests summaries from everyone (monitors below
    // n_min stay silent and keep buffering).
    while (source.peek_time() - start < duration) {
      const packet::PacketRecord pkt = source.next();
      ingest(pkt);
      for (const Monitor& m : monitors_) {
        if (m.batch_ready()) {
          epochs.push_back(close_epoch(pkt.timestamp));
          break;
        }
      }
    }
    epochs.push_back(close_epoch(start + duration));
    return epochs;
  }

  double epoch_end = start + cfg_.epoch_seconds;
  while (source.peek_time() - start < duration) {
    if (source.peek_time() >= epoch_end) {
      epochs.push_back(close_epoch(epoch_end));
      epoch_end += cfg_.epoch_seconds;
      continue;
    }
    ingest(source.next());
  }
  epochs.push_back(close_epoch(epoch_end));
  return epochs;
}

CommStats JaalController::comm() const {
  CommStats total;
  for (const Monitor& m : monitors_) total += m.comm();
  total.feedback_bytes += tier_.engine().stats().raw_bytes_fetched;
  return total;
}

}  // namespace jaal::core
