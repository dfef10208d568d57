// Golden digest of one seeded, fully-instrumented, faulted deployment.
//
// Every other determinism test compares the code against itself (live vs
// offline, threads 1 vs N, shards 1 vs N).  This one pins the observable
// output of JaalController::close_epoch against fixed constants: every
// record committed to the store (summaries, alerts, provenance, the ops
// kEvents/kMetrics stream, EpochMeta), the flight-recorder dump, the SLO
// summary, the deterministic metrics + spans export, and the per-epoch
// alerts and degradation counters.  A change that moves any of those bytes
// — a reordered flight event, a renamed span, a metric bumped at a
// different point of the close — changes the digest.
//
// The scenario fires every flight-event kind: transport drops, late
// summaries rolled forward, a monitor crash window, a shard crash window
// (two-shard run only — a one-shard tier rejects a window naming shard 1),
// feedback fallbacks, drift transitions once the attack starts, and the
// per-epoch span/profile/close events.
//
// If the digest changes on purpose, re-record it with
//   ./build/tests/jaal_tests --gtest_filter='GoldenEpoch*'
// (the failure message prints the new value) and say why in the change
// log: a moved golden is a behavior change, not a refactor.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "attack/generators.hpp"
#include "core/controller.hpp"
#include "core/experiment.hpp"
#include "inference/alert_json.hpp"
#include "store/store.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/mix.hpp"

namespace jaal::core {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("jaal_golden_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// FNV-1a over a byte stream, with length-prefixed fields so adjacent
/// fields cannot trade bytes without changing the digest.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

void digest_log(Digest& d, const store::TimeShardLog& log) {
  log.for_each([&](const store::RecordView& rec) {
    d.u64(static_cast<std::uint64_t>(rec.kind));
    d.u64(rec.epoch);
    d.u64(rec.stream);
    d.u64(rec.payload.size());
    d.bytes(rec.payload.data(), rec.payload.size());
    return true;
  });
}

struct GoldenRun {
  std::uint64_t digest = 0;
  std::set<observe::FlightEventKind> kinds;  ///< Flight-event kinds seen.
  std::set<std::uint64_t> ship_outcomes;     ///< kShip u[0] values seen.
  std::size_t alerts = 0;
};

GoldenRun run_golden(std::size_t shards, std::size_t threads) {
  char tag[32];
  std::snprintf(tag, sizeof(tag), "s%zu_t%zu", shards, threads);
  TempDir dir(tag);
  telemetry::Telemetry tel;

  JaalConfig cfg;
  cfg.summarizer.batch_size = 400;
  cfg.summarizer.min_batch = 150;
  cfg.summarizer.rank = 12;
  cfg.summarizer.centroids = 48;
  cfg.monitor_count = 4;
  cfg.epoch_seconds = 0.04;
  cfg.threads = threads;
  cfg.engine.default_thresholds = {0.008, 0.03};
  cfg.engine.feedback_enabled = true;
  cfg.telemetry = &tel;
  cfg.observe.flight_recorder = true;
  cfg.observe.slo = true;
  cfg.sharding.shards = shards;
  cfg.store_dir = dir.path.string();
  cfg.store_metrics = true;
  cfg.aggregation.deadline_s = 0.004;
  cfg.aggregation.late_policy = faults::LatePolicy::kRollForward;

  faults::FaultScenario& sc = cfg.faults;
  sc.seed = 2024;
  sc.drop_rate = 0.15;
  sc.delay_mean_s = 0.0015;
  sc.delay_jitter_s = 0.002;
  sc.crashes.push_back({2, 3, 5});
  if (shards > 1) sc.shard_crashes.push_back({1, 6, 8});
  sc.feedback_failure_rate = 0.6;
  sc.retry.max_attempts = 2;

  GoldenRun out;
  Digest d;
  {
    JaalController controller(
        cfg, rules::parse_rules(rules::default_ruleset_text(),
                                evaluation_rule_vars()));
    trace::BackgroundTraffic bg(trace::trace1_profile(), 11);
    attack::AttackConfig acfg;
    acfg.victim_ip = evaluation_victim_ip();
    acfg.start_time = 0.2;
    acfg.packets_per_second = 8000.0;
    acfg.seed = 3;
    attack::SynFlood flood(acfg);
    trace::TrafficMix mix(bg, {&flood}, 0.15);
    const std::vector<EpochResult> epochs = controller.run(mix, 0.48);
    EXPECT_FALSE(controller.store()->failed());

    for (const EpochResult& e : epochs) {
      d.u64(e.packets);
      d.u64(e.packets_lost);
      d.u64(e.monitors_reporting);
      d.u64(e.monitors_crashed);
      d.u64(e.summaries_dropped);
      d.u64(e.summaries_late);
      d.u64(e.summaries_rolled_in);
      d.u64(e.summaries_lost_shard);
      d.u64(e.alerts.size());
      for (const inference::Alert& a : e.alerts) {
        d.str(inference::alert_to_json(a, e.end_time));
      }
      out.alerts += e.alerts.size();
    }
    const observe::FlightRecorder* flight = controller.flight_recorder();
    d.str(flight->dump_jsonl());
    for (const observe::FlightEvent& ev : flight->snapshot()) {
      out.kinds.insert(ev.kind);
      if (ev.kind == observe::FlightEventKind::kShip) {
        out.ship_outcomes.insert(ev.u[0]);
      }
    }
    d.str(controller.slo()->to_jsonl());
    d.str(telemetry::to_jsonl(tel.metrics.snapshot(), tel.tracer.records(),
                              {.include_timings = false}));
  }

  store::DeploymentStore reader({cfg.store_dir, cfg.store_epochs_per_shard},
                                /*writable=*/false);
  digest_log(d, reader.summaries_log());
  digest_log(d, reader.alerts_log());
  digest_log(d, reader.provenance_log());
  digest_log(d, reader.ops_log());
  out.digest = d.value();
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIX64, v);
  return buf;
}

void expect_golden(std::size_t shards, std::uint64_t golden) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    const GoldenRun run = run_golden(shards, threads);
    EXPECT_EQ(hex(run.digest), hex(golden))
        << "shards=" << shards << " threads=" << threads;
    EXPECT_GT(run.alerts, 0u) << "vacuously empty alert stream";
    for (const auto kind :
         {observe::FlightEventKind::kEpochClose,
          observe::FlightEventKind::kFidelity,
          observe::FlightEventKind::kDriftStart,
          observe::FlightEventKind::kShip, observe::FlightEventKind::kFeedback,
          observe::FlightEventKind::kSpan,
          observe::FlightEventKind::kProfile}) {
      EXPECT_TRUE(run.kinds.count(kind))
          << "scenario never raised " << observe::flight_kind_name(kind);
    }
    // Dropped and rolled-forward summaries every run; refusals by a down
    // shard only where the scenario has a shard window.
    std::set<std::uint64_t> outcomes = {1, 3};
    if (shards > 1) outcomes.insert(4);
    for (const std::uint64_t o : outcomes) {
      EXPECT_TRUE(run.ship_outcomes.count(o)) << "no kShip outcome " << o;
    }
  }
}

TEST(GoldenEpoch, OneShardDigestIsPinned) {
  expect_golden(1, 0x137B7AA7481B558CULL);
}

TEST(GoldenEpoch, TwoShardDigestIsPinned) {
  expect_golden(2, 0x1DE4093156C58707ULL);
}

}  // namespace
}  // namespace jaal::core
