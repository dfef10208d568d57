#include "workloads.hpp"

#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

using namespace jaal;

/// The paper's feedback operating point (strict/loose tau_d pair, §8.1).
constexpr inference::ThresholdPair kFeedbackThresholds{0.008, 0.03};
/// Its feedback-off counterpart (bench/common.hpp operating_point).
constexpr inference::ThresholdPair kNoFeedbackThresholds{0.015, 0.015};

/// rules_wide's per-epoch count threshold (calibrated, like the built-in
/// rules, for a nominal 2000-packet window): high enough that benign
/// background alone raises few alerts.
constexpr int kWideCount = 400;
constexpr int kWideRawCount = 160;

attack::AttackConfig attack_config(std::uint64_t seed, double pps) {
  attack::AttackConfig cfg;
  cfg.victim_ip = core::evaluation_victim_ip();
  cfg.packets_per_second = pps;
  cfg.seed = seed;
  return cfg;
}

Workload paper_k200() {
  Workload w;
  w.name = "paper_k200";
  core::JaalConfig& c = w.config;
  c.monitor_count = 4;
  c.summarizer.batch_size = 1500;
  c.summarizer.min_batch = 300;
  c.summarizer.rank = 12;
  c.summarizer.centroids = 200;
  c.engine.default_thresholds = kFeedbackThresholds;
  c.engine.feedback_enabled = true;
  c.threads = 1;
  w.rules_text = rules::default_ruleset_text();
  w.packets_per_epoch = 4 * 1500;
  w.input_epochs = 120;
  return w;
}

Workload rules_wide() {
  Workload w;
  w.name = "rules_wide";
  core::JaalConfig& c = w.config;
  c.monitor_count = 16;
  c.summarizer.batch_size = 400;
  c.summarizer.min_batch = 100;
  c.summarizer.rank = 8;
  c.summarizer.centroids = 16;
  c.engine.default_thresholds = kFeedbackThresholds;
  c.engine.feedback_enabled = true;
  // Serial.  At threads=4 on a shared 4-vCPU VM the pool's hand-offs read
  // the hypervisor's scheduling: in the same minutes, 10 s runs gave a
  // close p50 of 22-32 ms at 4 threads, 29-41 ms at 2, and 47-49 ms at 1.
  // Traced runs still measure the runtime layer, on a 4-thread replica.
  c.threads = 1;
  w.pool_probe_threads = 4;
  c.observe.flight_recorder = true;
  c.observe.slo = true;
  c.store_metrics = true;
  // A shard rolls (msync, truncate, index finalize, next file mapped) every
  // 8 epochs.  8 divides input_epochs, so the rolls fall on the same 15 of
  // the 120 inputs on every pass: 12.5% of inputs, above epoch_ms_p90.
  c.store_epochs_per_shard = 8;
  w.telemetry = true;
  w.store = true;
  w.rules_text = wide_ruleset_text();
  w.packets_per_epoch = 16 * 400;
  w.input_epochs = 120;
  return w;
}

Workload replay_query() {
  Workload w = rules_wide();
  w.name = "replay_query";
  w.rules_text = rules::default_ruleset_text();
  w.config.engine.default_thresholds = kNoFeedbackThresholds;
  w.config.engine.feedback_enabled = false;
  w.config.store_epochs_per_shard = 64;
  w.history_epochs = 320;  // five 64-epoch shard files
  w.pool_probe_threads = 0;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::size_t threads) {
  Workload w;
  if (name == "paper_k200") {
    w = paper_k200();
  } else if (name == "rules_wide") {
    w = rules_wide();
  } else if (name == "replay_query") {
    w = replay_query();
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (threads > 0) w.config.threads = threads;
  return w;
}

Workload history_writer(const Workload& replay) {
  Workload w = replay;
  w.name = replay.name + "_history";
  // The history is a plain persisted deployment: the ops layers rules_wide
  // measures are not part of what a retroactive query reads.
  w.config.observe.flight_recorder = false;
  w.config.observe.slo = false;
  w.config.store_metrics = false;
  w.telemetry = false;
  w.store = true;
  return w;
}

std::vector<rules::Rule> parse_workload_rules(const std::string& text) {
  return rules::parse_rules(text, core::evaluation_rule_vars());
}

Traffic::Traffic(std::uint64_t seed)
    : background_(trace::trace1_profile(), seed),
      flood_(attack_config(seed * 2 + 1, 5000.0)),
      scan_(attack_config(seed * 2 + 2, 3000.0)),
      mix_(background_, {&flood_, &scan_}, 0.10) {}

std::vector<packet::PacketRecord> Traffic::take(std::size_t count) {
  return trace::take(mix_, count);
}

std::vector<std::vector<packet::PacketRecord>> make_epochs(
    std::uint64_t seed, std::size_t per_epoch, std::size_t epochs) {
  Traffic traffic(seed);
  std::vector<std::vector<packet::PacketRecord>> out;
  out.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) out.push_back(traffic.take(per_epoch));
  return out;
}

std::string wide_ruleset_text() {
  static const char* const kFlags[] = {"S", "SA", "A", "PA", "FA"};
  std::ostringstream os;
  std::uint32_t sid = 3000000;
  for (const std::uint16_t port : attack::PortScan::nmap_default_ports()) {
    for (const char* flags : kFlags) {
      for (const bool inbound : {true, false}) {
        os << "alert tcp "
           << (inbound ? "any any -> $HOME_NET " : "$HOME_NET ") << port
           << (inbound ? "" : " -> any any") << " (msg:\"wide "
           << (inbound ? "to " : "from ") << port << ' ' << flags
           << "\"; flags:" << flags << "; detection_filter: count "
           << kWideCount << ", seconds 2; jaal_raw_count: " << kWideRawCount
           << "; sid:" << sid++ << "; rev:1;)\n";
      }
    }
  }
  os << rules::default_ruleset_text();
  return os.str();
}

std::uint64_t epoch_digest(std::uint64_t epoch,
                           const std::vector<inference::Alert>& alerts,
                           std::uint64_t total_a, std::uint64_t total_b) {
  std::uint64_t h = kDigestSeed;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  mix(epoch);
  mix(alerts.size());
  for (const inference::Alert& a : alerts) {
    mix(a.sid);
    mix(a.matched_packets);
    mix(a.via_feedback ? 1 : 0);
    mix(a.distributed ? 1 : 0);
  }
  mix(total_a);
  mix(total_b);
  return h;
}

std::uint64_t fold_digest(std::uint64_t acc, std::uint64_t d) {
  return (acc ^ d) * 1099511628211ull + (d >> 7);
}

}  // namespace perfbench
