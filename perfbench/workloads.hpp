// The benchmark's workloads: deployment shape, seeded inputs, and the
// per-operation alert digest every output check compares.
//
// Three workloads, each run in its own process with the seed as an
// argument:
//   paper_k200    the paper's operating point (4 monitors, k=200, r=12,
//                 threads=1): summarize-bound, the single-threaded baseline.
//   rules_wide    an operator-shaped deployment (16 monitors, k=16, r=8,
//                 ~1000 header rules, store + telemetry + flight recorder +
//                 SLO; serial, its pool measured by traced runs only):
//                 inference/feedback/store-bound.
//   replay_query  retroactive queries (StoreReplayer over a history the
//                 rules_wide shape wrote with feedback off): the store's read
//                 path.
// Inputs are generated before timing and never counted in a metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "jaal.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Workload {
  std::string name;
  /// Deployment config without the per-instance pointers: telemetry and
  /// store_dir are filled by whoever stands an instance up.
  jaal::core::JaalConfig config;
  bool telemetry = false;  ///< Attach a telemetry sink.
  bool store = false;      ///< Persist every epoch under a store directory.
  std::string rules_text;  ///< Parsed as part of set-up (it is timed).
  std::size_t packets_per_epoch = 0;
  /// Distinct epochs of traffic generated before timing; the timed loop
  /// cycles through them.
  std::size_t input_epochs = 0;
  /// replay_query only: epochs of history the feedback-off writer run
  /// persists before timing.
  std::size_t history_epochs = 0;
  /// Traced runs only: the pool width of the replica that reports the
  /// runtime layer (0 = none).
  std::size_t pool_probe_threads = 0;
};

/// The named workload; `threads` > 0 overrides the workload's own width
/// (the benchmark's self-test compares rules_wide at 1 and 4 threads).
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::size_t threads = 0);

/// The live deployment that writes replay_query's history: the rules_wide
/// shape with the default ruleset, feedback off, store on.
[[nodiscard]] Workload history_writer(const Workload& replay);

[[nodiscard]] std::vector<jaal::rules::Rule> parse_workload_rules(
    const std::string& text);

/// Seeded Trace-1 background plus a distributed SYN flood and a port scan,
/// capped at 10% of the stream by trace::TrafficMix.
class Traffic {
 public:
  explicit Traffic(std::uint64_t seed);
  Traffic(const Traffic&) = delete;  // the mix points at the sources
  Traffic& operator=(const Traffic&) = delete;

  /// The next `count` packets of the stream.
  [[nodiscard]] std::vector<jaal::packet::PacketRecord> take(std::size_t count);

 private:
  jaal::trace::BackgroundTraffic background_;
  jaal::attack::DistributedSynFlood flood_;
  jaal::attack::PortScan scan_;
  jaal::trace::TrafficMix mix_;
};

/// `epochs` consecutive windows of `per_epoch` packets of Traffic(seed).
[[nodiscard]] std::vector<std::vector<jaal::packet::PacketRecord>>
make_epochs(std::uint64_t seed, std::size_t per_epoch, std::size_t epochs);

/// rules_wide's ruleset: one header rule per Nmap default port x flag
/// combination x direction, followed by the built-in ruleset.
[[nodiscard]] std::string wide_ruleset_text();

/// FNV-1a digest of one operation's outcome: the epoch, every alert's sid,
/// matched_packets, via_feedback and distributed flags, and two byte/packet
/// totals (summary + feedback bytes for live epochs; represented packets for
/// replayed ones).
[[nodiscard]] std::uint64_t epoch_digest(
    std::uint64_t epoch, const std::vector<jaal::inference::Alert>& alerts,
    std::uint64_t total_a, std::uint64_t total_b);

/// Order-sensitive fold of per-operation digests into a run digest.
[[nodiscard]] std::uint64_t fold_digest(std::uint64_t acc, std::uint64_t d);
inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ull;

}  // namespace perfbench
