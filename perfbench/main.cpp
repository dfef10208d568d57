// jaal_perfbench: the repository's end-to-end + per-layer benchmark.
//
//   jaal_perfbench --workload <paper_k200|rules_wide|replay_query>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--workdir <dir>] [--threads <n>] [--epochs <n>]
//                  [--expect-digest <hex>] [--git-sha <sha>]
//                  [--source-digest <hex>]
//
// Load is closed-loop from one feeder thread: the packets of every epoch are
// generated before timing starts, and ingest() and close_epoch() run
// synchronously on this thread, so no backlog can build and the closed-loop
// rate is the sustainable rate.  --trace 0 reports the end-to-end metrics,
// timings corrected to a reference host speed (HostSpeed); --trace 1 runs
// the controller untraced next to a recomposed, traced close_epoch
// (traced.hpp) and reports the per-layer split.  Every run
// checks its outputs (digests, store health, feedback fallbacks) and prints
// one JSON result as its last line.  --epochs runs a fixed number of
// operations instead of a timed loop (the self-test uses it).
#include <immintrin.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/simd.hpp"
#include "traced.hpp"
#include "workloads.hpp"

#ifndef JAAL_PERFBENCH_BUILD_TYPE
#define JAAL_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace jaal;
namespace fs = std::filesystem;

/// Epochs (or queries) run before timing starts: caches fill and lazy
/// allocations happen outside the measurement.
constexpr std::size_t kWarmupOps = 2;
/// An untraced run executes every input at least this many times.
constexpr std::size_t kMinVisits = 3;
/// A traced run measures at least this many operations (per-layer values
/// are medians over operations).
constexpr std::size_t kMinTracedOps = 110;
/// Wall-clock cap on the timed loop, whatever --seconds and the minimums
/// ask for (a run must finish within 180 s).
constexpr double kMaxLoopSeconds = 120.0;
/// replay_query's queries are identical; they are spread over this many
/// slots for the per-slot median.
constexpr std::size_t kQuerySlots = 24;
/// Set-up is timed in kSetupBlocks blocks spread over the run (SetupTimes),
/// each of at least kSetupReps set-ups and kSetupSeconds / kSetupBlocks of
/// set-up work, at most kSetupMaxReps / kSetupBlocks set-ups; setup_s is the
/// median over all of them.
constexpr std::size_t kSetupBlocks = 6;
constexpr std::size_t kSetupReps = 9;
constexpr double kSetupSeconds = 0.25;
constexpr std::size_t kSetupMaxReps = 1000;

/// Live runs digest this many leading epochs for the reference check.
constexpr std::size_t kReferenceEpochs = 16;
/// Epochs the traced run's pool replica runs (pool_probe).
constexpr std::size_t kPoolProbeEpochs = 16;

/// The per-layer metrics (--trace 1), in BENCHMARK.json's order, with
/// their units.  A layer the workload does not exercise reports 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"core.ingest_ns_per_pkt", "ns/pkt"},
    {"core.close_overhead_ms", "ms"},
    {"summarize.ms", "ms"},
    {"summarize.wall_ms", "ms"},
    {"summarize.normalize_ms", "ms"},
    {"summarize.svd_ms", "ms"},
    {"summarize.kmeans_seed_ms", "ms"},
    {"summarize.kmeans_lloyd_ms", "ms"},
    {"summarize.lloyd_iterations", "count"},
    {"summarize.summary_bytes_per_pkt", "B/pkt"},
    {"shard.add_ms", "ms"},
    {"shard.aggregate_ms", "ms"},
    {"shard.rows", "count"},
    {"inference.match_ms", "ms"},
    {"inference.distance_evals", "count"},
    {"inference.decide_ms", "ms"},
    {"inference.feedback_fetch_ms", "ms"},
    {"inference.feedback_requests", "count"},
    {"inference.feedback_useful_ratio", "ratio"},
    {"inference.feedback_bytes_per_pkt", "B/pkt"},
    {"observe.health_ms", "ms"},
    {"telemetry.snapshot_ms", "ms"},
    {"store.append_ms", "ms"},
    {"store.commit_ms", "ms"},
    {"store.bytes_per_epoch", "B/epoch"},
    {"store.open_ms", "ms"},
    {"store.scan_ms", "ms"},
    {"store.scan_mb_per_s", "MB/s"},
    {"store.replay_ms", "ms"},
    {"runtime.tasks_per_epoch", "count"},
    {"runtime.queue_high_water", "count"},
    {"bench.trace_overhead", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  std::size_t threads = 0;
  std::size_t epochs = 0;  ///< 0 = timed loop.
  std::string expect_digest;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::stoull(v);
    else if (key == "--seconds") a.seconds = std::stod(v);
    else if (key == "--trace") a.trace = v != "0";
    else if (key == "--workdir") a.workdir = v;
    else if (key == "--threads") a.threads = std::stoul(v);
    else if (key == "--epochs") a.epochs = std::stoul(v);
    else if (key == "--expect-digest") a.expect_digest = v;
    else if (key == "--git-sha") a.git_sha = v;
    else if (key == "--source-digest") a.source_digest = v;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = kDigestSeed;
  std::vector<Metric> metrics;
  /// The end-to-end timings as the wall clock read them, before the
  /// host-speed correction (printed as info lines).
  std::vector<Metric> wall;
  std::vector<std::string> problems;

  void problem(std::string what) {
    correct = false;
    if (problems.size() < 20) problems.push_back(std::move(what));
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Adds an end-to-end timing measured on the wall clock, corrected to the
  /// reference host speed: a duration is multiplied by `factor`, a rate
  /// divided by it.
  void add_timing(const std::string& name, double wall_value,
                  const std::string& unit, double factor, bool rate = false) {
    wall.push_back({name, wall_value, unit});
    add(name, rate ? wall_value / factor : wall_value * factor, unit);
  }
  /// Adds every per-layer metric, taking values from `layers` (0 if absent).
  void add_layers(const std::map<std::string, double>& layers) {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = layers.find(name);
      add(name, it == layers.end() ? 0.0 : it->second, unit);
    }
  }
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Set-up times of one run.  The first block stands up the deployment the
/// run measures; the others stand up throwaway copies between timed
/// operations, at even fractions of --seconds once the first pass through
/// the inputs (which sets peak_rss_mb) is over, and any still missing when
/// the timed loop ends run after it.  One block per run would not do: on a
/// 4-vCPU VM, paper_k200's set-up switched between about 40 and 63 us
/// every few seconds, so per-run medians from one block split into two
/// groups.  Traced runs set up once: they do not report setup_s.
class SetupTimes {
 public:
  explicit SetupTimes(const Args& a) : args_(a) {}

  /// Runs one block; `stand_up` performs one set-up and returns its seconds.
  template <typename StandUp>
  void block(StandUp&& stand_up) {
    const std::size_t first = seconds_.size();
    double block_s = 0.0;
    for (;;) {
      seconds_.push_back(stand_up());
      block_s += seconds_.back();
      const std::size_t reps = seconds_.size() - first;
      if (args_.trace || reps >= kSetupMaxReps / kSetupBlocks) break;
      if (reps >= kSetupReps && block_s >= kSetupSeconds / kSetupBlocks) break;
    }
    ++blocks_;
  }
  /// Whether the next block is due `elapsed_s` into the timed loop.
  [[nodiscard]] bool due(double elapsed_s) const {
    return !complete() &&
           elapsed_s >= args_.seconds * static_cast<double>(blocks_) /
                            static_cast<double>(kSetupBlocks);
  }
  [[nodiscard]] bool complete() const {
    return args_.trace || blocks_ >= kSetupBlocks;
  }
  [[nodiscard]] double median_s() const { return median(seconds_); }

 private:
  const Args& args_;
  std::vector<double> seconds_;
  std::size_t blocks_ = 0;
};

/// The reference kernel HostSpeed times: 12 independent chains of fused
/// multiply-adds over a 16 KiB, 64-byte aligned array that stays in L1, in
/// the widest vector unit the core has.  It calls nothing in the library.
constexpr int kKernelReps = 60;
constexpr int kKernelFloats = 4096;
constexpr int kKernelChains = 12;

__attribute__((target("avx512f"))) float kernel_avx512(const float* x) {
  __m512 acc[kKernelChains];
  for (__m512& v : acc) v = _mm512_setzero_ps();
  const __m512 m = _mm512_set1_ps(0.9999f);
  for (int r = 0; r < kKernelReps; ++r) {
    for (int i = 0; i < kKernelFloats; i += 16) {
      const __m512 v = _mm512_load_ps(x + i);
      for (__m512& c : acc) c = _mm512_fmadd_ps(c, m, v);
    }
  }
  alignas(64) float lanes[16];
  __m512 t = acc[0];
  for (int k = 1; k < kKernelChains; ++k) t = _mm512_add_ps(t, acc[k]);
  _mm512_store_ps(lanes, t);
  return std::accumulate(lanes, lanes + 16, 0.0f);
}

__attribute__((target("avx2,fma"))) float kernel_avx2(const float* x) {
  __m256 acc[kKernelChains];
  for (__m256& v : acc) v = _mm256_setzero_ps();
  const __m256 m = _mm256_set1_ps(0.9999f);
  for (int r = 0; r < kKernelReps; ++r) {
    for (int i = 0; i < kKernelFloats; i += 8) {
      const __m256 v = _mm256_load_ps(x + i);
      for (__m256& c : acc) c = _mm256_fmadd_ps(c, m, v);
    }
  }
  alignas(32) float lanes[8];
  __m256 t = acc[0];
  for (int k = 1; k < kKernelChains; ++k) t = _mm256_add_ps(t, acc[k]);
  _mm256_store_ps(lanes, t);
  return std::accumulate(lanes, lanes + 8, 0.0f);
}

float kernel_scalar(const float* x) {
  float acc[kKernelChains] = {};
  for (int r = 0; r < kKernelReps; ++r) {
    for (int i = 0; i < kKernelFloats; ++i) {
      for (float& c : acc) c = c * 0.9999f + x[i];
    }
  }
  return std::accumulate(acc, acc + kKernelChains, 0.0f);
}

/// Host-speed correction for the end-to-end timings.  The benchmark runs on
/// shared machines whose per-core speed drifts with other tenants' load: on
/// a 4-vCPU VM the same build read paper_k200's close at 41 ms in one run
/// and 58 ms a few minutes later, with CPU time equal to wall time (no steal
/// to subtract).  Before every timed operation the run times a fixed
/// reference kernel, and the end-to-end timings are scaled by
/// kReferenceKernelMs / the run's median kernel time: they read as if the
/// host ran at the speed at which the kernel takes kReferenceKernelMs.  Of
/// the kernels tried on that VM (a scalar dependent chain, memory streaming,
/// hashing, integer xorshift and this vector FMA work, which resembles the
/// library's SIMD hot loops), this one tracked the workloads' wall time best
/// over ten-run sets (r 0.97; the workloads moved 1.3-1.5 times as much in
/// log terms), so the correction removes most of the drift, not all of it.
/// A change to the library moves the corrected figures exactly as it moves
/// the wall-clock ones; the wall-clock figures and the factor are printed
/// as info lines next to them.
class HostSpeed {
 public:
  /// About the AVX-512 kernel's median time on the 4-vCPU host the bounds
  /// were set on, so corrected figures read close to that host's wall clock.
  static constexpr double kReferenceKernelMs = 0.18;

  HostSpeed() {
    for (int i = 0; i < kKernelFloats; ++i) {
      data_[static_cast<std::size_t>(i)] =
          1.0f + 1e-4f * static_cast<float>(i % 7);
    }
  }

  /// Times one run of the kernel.  An untimed run goes first, so the core
  /// has its vector units powered up and the array in L1 whatever the
  /// program ran before: the sample must not depend on the library's code.
  void sample() {
    sink_ = kernel_(data_.data());
    const Clock::time_point t0 = Clock::now();
    sink_ = kernel_(data_.data());
    kernel_ms_.push_back(ms_between(t0, Clock::now()));
  }
  [[nodiscard]] double kernel_ms() const { return median(kernel_ms_); }
  /// Multiplies a wall-clock duration into reference-speed time.
  [[nodiscard]] double factor() const {
    return kernel_ms_.empty() ? 1.0 : kReferenceKernelMs / kernel_ms();
  }
  [[nodiscard]] std::size_t samples() const { return kernel_ms_.size(); }
  [[nodiscard]] const char* isa() const { return isa_; }

 private:
  using Kernel = float (*)(const float*);
  static Kernel pick(const char*& isa) {
    if (__builtin_cpu_supports("avx512f")) {
      isa = "avx512";
      return kernel_avx512;
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      isa = "avx2";
      return kernel_avx2;
    }
    isa = "scalar";
    return kernel_scalar;
  }

  const char* isa_ = "";
  Kernel kernel_ = pick(isa_);
  /// Cache-line aligned: a split load on every vector would make the
  /// kernel's time depend on where the allocator put the array.
  alignas(64) std::array<float, kKernelFloats> data_{};
  std::vector<double> kernel_ms_;
  volatile float sink_ = 0.0f;
};

void print_host_speed(const HostSpeed& speed) {
  std::printf("info host_speed kernel %s kernel_ms_p50 %.4f reference_ms %.2f "
              "factor %.4f samples %zu\n",
              speed.isa(), speed.kernel_ms(), HostSpeed::kReferenceKernelMs,
              speed.factor(), speed.samples());
}

/// Peak resident memory of the system under test over the run's first
/// pass through its inputs: the kernel's high-water mark (VmHWM), reset
/// once the inputs exist, less the resident size at that point.  Stopping
/// at the first pass keeps the value independent of how many operations
/// the host managed in --seconds (the store's mappings grow with epochs).
class RssPeak {
 public:
  /// Construct before set-up, once the inputs exist.
  RssPeak() {
    malloc_trim(0);  // hand memory freed while generating inputs back first
    std::ofstream("/proc/self/clear_refs") << "5";  // reset VmHWM
    base_kib_ = status_kib("VmRSS:");
  }
  /// Takes the high-water mark; later calls keep the first value.
  void freeze() {
    if (hwm_kib_ == 0.0) hwm_kib_ = status_kib("VmHWM:");
  }
  [[nodiscard]] double mb() {
    freeze();
    return (hwm_kib_ - base_kib_) / 1024.0;
  }

 private:
  static double status_kib(const std::string& key) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
    }
    return 0.0;
  }

  double base_kib_ = 0.0;
  double hwm_kib_ = 0.0;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Every input of a run (an epoch's packets, or a query slot) is executed
/// several times, spread across the run, and its time is its median
/// execution: a burst of other work on the host that hits one execution
/// drops out, while slow work that comes with the input on every visit
/// (rules_wide's shard rolls fall on the same inputs each pass) stays in.
/// The fastest execution would not do: an epoch's work also varies from
/// visit to visit (k-means seeding follows the epoch number), so a minimum
/// falls as a faster host fits in more visits.  Quantiles are then taken
/// over inputs, one value each.
class SlotTimes {
 public:
  explicit SlotTimes(std::size_t slots) : times_(slots) {}

  void record(std::size_t slot, double ms) { times_[slot].push_back(ms); }
  [[nodiscard]] std::size_t min_visits() const {
    std::size_t least = times_.front().size();
    for (const auto& t : times_) least = std::min(least, t.size());
    return least;
  }
  /// The median execution of every input executed at least once.
  [[nodiscard]] std::vector<double> medians() const {
    std::vector<double> out;
    for (const auto& t : times_) {
      if (!t.empty()) out.push_back(median(t));
    }
    return out;
  }

 private:
  std::vector<std::vector<double>> times_;
};

/// Stops the timed loop: --seconds have passed and every input ran
/// kMinVisits times (traced runs: kMinTracedOps operations), or the cap.
/// --epochs instead stops after that many timed operations.
struct LoopClock {
  Clock::time_point start = Clock::now();
  const Args& args;

  [[nodiscard]] double elapsed_s() const {
    return ms_between(start, Clock::now()) / 1000.0;
  }
  [[nodiscard]] bool done(std::size_t timed_ops, std::size_t min_visits) const {
    const double elapsed = elapsed_s();
    if (args.epochs > 0) return timed_ops >= args.epochs;
    const bool enough = args.trace ? timed_ops >= kMinTracedOps
                                   : min_visits >= kMinVisits;
    return (enough && elapsed >= args.seconds) || elapsed >= kMaxLoopSeconds;
  }
};

/// Bytes of every valid record across a store's logs (frame header included).
std::uint64_t store_bytes(const store::DeploymentStore& s, bool summaries_only) {
  std::uint64_t bytes = 0;
  const auto count = [&bytes](const store::RecordView& rec) {
    bytes += rec.payload.size() + store::kRecordHeaderBytes;
    return true;
  };
  s.summaries_log().for_each(count);
  if (!summaries_only) {
    s.alerts_log().for_each(count);
    s.provenance_log().for_each(count);
    s.ops_log().for_each(count);
  }
  return bytes;
}

/// Writes the traced run's spans next to its work directory.
void write_spans(const SpanLog& log, const Workload& w, const Args& a) {
  const std::string stem =
      a.workdir + "/" + w.name + "-seed" + std::to_string(a.seed);
  log.write(stem);
  std::printf("info spans %zu dropped %zu written to %s.{spans.jsonl,trace.json}\n",
              log.kept(), log.dropped(), stem.c_str());
}

// ---- live workloads (paper_k200, rules_wide) --------------------------------

/// One controller instance with the telemetry sink it may point at.
struct Deployment {
  std::unique_ptr<telemetry::Telemetry> tel;
  std::unique_ptr<core::JaalController> controller;

  Deployment() = default;
  Deployment(const Workload& w, const std::string& store_dir) {
    core::JaalConfig cfg = w.config;
    if (w.telemetry) {
      tel = std::make_unique<telemetry::Telemetry>();
      cfg.telemetry = tel.get();
    }
    if (w.store) cfg.store_dir = store_dir;
    controller = std::make_unique<core::JaalController>(
        cfg, parse_workload_rules(w.rules_text));
  }
  Deployment(Deployment&&) = default;
  Deployment& operator=(Deployment&& other) noexcept {
    controller.reset();  // the controller points at the old sink
    tel = std::move(other.tel);
    controller = std::move(other.controller);
    return *this;
  }
};

/// What the benchmark measured around one controller epoch.
struct ControllerEpoch {
  double ingest_ms = 0.0;
  double close_ms = 0.0;
  std::uint64_t summary_bytes = 0;
  std::uint64_t feedback_bytes = 0;
  std::uint64_t digest = 0;
  std::size_t alerts = 0;
  bool failed = false;
};

std::uint64_t summary_bytes_so_far(const core::JaalController& c) {
  std::uint64_t total = 0;
  for (const core::Monitor& m : c.monitors()) total += m.comm().summary_bytes;
  return total;
}

ControllerEpoch controller_epoch(core::JaalController& c, std::uint64_t epoch,
                                 const std::vector<packet::PacketRecord>& pkts,
                                 double now) {
  ControllerEpoch out;
  const std::uint64_t sum_before = summary_bytes_so_far(c);
  const inference::InferenceStats before = c.engine().stats();
  const Clock::time_point t0 = Clock::now();
  for (const packet::PacketRecord& p : pkts) c.ingest(p);
  const Clock::time_point t1 = Clock::now();
  const core::EpochResult r = c.close_epoch(now);
  const Clock::time_point t2 = Clock::now();
  out.ingest_ms = ms_between(t0, t1);
  out.close_ms = ms_between(t1, t2);
  const inference::InferenceStats& after = c.engine().stats();
  out.summary_bytes = summary_bytes_so_far(c) - sum_before;
  out.feedback_bytes = after.raw_bytes_fetched - before.raw_bytes_fetched;
  out.digest = epoch_digest(epoch, r.alerts, out.summary_bytes,
                            out.feedback_bytes);
  out.alerts = r.alerts.size();
  out.failed = after.feedback_fallbacks != before.feedback_fallbacks ||
               (c.store() != nullptr && c.store()->failed());
  return out;
}

/// The runtime layer (runtime.*) in traced runs.  rules_wide's timed
/// deployment is serial (workloads.cpp says why), so a replica at the
/// workload's pool width runs the first kPoolProbeEpochs inputs after the
/// traced loop; its digests must equal the serial run's, epoch by epoch.
void pool_probe(const Workload& w, const Args& a,
                const std::vector<std::vector<packet::PacketRecord>>& inputs,
                const std::vector<std::uint64_t>& digests, Result& res,
                std::map<std::string, double>& out) {
  Workload pooled = w;
  pooled.config.threads = w.pool_probe_threads;
  const std::string dir = a.workdir + "/pool_probe_store";
  fs::remove_all(dir);
  {
    Deployment d(pooled, dir);
    core::JaalController& ctl = *d.controller;
    for (std::uint64_t epoch = 0; epoch < digests.size(); ++epoch) {
      ++res.attempted;
      const ControllerEpoch c = controller_epoch(
          ctl, epoch, inputs[epoch % inputs.size()],
          static_cast<double>(epoch + 1) * w.config.epoch_seconds);
      if (c.failed || c.digest != digests[epoch]) {
        ++res.failed;
        res.problem("epoch " + std::to_string(epoch) + ": digest at " +
                    std::to_string(pooled.config.threads) +
                    " threads != serial digest");
      }
    }
    if (const auto rs = ctl.runtime_stats()) {
      out["runtime.tasks_per_epoch"] =
          static_cast<double>(rs->tasks_submitted) /
          static_cast<double>(std::max<std::size_t>(digests.size(), 1));
      out["runtime.queue_high_water"] =
          static_cast<double>(rs->queue_depth_high_water);
    }
  }
  fs::remove_all(dir);
}

void run_live(const Workload& w, const Args& a, Result& res) {
  const auto inputs = make_epochs(a.seed, w.packets_per_epoch, w.input_epochs);
  const std::string ctl_dir = a.workdir + "/controller_store";
  const std::string traced_dir = a.workdir + "/traced_store";

  RssPeak rss;
  // Set-up: rule parse, question translation, pool, store open.
  SetupTimes setup(a);
  Deployment d;
  setup.block([&] {
    d = Deployment{};
    fs::remove_all(ctl_dir);
    const Clock::time_point t0 = Clock::now();
    Deployment fresh(w, ctl_dir);
    const double s = ms_between(t0, Clock::now()) / 1000.0;
    d = std::move(fresh);
    return s;
  });
  core::JaalController& ctl = *d.controller;
  const std::string spare_dir = a.workdir + "/setup_store";
  const auto spare_setup = [&] {
    fs::remove_all(spare_dir);
    const Clock::time_point t0 = Clock::now();
    const Deployment spare(w, spare_dir);
    return ms_between(t0, Clock::now()) / 1000.0;
  };

  SpanLog log;
  std::unique_ptr<TracedPipeline> traced;
  std::unique_ptr<SummarizeProbe> probe;
  if (a.trace) {
    fs::remove_all(traced_dir);
    traced = std::make_unique<TracedPipeline>(w, traced_dir, log);
    probe = std::make_unique<SummarizeProbe>(w);
  }

  // Untraced (controller) series.
  SlotTimes close_ms(inputs.size()), window_ms(inputs.size());
  double ingest_ms_total = 0.0, busy_ms_total = 0.0;
  std::uint64_t packets = 0, summary_bytes = 0, feedback_bytes = 0;
  std::uint64_t alerts = 0;
  // Traced series.
  std::map<std::string, std::vector<double>> layer;
  double traced_busy_ms = 0.0;
  std::uint64_t t_summary_bytes = 0, t_feedback_bytes = 0, t_requests = 0,
                t_useful = 0;
  double iterations_sum = 0.0;
  std::vector<std::uint64_t> probe_digests;  // untraced, for pool_probe

  HostSpeed speed;
  LoopClock clock{Clock::now(), a};
  std::size_t timed = 0;
  for (std::uint64_t epoch = 0;; ++epoch) {
    const bool timing = epoch >= kWarmupOps;
    if (epoch == kWarmupOps) clock.start = Clock::now();
    if (timing && clock.done(timed, close_ms.min_visits())) break;
    if (epoch >= inputs.size() && setup.due(clock.elapsed_s())) {
      setup.block(spare_setup);
    }
    const std::size_t slot = epoch % inputs.size();
    const auto& pkts = inputs[slot];
    const double now = static_cast<double>(epoch + 1) * w.config.epoch_seconds;
    if (timing && !a.trace) speed.sample();
    ++res.attempted;
    try {
      ControllerEpoch c;
      EpochLayers t;
      double t_ingest_ms = 0.0;
      const auto run_traced = [&] {
        const Clock::time_point t0 = Clock::now();
        for (const packet::PacketRecord& p : pkts) traced->ingest(p);
        t_ingest_ms = log.add("ingest", epoch, 0, epoch, t0, Clock::now());
        probe->route(pkts);
        if (!probe->matches(traced->monitors())) {
          res.problem("summarize probe routed a different batch");
        }
        t = traced->close_epoch(epoch, now, pkts.size());
      };
      // Alternate which side runs first so neither always finds the other's
      // cache state.
      if (a.trace && epoch % 2 == 1) run_traced();
      c = controller_epoch(ctl, epoch, pkts, now);
      if (a.trace && epoch % 2 == 0) run_traced();

      bool failed = c.failed;
      std::uint64_t digest = c.digest;
      if (a.trace) {
        const std::uint64_t td =
            epoch_digest(epoch, t.alerts, t.summary_bytes, t.feedback_bytes);
        if (td != c.digest) {
          failed = true;
          res.problem("epoch " + std::to_string(epoch) +
                      ": traced digest != untraced digest");
        }
        if (t.feedback_fallbacks > 0 ||
            (traced->store() != nullptr && traced->store()->failed())) {
          failed = true;
        }
        const SummarizeProbe::Times p =
            probe->measure(epoch, traced->last_summaries());
        if (!p.counts_match) {
          res.problem("summarize probe clustered differently from the monitor");
        }
        if (timing) {
          layer["core.close_overhead_ms"].push_back(c.close_ms -
                                                    t.layer_sum_ms());
          layer["close_ms"].push_back(t.close_ms);
          layer["summarize.ms"].push_back(t.summarize_ms);
          layer["summarize.wall_ms"].push_back(t.summarize_wall_ms);
          layer["summarize.normalize_ms"].push_back(p.normalize_ms);
          layer["summarize.svd_ms"].push_back(p.svd_ms);
          layer["summarize.kmeans_seed_ms"].push_back(p.kmeans_seed_ms);
          layer["summarize.kmeans_lloyd_ms"].push_back(p.kmeans_lloyd_ms);
          layer["shard.add_ms"].push_back(t.shard_add_ms);
          layer["shard.aggregate_ms"].push_back(t.aggregate_ms);
          layer["shard.rows"].push_back(static_cast<double>(t.rows));
          layer["inference.match_ms"].push_back(t.match_ms);
          layer["inference.distance_evals"].push_back(
              static_cast<double>(t.distance_evals));
          layer["inference.decide_ms"].push_back(t.decide_ms);
          layer["inference.feedback_fetch_ms"].push_back(t.fetch_ms);
          layer["inference.feedback_requests"].push_back(
              static_cast<double>(t.feedback_requests));
          layer["observe.health_ms"].push_back(t.health_ms);
          layer["telemetry.snapshot_ms"].push_back(t.snapshot_ms);
          layer["store.append_ms"].push_back(t.store_append_ms);
          layer["store.commit_ms"].push_back(t.store_commit_ms);
          traced_busy_ms += t_ingest_ms + t.close_ms;
          t_summary_bytes += t.summary_bytes;
          t_feedback_bytes += t.feedback_bytes;
          t_requests += t.feedback_requests;
          t_useful += t.via_feedback;
          iterations_sum += p.lloyd_iterations;
        }
      }
      if (failed) ++res.failed;
      if (epoch + 1 == inputs.size()) rss.freeze();
      if (epoch < kReferenceEpochs) res.digest = fold_digest(res.digest, digest);
      if (epoch < kPoolProbeEpochs) probe_digests.push_back(c.digest);
      if (timing) {
        ++timed;
        close_ms.record(slot, c.close_ms);
        window_ms.record(slot, c.ingest_ms + c.close_ms);
        ingest_ms_total += c.ingest_ms;
        busy_ms_total += c.ingest_ms + c.close_ms;
        packets += pkts.size();
        summary_bytes += c.summary_bytes;
        feedback_bytes += c.feedback_bytes;
        alerts += c.alerts;
      }
    } catch (const std::exception& e) {
      ++res.failed;
      res.problem(std::string("epoch threw: ") + e.what());
      break;
    }
  }
  while (!setup.complete()) setup.block(spare_setup);
  fs::remove_all(spare_dir);
  if (res.attempted < kReferenceEpochs) {
    res.problem("fewer epochs than the reference window");
  }
  const double pkts = static_cast<double>(std::max<std::uint64_t>(packets, 1));
  std::printf("info timed_epochs %zu min_visits %zu alerts_per_epoch %.3f\n",
              timed, close_ms.min_visits(),
              static_cast<double>(alerts) /
                  static_cast<double>(std::max<std::size_t>(timed, 1)));
  if (w.store) {
    // The input count is a multiple of the shard width, so the first epoch
    // of every shard (the one that rolls) is the same input on each pass.
    const std::vector<double> medians = close_ms.medians();
    std::vector<double> roll, rest;
    for (std::size_t i = 0; i < medians.size(); ++i) {
      (i % w.config.store_epochs_per_shard == 0 ? roll : rest)
          .push_back(medians[i]);
    }
    std::printf("info close_ms_p50 shard_roll_inputs %.3f other_inputs %.3f\n",
                median(roll), median(rest));
  }

  if (!a.trace) {
    const double f = speed.factor();
    print_host_speed(speed);
    const std::vector<double> windows = window_ms.medians();
    res.add_timing("pkts_per_s",
                   static_cast<double>(w.packets_per_epoch * windows.size()) /
                       (sum(windows) / 1000.0),
                   "pkt/s", f, /*rate=*/true);
    const std::vector<double> closes = close_ms.medians();
    res.add_timing("epoch_ms_p50", median(closes), "ms", f);
    res.add_timing("epoch_ms_p90", quantile(closes, 0.9), "ms", f);
    res.add_timing("query_ms_p50", median(windows), "ms", f);
    res.add("wan_bytes_per_pkt",
            static_cast<double>(summary_bytes + feedback_bytes) / pkts,
            "B/pkt");
    res.add_timing("setup_s", setup.median_s(), "s", f);
    res.add("peak_rss_mb", rss.mb(), "MB");
  } else {
    const double n_timed = static_cast<double>(std::max<std::size_t>(timed, 1));
    std::map<std::string, double> out;
    // Busy times: medians over epochs.
    for (const auto& [name, values] : layer) out[name] = median(values);
    out.erase("close_ms");
    out["core.ingest_ns_per_pkt"] = ingest_ms_total * 1e6 / pkts;
    out["summarize.lloyd_iterations"] = iterations_sum / n_timed;
    out["summarize.summary_bytes_per_pkt"] =
        static_cast<double>(t_summary_bytes) / pkts;
    out["shard.rows"] = mean(layer["shard.rows"]);
    out["inference.distance_evals"] = mean(layer["inference.distance_evals"]);
    out["inference.feedback_requests"] =
        static_cast<double>(t_requests) / n_timed;
    out["inference.feedback_useful_ratio"] =
        t_requests == 0 ? 0.0
                        : static_cast<double>(t_useful) /
                              static_cast<double>(t_requests);
    out["inference.feedback_bytes_per_pkt"] =
        static_cast<double>(t_feedback_bytes) / pkts;
    // The deployment's own store: it alone holds the controller's flight
    // events and its own metric families (jaal_slo_* and the like).
    if (ctl.store() != nullptr) {
      out["store.bytes_per_epoch"] =
          static_cast<double>(store_bytes(*ctl.store(), false)) /
          static_cast<double>(res.attempted);
    }
    if (w.pool_probe_threads > 1) {
      pool_probe(w, a, inputs, probe_digests, res, out);
    }
    // Traced pkts/s over untraced pkts/s, on the same epochs.
    out["bench.trace_overhead"] = busy_ms_total / traced_busy_ms;
    res.add_layers(out);

    // Each layer's share of the recomposed close (means, so shares add up).
    const double close_total =
        std::accumulate(layer["close_ms"].begin(), layer["close_ms"].end(), 0.0);
    std::printf("shares {");
    const char* sep = "";
    for (const char* name :
         {"summarize.wall_ms", "observe.health_ms", "shard.add_ms",
          "shard.aggregate_ms", "inference.match_ms", "inference.decide_ms",
          "inference.feedback_fetch_ms", "telemetry.snapshot_ms",
          "store.append_ms", "store.commit_ms"}) {
      const auto& v = layer[name];
      std::printf("%s\"%s\": %.4f", sep, name,
                  std::accumulate(v.begin(), v.end(), 0.0) / close_total);
      sep = ", ";
    }
    std::printf("}\n");
  }
  if (a.trace) write_spans(log, w, a);
  traced.reset();
  d = Deployment{};
  fs::remove_all(ctl_dir);
  fs::remove_all(traced_dir);
}

// ---- replay_query ------------------------------------------------------------

/// What the feedback-off live run that wrote the history saw.
struct History {
  std::uint64_t digest = kDigestSeed;
  std::uint64_t epochs = 0;
  std::uint64_t packets = 0;
  std::uint64_t wan_bytes = 0;
};

History write_history(const Workload& w, const Args& a,
                      const std::string& dir) {
  const Workload writer = history_writer(w);
  fs::remove_all(dir);
  Deployment d(writer, dir);
  core::JaalController& ctl = *d.controller;
  Traffic traffic(a.seed);
  History h;
  for (std::uint64_t epoch = 0; epoch < writer.history_epochs; ++epoch) {
    for (const packet::PacketRecord& p : traffic.take(w.packets_per_epoch)) {
      ctl.ingest(p);
    }
    const core::EpochResult r = ctl.close_epoch(
        static_cast<double>(epoch + 1) * w.config.epoch_seconds);
    h.digest = fold_digest(h.digest,
                           epoch_digest(epoch, r.alerts, r.packets, 0));
    h.packets += r.packets;
  }
  const core::CommStats comm = ctl.comm();
  h.wan_bytes = comm.summary_bytes + comm.feedback_bytes;
  h.epochs = writer.history_epochs;
  if (ctl.store()->failed()) throw std::runtime_error("history store failed");
  return h;
}

std::uint64_t replay_digest(const std::vector<store::ReplayEpoch>& epochs) {
  std::uint64_t d = kDigestSeed;
  for (const store::ReplayEpoch& e : epochs) {
    d = fold_digest(d, epoch_digest(e.epoch, e.alerts, e.packets, 0));
  }
  return d;
}

void run_replay(const Workload& w, const Args& a, Result& res) {
  const std::string dir = a.workdir + "/history_store";
  const History hist = write_history(w, a, dir);
  const store::StoreConfig scfg{dir, w.config.store_epochs_per_shard};

  RssPeak rss;
  // Set-up: rule parse, question translation, and a first store open.  The
  // first engine built is the one the queries use.
  SetupTimes setup(a);
  std::unique_ptr<inference::InferenceEngine> engine;
  const auto stand_up = [&] {
    const Clock::time_point t0 = Clock::now();
    auto fresh = std::make_unique<inference::InferenceEngine>(
        parse_workload_rules(w.rules_text), w.config.engine);
    { const store::StoreReplayer open(scfg); }
    const double s = ms_between(t0, Clock::now()) / 1000.0;
    if (!engine) engine = std::move(fresh);
    return s;
  };
  setup.block(stand_up);

  // Traced-run probes: bytes a scan reads, and every epoch's aggregate for
  // timing InferenceEngine::match outside the query.
  std::uint64_t scan_bytes = 0;
  std::vector<inference::AggregatedSummary> aggregates;
  if (a.trace) {
    const store::DeploymentStore reader(scfg, /*writable=*/false);
    scan_bytes = store_bytes(reader, /*summaries_only=*/true);
    inference::Aggregator agg;
    std::uint64_t current = 0;
    reader.each_summary([&](std::uint64_t epoch, std::uint32_t,
                            const summarize::MonitorSummary& s) {
      if (epoch != current && agg.summaries_added() > 0) {
        aggregates.push_back(agg.take());
      }
      current = epoch;
      agg.add(s);
      return true;
    });
    if (agg.summaries_added() > 0) aggregates.push_back(agg.take());
  }

  SpanLog log;
  SlotTimes query_ms(kQuerySlots);
  std::map<std::string, std::vector<double>> layer;
  double untraced_ms = 0.0, traced_ms = 0.0;
  std::uint64_t packets_per_query = 0, rows = 0;
  HostSpeed speed;
  LoopClock clock{Clock::now(), a};
  std::size_t timed = 0;
  for (std::uint64_t q = 0;; ++q) {
    const bool timing = q >= kWarmupOps;
    if (q == kWarmupOps) clock.start = Clock::now();
    if (timing && clock.done(timed, query_ms.min_visits())) break;
    if (q >= kWarmupOps + kQuerySlots && setup.due(clock.elapsed_s())) {
      setup.block(stand_up);
    }
    if (timing && !a.trace) speed.sample();
    ++res.attempted;
    try {
      const Clock::time_point t0 = Clock::now();
      std::vector<store::ReplayEpoch> epochs;
      {
        const store::StoreReplayer replayer(scfg);
        epochs = replayer.replay(*engine);
      }
      const double ms = ms_between(t0, Clock::now());
      if (q + 1 == kWarmupOps + kQuerySlots) rss.freeze();
      const std::uint64_t digest = replay_digest(epochs);
      if (q == 0) res.digest = digest;
      bool failed = false;
      if (digest != hist.digest || epochs.size() != hist.epochs) {
        failed = true;
        res.problem("query " + std::to_string(q) +
                    ": replayed alerts differ from the live history run");
      }
      std::uint64_t q_packets = 0;
      for (const store::ReplayEpoch& e : epochs) q_packets += e.packets;

      if (a.trace) {
        // The same query with a span around each call into the store, plus
        // a scan pass (each_summary) timed on its own.
        const std::uint64_t root = telemetry::derive_span_id(0, "query", q);
        const Clock::time_point a0 = Clock::now();
        std::vector<store::ReplayEpoch> traced_epochs;
        std::uint64_t summaries = 0;
        {
          const store::StoreReplayer replayer(scfg);
          const Clock::time_point a1 = Clock::now();
          replayer.store().each_summary(
              [&summaries](std::uint64_t, std::uint32_t,
                           const summarize::MonitorSummary&) {
                ++summaries;
                return true;
              });
          const Clock::time_point a2 = Clock::now();
          traced_epochs = replayer.replay(*engine);
          const Clock::time_point a3 = Clock::now();
          const double open = log.add("open", q, root, 0, a0, a1);
          const double scan = log.add("each_summary", q, root, 0, a1, a2);
          const double replay = log.add("replay", q, root, 0, a2, a3);
          log.add("query", q, 0, q, a0, a3);
          if (timing) {
            layer["store.open_ms"].push_back(open);
            layer["store.scan_ms"].push_back(scan);
            layer["store.replay_ms"].push_back(replay);
            traced_ms += open + replay;
          }
        }
        if (replay_digest(traced_epochs) != digest) {
          failed = true;
          res.problem("query " + std::to_string(q) +
                      ": traced digest != untraced digest");
        }
        double match_ms = 0.0;
        rows = 0;
        for (const inference::AggregatedSummary& agg : aggregates) {
          const Clock::time_point m0 = Clock::now();
          (void)engine->match(agg);
          match_ms += ms_between(m0, Clock::now());
          rows += agg.rows();
        }
        if (timing) layer["inference.match_ms"].push_back(match_ms);
      }
      if (failed) ++res.failed;
      if (timing) {
        query_ms.record(timed % kQuerySlots, ms);
        ++timed;
        untraced_ms += ms;
        packets_per_query = q_packets;
      }
    } catch (const std::exception& e) {
      ++res.failed;
      res.problem(std::string("query threw: ") + e.what());
      break;
    }
  }
  while (!setup.complete()) setup.block(stand_up);
  const std::vector<double> queries = query_ms.medians();
  if (!a.trace) {
    const double f = speed.factor();
    print_host_speed(speed);
    const double n_epochs = static_cast<double>(hist.epochs);
    res.add_timing("pkts_per_s",
                   static_cast<double>(packets_per_query * queries.size()) /
                       (sum(queries) / 1000.0),
                   "pkt/s", f, /*rate=*/true);
    res.add_timing("epoch_ms_p50", median(queries) / n_epochs, "ms", f);
    res.add_timing("epoch_ms_p90", quantile(queries, 0.9) / n_epochs, "ms", f);
    res.add_timing("query_ms_p50", median(queries), "ms", f);
    res.add("wan_bytes_per_pkt",
            static_cast<double>(hist.wan_bytes) /
                static_cast<double>(std::max<std::uint64_t>(hist.packets, 1)),
            "B/pkt");
    res.add_timing("setup_s", setup.median_s(), "s", f);
    res.add("peak_rss_mb", rss.mb(), "MB");
  } else {
    const auto med = [&](const char* name) { return median(layer[name]); };
    const double rows_d = static_cast<double>(rows);
    res.add_layers({
        {"shard.rows", rows_d},
        {"inference.match_ms", med("inference.match_ms")},
        {"inference.distance_evals",
         2.0 * rows_d * static_cast<double>(engine->questions().size())},
        {"store.bytes_per_epoch", static_cast<double>(scan_bytes) /
                                      static_cast<double>(hist.epochs)},
        {"store.open_ms", med("store.open_ms")},
        {"store.scan_ms", med("store.scan_ms")},
        {"store.scan_mb_per_s", static_cast<double>(scan_bytes) / 1e6 /
                                    (med("store.scan_ms") / 1000.0)},
        {"store.replay_ms", med("store.replay_ms")},
        {"bench.trace_overhead", untraced_ms / traced_ms},
    });
    std::printf(
        "shares {\"store.open_ms\": %.4f, \"store.scan_ms\": %.4f, "
        "\"inference.match_ms\": %.4f}\n",
        med("store.open_ms") / median(queries),
        med("store.scan_ms") / median(queries),
        med("inference.match_ms") / median(queries));
    write_spans(log, w, a);
  }
  fs::remove_all(dir);
}

void print_result(const Result& r) {
  for (const std::string& p : r.problems) {
    std::printf("check FAILED: %s\n", p.c_str());
  }
  std::printf("digest %s\n", hex(r.digest).c_str());
  for (const Metric& m : r.wall) {
    std::printf("info wall_clock %-31s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("metric %-36s %.6g ratio\n", "failed_ratio",
              static_cast<double>(r.failed) /
                  static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)));
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  const char* sep = "";
  for (const Metric& m : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  Workload w;
  try {
    args = parse_args(argc, argv);
    w = make_workload(args.workload, args.threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jaal_perfbench: %s\n", e.what());
    return 2;
  }
  std::filesystem::create_directories(args.workdir);
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"threads\": %zu, \"nproc\": %ld, \"simd\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"source_digest\": "
      "\"%s\"}\n",
      w.name.c_str(), args.seed, args.trace ? 1 : 0, w.config.threads,
      sysconf(_SC_NPROCESSORS_ONLN),
      std::string(jaal::linalg::simd::level_name(
                      jaal::linalg::simd::active()))
          .c_str(),
      JAAL_PERFBENCH_BUILD_TYPE, args.git_sha.c_str(),
      args.source_digest.c_str());
  Result res;
  try {
    if (w.history_epochs > 0) {
      run_replay(w, args, res);
    } else {
      run_live(w, args, res);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jaal_perfbench: %s\n", e.what());
    return 1;
  }
  if (!args.expect_digest.empty() && args.expect_digest != hex(res.digest)) {
    res.problem("digest " + hex(res.digest) + " != reference " +
                args.expect_digest);
    res.failed = std::max<std::uint64_t>(res.failed, 1);
  }
  std::fflush(stdout);
  print_result(res);
  return 0;
}
