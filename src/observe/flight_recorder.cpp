#include "observe/flight_recorder.hpp"

#include <cstdio>
#include <stdexcept>

namespace jaal::observe {
namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const char* flight_kind_name(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kEpochClose: return "epoch_close";
    case FlightEventKind::kFidelity: return "fidelity";
    case FlightEventKind::kDriftStart: return "drift_start";
    case FlightEventKind::kDriftEnd: return "drift_end";
    case FlightEventKind::kShip: return "ship";
    case FlightEventKind::kFeedback: return "feedback";
    case FlightEventKind::kSpan: return "span";
    case FlightEventKind::kProfile: return "profile";
  }
  return "unknown";
}

const char* drift_metric_name(std::uint64_t id) noexcept {
  switch (id) {
    case 0: return "svd_energy";
    case 1: return "kmeans_inertia";
    case 2: return "recon_error";
    default: return "unknown";
  }
}

std::uint64_t drift_metric_id(const std::string& name) noexcept {
  if (name == "svd_energy") return 0;
  if (name == "kmeans_inertia") return 1;
  return 2;  // "recon_error"
}

std::string to_json(const FlightEvent& event) {
  std::string out = "{\"seq\":" + std::to_string(event.seq);
  out += ",\"epoch\":" + std::to_string(event.epoch);
  out += ",\"kind\":\"";
  out += flight_kind_name(event.kind);
  out += "\",\"actor\":" + std::to_string(event.actor);
  out += ",\"a\":" + fmt_double(event.a);
  out += ",\"b\":" + fmt_double(event.b);
  out += ",\"c\":" + fmt_double(event.c);
  out += ",\"u\":[";
  for (int i = 0; i < 6; ++i) {
    if (i != 0) out += ',';
    out += std::to_string(event.u[i]);
  }
  out += "]}";
  return out;
}

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("FlightRecorder: capacity must be > 0");
  }
  slots_.reset(new Slot[capacity_]);
}

void FlightRecorder::record(FlightEvent event) noexcept {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_acq_rel);
  event.seq = seq;
  Slot& s = slots_[seq % capacity_];
  s.ev = event;
  s.stamp.store(seq + 1, std::memory_order_release);
  if (seq >= capacity_ && tel_dropped_ != nullptr) tel_dropped_->add(1);
}

void FlightRecorder::bind(telemetry::MetricsRegistry& registry) {
  tel_dropped_ = &registry.counter(kDroppedMetric);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::uint64_t total = next_.load(std::memory_order_acquire);
  const std::uint64_t first = total > capacity_ ? total - capacity_ : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(total - first));
  for (std::uint64_t i = first; i < total; ++i) {
    const Slot& s = slots_[i % capacity_];
    // A stamp other than i + 1 means this generation was overwritten (or
    // not yet published) — skip it rather than return torn data.
    if (s.stamp.load(std::memory_order_acquire) != i + 1) continue;
    out.push_back(s.ev);
  }
  return out;
}

std::string FlightRecorder::dump_jsonl() const {
  dumps_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<FlightEvent> events = snapshot();
  std::string out = "{\"kind\":\"flight_recorder\",\"capacity\":" +
                    std::to_string(capacity_);
  out += ",\"total_recorded\":" + std::to_string(total_recorded());
  out += ",\"dropped\":" + std::to_string(dropped());
  out += ",\"events\":" + std::to_string(events.size());
  out += "}\n";
  for (const FlightEvent& e : events) {
    out += to_json(e);
    out += '\n';
  }
  return out;
}

}  // namespace jaal::observe
