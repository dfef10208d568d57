#include "store/replay.hpp"

#include <variant>

#include "inference/aggregate.hpp"
#include "packet/fields.hpp"

namespace jaal::store {
namespace {

std::size_t field_width(const summarize::MonitorSummary& summary) {
  if (const auto* c = std::get_if<summarize::CombinedSummary>(&summary)) {
    return c->centroids.cols();
  }
  return std::get<summarize::SplitSummary>(summary).vt.cols();
}

}  // namespace

StoreReplayer::StoreReplayer(const StoreConfig& cfg)
    : store_(cfg, /*writable=*/false) {}

std::vector<ReplayEpoch> StoreReplayer::replay(
    inference::InferenceEngine& engine, double base_tau_c_scale) const {
  std::vector<ReplayEpoch> epochs;
  // Summaries of an epoch precede its EpochMeta in the log, so one pass
  // suffices: collect until the commit record closes the epoch.
  inference::Aggregator aggregator;
  bool wrong_width = false;  // the open epoch holds an unreadable summary
  store_.summaries_log().for_each([&](const RecordView& rec) {
    if (rec.kind == RecordKind::kSummary) {
      const auto summary = summarize::deserialize(rec.payload);
      if (field_width(summary) != packet::kFieldCount) {
        wrong_width = true;
      } else {
        // Aggregation order is append order — the live controller's order
        // (carry-ins first, then monitors ascending).
        aggregator.add(summary);
      }
      return true;
    }
    if (rec.kind != RecordKind::kEpochMeta) return true;
    const auto meta = decode_epoch_meta(rec.epoch, rec.payload);
    if (!meta || wrong_width) {
      // CRC-valid but malformed commit record, or a summary the rules
      // cannot read (every question reads all kFieldCount fields): the
      // epoch is unreplayable.  Discard its pending summaries so they
      // cannot leak into the next epoch's aggregate.
      wrong_width = false;
      if (aggregator.summaries_added() > 0) (void)aggregator.take();
      return true;
    }
    ReplayEpoch out;
    out.epoch = meta->epoch;
    out.end_time = meta->end_time;
    out.packets = meta->packets;
    out.report_fraction = meta->report_fraction;
    out.caution = meta->caution;
    out.shard_count = meta->shard_count;
    out.summaries = aggregator.summaries_added();
    // Restore the engine knobs the live controller set for this epoch.
    engine.set_tau_c_scale(base_tau_c_scale *
                           static_cast<double>(meta->packets) / 2000.0);
    engine.set_report_fraction(meta->report_fraction);
    engine.set_caution(meta->caution);
    if (aggregator.summaries_added() > 0) {
      const inference::AggregatedSummary aggregate = aggregator.take();
      out.alerts = engine.infer(aggregate, /*fetch=*/nullptr);
    }
    epochs.push_back(std::move(out));
    return true;
  });
  return epochs;
}

}  // namespace jaal::store
