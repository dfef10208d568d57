// Time-sharded append-only record log: `<dir>/<prefix>.%06llu.jstore`, one
// shard per contiguous epoch range (shard index = epoch / epochs_per_shard).
//
// Each shard starts with a 64-byte versioned header (magic, format version,
// record schema hash, the shard's first epoch and the log's shard width);
// CRC-framed records follow (flat_record.hpp).  Writes are append-only and
// crash-safe by construction:
//   * a shard is msync'd and truncated to its exact data length when the
//     log rolls past it (and again at destruction), so finalized shards are
//     durable and tight;
//   * the tail shard is recovered on open by walking its frames — the first
//     frame that fails validation marks the torn tail, which is truncated
//     (an interrupted append can never resurface as data);
//   * a tail shard whose header *magic* never fully landed (crash during
//     roll) holds no committed data: writers delete it, readers skip it;
//   * a shard whose magic is intact but whose header disagrees with this
//     build or config (format version, schema hash, epoch range / shard
//     width) is incompatible — construction throws for reader and writer
//     alike, so committed data is never mistaken for a torn roll.
// The walk, not any length field, is authoritative for what exists.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "store/flat_mmap.hpp"
#include "store/flat_record.hpp"
#include "telemetry/telemetry.hpp"

namespace jaal::store {

/// On-disk shard header layout (little-endian, 64 bytes):
///   [0,8)   magic "JSTORE1\0"
///   [8,12)  format version (kShardFormatVersion)
///   [12,16) record schema hash (kRecordSchemaHash)
///   [16,24) first epoch covered by this shard
///   [24,32) epochs per shard (the log's shard width)
///   [32,64) reserved, zero
inline constexpr std::size_t kShardHeaderBytes = 64;
inline constexpr std::uint32_t kShardFormatVersion = 1;
inline constexpr char kShardMagic[8] = {'J', 'S', 'T', 'O', 'R', 'E',
                                        '1', '\0'};

/// Sidecar epoch index (`<shard>.jidx`), written when a shard is finalized:
/// a sparse secondary index over the typed epoch frame-header field, so a
/// point query seeks straight to an epoch's first record instead of walking
/// the shard.  Layout (little-endian):
///   [0,8)   magic "JIDX1\0\0\0"
///   [8,12)  format version (kIndexFormatVersion)
///   [12,16) record schema hash (kRecordSchemaHash)
///   [16,24) shard first epoch
///   [24,32) data end: shard byte length the index describes.  finalize()
///           truncates the shard to exactly this length before writing the
///           sidecar, so validity is data_end == file size — a shard that
///           grew or shrank since (crash between append and finalize,
///           truncate_after_epoch) fails this check and falls back to a walk
///   [32,40) entry count
///   then count x (epoch u64, offset u64), ascending by epoch,
///   then CRC-32 (u32) over all preceding bytes.
/// The index is advisory: every offset it yields is re-validated by record
/// framing, and any mismatch falls back to the authoritative walk.
inline constexpr std::size_t kIndexHeaderBytes = 40;
inline constexpr std::uint32_t kIndexFormatVersion = 1;
inline constexpr char kIndexMagic[8] = {'J', 'I', 'D', 'X', '1',
                                        '\0', '\0', '\0'};

struct TimeShardConfig {
  std::string dir;     ///< Directory holding the shards (created if absent).
  std::string prefix;  ///< Shard file stem, e.g. "summaries".
  std::uint64_t epochs_per_shard = 64;
};

class TimeShardLog {
 public:
  /// Opens (writer: creates/recovers; reader: scans) the log.  Throws
  /// std::invalid_argument on a bad config or an unusable directory /
  /// incompatible shard header (construction-time misconfiguration); after
  /// construction nothing throws — I/O failures flip failed() and make the
  /// writer inert.
  TimeShardLog(TimeShardConfig cfg, bool writable,
               telemetry::Telemetry* tel = nullptr);
  ~TimeShardLog();

  TimeShardLog(const TimeShardLog&) = delete;
  TimeShardLog& operator=(const TimeShardLog&) = delete;

  /// Appends one record.  Epochs must be non-decreasing across appends.
  /// Returns false (and goes inert) on I/O failure or ordering violation.
  bool append(std::uint64_t epoch, std::uint32_t stream, RecordKind kind,
              std::span<const std::uint8_t> payload);

  /// msync the tail shard's written bytes.
  bool sync();

  /// Truncates the tail shard to its data and msyncs it (what a roll does);
  /// called by the destructor.
  void finalize();

  /// Removes every record with epoch > `epoch` (writer only): shards
  /// entirely beyond it are deleted, the boundary shard is truncated at the
  /// first record past it.  nullopt removes every record.  Appending then
  /// resumes from the cut.
  bool truncate_after_epoch(std::optional<std::uint64_t> epoch);

  /// Iterates every valid record across all shards in append order,
  /// zero-copy (RecordView::payload aliases the shard mapping and is valid
  /// only inside the callback).  Return false from the callback to stop.
  /// Iteration of a shard ends at its first invalid frame (torn-tail rule).
  void for_each(const std::function<bool(const RecordView&)>& fn) const;

  /// Point query: every valid record of exactly `epoch`, in append order.
  /// Seeks through the shard's sidecar index (or the writer's in-memory
  /// tail index) when available and valid — O(records in the epoch) bytes
  /// visited instead of O(shard); falls back to a full shard walk
  /// otherwise.  Telemetry: jaal_store_index_point_queries_total counts
  /// indexed answers, jaal_store_index_fallback_scans_total counts
  /// fallbacks, jaal_store_scan_bytes_total counts bytes visited either
  /// way.
  void for_each_in_epoch(
      std::uint64_t epoch,
      const std::function<bool(const RecordView&)>& fn) const;

  /// Epoch of the last valid record (of `kind`, when given), nullopt when
  /// there is none: the epoch a forward for_each would see last.  Reads
  /// only the shards from the newest one holding such a record onwards.
  [[nodiscard]] std::optional<std::uint64_t> last_epoch(
      std::optional<RecordKind> kind = std::nullopt) const noexcept;

  /// Torn record bytes removed by recovery when the writer opened (counted
  /// to the last non-zero byte: zeroed pre-allocated capacity is not torn
  /// data).
  [[nodiscard]] std::uint64_t torn_bytes_truncated() const noexcept {
    return torn_bytes_;
  }

  /// True after an unrecoverable I/O failure; the writer drops appends.
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  [[nodiscard]] std::uint64_t records_appended() const noexcept {
    return records_appended_;
  }

  /// Wall time spent in finalize() (shard roll truncate+msync+sidecar)
  /// since the last take, with the number of finalizes — consumed by the
  /// store's per-epoch 'index_finalize' profiling span.  Resets on read.
  [[nodiscard]] std::pair<double, std::uint64_t> take_finalize_stats()
      noexcept {
    const std::pair<double, std::uint64_t> out{finalize_ms_accum_,
                                               finalizes_};
    finalize_ms_accum_ = 0.0;
    finalizes_ = 0;
    return out;
  }
  [[nodiscard]] std::vector<std::string> shard_paths() const;
  [[nodiscard]] const TimeShardConfig& config() const noexcept { return cfg_; }

 private:
  /// (first epoch, byte offset of its first record) — the sidecar payload.
  struct EpochOffset {
    std::uint64_t epoch = 0;
    std::uint64_t offset = 0;
  };

  [[nodiscard]] std::string shard_path(std::uint64_t index) const;
  [[nodiscard]] std::string index_path(std::uint64_t index) const;
  /// Validates a mapped shard's header against this log's config.
  [[nodiscard]] bool header_ok(const FlatMmap& map,
                               std::uint64_t index) const noexcept;
  [[nodiscard]] bool open_tail_for_write();
  [[nodiscard]] bool roll_to(std::uint64_t index);
  /// Walks frames from the header to the torn tail; returns end offset.
  [[nodiscard]] std::size_t walk_end(const FlatMmap& map) const noexcept;
  /// Writes the tail shard's sidecar index (best-effort: failure leaves
  /// point queries on the fallback path, never the log).
  void write_sidecar() const;
  /// Loads and validates a shard's sidecar against the bytes it describes.
  [[nodiscard]] std::optional<std::vector<EpochOffset>> load_sidecar(
      std::uint64_t index, std::uint64_t expected_data_end) const;
  /// Serves a point query over one mapped shard from `offsets`; returns
  /// false when the index turned out stale (caller falls back to a walk).
  [[nodiscard]] bool query_with_index(
      std::span<const std::uint8_t> bytes,
      const std::vector<EpochOffset>& offsets, std::uint64_t epoch,
      const std::function<bool(const RecordView&)>& fn) const;
  void fail() noexcept { failed_ = true; }

  TimeShardConfig cfg_;
  bool writable_ = false;
  bool failed_ = false;
  std::vector<std::uint64_t> shard_indices_;  ///< Sorted, ascending.
  FlatMmap tail_;            ///< Writable mapping of the last shard.
  std::size_t tail_used_ = 0;
  std::uint64_t tail_index_ = 0;  ///< Shard index of tail_ (when open).
  /// In-memory epoch index of the tail shard (ascending; source of the
  /// sidecar written at finalize).
  std::vector<EpochOffset> tail_offsets_;
  std::uint64_t torn_bytes_ = 0;
  std::uint64_t records_appended_ = 0;
  double finalize_ms_accum_ = 0.0;
  std::uint64_t finalizes_ = 0;
  std::optional<std::uint64_t> last_append_epoch_;

  telemetry::Counter* tel_bytes_ = nullptr;
  telemetry::Counter* tel_records_ = nullptr;
  telemetry::Counter* tel_rolls_ = nullptr;
  telemetry::Counter* tel_torn_bytes_ = nullptr;
  telemetry::Counter* tel_scan_bytes_ = nullptr;
  telemetry::Counter* tel_index_hits_ = nullptr;
  telemetry::Counter* tel_index_fallbacks_ = nullptr;
  telemetry::Histogram* tel_msync_ms_ = nullptr;
};

}  // namespace jaal::store
