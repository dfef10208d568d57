#include "store/flat_timeshard.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace jaal::store {
namespace {

namespace fs = std::filesystem;

void put_u32_at(std::uint8_t* out, std::uint32_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v & 0xFF);
  out[1] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  out[2] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64_at(std::uint8_t* out, std::uint64_t v) noexcept {
  put_u32_at(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  put_u32_at(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32_at(const std::uint8_t* in) noexcept {
  return std::uint32_t{in[0]} | (std::uint32_t{in[1]} << 8) |
         (std::uint32_t{in[2]} << 16) | (std::uint32_t{in[3]} << 24);
}

std::uint64_t get_u64_at(const std::uint8_t* in) noexcept {
  return std::uint64_t{get_u32_at(in)} |
         (std::uint64_t{get_u32_at(in + 4)} << 32);
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Walks records in [kShardHeaderBytes, limit) of a mapped shard, invoking
/// fn for each; returns false when fn asked to stop.
template <typename Fn>
bool iterate_shard(std::span<const std::uint8_t> bytes, Fn&& fn) {
  std::size_t offset = kShardHeaderBytes;
  while (auto rec = next_record(bytes, offset)) {
    if (!fn(*rec)) return false;
  }
  return true;
}

/// True when the shard's magic fully landed on disk.  A shard whose magic
/// is intact was completely rolled by *some* build — its header fields are
/// authoritative, never torn noise.
bool magic_landed(const FlatMmap& map) noexcept {
  return map.size() >= kShardHeaderBytes &&
         std::memcmp(map.data(), kShardMagic, sizeof(kShardMagic)) == 0;
}

/// Offset just past the last non-zero byte at or after `from`: the extent
/// of bytes actually written.  Growth pre-zeroes mmap capacity, so trailing
/// zeros are unused allocation, not torn record data.
std::size_t data_extent(const FlatMmap& map, std::size_t from) noexcept {
  std::size_t end = map.size();
  const std::uint8_t* d = map.data();
  while (end > from && d[end - 1] == 0) --end;
  return end;
}

}  // namespace

TimeShardLog::TimeShardLog(TimeShardConfig cfg, bool writable,
                           telemetry::Telemetry* tel)
    : cfg_(std::move(cfg)), writable_(writable) {
  if (cfg_.dir.empty() || cfg_.prefix.empty() ||
      cfg_.epochs_per_shard == 0) {
    throw std::invalid_argument(
        "TimeShardLog: dir, prefix and epochs_per_shard are required");
  }
  if (tel != nullptr) {
    auto& m = tel->metrics;
    tel_bytes_ = &m.counter("jaal_store_bytes_written_total");
    tel_records_ = &m.counter("jaal_store_records_total");
    tel_rolls_ = &m.counter("jaal_store_shards_rolled_total");
    tel_torn_bytes_ = &m.counter("jaal_store_torn_bytes_truncated_total");
    tel_scan_bytes_ = &m.counter("jaal_store_scan_bytes_total");
    tel_index_hits_ = &m.counter("jaal_store_index_point_queries_total");
    tel_index_fallbacks_ =
        &m.counter("jaal_store_index_fallback_scans_total");
    tel_msync_ms_ = &m.histogram("jaal_store_msync_ms");
  }
  std::error_code ec;
  if (writable_) fs::create_directories(cfg_.dir, ec);
  if (!fs::is_directory(cfg_.dir, ec)) {
    throw std::invalid_argument("TimeShardLog: unusable store directory " +
                                cfg_.dir);
  }
  // Discover existing shards: <prefix>.<digits>.jstore.
  const std::string head = cfg_.prefix + ".";
  for (const auto& entry : fs::directory_iterator(cfg_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= head.size() + 7 || name.compare(0, head.size(), head) != 0 ||
        name.compare(name.size() - 7, 7, ".jstore") != 0) {
      continue;
    }
    const std::string digits =
        name.substr(head.size(), name.size() - head.size() - 7);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    shard_indices_.push_back(std::stoull(digits));
  }
  std::sort(shard_indices_.begin(), shard_indices_.end());
  // Validate every discovered header up front, reader and writer alike.  A
  // shard whose magic is intact but whose header disagrees with this build
  // or config (format version, schema hash, epoch range / shard width) is
  // incompatible: refuse the whole store loudly rather than ever mistaking
  // committed data for a torn roll.  Only a *tail* shard whose magic never
  // landed is a recoverable crash-during-roll.
  for (std::size_t i = 0; i < shard_indices_.size();) {
    const std::uint64_t idx = shard_indices_[i];
    FlatMmap map;
    if (!map.open(shard_path(idx), false)) {
      throw std::invalid_argument("TimeShardLog: cannot open shard " +
                                  shard_path(idx));
    }
    if (header_ok(map, idx)) {
      ++i;
      continue;
    }
    const bool tail = i + 1 == shard_indices_.size();
    if (magic_landed(map) || !tail) {
      throw std::invalid_argument(
          "TimeShardLog: incompatible shard header (format/schema/shard "
          "width mismatch) in " +
          shard_path(idx));
    }
    if (writable_) {
      ++i;  // open_tail_for_write deletes the torn roll
    } else {
      shard_indices_.pop_back();  // readers just skip it
    }
  }
  if (writable_ && !open_tail_for_write()) {
    throw std::invalid_argument(
        "TimeShardLog: cannot recover tail shard under " + cfg_.dir);
  }
  if (torn_bytes_ > 0 && tel_torn_bytes_ != nullptr) {
    tel_torn_bytes_->add(torn_bytes_);
  }
}

TimeShardLog::~TimeShardLog() { finalize(); }

std::string TimeShardLog::shard_path(std::uint64_t index) const {
  char name[64];
  std::snprintf(name, sizeof(name), ".%06llu.jstore",
                static_cast<unsigned long long>(index));
  return cfg_.dir + "/" + cfg_.prefix + name;
}

std::string TimeShardLog::index_path(std::uint64_t index) const {
  char name[64];
  std::snprintf(name, sizeof(name), ".%06llu.jidx",
                static_cast<unsigned long long>(index));
  return cfg_.dir + "/" + cfg_.prefix + name;
}

bool TimeShardLog::header_ok(const FlatMmap& map,
                             std::uint64_t index) const noexcept {
  if (map.size() < kShardHeaderBytes) return false;
  const std::uint8_t* h = map.data();
  return std::memcmp(h, kShardMagic, sizeof(kShardMagic)) == 0 &&
         get_u32_at(h + 8) == kShardFormatVersion &&
         get_u32_at(h + 12) == kRecordSchemaHash &&
         get_u64_at(h + 16) == index * cfg_.epochs_per_shard &&
         get_u64_at(h + 24) == cfg_.epochs_per_shard;
}

std::size_t TimeShardLog::walk_end(const FlatMmap& map) const noexcept {
  const std::span<const std::uint8_t> bytes(map.data(), map.size());
  std::size_t offset = kShardHeaderBytes;
  while (next_record(bytes, offset)) {
  }
  return offset;
}

bool TimeShardLog::open_tail_for_write() {
  while (!shard_indices_.empty()) {
    const std::uint64_t idx = shard_indices_.back();
    const std::string path = shard_path(idx);
    if (!tail_.open(path, true)) return false;
    if (!header_ok(tail_, idx)) {
      if (magic_landed(tail_)) {
        // A fully-rolled shard whose header disagrees with this build or
        // config: refuse the whole store rather than silently dropping
        // data.  (The constructor pre-validation already throws for this;
        // kept as a defensive backstop.)
        return false;
      }
      // Crash during a shard roll: the magic never fully landed.  The file
      // holds no committed data — delete it and fall back to the previous
      // shard.
      torn_bytes_ += data_extent(tail_, 0);
      tail_.close();
      std::error_code ec;
      fs::remove(path, ec);
      shard_indices_.pop_back();
      continue;
    }
    const std::size_t end = walk_end(tail_);
    torn_bytes_ += data_extent(tail_, end) - end;
    if (!tail_.truncate_to(end)) return false;
    tail_used_ = end;
    tail_index_ = idx;
    // Resume the epoch-ordering guard and the in-memory epoch index from
    // the surviving records.
    tail_offsets_.clear();
    const std::span<const std::uint8_t> bytes(tail_.data(), tail_used_);
    std::size_t offset = kShardHeaderBytes;
    std::size_t prev = offset;
    while (auto rec = next_record(bytes, offset)) {
      if (tail_offsets_.empty() || tail_offsets_.back().epoch != rec->epoch) {
        tail_offsets_.push_back({rec->epoch, prev});
      }
      last_append_epoch_ = rec->epoch;
      prev = offset;
    }
    return true;
  }
  return true;  // empty log; the first append creates shard 0+.
}

bool TimeShardLog::roll_to(std::uint64_t index) {
  if (tail_.is_open()) {
    finalize();
    if (tel_rolls_ != nullptr) tel_rolls_->add(1);
  }
  if (!tail_.open(shard_path(index), true)) return false;
  if (!tail_.ensure_capacity(64 * 1024)) return false;
  std::uint8_t* h = tail_.data();
  std::memset(h, 0, kShardHeaderBytes);
  std::memcpy(h, kShardMagic, sizeof(kShardMagic));
  put_u32_at(h + 8, kShardFormatVersion);
  put_u32_at(h + 12, kRecordSchemaHash);
  put_u64_at(h + 16, index * cfg_.epochs_per_shard);
  put_u64_at(h + 24, cfg_.epochs_per_shard);
  tail_used_ = kShardHeaderBytes;
  tail_index_ = index;
  tail_offsets_.clear();
  shard_indices_.push_back(index);
  return true;
}

bool TimeShardLog::append(std::uint64_t epoch, std::uint32_t stream,
                          RecordKind kind,
                          std::span<const std::uint8_t> payload) {
  if (failed_ || !writable_ || payload.size() > kMaxRecordPayload) {
    return false;
  }
  if (last_append_epoch_ && epoch < *last_append_epoch_) {
    fail();
    return false;
  }
  const std::uint64_t index = epoch / cfg_.epochs_per_shard;
  if (!tail_.is_open() || index > tail_index_) {
    if (!roll_to(index)) {
      fail();
      return false;
    }
  } else if (index < tail_index_) {
    fail();
    return false;
  }
  const std::size_t end =
      tail_used_ + kRecordHeaderBytes + payload.size();
  if (end > tail_.size()) {
    std::size_t cap = std::max<std::size_t>(tail_.size() * 2, 64 * 1024);
    cap = std::max(cap, end);
    if (!tail_.ensure_capacity(cap)) {
      fail();
      return false;
    }
  }
  if (tail_offsets_.empty() || tail_offsets_.back().epoch != epoch) {
    tail_offsets_.push_back({epoch, tail_used_});
  }
  RecordHeader h;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  h.crc32 = crc32(payload);
  h.epoch = epoch;
  h.stream = stream;
  h.kind = static_cast<std::uint32_t>(kind);
  encode_record_header(h, tail_.data() + tail_used_);
  if (!payload.empty()) {
    std::memcpy(tail_.data() + tail_used_ + kRecordHeaderBytes,
                payload.data(), payload.size());
  }
  tail_used_ = end;
  last_append_epoch_ = epoch;
  ++records_appended_;
  if (tel_records_ != nullptr) {
    tel_records_->add(1);
    tel_bytes_->add(kRecordHeaderBytes + payload.size());
  }
  return true;
}

bool TimeShardLog::sync() {
  if (!writable_ || !tail_.is_open()) return true;
  const auto start = std::chrono::steady_clock::now();
  const bool ok = tail_.sync(tail_used_);
  if (tel_msync_ms_ != nullptr) tel_msync_ms_->observe(ms_since(start));
  return ok;
}

void TimeShardLog::finalize() {
  if (!writable_ || !tail_.is_open()) return;
  const auto start = std::chrono::steady_clock::now();
  (void)tail_.truncate_to(tail_used_);
  (void)sync();
  write_sidecar();
  finalize_ms_accum_ += ms_since(start);
  ++finalizes_;
}

bool TimeShardLog::truncate_after_epoch(std::optional<std::uint64_t> epoch) {
  if (!writable_ || failed_) return false;
  // Shards whose whole range lies beyond the epoch go away entirely (all of
  // them when wiping).
  while (!shard_indices_.empty() &&
         (!epoch.has_value() ||
          shard_indices_.back() * cfg_.epochs_per_shard > *epoch)) {
    const std::uint64_t idx = shard_indices_.back();
    if (tail_.is_open() && tail_index_ == idx) tail_.close();
    std::error_code ec;
    fs::remove(shard_path(idx), ec);
    fs::remove(index_path(idx), ec);
    shard_indices_.pop_back();
  }
  if (shard_indices_.empty()) {
    tail_.close();
    tail_used_ = 0;
    tail_offsets_.clear();
    last_append_epoch_.reset();
    return true;
  }
  // The boundary shard may still hold records past the epoch: cut at the
  // first one.  Its sidecar describes the pre-cut bytes — drop it (a new
  // one lands at the next finalize).
  const std::uint64_t idx = shard_indices_.back();
  {
    std::error_code ec;
    fs::remove(index_path(idx), ec);
  }
  if (!tail_.is_open() || tail_index_ != idx) {
    if (!tail_.open(shard_path(idx), true) || !header_ok(tail_, idx)) {
      fail();
      return false;
    }
    tail_used_ = walk_end(tail_);
    tail_index_ = idx;
  }
  const std::span<const std::uint8_t> bytes(tail_.data(), tail_used_);
  std::size_t offset = kShardHeaderBytes;
  std::size_t cut = offset;
  std::optional<std::uint64_t> last;
  tail_offsets_.clear();
  while (auto rec = next_record(bytes, offset)) {
    if (rec->epoch > *epoch) break;
    if (tail_offsets_.empty() || tail_offsets_.back().epoch != rec->epoch) {
      tail_offsets_.push_back({rec->epoch, cut});
    }
    cut = offset;
    last = rec->epoch;
  }
  if (!tail_.truncate_to(cut)) {
    fail();
    return false;
  }
  tail_used_ = cut;
  last_append_epoch_ = last;
  return true;
}

void TimeShardLog::for_each(
    const std::function<bool(const RecordView&)>& fn) const {
  const auto counted = [&](const RecordView& rec) {
    if (tel_scan_bytes_ != nullptr) {
      tel_scan_bytes_->add(kRecordHeaderBytes + rec.payload.size());
    }
    return fn(rec);
  };
  for (const std::uint64_t idx : shard_indices_) {
    if (writable_ && tail_.is_open() && idx == tail_index_) {
      if (!iterate_shard({tail_.data(), tail_used_}, counted)) return;
      continue;
    }
    FlatMmap map;
    if (!map.open(shard_path(idx), false)) return;
    if (!header_ok(map, idx)) return;  // torn roll: nothing valid follows
    if (!iterate_shard({map.data(), map.size()}, counted)) return;
  }
}

void TimeShardLog::write_sidecar() const {
  if (!writable_ || !tail_.is_open()) return;
  std::vector<std::uint8_t> buf(kIndexHeaderBytes);
  std::memcpy(buf.data(), kIndexMagic, sizeof(kIndexMagic));
  put_u32_at(buf.data() + 8, kIndexFormatVersion);
  put_u32_at(buf.data() + 12, kRecordSchemaHash);
  put_u64_at(buf.data() + 16, tail_index_ * cfg_.epochs_per_shard);
  put_u64_at(buf.data() + 24, tail_used_);
  put_u64_at(buf.data() + 32, tail_offsets_.size());
  for (const EpochOffset& eo : tail_offsets_) {
    const std::size_t at = buf.size();
    buf.resize(at + 16);
    put_u64_at(buf.data() + at, eo.epoch);
    put_u64_at(buf.data() + at + 8, eo.offset);
  }
  const std::uint32_t crc = crc32({buf.data(), buf.size()});
  const std::size_t at = buf.size();
  buf.resize(at + 4);
  put_u32_at(buf.data() + at, crc);
  // Best-effort: a failed or torn sidecar write only costs point queries
  // their shortcut (the CRC/staleness checks reject it and the walk takes
  // over), so nothing here flips failed().
  std::FILE* f = std::fopen(index_path(tail_index_).c_str(), "wb");
  if (f == nullptr) return;
  (void)std::fwrite(buf.data(), 1, buf.size(), f);
  (void)std::fclose(f);
}

std::optional<std::vector<TimeShardLog::EpochOffset>>
TimeShardLog::load_sidecar(std::uint64_t index,
                           std::uint64_t expected_data_end) const {
  FlatMmap map;
  if (!map.open(index_path(index), false)) return std::nullopt;
  if (map.size() < kIndexHeaderBytes + 4) return std::nullopt;
  const std::uint8_t* d = map.data();
  if (std::memcmp(d, kIndexMagic, sizeof(kIndexMagic)) != 0 ||
      get_u32_at(d + 8) != kIndexFormatVersion ||
      get_u32_at(d + 12) != kRecordSchemaHash ||
      get_u64_at(d + 16) != index * cfg_.epochs_per_shard ||
      get_u64_at(d + 24) != expected_data_end) {
    return std::nullopt;
  }
  const std::uint64_t count = get_u64_at(d + 32);
  // Bound the count by the file size before multiplying: count * 16 wraps
  // for count >= 2^60 and could then pass the size and CRC checks.
  if (count > (map.size() - kIndexHeaderBytes - 4) / 16) return std::nullopt;
  const std::uint64_t body = kIndexHeaderBytes + count * 16;
  if (map.size() != body + 4) return std::nullopt;
  if (crc32({d, static_cast<std::size_t>(body)}) !=
      get_u32_at(d + body)) {
    return std::nullopt;
  }
  std::vector<EpochOffset> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    EpochOffset eo;
    eo.epoch = get_u64_at(d + kIndexHeaderBytes + i * 16);
    eo.offset = get_u64_at(d + kIndexHeaderBytes + i * 16 + 8);
    if (!out.empty() && eo.epoch <= out.back().epoch) return std::nullopt;
    out.push_back(eo);
  }
  return out;
}

bool TimeShardLog::query_with_index(
    std::span<const std::uint8_t> bytes,
    const std::vector<EpochOffset>& offsets, std::uint64_t epoch,
    const std::function<bool(const RecordView&)>& fn) const {
  const auto it = std::lower_bound(
      offsets.begin(), offsets.end(), epoch,
      [](const EpochOffset& eo, std::uint64_t e) { return eo.epoch < e; });
  if (it == offsets.end() || it->epoch != epoch) {
    return true;  // the index is current, so absence is authoritative
  }
  if (it->offset < kShardHeaderBytes || it->offset >= bytes.size()) {
    return false;  // implausible seek target: treat the index as stale
  }
  std::size_t offset = static_cast<std::size_t>(it->offset);
  bool any = false;
  while (true) {
    const std::size_t before = offset;
    const auto rec = next_record(bytes, offset);
    if (!rec) {
      // The very first frame failing validation means the index pointed at
      // garbage; mid-epoch it is just the torn tail.
      return any;
    }
    if (tel_scan_bytes_ != nullptr) tel_scan_bytes_->add(offset - before);
    if (rec->epoch != epoch) return any || rec->epoch > epoch;
    any = true;
    if (!fn(*rec)) return true;
  }
}

void TimeShardLog::for_each_in_epoch(
    std::uint64_t epoch,
    const std::function<bool(const RecordView&)>& fn) const {
  const std::uint64_t index = epoch / cfg_.epochs_per_shard;
  if (!std::binary_search(shard_indices_.begin(), shard_indices_.end(),
                          index)) {
    return;
  }
  // The writer's own tail is served from the in-memory index, which append
  // and truncate keep exact.
  if (writable_ && tail_.is_open() && index == tail_index_) {
    if (tel_index_hits_ != nullptr) tel_index_hits_->add(1);
    (void)query_with_index({tail_.data(), tail_used_}, tail_offsets_, epoch,
                           fn);
    return;
  }
  FlatMmap map;
  if (!map.open(shard_path(index), false)) return;
  if (!header_ok(map, index)) return;
  const std::span<const std::uint8_t> bytes(map.data(), map.size());
  // The sidecar must describe exactly the bytes on disk.  A sidecar is only
  // written by finalize(), which truncates the shard to its exact data
  // length first — so a valid sidecar's data_end equals the file size, and
  // any later append (a reopened writer pre-grows the mapping) or truncate
  // changes the size and unmasks the sidecar as stale.  (A zero-scan would
  // not work here: a record may legitimately end in zero bytes.)
  if (const auto offsets = load_sidecar(index, map.size())) {
    if (query_with_index(bytes, *offsets, epoch, fn)) {
      if (tel_index_hits_ != nullptr) tel_index_hits_->add(1);
      return;
    }
  }
  if (tel_index_fallbacks_ != nullptr) tel_index_fallbacks_->add(1);
  iterate_shard(bytes, [&](const RecordView& rec) {
    if (tel_scan_bytes_ != nullptr) {
      tel_scan_bytes_->add(kRecordHeaderBytes + rec.payload.size());
    }
    if (rec.epoch > epoch) return false;
    if (rec.epoch < epoch) return true;
    return fn(rec);
  });
}

std::optional<std::uint64_t> TimeShardLog::last_epoch(
    std::optional<RecordKind> kind) const noexcept {
  // Frames chain only forward, so each shard is walked from its header; but
  // the shards go newest first, and the first one holding a match has the
  // answer.  The constructor checked that every listed shard opens with a
  // valid header, so for_each visits them all and its last match is this.
  // (A shard removed from under the log since then is skipped.)
  for (auto it = shard_indices_.rbegin(); it != shard_indices_.rend(); ++it) {
    std::optional<std::uint64_t> last;
    const auto match = [&](const RecordView& rec) {
      if (tel_scan_bytes_ != nullptr) {
        tel_scan_bytes_->add(kRecordHeaderBytes + rec.payload.size());
      }
      if (!kind || rec.kind == *kind) last = rec.epoch;
      return true;
    };
    if (writable_ && tail_.is_open() && *it == tail_index_) {
      (void)iterate_shard({tail_.data(), tail_used_}, match);
    } else {
      FlatMmap map;
      if (!map.open(shard_path(*it), false) || !header_ok(map, *it)) continue;
      (void)iterate_shard({map.data(), map.size()}, match);
    }
    if (last) return last;
  }
  return std::nullopt;
}

std::vector<std::string> TimeShardLog::shard_paths() const {
  std::vector<std::string> paths;
  paths.reserve(shard_indices_.size());
  for (const std::uint64_t idx : shard_indices_) {
    paths.push_back(shard_path(idx));
  }
  return paths;
}

}  // namespace jaal::store
