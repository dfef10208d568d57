#include "store/flat_record.hpp"

#include <array>

namespace jaal::store {
namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// Slice-by-16 tables: kCrcTables[0] is the bytewise table above, and
/// kCrcTables[k][i] is the CRC state of byte i followed by k zero bytes, so
/// one step folds 16 input bytes with 16 independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 16> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 16> tables{};
  tables[0] = make_crc_table();
  for (std::size_t k = 1; k < 16; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 16> kCrcTables =
    make_crc_tables();

void put_u32(std::uint8_t* out, std::uint32_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v & 0xFF);
  out[1] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  out[2] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* in) noexcept {
  return std::uint32_t{in[0]} | (std::uint32_t{in[1]} << 8) |
         (std::uint32_t{in[2]} << 16) | (std::uint32_t{in[3]} << 24);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 16; p += 16, n -= 16) {
    const std::uint32_t w0 = get_u32(p) ^ c;
    const std::uint32_t w1 = get_u32(p + 4);
    const std::uint32_t w2 = get_u32(p + 8);
    const std::uint32_t w3 = get_u32(p + 12);
    c = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^
        t[13][(w0 >> 16) & 0xFFu] ^ t[12][w0 >> 24] ^
        t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu] ^
        t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^
        t[7][w2 & 0xFFu] ^ t[6][(w2 >> 8) & 0xFFu] ^
        t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^
        t[1][(w3 >> 16) & 0xFFu] ^ t[0][w3 >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void encode_record_header(const RecordHeader& h, std::uint8_t* out) noexcept {
  put_u32(out + 0, h.payload_len);
  put_u32(out + 4, h.crc32);
  put_u32(out + 8, static_cast<std::uint32_t>(h.epoch & 0xFFFFFFFFu));
  put_u32(out + 12, static_cast<std::uint32_t>(h.epoch >> 32));
  put_u32(out + 16, h.stream);
  put_u32(out + 20, h.kind);
}

RecordHeader decode_record_header(const std::uint8_t* in) noexcept {
  RecordHeader h;
  h.payload_len = get_u32(in + 0);
  h.crc32 = get_u32(in + 4);
  h.epoch = std::uint64_t{get_u32(in + 8)} |
            (std::uint64_t{get_u32(in + 12)} << 32);
  h.stream = get_u32(in + 16);
  h.kind = get_u32(in + 20);
  return h;
}

std::optional<RecordView> next_record(std::span<const std::uint8_t> shard,
                                      std::size_t& offset) noexcept {
  if (offset + kRecordHeaderBytes > shard.size()) return std::nullopt;
  const RecordHeader h = decode_record_header(shard.data() + offset);
  // An all-zero header is pre-allocated (never written) space, not
  // corruption: kind 0 is not a valid RecordKind either way.
  if (h.kind < static_cast<std::uint32_t>(RecordKind::kSummary) ||
      h.kind > kMaxRecordKind) {
    return std::nullopt;
  }
  if (h.payload_len > kMaxRecordPayload) return std::nullopt;
  const std::size_t end = offset + kRecordHeaderBytes + h.payload_len;
  if (end > shard.size()) return std::nullopt;
  const std::span<const std::uint8_t> payload =
      shard.subspan(offset + kRecordHeaderBytes, h.payload_len);
  if (crc32(payload) != h.crc32) return std::nullopt;
  offset = end;
  return RecordView{h.epoch, h.stream, static_cast<RecordKind>(h.kind),
                    payload};
}

}  // namespace jaal::store
