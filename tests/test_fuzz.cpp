// Robustness tests: every parser/decoder must reject arbitrary input with
// an exception (or a clean nullopt/skip), never crash, hang, or read out of
// bounds.  Deterministic pseudo-random fuzzing — cheap, repeatable, and run
// on every ctest invocation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "packet/wire.hpp"
#include "proto/messages.hpp"
#include "rules/rule.hpp"
#include "store/flat_timeshard.hpp"
#include "summarize/summary.hpp"
#include "trace/background.hpp"
#include "trace/pcap.hpp"

namespace jaal {
namespace {

std::vector<std::uint8_t> random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Fuzz, WireParserNeverCrashes) {
  std::mt19937_64 rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, rng() % 80);
    // parse_headers returns nullopt or a result; must never throw/crash.
    (void)packet::parse_headers(bytes);
  }
}

TEST(Fuzz, WireParserOnMutatedValidPacket) {
  packet::PacketRecord pkt;
  pkt.ip.src_ip = packet::make_ip(1, 2, 3, 4);
  pkt.ip.dst_ip = packet::make_ip(5, 6, 7, 8);
  pkt.tcp.set(packet::TcpFlag::kSyn);
  const auto valid = packet::serialize_headers(pkt.ip, pkt.tcp);
  std::mt19937_64 rng(2);
  for (int i = 0; i < 2000; ++i) {
    auto mutated = valid;
    const std::size_t flips = 1 + rng() % 6;
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    (void)packet::parse_headers(mutated);
  }
}

TEST(Fuzz, SummaryDeserializerThrowsCleanly) {
  std::mt19937_64 rng(3);
  for (int i = 0; i < 500; ++i) {
    const auto bytes = random_bytes(rng, rng() % 200);
    try {
      (void)summarize::deserialize(bytes);
    } catch (const std::runtime_error&) {
      // expected for garbage
    }
  }
}

TEST(Fuzz, SummaryDeserializerOnMutatedValidBuffer) {
  summarize::CombinedSummary s;
  s.monitor = 1;
  s.centroids = linalg::Matrix(4, 6);
  s.counts = {1, 2, 3, 4};
  const auto valid = summarize::serialize(summarize::MonitorSummary{s});
  std::mt19937_64 rng(4);
  for (int i = 0; i < 1000; ++i) {
    auto mutated = valid;
    mutated[rng() % mutated.size()] ^= static_cast<std::uint8_t>(rng() | 1);
    if (rng() % 4 == 0) mutated.resize(rng() % (mutated.size() + 1));
    try {
      (void)summarize::deserialize(mutated);
    } catch (const std::exception&) {
      // clean rejection is fine; crashing is not
    }
  }
}

TEST(Fuzz, ProtoDecoderThrowsCleanly) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 500; ++i) {
    const auto bytes = random_bytes(rng, rng() % 150);
    try {
      (void)proto::decode(bytes);
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, FrameReaderSurvivesGarbageAfterValidFrames) {
  std::mt19937_64 rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    proto::FrameReader reader;
    reader.feed(proto::encode(proto::Message{proto::LoadUpdate{1, 1.0, 1}}));
    EXPECT_TRUE(reader.next().has_value());
    reader.feed(random_bytes(rng, 20));
    try {
      while (reader.next().has_value()) {
      }
    } catch (const std::runtime_error&) {
      // a reset-worthy stream error is the correct outcome for garbage
    }
  }
}

TEST(Fuzz, RuleParserThrowsNotCrashes) {
  std::mt19937_64 rng(7);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789 ()[]:;!,.->\"$/";
  rules::RuleVars vars;
  vars.home_net = rules::AddrSpec::cidr(packet::make_ip(203, 0, 0, 0), 16);
  for (int i = 0; i < 2000; ++i) {
    std::string line;
    const std::size_t len = rng() % 120;
    for (std::size_t c = 0; c < len; ++c) {
      line.push_back(alphabet[rng() % alphabet.size()]);
    }
    try {
      (void)rules::parse_rule(line, vars);
    } catch (const std::exception&) {
      // invalid_argument / out_of_range from stoul etc. — all acceptable
    }
  }
}

TEST(Fuzz, RuleParserOnMutatedValidRules) {
  rules::RuleVars vars;
  vars.home_net = rules::AddrSpec::cidr(packet::make_ip(203, 0, 0, 0), 16);
  const std::string valid =
      "alert tcp $EXTERNAL_NET any -> $HOME_NET [22,80,8000:8080] "
      "(msg:\"x\"; flags:S; detection_filter: track by_src, count 5, "
      "seconds 60; jaal_variance: tcp.dst_port, 0.004; sid:19559; rev:5;)";
  std::mt19937_64 rng(8);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const std::size_t edits = 1 + rng() % 4;
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng() % mutated.size();
      switch (rng() % 3) {
        case 0: mutated[pos] = static_cast<char>(' ' + rng() % 94); break;
        case 1: mutated.erase(pos, 1); break;
        default: mutated.insert(pos, 1, static_cast<char>(' ' + rng() % 94));
      }
      if (mutated.empty()) mutated = "x";
    }
    try {
      (void)rules::parse_rule(mutated, vars);
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, PcapReaderThrowsCleanly) {
  std::mt19937_64 rng(9);
  for (int i = 0; i < 300; ++i) {
    const auto bytes = random_bytes(rng, rng() % 400);
    std::stringstream stream(
        std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    try {
      (void)trace::read_pcap(stream);
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, PcapReaderOnTruncatedValidFile) {
  trace::BackgroundTraffic gen(trace::trace1_profile(), 10);
  const auto packets = trace::take(gen, 20);
  std::stringstream buffer;
  trace::write_pcap(buffer, packets);
  const std::string full = buffer.str();
  for (std::size_t cut = 0; cut < full.size(); cut += 7) {
    std::stringstream truncated(full.substr(0, cut));
    try {
      (void)trace::read_pcap(truncated);
    } catch (const std::exception&) {
    }
  }
}

// ------------------------------------------------- store record walk

namespace fs = std::filesystem;

/// The bytewise CRC-32 loop, independent of the store's implementation.
std::uint32_t bytewise_crc32(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  while (n-- > 0) {
    c ^= *p++;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

/// (epoch, stream, kind, payload) of one accepted record.
using WalkedRecord =
    std::tuple<std::uint64_t, std::uint32_t, std::uint32_t, std::string>;

/// The frame rule of flat_record.hpp written out independently: walk each
/// shard from its header and stop it at the first frame with a bad kind,
/// an implausible or overrunning length, or a CRC mismatch.
std::vector<WalkedRecord> reference_walk(
    const std::vector<std::string>& shards) {
  std::vector<WalkedRecord> out;
  for (const std::string& shard : shards) {
    const auto* d = reinterpret_cast<const std::uint8_t*>(shard.data());
    std::size_t off = store::kShardHeaderBytes;
    while (off + store::kRecordHeaderBytes <= shard.size()) {
      const std::uint32_t len = le32(d + off);
      const std::uint32_t kind = le32(d + off + 20);
      if (kind < 1 || kind > store::kMaxRecordKind) break;
      if (len > store::kMaxRecordPayload) break;
      const std::size_t end = off + store::kRecordHeaderBytes + len;
      if (end > shard.size()) break;
      if (bytewise_crc32(d + off + store::kRecordHeaderBytes, len) !=
          le32(d + off + 4)) {
        break;
      }
      const std::uint64_t epoch =
          le32(d + off + 8) | std::uint64_t{le32(d + off + 12)} << 32;
      out.emplace_back(epoch, le32(d + off + 16), kind,
                       shard.substr(off + store::kRecordHeaderBytes, len));
      off = end;
    }
  }
  return out;
}

std::vector<WalkedRecord> store_walk(const store::TimeShardLog& log) {
  std::vector<WalkedRecord> out;
  log.for_each([&](const store::RecordView& r) {
    out.emplace_back(r.epoch, r.stream, static_cast<std::uint32_t>(r.kind),
                     std::string(r.payload.begin(), r.payload.end()));
    return true;
  });
  return out;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Fuzz, StoreRecordWalkOnMutatedShards) {
  constexpr std::uint64_t kWidth = 4;
  const fs::path dir = fs::temp_directory_path() /
                       ("jaal_fuzz_store_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  // A valid three-shard summaries log: summaries then a commit per epoch.
  std::mt19937_64 rng(11);
  std::vector<fs::path> paths;
  {
    store::TimeShardLog log({dir.string(), "summaries", kWidth}, true);
    for (std::uint64_t e = 0; e < 3 * kWidth; ++e) {
      for (std::uint32_t m = 0; m < 3; ++m) {
        ASSERT_TRUE(log.append(e, m, store::RecordKind::kSummary,
                               random_bytes(rng, 1 + rng() % 96)));
      }
      ASSERT_TRUE(log.append(e, 0, store::RecordKind::kEpochMeta,
                             random_bytes(rng, 32)));
    }
    for (const std::string& p : log.shard_paths()) paths.emplace_back(p);
  }
  ASSERT_EQ(paths.size(), 3u);
  std::vector<std::string> clean;
  // Each clean shard's frame starts, targets of the field rewrites.
  std::vector<std::vector<std::size_t>> frames;
  for (const fs::path& p : paths) {
    clean.push_back(read_file(p));
    frames.emplace_back();
    for (std::size_t off = store::kShardHeaderBytes; off < clean.back().size();
         off += store::kRecordHeaderBytes +
                le32(reinterpret_cast<const std::uint8_t*>(
                    clean.back().data() + off))) {
      frames.back().push_back(off);
    }
  }
  ASSERT_EQ(reference_walk(clean).size(), 3 * kWidth * 4);

  int damaged = 0;  // trials whose mutations cost records
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::string> shards = clean;
    const std::size_t mutations = 1 + rng() % 3;
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t s = rng() % shards.size();
      std::string& shard = shards[s];
      const bool tail = s + 1 == shards.size();
      // Mutations stay past the 64-byte shard header, except that the tail
      // may be cut anywhere (a torn roll): a damaged header on any other
      // shard is an incompatible store, refused by design.
      if (shard.size() <= store::kShardHeaderBytes) continue;
      const std::size_t body = shard.size() - store::kShardHeaderBytes;
      const std::size_t at = store::kShardHeaderBytes + rng() % body;
      const std::size_t frame = frames[s][rng() % frames[s].size()];
      if (frame + store::kRecordHeaderBytes > shard.size()) continue;
      switch (rng() % 4) {
        case 0:
          shard[at] = static_cast<char>(shard[at] ^ (1 << (rng() % 8)));
          break;
        case 1: {  // payload_len
          const std::uint32_t len =
              rng() % 2 == 0 ? static_cast<std::uint32_t>(rng())
                             : static_cast<std::uint32_t>(rng() % 256);
          for (int b = 0; b < 4; ++b) {
            shard[frame + b] = static_cast<char>(len >> (8 * b));
          }
          break;
        }
        case 2: {  // kind
          const std::uint32_t kind = static_cast<std::uint32_t>(rng() % 9);
          for (int b = 0; b < 4; ++b) {
            shard[frame + 20 + b] = static_cast<char>(kind >> (8 * b));
          }
          break;
        }
        default:
          shard.resize(tail ? rng() % (shard.size() + 1) : at);
      }
    }
    for (std::size_t s = 0; s < shards.size(); ++s) {
      write_file(paths[s], shards[s]);
    }
    // A tail cut inside its header is a torn roll: readers skip it.
    std::vector<std::string> readable = shards;
    if (readable.back().size() < store::kShardHeaderBytes) readable.pop_back();
    const std::vector<WalkedRecord> expected = reference_walk(readable);

    std::vector<WalkedRecord> read;
    ASSERT_NO_THROW({
      const store::TimeShardLog reader({dir.string(), "summaries", kWidth},
                                       false);
      read = store_walk(reader);
    }) << "trial " << trial;
    ASSERT_EQ(read, expected) << "trial " << trial;
    if (expected.size() < 3 * kWidth * 4) ++damaged;
    // A writer reopen recovers the torn tail without throwing and keeps
    // exactly the records the reader saw.
    ASSERT_NO_THROW({
      const store::TimeShardLog writer({dir.string(), "summaries", kWidth},
                                       true);
      EXPECT_EQ(store_walk(writer), expected) << "trial " << trial;
    }) << "trial " << trial;
  }
  EXPECT_GT(damaged, 200);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace jaal
