#include "proto/messages.hpp"

#include <gtest/gtest.h>

#include "inference/aggregate.hpp"
#include "summarize/summarizer.hpp"
#include "trace/background.hpp"

namespace jaal::proto {
namespace {

summarize::MonitorSummary sample_summary() {
  trace::BackgroundTraffic gen(trace::trace1_profile(), 1);
  const auto batch = trace::take(gen, 400);
  summarize::SummarizerConfig cfg;
  cfg.batch_size = 400;
  cfg.min_batch = 1;
  cfg.rank = 12;
  cfg.centroids = 40;
  summarize::Summarizer s(cfg, 7);
  return s.summarize(batch).summary;
}

std::vector<packet::PacketRecord> sample_packets(std::size_t n) {
  trace::BackgroundTraffic gen(trace::trace1_profile(), 2);
  return trace::take(gen, n);
}

TEST(Proto, LoadUpdateRoundTrip) {
  const LoadUpdate original{3, 12345.5, 678};
  const Message decoded = decode(encode(Message{original}));
  EXPECT_EQ(std::get<LoadUpdate>(decoded), original);
}

TEST(Proto, AlertRecordRoundTrip) {
  AlertRecord original;
  original.sid = 1000002;
  original.msg = "Distributed SYN flood; with \"quotes\" and ; semicolons";
  original.matched_packets = 1ULL << 40;  // exercises the u64 path
  original.distributed = true;
  original.via_feedback = true;
  const Message decoded = decode(encode(Message{original}));
  EXPECT_EQ(std::get<AlertRecord>(decoded), original);
}

TEST(Proto, RawRequestRoundTrip) {
  const RawPacketRequest original{42, {0, 7, 199}};
  const Message decoded = decode(encode(Message{original}));
  EXPECT_EQ(std::get<RawPacketRequest>(decoded), original);
}

TEST(Proto, RawResponseRoundTripPreservesHeaders) {
  RawPacketResponse original;
  original.epoch = 9;
  original.packets = sample_packets(25);
  const Message decoded = decode(encode(Message{original}));
  const auto& restored = std::get<RawPacketResponse>(decoded);
  EXPECT_EQ(restored.epoch, 9u);
  ASSERT_EQ(restored.packets.size(), original.packets.size());
  for (std::size_t i = 0; i < original.packets.size(); ++i) {
    packet::PacketRecord expected = original.packets[i];
    packet::PacketRecord actual = restored.packets[i];
    // Checksums are filled by the codec; labels never cross the wire.
    expected.ip.checksum = actual.ip.checksum;
    expected.tcp.checksum = actual.tcp.checksum;
    expected.label = packet::AttackType::kNone;
    EXPECT_EQ(actual.ip, expected.ip) << i;
    EXPECT_EQ(actual.tcp, expected.tcp) << i;
    EXPECT_DOUBLE_EQ(actual.timestamp, expected.timestamp);
  }
}

TEST(Proto, SummaryUploadRoundTrip) {
  SummaryUpload original;
  original.epoch = 5;
  original.summary = sample_summary();
  const Message decoded = decode(encode(Message{original}));
  const auto& restored = std::get<SummaryUpload>(decoded);
  EXPECT_EQ(restored.epoch, 5u);
  EXPECT_EQ(summarize::element_count(restored.summary),
            summarize::element_count(original.summary));
  EXPECT_EQ(summarize::serialize(restored.summary),
            summarize::serialize(original.summary));
}

TEST(Proto, DecodeRejectsCorruption) {
  auto frame = encode(Message{LoadUpdate{1, 2.0, 3}});
  // Truncated.
  auto cut = frame;
  cut.resize(cut.size() - 2);
  EXPECT_THROW((void)decode(cut), std::runtime_error);
  // Bad tag.
  auto bad_tag = frame;
  bad_tag[4] = 200;
  EXPECT_THROW((void)decode(bad_tag), std::runtime_error);
  // Length mismatch.
  auto extra = frame;
  extra.push_back(0);
  EXPECT_THROW((void)decode(extra), std::runtime_error);
}

TEST(Proto, DecodeChecksCountsBeforeAllocating) {
  // A valid frame header and epoch, then an element count of 0xFFFFFFFF
  // with only 4 bytes behind it: both raw-packet decoders must reject the
  // count against the bytes left instead of reserving for it.
  // Wire tags 3 and 4: RawPacketRequest and RawPacketResponse.
  for (const std::uint8_t tag : {std::uint8_t{3}, std::uint8_t{4}}) {
    const std::vector<std::uint8_t> frame = {
        13,   0,    0,    0,     // length: tag + epoch + count + 4 bytes
        tag,  5,    0,    0,    0,  // epoch 5
        0xFF, 0xFF, 0xFF, 0xFF,  // count
        1,    2,    3,    4};
    EXPECT_THROW((void)decode(frame), std::runtime_error)
        << "tag " << int{tag};
  }
}

TEST(FrameReader, ReassemblesAcrossArbitraryChunks) {
  // Encode several messages, concatenate, feed byte by byte.
  std::vector<std::uint8_t> stream;
  const auto append = [&stream](const Message& m) {
    const auto f = encode(m);
    stream.insert(stream.end(), f.begin(), f.end());
  };
  append(Message{LoadUpdate{1, 100.0, 10}});
  append(Message{RawPacketRequest{2, {5, 6}}});
  append(Message{AlertRecord{99, "x", 1, false, false}});

  FrameReader reader;
  std::vector<Message> received;
  for (std::uint8_t b : stream) {
    reader.feed(std::span<const std::uint8_t>(&b, 1));
    while (auto msg = reader.next()) received.push_back(std::move(*msg));
  }
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(std::get<LoadUpdate>(received[0]).monitor, 1u);
  EXPECT_EQ(std::get<RawPacketRequest>(received[1]).centroids.size(), 2u);
  EXPECT_EQ(std::get<AlertRecord>(received[2]).sid, 99u);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReader, HandlesLargeChunksContainingManyFrames) {
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto f = encode(Message{LoadUpdate{i, static_cast<double>(i), i}});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameReader reader;
  reader.feed(stream);
  std::uint32_t expected = 0;
  while (auto msg = reader.next()) {
    EXPECT_EQ(std::get<LoadUpdate>(*msg).monitor, expected++);
  }
  EXPECT_EQ(expected, 50u);
}

TEST(FrameReader, ThrowsOnGarbageStream) {
  FrameReader reader;
  const std::vector<std::uint8_t> garbage = {0xFF, 0xFF, 0xFF, 0xFF, 0x00};
  reader.feed(garbage);
  EXPECT_THROW((void)reader.next(), std::runtime_error);
}

TEST(Proto, FullControlPlaneExchange) {
  // Monitor side produces a summary upload and a raw response; controller
  // side consumes them through a FrameReader and uses the payloads with the
  // real inference types (end-to-end of the §7 wire path).
  FrameReader controller_rx;

  SummaryUpload upload;
  upload.epoch = 1;
  upload.summary = sample_summary();
  controller_rx.feed(encode(Message{upload}));
  controller_rx.feed(encode(Message{LoadUpdate{7, 5000.0, 120}}));

  auto msg1 = controller_rx.next();
  ASSERT_TRUE(msg1.has_value());
  inference::Aggregator aggregator;
  aggregator.add(std::get<SummaryUpload>(*msg1).summary);
  const auto aggregate = aggregator.take();
  EXPECT_GT(aggregate.rows(), 0u);

  auto msg2 = controller_rx.next();
  ASSERT_TRUE(msg2.has_value());
  EXPECT_EQ(std::get<LoadUpdate>(*msg2).monitor, 7u);
  EXPECT_FALSE(controller_rx.next().has_value());
}

}  // namespace
}  // namespace jaal::proto
