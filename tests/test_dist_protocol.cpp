// Wire-protocol contracts for the distributed campaign runtime
// (DESIGN.md §12): frame + payload codecs round-trip; the FrameBuffer is
// an incremental TOTAL decoder — byte-at-a-time delivery, random garbage
// prefixes, truncations at every boundary, single flipped bits and
// absurd length fields all yield clean rejections (kNeedMore/kCorrupt),
// never a misparsed message, an exception, or a crash; a frame over a
// buffer's own cap is reported and skipped without being buffered.  Bytes on this
// surface are hostile by assumption; these are the fuzz-style tests the
// chaos matrix leans on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dist/message.hpp"
#include "util/rng.hpp"

namespace fne {
namespace {

[[nodiscard]] std::vector<Message> sample_messages() {
  std::vector<Message> out;
  out.push_back({MsgType::kHello, encode_hello({0x1234abcdu, "worker-7"})});
  out.push_back({MsgType::kWelcome, encode_welcome({true, ""})});
  out.push_back({MsgType::kWelcome, encode_welcome({false, "campaign mismatch"})});
  out.push_back({MsgType::kPull, ""});
  JobPayload job;
  job.index = 42;
  job.kind = 3;
  job.key = "entry=chain|rep=0|p=0.1,0.2,0.3";
  job.parent_runs = std::string("\x01\x02\x00\xff", 4);
  out.push_back({MsgType::kJob, encode_job(job)});
  out.push_back({MsgType::kDone, ""});
  ResultPayload result;
  result.index = 7;
  result.kind = 0;
  result.key = "entry=reps|rep=2";
  result.data = std::string(300, '\x5a') + std::string(1, '\0') + "tail";
  out.push_back({MsgType::kResult, encode_result(result)});
  return out;
}

TEST(DistProtocol, TypedPayloadsRoundTrip) {
  const HelloPayload hello{0xfeedfacecafebeefull, "w"};
  const auto hello2 = decode_hello(encode_hello(hello));
  ASSERT_TRUE(hello2.has_value());
  EXPECT_EQ(hello2->fingerprint, hello.fingerprint);
  EXPECT_EQ(hello2->worker_name, hello.worker_name);

  JobPayload job;
  job.index = 123456789;
  job.kind = 2;
  job.key = "some|cell|key";
  job.parent_runs = std::string("\x00\x01\x02", 3);
  const auto job2 = decode_job(encode_job(job));
  ASSERT_TRUE(job2.has_value());
  EXPECT_EQ(job2->index, job.index);
  EXPECT_EQ(job2->kind, job.kind);
  EXPECT_EQ(job2->key, job.key);
  EXPECT_EQ(job2->parent_runs, job.parent_runs);

  ResultPayload result;
  result.index = 3;
  result.kind = 1;
  result.key = "k";
  result.data = std::string(1000, '\xaa');
  const auto result2 = decode_result(encode_result(result));
  ASSERT_TRUE(result2.has_value());
  EXPECT_EQ(result2->index, result.index);
  EXPECT_EQ(result2->kind, result.kind);
  EXPECT_EQ(result2->key, result.key);
  EXPECT_EQ(result2->data, result.data);

  const MetricRecord metric{"expansion_bracket", R"({"lower":0.1})", "0.1..0.2"};
  const auto metric2 = decode_metric_record(encode_metric_record(metric));
  ASSERT_TRUE(metric2.has_value());
  EXPECT_EQ(metric2->name, metric.name);
  EXPECT_EQ(metric2->payload, metric.payload);
  EXPECT_EQ(metric2->brief, metric.brief);
}

TEST(DistProtocol, TypedDecodersRejectTrailingGarbage) {
  EXPECT_FALSE(decode_hello(encode_hello({1, "x"}) + "!").has_value());
  EXPECT_FALSE(decode_job(encode_job({1, 0, "k", ""}) + std::string(1, '\0')).has_value());
  EXPECT_FALSE(decode_result(encode_result({1, 0, "k", "d"}) + "??").has_value());
}

TEST(DistProtocol, FramesRoundTripWholeAndByteAtATime) {
  const std::vector<Message> messages = sample_messages();
  std::string stream;
  for (const Message& m : messages) stream += encode_frame(m);

  for (const std::size_t chunk : {stream.size(), std::size_t{1}, std::size_t{7}}) {
    SCOPED_TRACE(chunk);
    FrameBuffer buf;
    Message out;
    std::vector<Message> decoded;
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      buf.append(std::string_view(stream).substr(at, chunk));
      while (buf.next(out) == FrameBuffer::Next::kMessage) decoded.push_back(out);
    }
    ASSERT_EQ(decoded.size(), messages.size());
    for (std::size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(decoded[i].type, messages[i].type);
      EXPECT_EQ(decoded[i].payload, messages[i].payload);
    }
    EXPECT_EQ(buf.pending_bytes(), 0u);
  }
}

TEST(DistProtocol, RandomGarbagePrefixPoisonsTheStream) {
  Rng rng(2024);
  const std::string frame = encode_frame({MsgType::kPull, ""});
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(1 + rng.uniform(64), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.uniform(256));
    // A prefix that happens to BE a valid frame start is not garbage;
    // the chance of forging magic+type+checksum is negligible, but rule
    // out the trivial collision of starting with the real magic.
    if (garbage.size() >= 4 && garbage.compare(0, 4, frame, 0, 4) == 0) continue;

    FrameBuffer buf;
    Message out;
    buf.append(garbage);
    buf.append(frame);
    FrameBuffer::Next last = FrameBuffer::Next::kNeedMore;
    for (int i = 0; i < 4; ++i) last = buf.next(out);
    EXPECT_EQ(last, FrameBuffer::Next::kCorrupt)
        << "garbage must poison the stream permanently, even with a valid "
           "frame appended after it";
  }
}

TEST(DistProtocol, EveryTruncationIsNeedMoreNeverAMessage) {
  const std::string frame = encode_frame({MsgType::kResult, encode_result({5, 0, "key", "data"})});
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    FrameBuffer buf;
    Message out;
    buf.append(std::string_view(frame).substr(0, keep));
    EXPECT_EQ(buf.next(out), FrameBuffer::Next::kNeedMore) << "keep=" << keep;
    // Delivering the remainder completes the frame: truncation is a
    // pause, not damage.
    buf.append(std::string_view(frame).substr(keep));
    EXPECT_EQ(buf.next(out), FrameBuffer::Next::kMessage) << "keep=" << keep;
    EXPECT_EQ(out.payload, encode_result({5, 0, "key", "data"}));
  }
}

TEST(DistProtocol, AnySingleBitFlipNeverYieldsAMessage) {
  const std::string frame =
      encode_frame({MsgType::kJob, encode_job({9, 1, "cell|key", ""})});
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = frame;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      FrameBuffer buf;
      Message out;
      buf.append(mutated);
      const FrameBuffer::Next got = buf.next(out);
      // A flip in the length field can make the frame look longer
      // (kNeedMore); any flip that lets a frame complete must fail the
      // checksum (kCorrupt).  What can never happen is a message.
      EXPECT_NE(got, FrameBuffer::Next::kMessage) << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(DistProtocol, OversizedLengthFieldIsRejectedBeforeBuffering) {
  // Hand-build a header claiming a ~1 GiB payload; the decoder must
  // reject it from the header alone instead of waiting for a gigabyte.
  std::string frame = encode_frame({MsgType::kPull, ""});
  frame[8] = '\x00';
  frame[9] = '\x00';
  frame[10] = '\x00';
  frame[11] = '\x40';  // len = 0x40000000
  FrameBuffer buf;
  Message out;
  buf.append(frame);
  EXPECT_EQ(buf.next(out), FrameBuffer::Next::kCorrupt);
}

TEST(DistProtocol, UnknownTypeAndBadMagicAreCorrupt) {
  {
    std::string frame = encode_frame({MsgType::kPull, ""});
    frame[4] = '\x63';  // type = 99: out of range even with a fixed checksum
    FrameBuffer buf;
    Message out;
    buf.append(frame);
    EXPECT_EQ(buf.next(out), FrameBuffer::Next::kCorrupt);
  }
  {
    std::string frame = encode_frame({MsgType::kPull, ""});
    frame[0] = 'X';
    FrameBuffer buf;
    Message out;
    buf.append(frame);
    EXPECT_EQ(buf.next(out), FrameBuffer::Next::kCorrupt);
  }
}

TEST(DistProtocol, RetiredHeartbeatTypeIsCorrupt) {
  // Type 8 was HEARTBEAT in protocol 1.  A well-checksummed frame of that
  // type is still rejected, although 9 and 10 above it are known.
  const std::string frame = encode_frame({static_cast<MsgType>(8), std::string(8, '\x09')});
  FrameBuffer buf;
  Message out;
  buf.append(frame);
  EXPECT_EQ(buf.next(out), FrameBuffer::Next::kCorrupt);
}

TEST(DistProtocol, RetiredWaitTypeIsCorrupt) {
  // Type 5 was WAIT in protocol 2; protocol 3 holds the PULL instead.
  const std::string frame = encode_frame({static_cast<MsgType>(5), std::string(8, '\x7d')});
  FrameBuffer buf;
  Message out;
  buf.append(frame);
  EXPECT_EQ(buf.next(out), FrameBuffer::Next::kCorrupt);
}

TEST(DistProtocol, OversizedFrameIsSkippedUnbufferedAndTheNextFrameParses) {
  constexpr std::size_t kCap = 256;
  constexpr std::size_t kHeader = 20;  // magic + type + len + checksum
  const std::string big = encode_frame({MsgType::kRequest, std::string(20000, 'x')});
  const std::string small = encode_frame({MsgType::kRequest, "after"});
  const std::string stream = big + small;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{100},
                                  std::size_t{4096}, stream.size()}) {
    SCOPED_TRACE(chunk);
    FrameBuffer buf(kCap);
    Message out;
    int oversized = 0;
    std::vector<Message> decoded;
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      buf.append(std::string_view(stream).substr(at, chunk));
      for (bool more = true; more;) {
        switch (buf.next(out)) {
          case FrameBuffer::Next::kMessage:
            decoded.push_back(out);
            break;
          case FrameBuffer::Next::kOversized:
            ++oversized;
            EXPECT_EQ(out.type, MsgType::kRequest);
            EXPECT_TRUE(out.payload.empty());
            break;
          case FrameBuffer::Next::kNeedMore:
            more = false;
            break;
          case FrameBuffer::Next::kCorrupt:
            FAIL() << "an oversized frame with a good checksum is not corrupt";
        }
        ASSERT_LE(buf.pending_bytes(), kCap + kHeader);
      }
    }
    EXPECT_EQ(oversized, 1);
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0].payload, "after");
    EXPECT_EQ(buf.pending_bytes(), 0u);
  }
}

TEST(DistProtocol, OversizedFrameWithABadChecksumIsStillCorrupt) {
  std::string big = encode_frame({MsgType::kRequest, std::string(5000, 'x')});
  big[3000] = 'y';  // inside the payload that is skipped, not buffered
  FrameBuffer buf(256);
  Message out;
  buf.append(std::string_view(big).substr(0, 100));
  EXPECT_EQ(buf.next(out), FrameBuffer::Next::kOversized);
  buf.append(std::string_view(big).substr(100));
  buf.append(encode_frame({MsgType::kRequest, "after"}));
  EXPECT_EQ(buf.next(out), FrameBuffer::Next::kCorrupt);
}

TEST(DistProtocol, FuzzedDecodersNeverCrash) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes(rng.uniform(64), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.uniform(256));
    (void)decode_hello(bytes);
    (void)decode_welcome(bytes);
    (void)decode_job(bytes);
    (void)decode_result(bytes);
    (void)decode_metric_record(bytes);
    FrameBuffer buf;
    Message out;
    buf.append(bytes);
    (void)buf.next(out);
  }
}

TEST(DistProtocol, WireFingerprintMixesVersionAndPlan) {
  EXPECT_EQ(wire_fingerprint(7), wire_fingerprint(7));
  EXPECT_NE(wire_fingerprint(7), wire_fingerprint(8));
  EXPECT_NE(wire_fingerprint(7), 7u) << "the mix must not be the identity";
}

}  // namespace
}  // namespace fne
