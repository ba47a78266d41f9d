#include "dist/message.hpp"

#include <algorithm>

#include "dist/transport.hpp"
#include "store/codec.hpp"
#include "util/hash.hpp"

namespace fne {

namespace {

constexpr std::uint32_t kFrameMagic = 0x4D454E46;  // "FNEM" little-endian
constexpr std::size_t kFrameHeaderSize = 20;       // magic + type + len + checksum
constexpr std::uint32_t kMaxKnownType = static_cast<std::uint32_t>(MsgType::kResponse);
constexpr std::uint32_t kRetiredWaitType = 5;
constexpr std::uint32_t kRetiredHeartbeatType = 8;

/// FNV-1a state after a frame's type and length: the checksum continues
/// over the payload from here.
[[nodiscard]] std::uint64_t frame_checksum_head(std::uint32_t type, std::size_t len) {
  return Fnv1a().word(type).word(len).value();
}

[[nodiscard]] std::uint64_t frame_checksum(std::uint32_t type, std::string_view payload) {
  return Fnv1a(frame_checksum_head(type, payload.size())).text(payload).value();
}

[[nodiscard]] std::uint32_t peek_u32(const char* p) {
  std::uint32_t v = 0;
  for (int b = 0; b < 4; ++b) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[b])) << (8 * b);
  }
  return v;
}

[[nodiscard]] std::uint64_t peek_u64(const char* p) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[b])) << (8 * b);
  }
  return v;
}

}  // namespace

std::string encode_frame(const Message& msg) {
  ByteWriter w;
  w.u32(kFrameMagic);
  w.u32(static_cast<std::uint32_t>(msg.type));
  w.u32(static_cast<std::uint32_t>(msg.payload.size()));
  w.u64(frame_checksum(static_cast<std::uint32_t>(msg.type), msg.payload));
  std::string out = w.take();
  out += msg.payload;
  return out;
}

std::size_t FrameBuffer::skip(std::string_view bytes) {
  const std::size_t n = std::min(skip_left_, bytes.size());
  skip_hash_ = Fnv1a(skip_hash_).text(bytes.substr(0, n)).value();
  skip_left_ -= n;
  if (skip_left_ == 0 && skip_hash_ != skip_checksum_) corrupt_ = true;
  return n;
}

void FrameBuffer::append(std::string_view bytes) {
  if (corrupt_) return;  // nothing after garbage is trustworthy
  if (skip_left_ > 0) {
    bytes.remove_prefix(skip(bytes));
    if (corrupt_ || bytes.empty()) return;
  }
  // Compact the consumed prefix before growing (bounded memory under a
  // long-lived connection).
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (64u << 10)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes);
}

FrameBuffer::Next FrameBuffer::next(Message& out) {
  if (corrupt_) return Next::kCorrupt;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderSize) return Next::kNeedMore;
  const char* p = buf_.data() + pos_;
  const std::uint32_t magic = peek_u32(p);
  const std::uint32_t type = peek_u32(p + 4);
  const std::uint32_t len = peek_u32(p + 8);
  const std::uint64_t checksum = peek_u64(p + 12);
  // Validate everything validatable BEFORE waiting for the payload: a
  // garbage length field must not make the receiver buffer (up to) 4 GiB
  // of noise hoping a frame completes.
  if (magic != kFrameMagic || type == 0 || type == kRetiredWaitType ||
      type == kRetiredHeartbeatType || type > kMaxKnownType || len > kMaxFramePayload) {
    corrupt_ = true;
    return Next::kCorrupt;
  }
  if (len > max_payload_) {
    // Over this connection's cap: report it now and discard the payload
    // as it arrives, still checking its checksum.
    out.type = static_cast<MsgType>(type);
    out.payload.clear();
    skip_left_ = len;
    skip_hash_ = frame_checksum_head(type, len);
    skip_checksum_ = checksum;
    pos_ += kFrameHeaderSize;
    pos_ += skip(std::string_view(buf_).substr(pos_));  // leaves nothing buffered
    return Next::kOversized;
  }
  if (avail < kFrameHeaderSize + len) return Next::kNeedMore;
  const std::string_view payload(p + kFrameHeaderSize, len);
  if (frame_checksum(type, payload) != checksum) {
    corrupt_ = true;
    return Next::kCorrupt;
  }
  out.type = static_cast<MsgType>(type);
  out.payload.assign(payload);
  pos_ += kFrameHeaderSize + len;
  return Next::kMessage;
}

// -- typed payloads ---------------------------------------------------------

std::string encode_hello(const HelloPayload& p) {
  ByteWriter w;
  w.u64(p.fingerprint);
  w.str(p.worker_name);
  return w.take();
}

std::optional<HelloPayload> decode_hello(std::string_view bytes) {
  ByteReader r(bytes);
  HelloPayload p;
  p.fingerprint = r.u64();
  p.worker_name = r.str();
  if (!r.at_end()) return std::nullopt;
  return p;
}

std::string encode_welcome(const WelcomePayload& p) {
  ByteWriter w;
  w.u8(p.ok ? 1 : 0);
  w.str(p.message);
  return w.take();
}

std::optional<WelcomePayload> decode_welcome(std::string_view bytes) {
  ByteReader r(bytes);
  WelcomePayload p;
  p.ok = r.u8() != 0;
  p.message = r.str();
  if (!r.at_end()) return std::nullopt;
  return p;
}

std::string encode_job(const JobPayload& p) {
  ByteWriter w;
  w.u64(p.index);
  w.u32(p.kind);
  w.str(p.key);
  w.str(p.parent_runs);
  return w.take();
}

std::optional<JobPayload> decode_job(std::string_view bytes) {
  ByteReader r(bytes);
  JobPayload p;
  p.index = r.u64();
  p.kind = r.u32();
  p.key = r.str();
  p.parent_runs = r.str();
  if (!r.at_end()) return std::nullopt;
  return p;
}

std::string encode_result(const ResultPayload& p) {
  ByteWriter w;
  w.u64(p.index);
  w.u32(p.kind);
  w.str(p.key);
  w.str(p.data);
  return w.take();
}

std::optional<ResultPayload> decode_result(std::string_view bytes) {
  ByteReader r(bytes);
  ResultPayload p;
  p.index = r.u64();
  p.kind = r.u32();
  p.key = r.str();
  p.data = r.str();
  if (!r.at_end()) return std::nullopt;
  return p;
}

std::string encode_metric_record(const MetricRecord& m) {
  ByteWriter w;
  w.str(m.name);
  w.str(m.payload);
  w.str(m.brief);
  return w.take();
}

std::optional<MetricRecord> decode_metric_record(std::string_view bytes) {
  ByteReader r(bytes);
  MetricRecord m;
  m.name = r.str();
  m.payload = r.str();
  m.brief = r.str();
  if (!r.at_end()) return std::nullopt;
  return m;
}

std::uint64_t wire_fingerprint(std::uint64_t plan_fingerprint) {
  Fnv1a h;
  h.word(kWireProtocolVersion);
  h.word(plan_fingerprint);
  return h.value();
}

ReadStatus read_message(Transport& transport, FrameBuffer& buf, Message& out, int timeout_ms) {
  FrameBuffer::Next next = buf.next(out);
  if (next == FrameBuffer::Next::kNeedMore) {
    char chunk[64 << 10];
    const int n = transport.recv(chunk, sizeof(chunk), timeout_ms);
    if (n == 0) return ReadStatus::kEof;
    if (n == -1) return ReadStatus::kTimeout;
    if (n < 0) return ReadStatus::kError;
    buf.append(std::string_view(chunk, static_cast<std::size_t>(n)));
    next = buf.next(out);
  }
  switch (next) {
    case FrameBuffer::Next::kMessage:
      return ReadStatus::kMessage;
    case FrameBuffer::Next::kOversized:
      return ReadStatus::kOversized;
    case FrameBuffer::Next::kCorrupt:
      return ReadStatus::kCorrupt;
    case FrameBuffer::Next::kNeedMore:
      break;
  }
  return ReadStatus::kTimeout;
}

}  // namespace fne
