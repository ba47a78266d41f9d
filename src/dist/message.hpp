// The distributed campaign wire protocol (DESIGN.md §12).
//
// Messages travel as self-delimiting binary frames with the same FNV-1a
// checksum discipline as the result store's cells.log:
//
//   frame   u32 'FNEM' | u32 type | u32 payload_len
//           | u64 fnv1a(type ‖ payload_len ‖ payload) | payload bytes
//
// all integers little-endian; the checksum covers the type and length
// fields too, so a flipped header bit is caught, not just payload rot.
// FrameBuffer is an incremental TOTAL decoder over a byte stream: any
// malformation — wrong magic, absurd length, checksum mismatch — yields
// kCorrupt (the receiver drops the connection and the sender's work is
// retried elsewhere), never an exception, a crash, or a misparsed
// message.  Bytes are hostile by assumption: the chaos tests inject
// random prefixes, truncations and bit flips through FaultyTransport.
//
// Message payloads use the store's ByteWriter/ByteReader codec
// (store/codec.hpp).  Every decode_* is total and returns nullopt on any
// malformation, including trailing garbage.
//
// Conversation (coordinator serves, worker drives):
//
//   worker     -> HELLO {fingerprint, name}        (once per connection)
//   coordinator-> WELCOME {ok, message}            (!ok: campaign mismatch)
//   worker     -> PULL
//   coordinator-> JOB {index, kind, key, parent_runs?} | DONE
//   worker     -> RESULT {index, kind, key, data}  (cell record / metric)
//
// A PULL is a long poll: with no job ready the coordinator keeps it
// pending and answers it with JOB or DONE when either exists, so the
// worker has no retry clock.  A worker computes silently: there is no
// lease to keep alive, because the coordinator's local threads back up
// any job a worker holds.  Reconnect is idempotent: a worker may HELLO
// again at any time and resume pulling; the old connection's end
// released what it held.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "api/scenario.hpp"

namespace fne {

/// Bump when the frame layout or any payload schema changes.  Carried in
/// HELLO/WELCOME via the campaign fingerprint mix so mismatched builds
/// refuse each other instead of trading garbage.
inline constexpr std::uint32_t kWireProtocolVersion = 3;

enum class MsgType : std::uint32_t {
  kHello = 1,
  kWelcome = 2,
  kPull = 3,
  kJob = 4,
  // 5 was WAIT (protocol 2): a PULL now waits at the coordinator.
  kDone = 6,
  kResult = 7,
  // 8 was HEARTBEAT (protocol 1).  FrameBuffer rejects retired types.
  // Scenario-service conversation (DESIGN.md §13) — same frames, JSON
  // text payloads: client -> kRequest {json}, service -> kResponse {json}.
  kRequest = 9,
  kResponse = 10,
};

struct Message {
  MsgType type = MsgType::kPull;
  std::string payload;
};

/// Frame a message for the wire (header + checksum + payload).
[[nodiscard]] std::string encode_frame(const Message& msg);

/// Longest payload any FrameBuffer accepts; a longer length is corrupt.
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

/// Incremental frame decoder over a received byte stream.  Append bytes
/// as they arrive; next() yields complete verified messages.  One
/// kCorrupt poisons the buffer permanently — after garbage there is no
/// trustworthy resynchronization point, so the connection must drop.
/// A frame over the buffer's own `max_payload` (the service's
/// max_request_bytes) is kOversized from its header, `out.type` set; its
/// payload is discarded as it arrives, never buffered, and a checksum
/// mismatch still poisons the stream.
class FrameBuffer {
 public:
  enum class Next {
    kMessage,    ///< `out` holds a verified message
    kNeedMore,   ///< no complete frame buffered yet
    kOversized,  ///< a frame over max_payload: skipped, not buffered
    kCorrupt,    ///< stream is garbage; drop the connection
  };

  FrameBuffer() = default;
  explicit FrameBuffer(std::size_t max_payload) : max_payload_(max_payload) {}

  void append(std::string_view bytes);
  [[nodiscard]] Next next(Message& out);

  /// Buffered-but-unparsed byte count (tests).
  [[nodiscard]] std::size_t pending_bytes() const noexcept { return buf_.size() - pos_; }

 private:
  /// Hash and drop what `bytes` holds of an oversized payload; returns
  /// the count dropped.
  std::size_t skip(std::string_view bytes);

  std::string buf_;
  std::size_t pos_ = 0;
  std::size_t max_payload_ = kMaxFramePayload;
  std::size_t skip_left_ = 0;        ///< oversized payload bytes still to come
  std::uint64_t skip_hash_ = 0;      ///< FNV-1a state over the frame so far
  std::uint64_t skip_checksum_ = 0;  ///< what the header says it must end at
  bool corrupt_ = false;
};

// -- typed payloads ---------------------------------------------------------

struct HelloPayload {
  std::uint64_t fingerprint = 0;  ///< CampaignPlan::fingerprint ^ protocol mix
  std::string worker_name;
};

struct WelcomePayload {
  bool ok = false;
  std::string message;  ///< human-readable reject reason when !ok
};

struct JobPayload {
  std::uint64_t index = 0;   ///< job index in the shared CampaignPlan
  std::uint32_t kind = 0;    ///< CampaignJob::Kind as u32 (worker re-checks)
  std::string key;           ///< cell content key (worker verifies vs its plan)
  std::string parent_runs;   ///< kMetric only: encode_runs of the parent run
};

struct ResultPayload {
  std::uint64_t index = 0;
  std::uint32_t kind = 0;
  std::string key;   ///< echoed cell key — wrong key => rejected
  std::string data;  ///< cell: encode_runs; metric: encode_metric_record
};

[[nodiscard]] std::string encode_hello(const HelloPayload& p);
[[nodiscard]] std::optional<HelloPayload> decode_hello(std::string_view bytes);
[[nodiscard]] std::string encode_welcome(const WelcomePayload& p);
[[nodiscard]] std::optional<WelcomePayload> decode_welcome(std::string_view bytes);
[[nodiscard]] std::string encode_job(const JobPayload& p);
[[nodiscard]] std::optional<JobPayload> decode_job(std::string_view bytes);
[[nodiscard]] std::string encode_result(const ResultPayload& p);
[[nodiscard]] std::optional<ResultPayload> decode_result(std::string_view bytes);

/// MetricRecord <-> bytes for RESULT frames of kMetric jobs.  Total
/// decode like everything else on the wire.
[[nodiscard]] std::string encode_metric_record(const MetricRecord& m);
[[nodiscard]] std::optional<MetricRecord> decode_metric_record(std::string_view bytes);

/// What both endpoints actually compare in HELLO/WELCOME: the campaign
/// plan fingerprint mixed with the protocol version, so a version skew
/// reads as a campaign mismatch and the connection is refused.
[[nodiscard]] std::uint64_t wire_fingerprint(std::uint64_t plan_fingerprint);

class Transport;

/// One step of pumping a transport into a FrameBuffer.  Returns after at
/// most `timeout_ms` with either a verified message or the reason there
/// is none yet; kTimeout covers both "no bytes" and "frame incomplete"
/// (the caller loops, checking whatever ends its wait).
enum class ReadStatus {
  kMessage,
  kTimeout,
  kOversized,  ///< FrameBuffer::Next::kOversized: `out.type` only
  kEof,        ///< peer closed cleanly
  kError,      ///< connection reset / transport error
  kCorrupt,    ///< stream failed verification; drop the connection
};
[[nodiscard]] ReadStatus read_message(Transport& transport, FrameBuffer& buf, Message& out,
                                      int timeout_ms);

}  // namespace fne
