// fne::ScenarioService — the long-running scenario daemon (DESIGN.md §13).
//
// Every surface so far is batch: a process starts, runs one campaign (or
// one dist role), prints, exits — and the EngineCache dies with it.  The
// service turns the library into a resident evaluator: one process holds
// the warm cache and an executor pool, and clients submit campaigns over
// a socket, paying graph builds and workspace warm-up ONCE across
// arbitrarily many requests.
//
// Wire protocol: the §12 FNEM frames (same magic, checksum and total
// FrameBuffer decoder as the dist runtime — hostile-bytes hardening comes
// for free) carrying two new types, kRequest and kResponse, whose
// payloads are JSON text:
//
//   request   {"id": N, "type": "campaign" | "stats" | "ping" | "sleep",
//              "campaign": "<campaign JSON, embedded as a string>",
//              "threads": K, "millis": M}
//   response  {"id": N, "status": "ok" | "rejected" | "error",
//              "payload": "<result JSON, embedded as a string>",
//              "message": "...", "retry_after_ms": R}
//
// The campaign text and the result payload ride INSIDE JSON strings
// (escape/unescape round-trips every byte), so a client recovers the
// deterministic campaign payload EXACTLY as a local run would print it —
// the CI smoke job diffs service output against a local golden file
// byte for byte.  "sleep" is a test hook: it occupies a worker for M ms
// (cancellably) so the backpressure and disconnect tests can fill the
// queue deterministically.  N, K and M are range-checked (N >= 0,
// 0 <= K <= INT_MAX, 0 <= M <= one hour); an out-of-range value gets a
// "bad request" error and the connection stays open.
//
// Admission control (all three rejections carry retry_after_ms):
//   * oversized — request payload over max_request_bytes, rejected from
//     the frame header: the session's FrameBuffer is capped at
//     max_request_bytes and discards the payload as it arrives, still
//     checking its checksum (a client can make the service neither
//     buffer nor parse unbounded input);
//   * queue_full — the bounded request queue is at queue_depth;
//   * expired — the request waited longer than queue_deadline_ms before
//     a worker picked it up (stale work is refused, not served late).
//
// Abandonment: every queued request owns a CancelToken; a client
// disconnect cancels its session's tokens, so in-flight campaigns stop
// claiming jobs (ExecutorPool's cancellation fence) instead of burning
// workers for a reader that is gone.  Each connection has one reader
// thread, joined by the accept thread soon after its connection ends, so
// threads scale with open connections, not with connections ever made.
// stop() cancels everything, drains the workers and joins every thread
// — SIGTERM shutdown is clean by construction.
//
// Determinism: the service changes SCHEDULING only.  Results flow
// through the same CampaignRunner/EngineCache path as local runs, where
// lease-time drop_warm_state() and the cache's eviction-is-cold-rebuild
// contract already guarantee byte-identical deterministic payloads for
// any thread count, any cache budget and any request interleaving.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/executor.hpp"
#include "dist/message.hpp"
#include "dist/transport.hpp"

namespace fne {

struct ServiceOptions {
  std::string bind = "127.0.0.1";
  int port = 0;              ///< 0 = ephemeral (read back via port())
  int workers = 2;           ///< concurrent campaign executions
  int exec_threads = 1;      ///< ExecutorPool threads per campaign (also the per-request cap)
  std::size_t queue_depth = 16;        ///< bounded request queue
  std::uint64_t queue_deadline_ms = 0; ///< 0 = no deadline; else max queue wait
  std::size_t max_request_bytes = 1u << 20;  ///< frame payload cap before reject
  std::uint64_t retry_after_ms = 100;  ///< backpressure hint in every reject
  std::uint64_t cache_budget_bytes = 0;  ///< applied to EngineCache at start(); 0 = leave as-is
};

/// Monotonic service counters (all guarded by the service mutex; stats()
/// snapshots them).  Rejections are split by cause so a load test can
/// tell backpressure from client error.
struct ServiceStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;    ///< accepted into the queue (or served inline)
  std::uint64_t completed = 0;   ///< responded with status "ok"
  std::uint64_t errors = 0;      ///< responded with status "error"
  std::uint64_t cancelled = 0;   ///< abandoned (disconnect / shutdown) before completion
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_expired = 0;
  std::uint64_t rejected_oversized = 0;
};

class ScenarioService {
 public:
  /// Binds the listener immediately (REQUIRE-fails on address errors),
  /// so port() is valid before start().
  explicit ScenarioService(ServiceOptions options);
  ~ScenarioService();
  ScenarioService(const ScenarioService&) = delete;
  ScenarioService& operator=(const ScenarioService&) = delete;

  [[nodiscard]] int port() const noexcept;

  /// Spawn the accept thread and `workers` executor threads; returns
  /// immediately.  Applies options.cache_budget_bytes to the process
  /// EngineCache when nonzero.
  void start();

  /// Stop accepting, cancel every queued and in-flight request, drain
  /// the workers and join every thread.  Idempotent; also run by the
  /// destructor.  After stop() the service cannot be restarted.
  void stop();

  [[nodiscard]] ServiceStats stats() const;
  /// Requests currently waiting in the bounded queue (load telemetry).
  [[nodiscard]] std::size_t queue_size() const;
  /// Connections whose reader thread is not yet reaped: the live ones,
  /// plus those that ended within the last accept poll.
  [[nodiscard]] std::size_t session_count() const;

 private:
  /// Accept and recv poll granularity: how soon the accept thread and
  /// each session reader notice stop() or an ended session.
  static constexpr int kPollMs = 50;

  struct Session;
  struct Request;
  /// One connection and the thread reading it.
  struct Reader {
    std::shared_ptr<Session> session;
    std::thread thread;
  };

  void accept_loop();
  /// Join the readers whose connection ended (accept thread only).
  void reap_readers();
  void session_loop(std::shared_ptr<Session> session);
  void worker_loop();
  void handle_request(const Request& req);
  void send_response(Session& session, const std::string& json);
  void reject(Session& session, std::uint64_t id, const std::string& reason,
              std::uint64_t* counter);

  ServiceOptions options_;
  std::unique_ptr<TcpListener> listener_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;
  ServiceStats stats_;
  bool stopping_ = false;
  bool started_ = false;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::vector<Reader> readers_;  ///< guarded by mutex_; reaped by the accept thread
};

// -- client ------------------------------------------------------------------

/// One parsed kResponse payload.
struct ServiceResponse {
  std::uint64_t id = 0;
  std::string status;   ///< "ok" | "rejected" | "error"
  std::string payload;  ///< embedded result JSON (campaign payload / stats)
  std::string message;  ///< human-readable detail (rejects and errors)
  std::uint64_t retry_after_ms = 0;

  [[nodiscard]] bool ok() const noexcept { return status == "ok"; }
  [[nodiscard]] bool rejected() const noexcept { return status == "rejected"; }
};

/// Blocking client over one connection.  Not thread-safe; one client per
/// thread (the load generator opens many).
class ServiceClient {
 public:
  /// Connect within timeout_ms; REQUIRE-fails on refusal (a missing
  /// daemon is a usage error for every caller of this class).
  ServiceClient(const std::string& host, int port, int timeout_ms = 2000);

  /// Run one campaign (text = campaign JSON).  threads <= 0 lets the
  /// service pick.  Blocks until the matching response or timeout;
  /// REQUIRE-fails on transport death / corrupt stream / timeout.
  [[nodiscard]] ServiceResponse campaign(const std::string& campaign_json, int threads = 0,
                                         int timeout_ms = 60000);
  [[nodiscard]] ServiceResponse stats(int timeout_ms = 5000);
  [[nodiscard]] ServiceResponse ping(int timeout_ms = 5000);
  /// Test hook: occupy a service worker for `millis` ms.
  [[nodiscard]] ServiceResponse sleep_for(std::uint64_t millis, int timeout_ms = 60000);

  /// Send a raw request JSON without waiting (pipelining / abandon
  /// tests).  Returns the id assigned to it.
  std::uint64_t send_only(const std::string& type, const std::string& campaign_json,
                          std::uint64_t millis);
  /// Await the response for `id` (from send_only).
  [[nodiscard]] ServiceResponse await(std::uint64_t id, int timeout_ms = 60000);

  /// Drop the connection immediately (abandonment tests).
  void disconnect();

 private:
  [[nodiscard]] ServiceResponse roundtrip(const std::string& request_json, std::uint64_t id,
                                          int timeout_ms);

  std::unique_ptr<Transport> transport_;
  FrameBuffer frames_;
  std::uint64_t next_id_ = 1;
};

/// Request/response JSON codecs (shared by service, client and tests).
[[nodiscard]] std::string make_request_json(std::uint64_t id, const std::string& type,
                                            const std::string& campaign_json, int threads,
                                            std::uint64_t millis);
[[nodiscard]] ServiceResponse parse_response_json(const std::string& text);

}  // namespace fne
