#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <utility>

#include "api/campaign.hpp"
#include "util/json.hpp"
#include "util/require.hpp"

namespace fne {

namespace {

using Clock = std::chrono::steady_clock;

/// Longest "sleep" request: the test hook has no use for more than an hour.
constexpr std::int64_t kMaxSleepMs = 3'600'000;

[[nodiscard]] std::uint64_t ms_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0).count());
}

}  // namespace

// One connected client.  The reader thread owns recv; responses go
// through send() under the session's own mutex (a campaign worker and
// the reader's inline ping handler may respond concurrently).  alive
// flips once, on reader exit or send failure; cancel_all() is the
// abandonment fence — every queued request registered its token here.
struct ScenarioService::Session {
  std::unique_ptr<Transport> transport;
  std::mutex send_mutex;
  std::atomic<bool> alive{true};
  std::atomic<bool> ended{false};  ///< the reader returned: its thread can be joined
  std::mutex token_mutex;
  std::vector<CancelToken> tokens;

  void register_token(const CancelToken& token) {
    const std::lock_guard<std::mutex> lock(token_mutex);
    tokens.push_back(token);
  }
  void cancel_all() {
    const std::lock_guard<std::mutex> lock(token_mutex);
    for (const CancelToken& t : tokens) t.cancel();
  }
};

/// One queued unit of work (campaign or sleep; ping/stats are answered
/// inline by the reader and never queue).
struct ScenarioService::Request {
  std::shared_ptr<Session> session;
  std::uint64_t id = 0;
  std::string type;
  std::string campaign;  ///< campaign JSON text (type == "campaign")
  int threads = 0;
  std::uint64_t millis = 0;  ///< sleep duration (type == "sleep")
  CancelToken token;
  Clock::time_point enqueued;
};

ScenarioService::ScenarioService(ServiceOptions options) : options_(std::move(options)) {
  FNE_REQUIRE(options_.workers >= 1, "service: workers must be >= 1");
  FNE_REQUIRE(options_.exec_threads >= 1, "service: exec_threads must be >= 1");
  FNE_REQUIRE(options_.queue_depth >= 1, "service: queue_depth must be >= 1");
  listener_ = std::make_unique<TcpListener>(options_.bind, options_.port);
}

ScenarioService::~ScenarioService() { stop(); }

int ScenarioService::port() const noexcept { return listener_->port(); }

void ScenarioService::start() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    FNE_REQUIRE(!started_ && !stopping_, "service: start() is single-use");
    started_ = true;
  }
  if (options_.cache_budget_bytes > 0) {
    EngineCache::instance().set_budget_bytes(options_.cache_budget_bytes);
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ScenarioService::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  listener_->shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();  // readers_ is ours from here
  // Cancel EVERYTHING: queued requests stop before starting, in-flight
  // campaigns stop claiming jobs at the next executor fence.  Workers
  // then drain the queue (each entry resolves as cancelled) and exit.
  for (Reader& r : readers_) r.session->cancel_all();
  queue_cv_.notify_all();
  for (Reader& r : readers_) r.session->transport->shutdown();
  for (Reader& r : readers_) r.thread.join();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

ServiceStats ScenarioService::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ScenarioService::queue_size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t ScenarioService::session_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return readers_.size();
}

void ScenarioService::reap_readers() {
  std::vector<Reader> ended;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto live = std::partition(readers_.begin(), readers_.end(),
                                     [](const Reader& r) { return !r.session->ended.load(); });
    ended.assign(std::make_move_iterator(live), std::make_move_iterator(readers_.end()));
    readers_.erase(live, readers_.end());
  }
  for (Reader& r : ended) r.thread.join();
}

void ScenarioService::accept_loop() {
  while (true) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    reap_readers();  // a session's thread lives as long as its connection
    std::unique_ptr<Transport> t = listener_->accept(kPollMs);
    if (t == nullptr) continue;
    auto session = std::make_shared<Session>();
    session->transport = std::move(t);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      session->transport->shutdown();
      return;
    }
    ++stats_.connections;
    readers_.push_back({session, std::thread([this, session] { session_loop(session); })});
  }
}

void ScenarioService::send_response(Session& session, const std::string& json) {
  const std::lock_guard<std::mutex> lock(session.send_mutex);
  if (!session.alive.load()) return;
  if (!session.transport->send(encode_frame(Message{MsgType::kResponse, json}))) {
    session.alive.store(false);
  }
}

void ScenarioService::reject(Session& session, std::uint64_t id, const std::string& reason,
                             std::uint64_t* counter) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++*counter;
  }
  JsonObject o;
  o.put("id", id)
      .put("status", "rejected")
      .put("message", reason)
      .put("retry_after_ms", options_.retry_after_ms);
  send_response(session, o.dump());
}

void ScenarioService::session_loop(std::shared_ptr<Session> session) {
  FrameBuffer frames(options_.max_request_bytes);
  Message msg;
  while (session->alive.load()) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) break;
    }
    const ReadStatus st = read_message(*session->transport, frames, msg, kPollMs);
    if (st == ReadStatus::kTimeout) continue;
    if (st != ReadStatus::kMessage && st != ReadStatus::kOversized) break;  // EOF / error / corrupt
    if (msg.type != MsgType::kRequest) break;  // protocol violation: drop

    // Oversized requests are refused from the frame header: FrameBuffer
    // discards their bytes unbuffered, so the service never holds or
    // parses a payload the admission policy already rejected, and the
    // reject carries id 0 (clients treat an unattributed reject as
    // addressed to their outstanding request).
    if (st == ReadStatus::kOversized) {
      reject(*session, 0, "request exceeds max_request_bytes", &stats_.rejected_oversized);
      continue;
    }

    std::uint64_t id = 0;
    std::string type;
    std::string campaign;
    int threads = 0;
    std::uint64_t millis = 0;
    try {
      const JsonValue req = JsonValue::parse(msg.payload);
      if (const JsonValue* v = req.find("id")) {
        id = narrow_in_range<std::uint64_t>("id", v->as_int(), 0, INT64_MAX);
      }
      type = req.at("type").as_string();
      if (const JsonValue* v = req.find("campaign")) campaign = v->as_string();
      if (const JsonValue* v = req.find("threads")) {
        threads = narrow_in_range<int>("threads", v->as_int(), 0, INT_MAX);
      }
      if (const JsonValue* v = req.find("millis")) {
        millis = narrow_in_range<std::uint64_t>("millis", v->as_int(), 0, kMaxSleepMs);
      }
    } catch (const std::exception& e) {
      JsonObject o;
      o.put("id", id).put("status", "error").put("message", std::string("bad request: ") + e.what());
      send_response(*session, o.dump());
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.errors;
      }
      continue;
    }

    if (type == "ping") {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.requests;
      ++stats_.completed;
      JsonObject o;
      o.put("id", id).put("status", "ok").put("payload", "");
      send_response(*session, o.dump());
      continue;
    }
    if (type == "stats") {
      ServiceStats snap;
      std::size_t depth = 0;
      std::size_t sessions = 0;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.requests;
        ++stats_.completed;
        snap = stats_;
        depth = queue_.size();
        sessions = readers_.size();
      }
      const EngineCacheStats cache = EngineCache::instance().stats();
      JsonObject c;
      c.put("leases", cache.leases)
          .put("engine_hits", cache.engine_hits)
          .put("engine_builds", cache.engine_builds)
          .put("graph_hits", cache.graph_hits)
          .put("graph_builds", cache.graph_builds)
          .put("evictions", cache.evictions)
          .put("bytes_resident", cache.bytes_resident)
          .put("peak_bytes", cache.peak_bytes)
          .put("budget_bytes", EngineCache::instance().budget_bytes());
      JsonObject s;
      s.put("kind", "service_stats")
          .put("connections", snap.connections)
          .put("requests", snap.requests)
          .put("completed", snap.completed)
          .put("errors", snap.errors)
          .put("cancelled", snap.cancelled)
          .put("rejected_queue_full", snap.rejected_queue_full)
          .put("rejected_expired", snap.rejected_expired)
          .put("rejected_oversized", snap.rejected_oversized)
          .put("queue", static_cast<std::uint64_t>(depth))
          .put("sessions", static_cast<std::uint64_t>(sessions))
          .put("workers", options_.workers)
          .put_json("cache", c.dump());
      JsonObject o;
      o.put("id", id).put("status", "ok").put("payload", s.dump());
      send_response(*session, o.dump());
      continue;
    }
    if (type != "campaign" && type != "sleep") {
      JsonObject o;
      o.put("id", id).put("status", "error").put("message", "unknown request type '" + type + "'");
      send_response(*session, o.dump());
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.errors;
      continue;
    }

    Request req;
    req.session = session;
    req.id = id;
    req.type = type;
    req.campaign = std::move(campaign);
    req.threads = threads;
    req.millis = millis;
    req.enqueued = Clock::now();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (stopping_) break;
      if (queue_.size() >= options_.queue_depth) {
        lock.unlock();
        reject(*session, id, "queue full", &stats_.rejected_queue_full);
        continue;
      }
      ++stats_.requests;
      session->register_token(req.token);
      queue_.push_back(std::move(req));
    }
    queue_cv_.notify_one();
  }
  // Reader gone: the client cannot receive anything we would compute.
  session->alive.store(false);
  session->cancel_all();
  session->transport->shutdown();
  session->ended.store(true);
}

void ScenarioService::worker_loop() {
  while (true) {
    Request req;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      req = std::move(queue_.front());
      queue_.pop_front();
    }
    handle_request(req);
  }
}

void ScenarioService::handle_request(const Request& req) {
  Session& session = *req.session;
  const auto respond_error = [&](const std::string& message, std::uint64_t* counter) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++*counter;
    }
    JsonObject o;
    o.put("id", req.id).put("status", "error").put("message", message);
    send_response(session, o.dump());
  };

  if (options_.queue_deadline_ms > 0 && ms_since(req.enqueued) > options_.queue_deadline_ms) {
    reject(session, req.id, "queue deadline exceeded", &stats_.rejected_expired);
    return;
  }
  if (req.token.cancelled()) {
    respond_error("cancelled", &stats_.cancelled);
    return;
  }

  if (req.type == "sleep") {
    const Clock::time_point t0 = Clock::now();
    while (ms_since(t0) < req.millis && !req.token.cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (req.token.cancelled()) {
      respond_error("cancelled", &stats_.cancelled);
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.completed;
    }
    JsonObject o;
    o.put("id", req.id).put("status", "ok").put("payload", "");
    send_response(session, o.dump());
    return;
  }

  // type == "campaign"
  int threads = req.threads;
  if (threads <= 0) threads = options_.exec_threads;
  threads = std::clamp(threads, 1, options_.exec_threads);
  try {
    CampaignRunner runner(campaign_from_json(req.campaign));
    const CampaignReport report = runner.run(threads, nullptr, &req.token);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.completed;
    }
    JsonObject o;
    o.put("id", req.id).put("status", "ok").put("payload", report.to_json(false));
    send_response(session, o.dump());
  } catch (const CancelledError&) {
    respond_error("cancelled", &stats_.cancelled);
  } catch (const std::exception& e) {
    respond_error(std::string("campaign failed: ") + e.what(), &stats_.errors);
  }
}

// -- client ------------------------------------------------------------------

std::string make_request_json(std::uint64_t id, const std::string& type,
                              const std::string& campaign_json, int threads,
                              std::uint64_t millis) {
  JsonObject o;
  o.put("id", id).put("type", type);
  if (!campaign_json.empty()) o.put("campaign", campaign_json);
  if (threads > 0) o.put("threads", threads);
  if (millis > 0) o.put("millis", millis);
  return o.dump();
}

ServiceResponse parse_response_json(const std::string& text) {
  const JsonValue v = JsonValue::parse(text);
  ServiceResponse r;
  if (const JsonValue* f = v.find("id")) r.id = static_cast<std::uint64_t>(f->as_int());
  r.status = v.at("status").as_string();
  if (const JsonValue* f = v.find("payload")) r.payload = f->as_string();
  if (const JsonValue* f = v.find("message")) r.message = f->as_string();
  if (const JsonValue* f = v.find("retry_after_ms")) {
    r.retry_after_ms = static_cast<std::uint64_t>(f->as_int());
  }
  return r;
}

ServiceClient::ServiceClient(const std::string& host, int port, int timeout_ms) {
  transport_ = tcp_connect(host, port, timeout_ms);
  FNE_REQUIRE(transport_ != nullptr,
              "service client: cannot connect to " + host + ":" + std::to_string(port));
}

ServiceResponse ServiceClient::campaign(const std::string& campaign_json, int threads,
                                        int timeout_ms) {
  const std::uint64_t id = next_id_++;
  return roundtrip(make_request_json(id, "campaign", campaign_json, threads, 0), id, timeout_ms);
}

ServiceResponse ServiceClient::stats(int timeout_ms) {
  const std::uint64_t id = next_id_++;
  return roundtrip(make_request_json(id, "stats", "", 0, 0), id, timeout_ms);
}

ServiceResponse ServiceClient::ping(int timeout_ms) {
  const std::uint64_t id = next_id_++;
  return roundtrip(make_request_json(id, "ping", "", 0, 0), id, timeout_ms);
}

ServiceResponse ServiceClient::sleep_for(std::uint64_t millis, int timeout_ms) {
  const std::uint64_t id = next_id_++;
  return roundtrip(make_request_json(id, "sleep", "", 0, millis), id, timeout_ms);
}

std::uint64_t ServiceClient::send_only(const std::string& type, const std::string& campaign_json,
                                       std::uint64_t millis) {
  const std::uint64_t id = next_id_++;
  const std::string req = make_request_json(id, type, campaign_json, 0, millis);
  FNE_REQUIRE(transport_->send(encode_frame(Message{MsgType::kRequest, req})),
              "service client: send failed (connection dead)");
  return id;
}

ServiceResponse ServiceClient::await(std::uint64_t id, int timeout_ms) {
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  Message msg;
  while (true) {
    FNE_REQUIRE(Clock::now() < deadline, "service client: response timeout");
    const ReadStatus st = read_message(*transport_, frames_, msg, 50);
    if (st == ReadStatus::kTimeout) continue;
    FNE_REQUIRE(st == ReadStatus::kMessage,
                "service client: connection lost awaiting response");
    if (msg.type != MsgType::kResponse) continue;
    const ServiceResponse r = parse_response_json(msg.payload);
    // id 0 is the service's unattributed reject (oversized requests are
    // refused unparsed) — deliver it to whoever is waiting.
    if (r.id == id || r.id == 0) return r;
  }
}

void ServiceClient::disconnect() { transport_->shutdown(); }

ServiceResponse ServiceClient::roundtrip(const std::string& request_json, std::uint64_t id,
                                         int timeout_ms) {
  FNE_REQUIRE(transport_->send(encode_frame(Message{MsgType::kRequest, request_json})),
              "service client: send failed (connection dead)");
  return await(id, timeout_ms);
}

}  // namespace fne
