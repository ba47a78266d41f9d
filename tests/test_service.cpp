// Scenario-service contracts (DESIGN.md §13): cooperative cancellation
// through ExecutorPool and CampaignRunner, the FNEM/JSON request
// protocol end to end, payload identity with local execution (the
// property the whole daemon rests on), admission control (queue depth,
// deadline, oversized) with retry-after backpressure, abandonment on
// client disconnect, reaping of ended sessions, and clean shutdown with
// work in flight.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/campaign.hpp"
#include "api/executor.hpp"
#include "service/service.hpp"
#include "util/json.hpp"

namespace fne {
namespace {

constexpr const char* kTinyCampaign = R"({
  "name": "svc-tiny",
  "scenarios": [
    {"name": "m10", "topology": {"name": "mesh", "params": {"side": 10, "dims": 2}},
     "fault": {"name": "random", "params": {"p": 0.1}},
     "prune": {"kind": "node", "alpha": 0.25}, "repetitions": 2}
  ]})";

// ---------------------------------------------------------------------------
// Cancellation (ExecutorPool / CampaignRunner)
// ---------------------------------------------------------------------------

TEST(CancelToken, CopiesShareOneFlag) {
  CancelToken a;
  const CancelToken b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_FALSE(b.cancelled());
  a.cancel();
  EXPECT_TRUE(b.cancelled());
}

TEST(ExecutorPoolCancel, PreCancelledTokenSkipsEverythingAndThrows) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    CancelToken token;
    token.cancel();
    std::atomic<int> ran{0};
    EXPECT_THROW(
        ExecutorPool::run(8, threads, [&](std::size_t) { ran.fetch_add(1); }, &token),
        CancelledError);
    EXPECT_EQ(ran.load(), 0);
  }
}

TEST(ExecutorPoolCancel, MidRunCancelStopsClaimingButFinishesInFlight) {
  CancelToken token;
  std::atomic<int> ran{0};
  try {
    ExecutorPool::run(
        100, 2,
        [&](std::size_t) {
          if (ran.fetch_add(1) == 3) token.cancel();
        },
        &token);
    FAIL() << "a mid-run cancel must throw CancelledError";
  } catch (const CancelledError&) {
  }
  EXPECT_GE(ran.load(), 4);
  EXPECT_LT(ran.load(), 100) << "workers must stop claiming after the cancel";
}

TEST(ExecutorPoolCancel, NullTokenAndLateCancelAreNoOps) {
  std::atomic<int> ran{0};
  ExecutorPool::run(10, 2, [&](std::size_t) { ran.fetch_add(1); }, nullptr);
  EXPECT_EQ(ran.load(), 10);
  CancelToken token;
  ran = 0;
  ExecutorPool::run(10, 2, [&](std::size_t) { ran.fetch_add(1); }, &token);
  token.cancel();  // after completion: nothing to skip, nothing thrown
  EXPECT_EQ(ran.load(), 10);
}

TEST(ExecutorPoolCancel, JobErrorsWinOverCancellation) {
  CancelToken token;
  try {
    ExecutorPool::run(
        50, 2,
        [&](std::size_t i) {
          if (i == 0) {
            token.cancel();
            throw PreconditionError("job 0 failed");
          }
        },
        &token);
    FAIL() << "must throw";
  } catch (const ExecutorError& e) {
    EXPECT_EQ(e.failed_jobs(), 1u);
  }
}

TEST(CampaignRunnerCancel, CancelledRunThrowsCancelledError) {
  CancelToken token;
  token.cancel();
  CampaignRunner runner(campaign_from_json(kTinyCampaign));
  EXPECT_THROW((void)runner.run(1, nullptr, &token), CancelledError);
}

// ---------------------------------------------------------------------------
// Service end to end
// ---------------------------------------------------------------------------

TEST(ScenarioService, PingStatsAndCampaignPayloadMatchesLocal) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.exec_threads = 2;
  ScenarioService service(opts);
  service.start();

  ServiceClient client("127.0.0.1", service.port());
  EXPECT_TRUE(client.ping().ok());

  CampaignRunner local(campaign_from_json(kTinyCampaign));
  const std::string expected = local.run(1).to_json(/*include_timing=*/false);
  const ServiceResponse resp = client.campaign(kTinyCampaign);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.payload, expected)
      << "service payload must be byte-identical to a local run";

  const ServiceResponse stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.payload.find("\"service_stats\""), std::string::npos);
  EXPECT_NE(stats.payload.find("\"cache\""), std::string::npos);

  service.stop();
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.completed, 3u);  // ping + campaign + stats
  EXPECT_EQ(st.errors, 0u);
}

TEST(ScenarioService, ConcurrentClientsGetIdenticalPayloads) {
  ServiceOptions opts;
  opts.workers = 4;
  opts.exec_threads = 2;
  opts.queue_depth = 16;
  ScenarioService service(opts);
  service.start();

  CampaignRunner local(campaign_from_json(kTinyCampaign));
  const std::string expected = local.run(1).to_json(false);

  constexpr int kClients = 4;
  std::vector<std::string> payloads(kClients);
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        ServiceClient client("127.0.0.1", service.port());
        const ServiceResponse resp = client.campaign(kTinyCampaign);
        if (resp.ok()) {
          payloads[c] = resp.payload;
        } else {
          failures[c] = resp.status + ": " + resp.message;
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  service.stop();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
    EXPECT_EQ(payloads[c], expected) << "client " << c;
  }
}

TEST(ScenarioService, MalformedAndUnknownRequestsReportErrors) {
  ScenarioService service(ServiceOptions{});
  service.start();
  ServiceClient client("127.0.0.1", service.port());
  const std::uint64_t id = client.send_only("nonsense", "", 0);
  const ServiceResponse resp = client.await(id);
  EXPECT_EQ(resp.status, "error");
  EXPECT_NE(resp.message.find("unknown request type"), std::string::npos);

  const ServiceResponse bad = client.campaign("this is not json");
  EXPECT_EQ(bad.status, "error");
  service.stop();
}

TEST(ScenarioService, OutOfRangeRequestFieldsAreBadRequests) {
  ScenarioService service(ServiceOptions{});
  service.start();
  // Raw frames: ServiceClient cannot spell these values.
  std::unique_ptr<Transport> transport = tcp_connect("127.0.0.1", service.port(), 1000);
  ASSERT_TRUE(transport != nullptr);
  FrameBuffer frames;
  const auto roundtrip = [&](const std::string& request) -> std::optional<ServiceResponse> {
    if (!transport->send(encode_frame(Message{MsgType::kRequest, request}))) return std::nullopt;
    Message msg;
    for (int i = 0; i < 200; ++i) {
      const ReadStatus st = read_message(*transport, frames, msg, 50);
      if (st == ReadStatus::kTimeout) continue;
      if (st != ReadStatus::kMessage) return std::nullopt;
      return parse_response_json(msg.payload);
    }
    return std::nullopt;
  };
  const std::vector<std::string> bad = {
      R"({"id": 7, "type": "campaign", "campaign": "{}", "threads": 4294967298})",
      R"({"id": 7, "type": "campaign", "campaign": "{}", "threads": -2})",
      R"({"id": 7, "type": "sleep", "millis": -1})",
      R"({"id": 7, "type": "sleep", "millis": 1e15})",
      R"({"id": -1, "type": "ping"})"};
  for (const std::string& request : bad) {
    const auto resp = roundtrip(request);
    ASSERT_TRUE(resp.has_value()) << request;
    EXPECT_EQ(resp->status, "error") << request;
    EXPECT_NE(resp->message.find("bad request: "), std::string::npos) << resp->message;
    EXPECT_NE(resp->message.find("out of range"), std::string::npos) << resp->message;
  }
  // The connection stayed open: a good request on it is served.
  const auto ok = roundtrip(R"({"id": 8, "type": "ping"})");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, "ok");
  EXPECT_EQ(ok->id, 8u);
  service.stop();
  EXPECT_EQ(service.stats().errors, bad.size());
}

TEST(ScenarioService, EndedSessionsAreReaped) {
  ScenarioService service(ServiceOptions{});
  service.start();
  constexpr int kClients = 200;
  for (int i = 0; i < kClients; ++i) {
    ServiceClient client("127.0.0.1", service.port());
    ASSERT_TRUE(client.ping().ok());
  }  // each client closes its connection here
  // A reader is joined within an accept poll of its connection's end, so
  // the service soon holds only what is open (nothing) — not one thread
  // per connection it ever had.
  const auto t0 = std::chrono::steady_clock::now();
  while (service.session_count() > 2 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(service.session_count(), 2u);
  ServiceClient probe("127.0.0.1", service.port());
  const ServiceResponse stats = probe.stats();
  ASSERT_TRUE(stats.ok());
  const JsonValue payload = JsonValue::parse(stats.payload);
  EXPECT_LE(payload.at("sessions").as_int(), 3);  // the probe's own session, at least
  EXPECT_GE(payload.at("sessions").as_int(), 1);
  service.stop();
  EXPECT_EQ(service.stats().connections, static_cast<std::uint64_t>(kClients) + 1);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(ScenarioServiceAdmission, QueueFullRejectsWithRetryAfter) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_depth = 1;
  opts.retry_after_ms = 77;
  ScenarioService service(opts);
  service.start();

  ServiceClient blocker("127.0.0.1", service.port());
  const std::uint64_t sleeper = blocker.send_only("sleep", "", 2000);
  // Wait until the worker picked the sleeper up (queue drains to 0).
  while (service.queue_size() > 0 || service.stats().requests < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::uint64_t queued = blocker.send_only("sleep", "", 2000);  // fills the queue
  while (service.queue_size() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  ServiceClient overflow("127.0.0.1", service.port());
  const ServiceResponse resp = overflow.sleep_for(2000, 5000);
  EXPECT_TRUE(resp.rejected()) << resp.status << " " << resp.message;
  EXPECT_EQ(resp.retry_after_ms, 77u);
  EXPECT_NE(resp.message.find("queue full"), std::string::npos);
  EXPECT_EQ(service.stats().rejected_queue_full, 1u);

  service.stop();  // cancels the sleepers; everything drains
  (void)sleeper;
  (void)queued;
}

TEST(ScenarioServiceAdmission, OversizedRequestRejectedUnparsed) {
  ServiceOptions opts;
  opts.max_request_bytes = 256;
  ScenarioService service(opts);
  service.start();
  ServiceClient client("127.0.0.1", service.port());
  const ServiceResponse resp = client.campaign(std::string(1024, 'x'));
  EXPECT_TRUE(resp.rejected());
  EXPECT_NE(resp.message.find("max_request_bytes"), std::string::npos);
  EXPECT_EQ(service.stats().rejected_oversized, 1u);
  // The connection survives a reject: a well-sized request still works.
  EXPECT_TRUE(client.ping().ok());
  service.stop();
}

TEST(ScenarioServiceAdmission, StaleQueuedRequestsExpire) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_depth = 4;
  opts.queue_deadline_ms = 50;
  ScenarioService service(opts);
  service.start();
  ServiceClient client("127.0.0.1", service.port());
  const std::uint64_t blocker = client.send_only("sleep", "", 400);
  const std::uint64_t stale = client.send_only("sleep", "", 1);  // waits > 50ms behind it
  // Await in completion order: the blocker responds first, then the
  // stale request's reject (await discards non-matching responses).
  EXPECT_TRUE(client.await(blocker, 5000).ok());
  const ServiceResponse resp = client.await(stale, 5000);
  EXPECT_TRUE(resp.rejected()) << resp.status << " " << resp.message;
  EXPECT_NE(resp.message.find("deadline"), std::string::npos);
  EXPECT_EQ(service.stats().rejected_expired, 1u);
  service.stop();
}

// ---------------------------------------------------------------------------
// Abandonment and shutdown
// ---------------------------------------------------------------------------

TEST(ScenarioServiceAbandon, DisconnectCancelsQueuedWork) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_depth = 8;
  ScenarioService service(opts);
  service.start();
  {
    ServiceClient client("127.0.0.1", service.port());
    (void)client.send_only("sleep", "", 30000);
    (void)client.send_only("sleep", "", 30000);
    while (service.stats().requests < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    client.disconnect();
  }
  // The 30s sleeps must resolve as cancelled far faster than they would
  // complete; stop() would hang otherwise.
  const auto t0 = std::chrono::steady_clock::now();
  while (service.stats().cancelled < 2) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10))
        << "disconnect did not cancel the queued sleeps";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  service.stop();
  EXPECT_EQ(service.stats().completed, 0u);
}

TEST(ScenarioServiceShutdown, StopCancelsInFlightWorkAndJoins) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.queue_depth = 8;
  ScenarioService service(opts);
  service.start();
  ServiceClient client("127.0.0.1", service.port());
  for (int i = 0; i < 4; ++i) (void)client.send_only("sleep", "", 30000);
  while (service.stats().requests < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto t0 = std::chrono::steady_clock::now();
  service.stop();  // must not wait for the 30s sleeps
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  EXPECT_EQ(service.stats().cancelled, 4u);
}

TEST(ScenarioServiceShutdown, StopWithoutStartAndDoubleStopAreSafe) {
  {
    ScenarioService service(ServiceOptions{});
    service.stop();
    service.stop();
  }
  {
    ScenarioService service(ServiceOptions{});
    service.start();
    service.stop();
    service.stop();
  }  // destructor stops again
}

}  // namespace
}  // namespace fne
