// Distributed campaign execution contracts (DESIGN.md §12).  The core
// claim under test: for ANY worker count, ANY seeded fault schedule, and
// ANY kill pattern, the coordinator's deterministic payload
// (CampaignReport::to_json(false)) is byte-identical to a local
// single-process CampaignRunner — faults move work around, they never
// change results.  Plus the robustness mechanics one by one: zero-worker
// degradation, fingerprint handshake, duplicate completions, the
// back-of-list pick order, a held PULL, wrong-key rejection, garbage connections
// and the reaping of their session threads, a
// registered worker that never pulls, a worker whose coordinator is
// gone or was never a coordinator, zombie workers whose job a local
// thread backs up, and store commits from a distributed run replaying
// warm.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/campaign.hpp"
#include "api/metrics.hpp"
#include "dist/coordinator.hpp"
#include "dist/message.hpp"
#include "dist/transport.hpp"
#include "dist/worker.hpp"
#include "service/service.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"
#include "util/timer.hpp"

namespace fne {
namespace {

namespace fs = std::filesystem;

/// Small campaign exercising every job kind: independent reps with a
/// SPLIT metric (kMetric jobs), a monotone chain (one serial cell), and
/// independent sweep points.  2 cells + 2 metrics + 1 chain + 2 points
/// = 7 jobs.
[[nodiscard]] Campaign dist_campaign() {
  Campaign campaign;
  campaign.name = "dist-chaos";
  {
    Scenario s;
    s.name = "reps-split";
    s.topology = {"mesh", Params{{"side", "10"}, {"dims", "2"}}};
    s.fault = {"random", Params{{"p", "0.2"}}};
    s.prune.kind = ExpansionKind::Edge;
    s.prune.fast = true;
    s.repetitions = 2;
    s.seed = 91;
    s.metrics.requests.push_back({"expansion_bracket", Params{}});
    campaign.entries.push_back({s, std::nullopt});
  }
  {
    Scenario s;
    s.name = "chain";
    s.topology = {"mesh", Params{{"side", "12"}, {"dims", "2"}}};
    s.fault = {"random", Params{{"p", "0.1"}}};
    s.prune.kind = ExpansionKind::Edge;
    s.prune.alpha = 0.125;
    s.seed = 92;
    campaign.entries.push_back({s, SweepSpec{"p", {0.1, 0.25, 0.4}, SweepMode::kMonotone}});
  }
  {
    Scenario s;
    s.name = "points";
    s.topology = {"hypercube", Params{{"dims", "5"}}};
    s.fault = {"high_degree", Params{{"frac", "0.1"}}};
    s.prune.kind = ExpansionKind::Node;
    s.seed = 93;
    campaign.entries.push_back({s, SweepSpec{"frac", {0.05, 0.2}, SweepMode::kIndependent}});
  }
  return campaign;
}

/// A one-entry campaign for the cheap tier-1 tests.
[[nodiscard]] Campaign tiny_campaign() {
  Campaign campaign;
  campaign.name = "dist-tiny";
  Scenario s;
  s.name = "tiny";
  s.topology = {"mesh", Params{{"side", "8"}, {"dims", "2"}}};
  s.fault = {"random", Params{{"p", "0.2"}}};
  s.prune.kind = ExpansionKind::Edge;
  s.prune.fast = true;
  s.repetitions = 2;
  s.seed = 17;
  campaign.entries.push_back({s, std::nullopt});
  return campaign;
}

/// `campaign` behind one heavy cell (about 0.1 s in a Release build).
/// Entries are planned in order, so the heavy cell is job 0: a
/// coordinator with one local thread, which sweeps from the front, is
/// busy on it while workers and raw clients connect and pull from the
/// back.  Local threads take pending work from t = 0, so this is the
/// window a test gives its workers.
[[nodiscard]] Campaign with_heavy_head(Campaign campaign) {
  Scenario s;
  s.name = "heavy-head";
  s.topology = {"mesh", Params{{"side", "64"}, {"dims", "2"}}};
  s.fault = {"random", Params{{"p", "0.3"}}};
  s.prune.kind = ExpansionKind::Node;
  s.seed = 5;
  campaign.entries.insert(campaign.entries.begin(), {s, std::nullopt});
  return campaign;
}

/// Coordinator knobs for tests: one local thread (see with_heavy_head).
[[nodiscard]] DistOptions test_options() {
  DistOptions opts;
  opts.local_threads = 1;
  return opts;
}

[[nodiscard]] WorkerOptions test_worker(int port, const std::string& name) {
  WorkerOptions w;
  w.port = port;
  w.name = name;
  w.connect_attempts = 100;
  return w;
}

struct DistRun {
  std::string payload;
  DistStats stats;
  std::vector<WorkerReport> workers;
};

/// Run `campaign` through a coordinator plus in-process workers; returns
/// the deterministic payload and the robustness telemetry.
[[nodiscard]] DistRun run_dist(const Campaign& campaign, std::vector<WorkerOptions> workers,
                               DistOptions opts = test_options(), ResultStore* store = nullptr) {
  DistCoordinator coordinator(campaign, opts, store);
  std::vector<std::unique_ptr<DistWorker>> pool;
  std::vector<std::thread> threads;
  std::vector<WorkerReport> reports(workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    workers[i].port = coordinator.port();
    pool.push_back(std::make_unique<DistWorker>(campaign, workers[i]));
    threads.emplace_back(
        [w = pool.back().get(), &report = reports[i]] { report = w->run(); });
  }
  const CampaignReport report = coordinator.run();
  for (const auto& w : pool) w->stop();
  for (std::thread& th : threads) th.join();
  return {report.to_json(/*include_timing=*/false), coordinator.stats(), std::move(reports)};
}

/// Joins a thread on every exit path: a failed ASSERT_* returns from the
/// test while the thread may still be joinable, and destroying a
/// joinable std::thread calls std::terminate.
struct JoinOnExit {
  std::thread& thread;
  ~JoinOnExit() {
    if (thread.joinable()) thread.join();
  }
};

[[nodiscard]] std::string local_payload(const Campaign& campaign) {
  CampaignRunner runner(campaign);
  return runner.run(1).to_json(/*include_timing=*/false);
}

// ---------------------------------------------------------------------------
// Tier-1: degradation, handshake, hostile clients
// ---------------------------------------------------------------------------

TEST(Dist, ZeroWorkersDegradesToExactlyTheLocalRun) {
  const Campaign campaign = tiny_campaign();
  const std::string reference = local_payload(campaign);
  DistOptions opts = test_options();
  opts.local_threads = 2;
  const DistRun run = run_dist(campaign, {}, opts);
  EXPECT_EQ(run.payload, reference);
  EXPECT_EQ(run.stats.sessions, 0u);
  EXPECT_EQ(run.stats.remote_cells + run.stats.remote_metrics, 0u);
  EXPECT_GT(run.stats.local_cells, 0u);
}

TEST(Dist, SingleWorkerMatchesTheLocalReference) {
  const Campaign campaign = with_heavy_head(tiny_campaign());
  const std::string reference = local_payload(campaign);
  DistRun run = run_dist(campaign, {test_worker(0, "w0")});
  EXPECT_EQ(run.payload, reference);
  EXPECT_EQ(run.stats.sessions, 1u);
  ASSERT_EQ(run.workers.size(), 1u);
  EXPECT_TRUE(run.workers[0].ever_connected);
}

TEST(Dist, WorkerServingADifferentCampaignIsRefused) {
  const Campaign campaign = with_heavy_head(tiny_campaign());
  Campaign other = campaign;
  other.entries[1].scenario.seed = 9999;  // different plan, different fingerprint

  DistOptions opts = test_options();
  DistCoordinator coordinator(campaign, opts);
  DistWorker imposter(other, test_worker(coordinator.port(), "imposter"));
  WorkerReport imposter_report;
  std::thread worker_thread([&] { imposter_report = imposter.run(); });
  const CampaignReport report = coordinator.run();
  imposter.stop();
  worker_thread.join();

  EXPECT_TRUE(imposter_report.fatal_mismatch);
  EXPECT_EQ(imposter_report.cells + imposter_report.metrics, 0u);
  // The refused worker never registered; the campaign completed locally.
  EXPECT_EQ(report.to_json(false), local_payload(campaign));
  EXPECT_EQ(coordinator.stats().remote_cells, 0u);
}

TEST(Dist, GarbageConnectionIsDroppedAndTheRunCompletes) {
  const Campaign campaign = with_heavy_head(tiny_campaign());
  const std::string reference = local_payload(campaign);
  DistOptions opts = test_options();
  DistCoordinator coordinator(campaign, opts);

  std::thread noise([&] {
    std::unique_ptr<Transport> t = tcp_connect("127.0.0.1", coordinator.port(), 1000);
    ASSERT_TRUE(t != nullptr);
    (void)t->send("this is not an FNEM frame at all........");
    char sink[256];
    while (t->recv(sink, sizeof(sink), 50) > 0) {
    }
  });
  const CampaignReport report = coordinator.run();
  noise.join();
  EXPECT_EQ(report.to_json(false), reference);
  EXPECT_GE(coordinator.stats().rejected_corrupt, 1u);
}

/// A test-only metric whose cell blocks until g_gate_open: the local
/// thread that computes it keeps the coordinator's run open, with no
/// clock, for as long as a test needs.
std::atomic<bool> g_gate_open{false};

void register_gate_metric() {
  MetricsRegistry& registry = MetricsRegistry::instance();
  if (registry.contains("test_dist_gate")) return;
  registry.add({"test_dist_gate",
                "test only: blocks its cell until g_gate_open",
                {},
                [](const MetricContext&, const Params&) {
                  while (!g_gate_open.load()) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                  }
                  return MetricRecord{"test_dist_gate", "{}", "gate"};
                },
                {}});
}

TEST(Dist, EndedSessionsAreReapedDuringTheRun) {
  register_gate_metric();
  g_gate_open = false;
  Campaign campaign = tiny_campaign();
  campaign.entries[0].scenario.metrics.requests.push_back({"test_dist_gate", Params{}});
  DistCoordinator coordinator(campaign, test_options());
  std::thread driver([&] { (void)coordinator.run(); });
  const JoinOnExit join_driver{driver};
  struct OpenGateOnExit {
    ~OpenGateOnExit() { g_gate_open = true; }
  } open_gate;  // destroyed first: the run can end before it is joined

  constexpr int kClients = 200;
  for (int i = 0; i < kClients; ++i) {
    std::unique_ptr<Transport> t = tcp_connect("127.0.0.1", coordinator.port(), 1000);
    ASSERT_TRUE(t != nullptr);
    (void)t->send("this is not an FNEM frame at all........");
    char sink[256];
    while (t->recv(sink, sizeof(sink), 50) > 0) {
    }
  }  // each session drops its garbage connection and ends
  // The acceptor joins an ended session within an accept poll, so the
  // run soon holds no thread for the connections it no longer has.
  const Timer clock;
  while (coordinator.session_count() > 2 && clock.millis() < 10000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(coordinator.session_count(), 2u);
  EXPECT_EQ(coordinator.stats().rejected_corrupt, static_cast<std::uint64_t>(kClients));
}

// A hand-rolled protocol client: the tests' way of sending exactly the
// bytes a buggy or malicious worker would.
struct RawClient {
  std::unique_ptr<Transport> transport;
  FrameBuffer buf;

  [[nodiscard]] bool send(MsgType type, std::string payload) {
    return transport->send(encode_frame({type, std::move(payload)}));
  }
  [[nodiscard]] std::optional<Message> read(double deadline_ms = 5000) {
    Message msg;
    const Timer clock;
    while (clock.millis() < deadline_ms) {
      switch (read_message(*transport, buf, msg, 25)) {
        case ReadStatus::kMessage:
          return msg;
        case ReadStatus::kTimeout:
          continue;
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;
  }
};

[[nodiscard]] bool handshake(RawClient& client, std::uint64_t fingerprint) {
  if (!client.send(MsgType::kHello, encode_hello({fingerprint, "raw"}))) return false;
  const auto welcome = client.read();
  return welcome && welcome->type == MsgType::kWelcome;
}

/// HELLO, then one PULL: the coordinator holds it until a job is ready.
[[nodiscard]] std::optional<JobPayload> handshake_and_pull(RawClient& client,
                                                           std::uint64_t fingerprint) {
  if (!handshake(client, fingerprint) || !client.send(MsgType::kPull, "")) return std::nullopt;
  const auto reply = client.read();
  if (!reply || reply->type != MsgType::kJob) return std::nullopt;
  return decode_job(reply->payload);
}

TEST(Dist, DuplicateCompletionsResolveFirstWriteWins) {
  const Campaign campaign = with_heavy_head(tiny_campaign());
  const std::string reference = local_payload(campaign);
  CampaignPlan plan(campaign, 1);
  // The honest bytes of the LAST job, computed once and submitted twice
  // without a PULL, as a worker racing a local backup still delivers them.
  // The local thread takes jobs in index order, so it reaches the last
  // one only after the heavy job 0, long after both copies arrived.  (A
  // pulled job could be job 0 itself; the local thread would then end
  // the run before the second copy is read.)
  const std::size_t last = plan.num_jobs() - 1;
  const CampaignJob& job = plan.job(last);
  ASSERT_NE(job.kind, CampaignJob::Kind::kMetric);
  const ResultPayload result{last, static_cast<std::uint32_t>(job.kind), job.key,
                             encode_runs(plan.compute_cell(last))};

  DistCoordinator coordinator(campaign, test_options());
  DistStats stats;
  std::string payload;
  std::thread driver([&] {
    const CampaignReport report = coordinator.run();
    payload = report.to_json(false);
    stats = coordinator.stats();
  });
  const JoinOnExit join_driver{driver};

  {
    RawClient client{tcp_connect("127.0.0.1", coordinator.port(), 1000), {}};
    ASSERT_TRUE(client.transport != nullptr);
    ASSERT_TRUE(handshake(client, wire_fingerprint(plan.fingerprint())));
    ASSERT_TRUE(client.send(MsgType::kResult, encode_result(result)));
    ASSERT_TRUE(client.send(MsgType::kResult, encode_result(result)));
    // Wait until the campaign finishes (the coordinator's local thread
    // computes every other job).
    while (true) {
      const auto msg = client.read(10000);
      if (!msg || msg->type == MsgType::kDone) break;
    }
  }
  driver.join();
  EXPECT_EQ(payload, reference);
  EXPECT_GE(stats.duplicates, 1u) << "the second submission must be counted, not merged";
  EXPECT_EQ(stats.remote_cells, 1u);
  // The local loop skipped the job the client merged instead of
  // recomputing it.
  EXPECT_EQ(stats.local_cells, plan.num_cells() - 1);
}

TEST(Dist, PullTakesTheLastReadyJobAndMetricsWaitForTheirParent) {
  // Jobs: 0 heavy, then (cell, metric) per rep; the last job is a metric.
  Campaign campaign = tiny_campaign();
  campaign.entries[0].scenario.metrics.requests.push_back({"expansion_bracket", Params{}});
  campaign = with_heavy_head(campaign);
  const std::string reference = local_payload(campaign);
  CampaignPlan plan(campaign, 1);
  const std::size_t last = plan.num_jobs() - 1;
  ASSERT_EQ(plan.job(last).kind, CampaignJob::Kind::kMetric);
  const std::size_t parent = plan.job(last).parent;
  ASSERT_EQ(parent, last - 1);
  const ResultPayload cell{parent, static_cast<std::uint32_t>(plan.job(parent).kind),
                           plan.job(parent).key, encode_runs(plan.compute_cell(parent))};

  DistCoordinator coordinator(campaign, test_options());
  DistStats stats;
  std::string payload;
  std::thread driver([&] {
    const CampaignReport report = coordinator.run();
    payload = report.to_json(false);
    stats = coordinator.stats();
  });
  const JoinOnExit join_driver{driver};

  {
    RawClient client{tcp_connect("127.0.0.1", coordinator.port(), 1000), {}};
    ASSERT_TRUE(client.transport != nullptr);
    // The local thread is on the heavy job 0.  The last job is a metric
    // whose parent has not merged, so the last READY job is that parent.
    const auto first = handshake_and_pull(client, wire_fingerprint(plan.fingerprint()));
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->index, parent);
    // Once the parent merged, its metric job is the last ready one and
    // comes with the parent's run.
    ASSERT_TRUE(client.send(MsgType::kResult, encode_result(cell)));
    ASSERT_TRUE(client.send(MsgType::kPull, ""));
    const auto reply = client.read();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kJob);
    const auto second = decode_job(reply->payload);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->index, last);
    const auto parent_runs = decode_runs(second->parent_runs);
    ASSERT_TRUE(parent_runs.has_value());
    EXPECT_EQ(parent_runs->size(), 1u);
  }  // the disconnect releases the metric job to the local thread
  driver.join();
  EXPECT_EQ(payload, reference);
  EXPECT_EQ(stats.remote_cells, 1u);
  EXPECT_EQ(stats.remote_metrics, 0u);
}

TEST(Dist, APullWithNothingReadyIsHeldUntilAJobIs) {
  // Jobs: 0 the heavy cell, 1 its metric.  Client a holds job 0, so b's
  // PULL finds nothing ready (the metric waits for its parent) and gets
  // no reply until a's result for job 0 merges; then b gets the metric
  // job, and DONE when the local thread's backup of it ends the run.
  Campaign campaign;
  campaign.name = "dist-held-pull";
  campaign = with_heavy_head(campaign);
  Scenario& heavy = campaign.entries[0].scenario;
  heavy.topology.params = Params{{"side", "80"}, {"dims", "2"}};  // a wider window
  heavy.metrics.requests.push_back({"expansion_bracket", Params{}});
  const std::string reference = local_payload(campaign);
  CampaignPlan plan(campaign, 1);
  ASSERT_EQ(plan.num_jobs(), 2u);
  ASSERT_EQ(plan.job(1).kind, CampaignJob::Kind::kMetric);
  const ResultPayload cell{0, static_cast<std::uint32_t>(plan.job(0).kind), plan.job(0).key,
                           encode_runs(plan.compute_cell(0))};
  const std::uint64_t fingerprint = wire_fingerprint(plan.fingerprint());

  DistCoordinator coordinator(campaign, test_options());
  DistStats stats;
  std::string payload;
  std::thread driver([&] {
    const CampaignReport report = coordinator.run();
    payload = report.to_json(false);
    stats = coordinator.stats();
  });
  const JoinOnExit join_driver{driver};

  {
    RawClient a{tcp_connect("127.0.0.1", coordinator.port(), 1000), {}};
    RawClient b{tcp_connect("127.0.0.1", coordinator.port(), 1000), {}};
    ASSERT_TRUE(a.transport != nullptr && b.transport != nullptr);
    const auto first = handshake_and_pull(a, fingerprint);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->index, 0u);
    ASSERT_TRUE(handshake(b, fingerprint));
    ASSERT_TRUE(b.send(MsgType::kPull, ""));
    EXPECT_FALSE(b.read(30).has_value()) << "with nothing ready a PULL is held, not answered";
    ASSERT_TRUE(a.send(MsgType::kResult, encode_result(cell)));
    const auto reply = b.read();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kJob);
    const auto second = decode_job(reply->payload);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->index, 1u);
    const auto done = b.read(10000);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->type, MsgType::kDone);
  }
  driver.join();
  EXPECT_EQ(payload, reference);
  EXPECT_EQ(stats.remote_cells, 1u);
  EXPECT_EQ(stats.backups, 1u) << "b's metric job is finished by the local thread";
}

TEST(Dist, WrongKeyResultsAreRejectedAndRecomputed) {
  const Campaign campaign = with_heavy_head(tiny_campaign());
  const std::string reference = local_payload(campaign);
  CampaignPlan plan(campaign, 1);

  DistCoordinator coordinator(campaign, test_options());
  DistStats stats;
  std::string payload;
  std::thread driver([&] {
    const CampaignReport report = coordinator.run();
    payload = report.to_json(false);
    stats = coordinator.stats();
  });
  const JoinOnExit join_driver{driver};

  {
    RawClient client{tcp_connect("127.0.0.1", coordinator.port(), 1000), {}};
    ASSERT_TRUE(client.transport != nullptr);
    const auto job = handshake_and_pull(client, wire_fingerprint(plan.fingerprint()));
    ASSERT_TRUE(job.has_value());
    // Wrong key: checksummed, decodable, and a lie.
    ResultPayload bogus{job->index, job->kind, "not|the|key", std::string("xx")};
    ASSERT_TRUE(client.send(MsgType::kResult, encode_result(bogus)));
    // Undecodable cell data behind a correct key: also rejected.
    ResultPayload junk{job->index, job->kind, job->key, std::string("\x01\x02\x03", 3)};
    ASSERT_TRUE(client.send(MsgType::kResult, encode_result(junk)));
  }
  driver.join();
  EXPECT_EQ(payload, reference) << "rejected results must be recomputed, never merged";
  EXPECT_GE(stats.rejected_wrong_key, 1u);
  EXPECT_GE(stats.rejected_bad_payload, 1u);
  EXPECT_EQ(stats.remote_cells + stats.remote_metrics, 0u);
}

TEST(Dist, RegisteredWorkerThatNeverPullsDoesNotHoldUpLocalWork) {
  const Campaign campaign = with_heavy_head(tiny_campaign());
  Timer clock;
  const std::string reference = local_payload(campaign);
  const double local_ms = clock.millis();
  CampaignPlan plan(campaign, 1);
  std::uint64_t cells = 0;
  for (std::size_t i = 0; i < plan.num_jobs(); ++i) {
    if (plan.job(i).kind != CampaignJob::Kind::kMetric) ++cells;
  }

  DistCoordinator coordinator(campaign, test_options());

  // HELLO before run() starts, so the worker is registered from the
  // first moment; then silence with the socket held open.
  RawClient client{tcp_connect("127.0.0.1", coordinator.port(), 1000), {}};
  ASSERT_TRUE(client.transport != nullptr);
  ASSERT_TRUE(
      client.send(MsgType::kHello, encode_hello({wire_fingerprint(plan.fingerprint()), "mute"})));

  clock.reset();
  const CampaignReport report = coordinator.run();
  // Within 5 s of the local run (sanitizer builds make both slow).  A
  // scheduler that left open jobs to a registered worker would not end.
  EXPECT_LT(clock.millis() - local_ms, 5000.0);
  const DistStats stats = coordinator.stats();
  EXPECT_EQ(report.to_json(false), reference);
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_EQ(stats.local_cells, cells);
  EXPECT_EQ(stats.remote_cells + stats.remote_metrics, 0u);
}

/// Stops a worker and joins its thread on every exit path (see JoinOnExit).
struct StopOnExit {
  DistWorker& worker;
  std::thread& thread;
  ~StopOnExit() {
    worker.stop();
    if (thread.joinable()) thread.join();
  }
};

TEST(Dist, WorkerExitsPromptlyWhenAWelcomingCoordinatorIsGone) {
  // A stand-in coordinator WELCOMEs the worker, takes its PULL, then
  // closes the session and its listener, as a finished coordinator does
  // when its DONE frame is lost.
  const Campaign campaign = tiny_campaign();
  CampaignPlan plan(campaign, 1);
  auto listener = std::make_unique<TcpListener>("127.0.0.1", 0);
  DistWorker worker(campaign, test_worker(listener->port(), "orphan"));
  WorkerReport report;
  std::thread runner([&] { report = worker.run(); });
  const StopOnExit stop_worker{worker, runner};

  std::unique_ptr<Transport> session;
  for (int i = 0; i < 400 && session == nullptr; ++i) session = listener->accept(25);
  ASSERT_TRUE(session != nullptr);
  RawClient coordinator{std::move(session), {}};
  const auto hello = coordinator.read();
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->type, MsgType::kHello);
  const auto decoded = decode_hello(hello->payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->fingerprint, wire_fingerprint(plan.fingerprint()));
  ASSERT_TRUE(coordinator.send(MsgType::kWelcome, encode_welcome({true, ""})));
  const auto pull = coordinator.read();
  ASSERT_TRUE(pull.has_value());
  ASSERT_EQ(pull->type, MsgType::kPull);

  const Timer clock;
  coordinator.transport->shutdown();
  listener.reset();
  runner.join();
  EXPECT_LT(clock.millis(), 2000.0) << "one refused reconnect must end the worker";
  EXPECT_TRUE(report.ever_connected);
  EXPECT_FALSE(report.saw_done);
  EXPECT_EQ(report.reconnects, 1u);
}

TEST(Dist, WorkerPointedAtTheServiceStopsAfterItsConnectAttempts) {
  // The scenario service drops a HELLO unanswered; every such connection
  // counts against connect_attempts, although the TCP connect succeeded.
  ScenarioService service(ServiceOptions{});
  service.start();
  WorkerOptions opts = test_worker(service.port(), "lost");
  opts.connect_attempts = 3;
  DistWorker worker(tiny_campaign(), opts);
  std::atomic<bool> done{false};
  WorkerReport report;
  std::thread runner([&] {
    report = worker.run();
    done = true;
  });
  const StopOnExit stop_worker{worker, runner};
  const Timer clock;
  while (!done && clock.millis() < 10000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(done.load()) << "the worker must stop on its own";
  worker.stop();
  runner.join();
  EXPECT_FALSE(report.ever_connected);
  EXPECT_GE(service.stats().connections, 1u);
  EXPECT_LE(service.stats().connections, static_cast<std::uint64_t>(opts.connect_attempts) + 1);
  service.stop();
}

// ---------------------------------------------------------------------------
// Slow: chaos matrix, kills, store
// ---------------------------------------------------------------------------

/// The chaos matrix of ISSUE #8: seeded fault schedules × worker counts,
/// every combination byte-identical to the local reference.
TEST(DistChaosSlow, FaultScheduleMatrixIsByteIdenticalToLocal) {
  const Campaign campaign = with_heavy_head(dist_campaign());
  const std::string reference = local_payload(campaign);

  struct NamedSchedule {
    const char* name;
    FaultSchedule schedule;
  };
  std::vector<NamedSchedule> schedules;
  {
    FaultSchedule s;
    s.seed = 1001;
    s.drop = 0.25;
    schedules.push_back({"drop", s});
  }
  {
    FaultSchedule s;
    s.seed = 1002;
    s.corrupt = 0.25;
    schedules.push_back({"corrupt", s});
  }
  {
    FaultSchedule s;
    s.seed = 1003;
    s.disconnect = 0.2;
    schedules.push_back({"disconnect", s});
  }
  {
    FaultSchedule s;
    s.seed = 1004;
    s.delay = 0.4;
    s.delay_ms = 600;  // longer than the heavy job: local backups race the results
    schedules.push_back({"delay", s});
  }

  for (const NamedSchedule& named : schedules) {
    for (const int workers : {1, 2, 4}) {
      SCOPED_TRACE(std::string(named.name) + " x " + std::to_string(workers) + " workers");
      std::vector<WorkerOptions> pool;
      for (int i = 0; i < workers; ++i) {
        WorkerOptions w = test_worker(0, std::string(named.name) + "-" + std::to_string(i));
        w.faults = named.schedule;
        w.faults.seed += static_cast<std::uint64_t>(i) * 7919;  // decorrelate workers
        pool.push_back(w);
      }
      const DistRun run = run_dist(campaign, std::move(pool));
      EXPECT_EQ(run.payload, reference);
    }
  }
}

TEST(DistChaosSlow, TruncatedSendsNeverCorruptResults) {
  const Campaign campaign = with_heavy_head(dist_campaign());
  const std::string reference = local_payload(campaign);
  std::vector<WorkerOptions> pool;
  for (int i = 0; i < 2; ++i) {
    WorkerOptions w = test_worker(0, "trunc-" + std::to_string(i));
    w.faults.seed = 4242 + static_cast<std::uint64_t>(i);
    w.faults.truncate = 0.25;  // half-frames then silence: the torn-tail case
    pool.push_back(w);
  }
  const DistRun run = run_dist(campaign, std::move(pool));
  EXPECT_EQ(run.payload, reference);
}

TEST(DistChaosSlow, WorkerKilledMidRunDoesNotChangeThePayload) {
  const Campaign campaign = with_heavy_head(dist_campaign());
  const std::string reference = local_payload(campaign);
  // One worker dies abruptly after its first submission (no goodbye, the
  // in-process stand-in for SIGKILL); one healthy worker carries on.
  WorkerOptions victim = test_worker(0, "victim");
  victim.kill_after_results = 1;
  const DistRun run = run_dist(campaign, {victim, test_worker(0, "survivor")});
  EXPECT_EQ(run.payload, reference);
}

TEST(DistChaosSlow, ZombieWorkerIsBackedUpByALocalThread) {
  const Campaign campaign = with_heavy_head(dist_campaign());
  Timer clock;
  const std::string reference = local_payload(campaign);
  const double local_ms = clock.millis();
  // The zombie takes a job and goes silent WITHOUT closing its socket:
  // no EOF ever arrives, so its hold is never released and only a local
  // backup can finish the job.
  WorkerOptions zombie = test_worker(0, "zombie");
  zombie.kill_mid_job = true;
  clock.reset();
  const DistRun run = run_dist(campaign, {zombie});
  // Within 5 s of the local run (sanitizer builds make both slow): the
  // backup starts as soon as a local thread runs out of unheld jobs.
  EXPECT_LT(clock.millis() - local_ms, 5000.0);
  EXPECT_EQ(run.payload, reference);
  EXPECT_GE(run.stats.backups, 1u) << "the zombie's job must be backed up locally";
}

TEST(DistChaosSlow, DistributedRunCommitsCellsTheLocalRunReplaysWarm) {
  const Campaign campaign = with_heavy_head(dist_campaign());
  const std::string reference = local_payload(campaign);
  const fs::path dir = fs::path(::testing::TempDir()) / "fne_dist_store";
  fs::remove_all(dir);

  {
    ResultStore store(dir.string());
    const DistRun cold = run_dist(campaign, {test_worker(0, "w0"), test_worker(0, "w1")},
                                  test_options(), &store);
    EXPECT_EQ(cold.payload, reference);
  }
  {
    // Same store, plain local runner: every cell replays from disk.
    ResultStore store(dir.string());
    CampaignRunner runner(campaign);
    const CampaignReport warm = runner.run(2, &store);
    EXPECT_EQ(warm.to_json(false), reference);
    EXPECT_EQ(warm.store.misses, 0u) << "a distributed run must leave the store fully warm";
    EXPECT_EQ(warm.store.hits, warm.store.hits + warm.store.misses);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace fne
