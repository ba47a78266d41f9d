// DistWorker — the pull side of the distributed campaign runtime
// (DESIGN.md §12).
//
// A worker builds its OWN CampaignPlan of the same campaign (plan
// construction is pure, so job indices, keys and the fingerprint agree
// with the coordinator's by construction — and the HELLO handshake
// checks the fingerprint anyway), then loops: PULL, compute the assigned
// job through the plan's pure functions on this process's EngineCache,
// RESULT the bytes back.  A PULL is answered with the last ready job of
// the list while the coordinator's local threads sweep it from the
// front.  The worker computes silently: the coordinator keeps no lease
// on it, since a local thread that reaches a job a worker holds computes
// it as a backup.
// Every assignment is re-verified against the local plan (index, kind,
// key) before any work happens — a coordinator serving a different
// campaign is a fatal mismatch, not a garbage result.
//
// A PULL is a long poll, so inside a session the worker has no clock:
// it blocks on WELCOME and on each PULL's reply, polling only to notice
// stop().  Connection rule: before the first WELCOME, a refused connect
// or a connection dropped before WELCOME counts against
// connect_attempts, with capped doubling backoff; after a WELCOME, a
// broken session (send failure, EOF, corrupt stream) reconnects once,
// and if that connection does not reach WELCOME the coordinator is gone.
// A session's end releases the job it held, so a worker can be killed at
// ANY point (the chaos tests do, via the kill_* hooks below and via
// SIGKILL in CI) without affecting campaign correctness, only placement.
//
// Exit meaning (WorkerReport): saw_done means the campaign completed;
// ever_connected without it means a coordinator that had answered is
// gone — also a clean exit for the CLI; neither, that none answered.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "api/campaign.hpp"
#include "dist/transport.hpp"

namespace fne {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string name = "worker";
  int plan_threads = 1;          ///< parallelism for plan construction
  int connect_attempts = 40;     ///< failed connections tolerated before the first WELCOME
  FaultSchedule faults{};        ///< chaos: injected on this worker's sends
  int kill_after_results = -1;   ///< chaos: die abruptly after N submissions
  bool kill_mid_job = false;     ///< chaos: die silently holding a job
};

struct WorkerReport {
  std::uint64_t cells = 0;    ///< results submitted by kind
  std::uint64_t metrics = 0;
  std::uint64_t reconnects = 0;  ///< WELCOMEd sessions that broke (each retried once)
  bool ever_connected = false;   ///< a coordinator answered a HELLO (WELCOME or DONE)
  bool saw_done = false;        ///< coordinator said the campaign is complete
  bool fatal_mismatch = false;  ///< WELCOME refused us: wrong campaign/build
};

class DistWorker {
 public:
  DistWorker(Campaign campaign, WorkerOptions options);

  /// Serve until DONE, a kill hook fires, the coordinator is gone or
  /// unreachable (see the rule above), or stop().  Safe to call once.
  [[nodiscard]] WorkerReport run();

  /// Thread-safe: ask a running worker to exit at the next loop edge.
  void stop() { stop_.store(true); }

 private:
  Campaign campaign_;
  WorkerOptions opts_;
  std::atomic<bool> stop_{false};
  /// kill_mid_job parks the connection here instead of closing it: the
  /// coordinator gets no EOF, so the held job is never released and only
  /// a local backup finishes it — the exact failure a silently hung
  /// worker produces.
  std::unique_ptr<Transport> zombie_;
};

}  // namespace fne
