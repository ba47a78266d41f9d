// DistCoordinator — fault-tolerant distributed campaign execution
// (DESIGN.md §12).
//
// The coordinator owns ONE CampaignPlan and serves its jobs to TCP
// workers (src/dist/worker.hpp) over the FNEM wire protocol.  Workers
// are assumed hostile-by-accident: they time out, die mid-job, send
// garbage, reconnect at will.  Every defense reduces to the same rule —
// verify, or recompute:
//
//   leases      every assignment carries a deadline; HEARTBEATs extend
//               it, but never past lease_start + lease_cap_ms, so a
//               heartbeating-but-hung worker cannot pin a job forever;
//   retry       an expired or failed assignment is requeued with
//               seeded-jitter exponential backoff; after retry_budget
//               remote attempts the job becomes local-only;
//   local       the coordinator runs local_threads executor threads of
//               its own that take any pending job from the start, so a
//               coordinator with ZERO live workers degrades to exactly
//               CampaignRunner and no worker can hold up pending work;
//   validation  results are merged only when the key, kind and decoded
//               shape match the plan (CampaignPlan::accept_* re-checks
//               under its own lock); wrong-key or undecodable results
//               are counted, rejected and recomputed, never trusted;
//   dedup       duplicate completions (a reassigned job finishing twice)
//               resolve first-write-wins in the plan; the loser is a
//               counter, not an error.
//
// Termination argument: every job ends kDone.  A job held by a worker
// completes or its (capped) lease expires back to pending; a pending job
// is taken by the next idle local thread, whose lease never expires and
// whose compute is the plan's own pure function.  Local compute throwing
// is a campaign bug, not a fault, and aborts the run like CampaignRunner.
//
// Determinism: workers and coordinator construct the SAME CampaignPlan
// (checked via fingerprint at HELLO), all compute goes through the
// plan's pure functions, and all merging through its idempotent
// accept_*.  The deterministic payload of run() is therefore
// byte-identical to a local CampaignRunner::run for any worker count,
// fault schedule, or kill pattern — the chaos tests assert exactly that.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "api/campaign.hpp"

namespace fne {

struct DistOptions {
  std::string bind = "127.0.0.1";
  int port = 0;            ///< 0: ephemeral; port() reports the bound one
  int local_threads = 1;   ///< local executor width (>= 1: termination)
  double job_timeout_ms = 10000;  ///< initial lease length
  double lease_cap_ms = 60000;    ///< heartbeats never extend past start+cap
  double heartbeat_ms = 250;      ///< cadence advertised to workers
  int retry_budget = 3;           ///< remote attempts before local-only
  double backoff_base_ms = 25;    ///< retry backoff: base * 2^(attempt-1)
  double backoff_max_ms = 2000;
  std::uint64_t backoff_seed = 0x9e3779b97f4a7c15ull;  ///< jitter stream
  int poll_ms = 20;               ///< scheduler wakeup / io poll granularity
};

/// Robustness telemetry.  Placement-dependent by nature (like cache
/// stats): reported next to timing, never in the deterministic payload.
struct DistStats {
  std::uint64_t sessions = 0;      ///< accepted connections that said HELLO
  std::uint64_t disconnects = 0;   ///< sessions that ended before DONE
  std::uint64_t assignments = 0;   ///< JOB frames sent
  std::uint64_t heartbeats = 0;    ///< lease extensions granted
  std::uint64_t timeouts = 0;      ///< leases reaped past their deadline
  std::uint64_t requeues = 0;      ///< jobs returned to pending (any cause)
  std::uint64_t remote_cells = 0;  ///< merges by origin
  std::uint64_t remote_metrics = 0;
  std::uint64_t local_cells = 0;
  std::uint64_t local_metrics = 0;
  std::uint64_t duplicates = 0;        ///< valid results for already-done jobs
  std::uint64_t rejected_corrupt = 0;  ///< corrupt frames / protocol breaches
  std::uint64_t rejected_wrong_key = 0;   ///< result key/kind mismatched plan
  std::uint64_t rejected_bad_payload = 0; ///< undecodable / wrong-shape data
  std::uint64_t fallback_jobs = 0;  ///< went local after exhausting the budget
};

/// One campaign served once.  Construction binds the listening socket
/// (so port() is valid before run()); run() builds the plan, serves
/// workers and local threads until every job merged, and returns the
/// same CampaignReport a local CampaignRunner would.
class DistCoordinator {
 public:
  DistCoordinator(Campaign campaign, DistOptions options, ResultStore* store = nullptr);
  ~DistCoordinator();
  DistCoordinator(const DistCoordinator&) = delete;
  DistCoordinator& operator=(const DistCoordinator&) = delete;

  [[nodiscard]] int port() const noexcept;
  [[nodiscard]] CampaignReport run();
  [[nodiscard]] DistStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fne
