// DistCoordinator — fault-tolerant distributed campaign execution
// (DESIGN.md §12).
//
// The coordinator runs ONE CampaignPlan as CampaignRunner::run does
// (plan, attach_store, execute, finish) and adds only the network side:
// TCP workers (src/dist/worker.hpp) pull jobs over the FNEM protocol.
// Workers are assumed hostile-by-accident: they die mid-job, hang, send
// garbage, reconnect at will.  Every defense reduces to the same rule —
// verify, or recompute — and none of them reads a clock:
//
//   two ends    local threads run CampaignPlan::execute from the front
//               of the job list; a PULL gets the LAST ready job (not
//               done; a metric job's parent done) no session holds.
//               With none ready the PULL stays pending, and the session
//               answers it with JOB or DONE at its next poll tick (a
//               long poll: workers need no retry clock).  Per job the
//               coordinator keeps only the holding session and an
//               "ever given" bit; a session's next PULL, a rejected
//               result or its disconnect releases its hold;
//   backups     execute skips only DONE jobs, so a local thread that
//               reaches a worker-held job computes it as a backup: a
//               hung worker delays nothing, and with ZERO workers the
//               run is exactly the local code;
//   validation  results are merged only when the key, kind and decoded
//               shape match the plan (CampaignPlan::accept_* re-checks
//               under its own lock); wrong-key or undecodable results
//               are counted and rejected, never trusted;
//   dedup       a job computed twice (a worker and its local backup)
//               resolves first-write-wins in the plan; the loser is a
//               counter, not an error.
//
// Termination is execute's: it returns when every job is done.  A local
// compute that throws is a campaign bug: execute throws one
// ExecutorError after the drain, and run() joins its threads and
// rethrows, like CampaignRunner.
//
// Determinism: workers and coordinator construct the SAME CampaignPlan
// (checked via fingerprint at HELLO), all compute goes through the
// plan's pure functions, and all merging through its idempotent
// accept_*.  The deterministic payload of run() is therefore
// byte-identical to a local CampaignRunner::run for any worker count,
// fault schedule, or kill pattern — the chaos tests assert exactly that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "api/campaign.hpp"

namespace fne {

struct DistOptions {
  std::string bind = "127.0.0.1";
  int port = 0;           ///< 0: ephemeral; port() reports the bound one
  int local_threads = 1;  ///< local executor width (>= 1: termination)
};

/// Robustness telemetry.  Placement-dependent by nature (like cache
/// stats): reported next to timing, never in the deterministic payload.
struct DistStats {
  std::uint64_t sessions = 0;      ///< accepted connections that said HELLO
  std::uint64_t disconnects = 0;   ///< sessions that ended before DONE
  std::uint64_t assignments = 0;   ///< JOB frames sent
  std::uint64_t requeues = 0;      ///< remote holds released before a merge
  std::uint64_t backups = 0;       ///< jobs a worker was given that merged locally
  std::uint64_t remote_cells = 0;  ///< merges by origin (local: the rest, less store hits)
  std::uint64_t remote_metrics = 0;
  std::uint64_t local_cells = 0;
  std::uint64_t local_metrics = 0;
  std::uint64_t duplicates = 0;        ///< valid results for already-done jobs
  std::uint64_t rejected_corrupt = 0;  ///< corrupt frames / protocol breaches
  std::uint64_t rejected_wrong_key = 0;   ///< result key/kind mismatched plan
  std::uint64_t rejected_bad_payload = 0; ///< undecodable / wrong-shape data
};

/// One campaign served once.  Construction binds the listening socket
/// (so port() is valid before run()); run() executes the plan on its
/// local threads while serving workers, and returns the same
/// CampaignReport a local CampaignRunner would.  stats() is complete
/// once run() returned.
class DistCoordinator {
 public:
  DistCoordinator(Campaign campaign, DistOptions options, ResultStore* store = nullptr);
  ~DistCoordinator();
  DistCoordinator(const DistCoordinator&) = delete;
  DistCoordinator& operator=(const DistCoordinator&) = delete;

  [[nodiscard]] int port() const noexcept;
  [[nodiscard]] CampaignReport run();
  [[nodiscard]] DistStats stats() const;
  /// During run(), the connection threads the acceptor has not joined:
  /// those still open, plus those that ended within the last accept poll.
  [[nodiscard]] std::size_t session_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fne
