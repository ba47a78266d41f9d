// DistCoordinator — fault-tolerant distributed campaign execution
// (DESIGN.md §12).
//
// The coordinator owns ONE CampaignPlan and serves its jobs to TCP
// workers (src/dist/worker.hpp) over the FNEM wire protocol.  Workers
// are assumed hostile-by-accident: they die mid-job, hang, send garbage,
// reconnect at will.  Every defense reduces to the same rule — verify,
// or recompute — and none of them reads a clock:
//
//   holders     an open job records the one remote session computing it
//               and whether a local thread is; a PULL gets the first
//               open job nobody holds (else WAIT), and a session's next
//               PULL, a rejected result or its disconnect releases what
//               it held;
//   backups     the coordinator runs local_threads executor threads of
//               its own that take the first open job no local thread
//               holds, preferring one no worker holds.  When only
//               remote-held jobs remain they compute those as backup
//               tasks, so a hung worker delays nothing and a coordinator
//               with ZERO workers degrades to exactly CampaignRunner;
//   validation  results are merged only when the key, kind and decoded
//               shape match the plan (CampaignPlan::accept_* re-checks
//               under its own lock); wrong-key or undecodable results
//               are counted and rejected, never trusted;
//   dedup       a job computed twice (a worker and its local backup)
//               resolves first-write-wins in the plan; the loser is a
//               counter, not an error.
//
// Termination argument: every open job without a local holder is taken
// by the next idle local thread, and a local compute either merges or
// throws.  So every job ends done, whatever the fleet does.  Local
// compute throwing is a campaign bug, not a fault, and aborts the run
// like CampaignRunner.
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
  int port = 0;           ///< 0: ephemeral; port() reports the bound one
  int local_threads = 1;  ///< local executor width (>= 1: termination)
  int poll_ms = 20;       ///< io poll granularity; WAIT asks for 5x this
};

/// Robustness telemetry.  Placement-dependent by nature (like cache
/// stats): reported next to timing, never in the deterministic payload.
struct DistStats {
  std::uint64_t sessions = 0;      ///< accepted connections that said HELLO
  std::uint64_t disconnects = 0;   ///< sessions that ended before DONE
  std::uint64_t assignments = 0;   ///< JOB frames sent
  std::uint64_t requeues = 0;      ///< remote holds released before a merge
  std::uint64_t backups = 0;       ///< local computations of remote-held jobs
  std::uint64_t remote_cells = 0;  ///< merges by origin
  std::uint64_t remote_metrics = 0;
  std::uint64_t local_cells = 0;
  std::uint64_t local_metrics = 0;
  std::uint64_t duplicates = 0;        ///< valid results for already-done jobs
  std::uint64_t rejected_corrupt = 0;  ///< corrupt frames / protocol breaches
  std::uint64_t rejected_wrong_key = 0;   ///< result key/kind mismatched plan
  std::uint64_t rejected_bad_payload = 0; ///< undecodable / wrong-shape data
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
