#include "dist/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <limits>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "dist/message.hpp"
#include "dist/transport.hpp"
#include "store/record.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace fne {

namespace {

constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);
constexpr int kHandshakeTimeoutMs = 5000;

enum class JobState : std::uint8_t {
  kBlocked,  ///< metric job waiting for its parent cell
  kPending,  ///< schedulable (subject to backoff eligibility)
  kLeased,   ///< assigned; session == 0 means the local executor
  kDone,     ///< merged into the plan
};

struct JobSlot {
  JobState state = JobState::kPending;
  int attempts = 0;          ///< failed/expired remote assignments so far
  double eligible_at = 0.0;  ///< remote retry gate (backoff)
  double deadline = 0.0;     ///< lease expiry (kLeased, remote only)
  double lease_start = 0.0;
  std::uint64_t session = 0;
};

}  // namespace

struct DistCoordinator::Impl {
  Campaign campaign;
  DistOptions opts;
  ResultStore* store = nullptr;
  TcpListener listener;
  Timer clock;

  std::unique_ptr<CampaignPlan> plan;
  std::uint64_t fingerprint = 0;  ///< wire_fingerprint(plan), set before any session
  mutable std::mutex m;
  std::condition_variable cv;
  std::vector<JobSlot> slots;
  std::vector<std::vector<std::size_t>> children;  ///< cell -> metric jobs
  std::size_t open_jobs = 0;
  bool started = false;
  bool finished = false;
  std::exception_ptr failure;  ///< local compute threw: campaign bug, rethrown
  std::uint64_t next_session = 1;
  DistStats stats;
  std::vector<std::thread> session_threads;  ///< appended by acceptor only

  Impl(Campaign c, DistOptions o, ResultStore* s)
      : campaign(std::move(c)), opts(o), store(s), listener(o.bind, o.port) {
    FNE_REQUIRE(opts.local_threads >= 1,
                "dist: local_threads must be >= 1 (the termination guarantee)");
    FNE_REQUIRE(opts.job_timeout_ms > 0 && opts.lease_cap_ms >= opts.job_timeout_ms,
                "dist: need 0 < job_timeout_ms <= lease_cap_ms");
    FNE_REQUIRE(opts.retry_budget >= 1, "dist: retry_budget must be >= 1");
    FNE_REQUIRE(opts.poll_ms >= 1, "dist: poll_ms must be >= 1");
  }

  [[nodiscard]] double now() const { return clock.millis(); }

  [[nodiscard]] bool is_finished() {
    std::lock_guard<std::mutex> lk(m);
    return finished;
  }

  /// Exponential backoff with seeded jitter: a pure function of
  /// (backoff_seed, job, attempt), so a replayed fault schedule replays
  /// its retry timing too.
  [[nodiscard]] double backoff_ms(std::size_t job, int attempt) const {
    const int exponent = std::min(attempt - 1, 20);
    const double raw = opts.backoff_base_ms * static_cast<double>(1ull << exponent);
    const double capped = std::min(raw, opts.backoff_max_ms);
    Rng base(opts.backoff_seed);
    const double u = base.fork(job * 64 + static_cast<std::uint64_t>(attempt)).uniform01();
    return capped * (0.5 + 0.5 * u);
  }

  void requeue_locked(std::size_t i, double t) {
    JobSlot& s = slots[i];
    if (s.state != JobState::kLeased) return;
    s.state = JobState::kPending;
    s.session = 0;
    s.attempts += 1;
    s.eligible_at = t + backoff_ms(i, s.attempts);
    ++stats.requeues;
    cv.notify_all();
  }

  /// Return every lease held by a vanished/expired session to pending.
  void requeue_session_locked(std::uint64_t sid, double t) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].state == JobState::kLeased && slots[i].session == sid) requeue_locked(i, t);
    }
  }

  void reap_locked(double t) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      JobSlot& s = slots[i];
      if (s.state == JobState::kLeased && s.session != 0 && s.deadline < t) {
        ++stats.timeouts;
        requeue_locked(i, t);
      }
    }
  }

  /// Next job assignable to a remote worker, or kNoJob.  `retry_hint_ms`
  /// gets the WAIT suggestion when nothing is assignable yet.
  [[nodiscard]] std::size_t pick_remote_locked(double t, std::uint64_t& retry_hint_ms) const {
    double earliest = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const JobSlot& s = slots[i];
      if (s.state != JobState::kPending || s.attempts >= opts.retry_budget) continue;
      if (s.eligible_at <= t) return i;
      earliest = std::min(earliest, s.eligible_at);
    }
    const double wait =
        std::isfinite(earliest) ? earliest - t : static_cast<double>(opts.poll_ms) * 5;
    retry_hint_ms = static_cast<std::uint64_t>(
        std::clamp(wait, static_cast<double>(opts.poll_ms), 500.0));
    return kNoJob;
  }

  /// Next job for the local executor: the first pending one, whatever
  /// its attempts or backoff — local compute is trusted and cannot fail
  /// for transport reasons.  Local threads never wait for the fleet, so
  /// a job no worker pulls is simply computed here.
  [[nodiscard]] std::size_t pick_local_locked() const {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].state == JobState::kPending) return i;
    }
    return kNoJob;
  }

  void merge_cell_locked(std::size_t i, std::vector<ScenarioRun> runs, bool remote, double t) {
    JobSlot& s = slots[i];
    if (s.state == JobState::kDone) {
      ++stats.duplicates;
      return;
    }
    if (!plan->accept_cell(i, std::move(runs))) {
      ++stats.rejected_bad_payload;
      if (s.state == JobState::kLeased) requeue_locked(i, t);
      return;
    }
    s.state = JobState::kDone;
    --open_jobs;
    if (remote) {
      ++stats.remote_cells;
    } else {
      ++stats.local_cells;
    }
    for (const std::size_t child : children[i]) {
      if (slots[child].state == JobState::kBlocked) {
        slots[child].state = JobState::kPending;
        slots[child].eligible_at = t;
      }
    }
    finish_if_drained_locked();
    cv.notify_all();
  }

  void merge_metric_locked(std::size_t i, MetricRecord record, bool remote, double t) {
    JobSlot& s = slots[i];
    if (s.state == JobState::kDone) {
      ++stats.duplicates;
      return;
    }
    if (!plan->accept_metric(i, std::move(record))) {
      ++stats.rejected_bad_payload;
      if (s.state == JobState::kLeased) requeue_locked(i, t);
      return;
    }
    s.state = JobState::kDone;
    --open_jobs;
    if (remote) {
      ++stats.remote_metrics;
    } else {
      ++stats.local_metrics;
    }
    finish_if_drained_locked();
    cv.notify_all();
  }

  void finish_if_drained_locked() {
    if (open_jobs == 0 && !finished) {
      finished = true;
      listener.shutdown();  // wakes the acceptor
    }
  }

  /// Validate-then-merge for a RESULT frame.  Nothing a worker sends is
  /// trusted: index range, key, kind and decoded shape all have to match
  /// the plan or the result is dropped and the job recomputed.
  void handle_result(const ResultPayload& p, std::uint64_t sid) {
    std::lock_guard<std::mutex> lk(m);
    const double t = now();
    if (p.index >= plan->num_jobs()) {
      ++stats.rejected_bad_payload;
      return;
    }
    const std::size_t i = static_cast<std::size_t>(p.index);
    const CampaignJob& job = plan->job(i);
    const bool leased_here = slots[i].state == JobState::kLeased && slots[i].session == sid;
    if (p.key != job.key || p.kind != static_cast<std::uint32_t>(job.kind)) {
      ++stats.rejected_wrong_key;
      if (leased_here) requeue_locked(i, t);
      return;
    }
    if (job.kind == CampaignJob::Kind::kMetric) {
      auto wire = decode_metric_record(p.data);
      if (!wire) {
        ++stats.rejected_bad_payload;
        if (leased_here) requeue_locked(i, t);
        return;
      }
      merge_metric_locked(
          i, MetricRecord{std::move(wire->name), std::move(wire->payload), std::move(wire->brief)},
          /*remote=*/true, t);
    } else {
      auto runs = decode_runs(p.data);
      if (!runs) {
        ++stats.rejected_bad_payload;
        if (leased_here) requeue_locked(i, t);
        return;
      }
      merge_cell_locked(i, std::move(*runs), /*remote=*/true, t);
    }
  }

  /// One worker connection, driven to completion.  Any verification
  /// failure — corrupt frame, pre-HELLO traffic, undecodable payload on a
  /// checksummed frame — drops the connection; the worker's reconnect is
  /// idempotent and its leases are requeued here on the way out.
  void session(std::unique_ptr<Transport> transport) {
    FrameBuffer buf;
    Message msg;
    std::uint64_t sid = 0;
    bool registered = false;
    bool clean_done = false;
    const Timer session_clock;

    const auto drop_corrupt = [&] {
      std::lock_guard<std::mutex> lk(m);
      ++stats.rejected_corrupt;
      if (registered) requeue_session_locked(sid, now());
    };

    for (;;) {
      if (is_finished()) {
        (void)transport->send(encode_frame({MsgType::kDone, ""}));
        clean_done = true;
        break;
      }
      const ReadStatus status = read_message(*transport, buf, msg, opts.poll_ms);
      if (status == ReadStatus::kTimeout) {
        // Pre-handshake silence is bounded; mid-session silence is the
        // lease reaper's problem, not ours.
        if (!registered && session_clock.millis() > kHandshakeTimeoutMs) break;
        continue;
      }
      if (status == ReadStatus::kEof || status == ReadStatus::kError) break;
      if (status == ReadStatus::kCorrupt) {
        drop_corrupt();
        break;
      }

      if (msg.type == MsgType::kHello) {
        const auto hello = decode_hello(msg.payload);
        if (!hello) {
          drop_corrupt();
          break;
        }
        if (hello->fingerprint != fingerprint) {
          (void)transport->send(encode_frame(
              {MsgType::kWelcome,
               encode_welcome({false, "campaign fingerprint mismatch: serving '" +
                                          campaign.name + "'"})}));
          break;
        }
        if (!registered) {
          std::lock_guard<std::mutex> lk(m);
          sid = next_session++;
          ++stats.sessions;
          registered = true;
        }
        if (!transport->send(encode_frame({MsgType::kWelcome, encode_welcome({true, ""})}))) break;
        continue;
      }

      if (!registered) {  // anything before HELLO is a protocol breach
        drop_corrupt();
        break;
      }

      switch (msg.type) {
        case MsgType::kPull: {
          std::size_t job = kNoJob;
          std::uint64_t retry_ms = 0;
          {
            std::lock_guard<std::mutex> lk(m);
            const double t = now();
            reap_locked(t);
            if (!finished) {
              job = pick_remote_locked(t, retry_ms);
              if (job != kNoJob) {
                JobSlot& s = slots[job];
                s.state = JobState::kLeased;
                s.session = sid;
                s.lease_start = t;
                s.deadline = t + opts.job_timeout_ms;
                ++stats.assignments;
              }
            }
          }
          if (job == kNoJob) {
            if (is_finished()) {
              (void)transport->send(encode_frame({MsgType::kDone, ""}));
              clean_done = true;
              break;
            }
            if (!transport->send(encode_frame({MsgType::kWait, encode_wait({retry_ms})}))) {
              break;
            }
            continue;
          }
          const CampaignJob& j = plan->job(job);
          JobPayload payload;
          payload.index = job;
          payload.kind = static_cast<std::uint32_t>(j.kind);
          payload.key = j.key;
          payload.lease_ms = static_cast<std::uint64_t>(opts.job_timeout_ms);
          payload.heartbeat_ms = static_cast<std::uint64_t>(opts.heartbeat_ms);
          if (j.kind == CampaignJob::Kind::kMetric) {
            const ScenarioRun parent = plan->parent_run(job);
            payload.parent_runs = encode_runs(std::span<const ScenarioRun>(&parent, 1));
          }
          if (!transport->send(encode_frame({MsgType::kJob, encode_job(payload)}))) {
            std::lock_guard<std::mutex> lk(m);
            requeue_locked(job, now());
            break;
          }
          continue;
        }
        case MsgType::kHeartbeat: {
          const auto hb = decode_heartbeat(msg.payload);
          if (!hb) {
            drop_corrupt();
            break;
          }
          std::lock_guard<std::mutex> lk(m);
          if (hb->index < slots.size()) {
            JobSlot& s = slots[hb->index];
            if (s.state == JobState::kLeased && s.session == sid) {
              s.deadline = std::min(now() + opts.job_timeout_ms,
                                    s.lease_start + opts.lease_cap_ms);
              ++stats.heartbeats;
            }
          }
          continue;
        }
        case MsgType::kResult: {
          const auto result = decode_result(msg.payload);
          if (!result) {
            // The frame checksum passed but the payload is malformed:
            // count it and let the lease expire into a retry.
            std::lock_guard<std::mutex> lk(m);
            ++stats.rejected_bad_payload;
            continue;
          }
          handle_result(*result, sid);
          continue;
        }
        default:  // coordinator-only message types coming FROM a worker
          drop_corrupt();
          break;
      }
      break;  // switch fell through: connection is being dropped
    }

    transport->shutdown();
    std::lock_guard<std::mutex> lk(m);
    if (registered) {
      requeue_session_locked(sid, now());
      if (!clean_done) ++stats.disconnects;
    }
  }

  void accept_loop() {
    for (;;) {
      if (is_finished()) return;
      std::unique_ptr<Transport> t = listener.accept(opts.poll_ms);
      if (!t) continue;
      if (is_finished()) {
        t->shutdown();
        continue;
      }
      session_threads.emplace_back(
          [this, tr = std::move(t)]() mutable { session(std::move(tr)); });
    }
  }

  /// Local executor: takes any pending job and runs it through the plan's
  /// own pure compute.  Its leases never expire; a throw here is a
  /// campaign bug and aborts the run exactly like CampaignRunner would.
  void local_loop() {
    for (;;) {
      std::size_t job = kNoJob;
      {
        std::unique_lock<std::mutex> lk(m);
        for (;;) {
          if (finished) return;
          const double t = now();
          reap_locked(t);
          job = pick_local_locked();
          if (job != kNoJob) break;
          cv.wait_for(lk, std::chrono::milliseconds(opts.poll_ms));
        }
        JobSlot& s = slots[job];
        s.state = JobState::kLeased;
        s.session = 0;
        s.deadline = std::numeric_limits<double>::infinity();
        if (s.attempts >= opts.retry_budget) ++stats.fallback_jobs;
      }
      try {
        const CampaignJob& j = plan->job(job);
        if (j.kind == CampaignJob::Kind::kMetric) {
          const ScenarioRun parent = plan->parent_run(job);
          MetricRecord record = plan->compute_metric(job, parent);
          std::lock_guard<std::mutex> lk(m);
          merge_metric_locked(job, std::move(record), /*remote=*/false, now());
        } else {
          std::vector<ScenarioRun> runs = plan->compute_cell(job);
          std::lock_guard<std::mutex> lk(m);
          merge_cell_locked(job, std::move(runs), /*remote=*/false, now());
        }
      } catch (...) {
        std::lock_guard<std::mutex> lk(m);
        if (!failure) failure = std::current_exception();
        finished = true;
        listener.shutdown();
        cv.notify_all();
        return;
      }
    }
  }

  [[nodiscard]] CampaignReport run_once() {
    {
      std::lock_guard<std::mutex> lk(m);
      FNE_REQUIRE(!started, "dist: run() may only be called once per coordinator");
      started = true;
    }
    const EngineCacheStats cache_before = EngineCache::instance().stats();
    const Timer wall;
    const int local_threads = opts.local_threads;
    plan = std::make_unique<CampaignPlan>(campaign, local_threads);
    fingerprint = wire_fingerprint(plan->fingerprint());
    if (store != nullptr) (void)plan->attach_store(*store);

    {
      std::lock_guard<std::mutex> lk(m);
      const std::size_t n = plan->num_jobs();
      slots.assign(n, JobSlot{});
      children.assign(n, {});
      for (std::size_t i = 0; i < n; ++i) {
        const CampaignJob& j = plan->job(i);
        if (j.kind == CampaignJob::Kind::kMetric) children[j.parent].push_back(i);
        if (plan->done(i)) {
          slots[i].state = JobState::kDone;
        } else {
          slots[i].state = j.kind == CampaignJob::Kind::kMetric ? JobState::kBlocked
                                                                : JobState::kPending;
          ++open_jobs;
        }
      }
      clock.reset();
      finish_if_drained_locked();
    }

    std::thread acceptor([this] { accept_loop(); });
    std::vector<std::thread> locals;
    locals.reserve(static_cast<std::size_t>(local_threads));
    for (int i = 0; i < local_threads; ++i) locals.emplace_back([this] { local_loop(); });

    {
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return finished; });
    }
    listener.shutdown();
    acceptor.join();
    for (std::thread& th : locals) th.join();
    for (std::thread& th : session_threads) th.join();

    {
      std::lock_guard<std::mutex> lk(m);
      if (failure) {
        // Destroy the plan now, not with the coordinator: its destructor
        // commits the cells that did complete, and the caller's store is
        // only known to be alive during run().
        plan.reset();
        std::rethrow_exception(failure);
      }
    }
    return plan->finish(local_threads, wall.millis(),
                        EngineCache::instance().stats() - cache_before);
  }
};

DistCoordinator::DistCoordinator(Campaign campaign, DistOptions options, ResultStore* store)
    : impl_(std::make_unique<Impl>(std::move(campaign), options, store)) {}

DistCoordinator::~DistCoordinator() = default;

int DistCoordinator::port() const noexcept { return impl_->listener.port(); }

CampaignReport DistCoordinator::run() { return impl_->run_once(); }

DistStats DistCoordinator::stats() const {
  std::lock_guard<std::mutex> lk(impl_->m);
  return impl_->stats;
}

}  // namespace fne
