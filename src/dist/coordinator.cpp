#include "dist/coordinator.hpp"

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "dist/message.hpp"
#include "dist/transport.hpp"
#include "store/record.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace fne {

namespace {

constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);

enum class JobState : std::uint8_t {
  kBlocked,  ///< metric job waiting for its parent cell
  kOpen,     ///< schedulable
  kDone,     ///< merged into the plan
};

struct JobSlot {
  JobState state = JobState::kOpen;
  bool local = false;        ///< a local thread is computing it
  std::uint64_t remote = 0;  ///< the session computing it; 0: none
};

}  // namespace

struct DistCoordinator::Impl {
  Campaign campaign;
  DistOptions opts;
  ResultStore* store = nullptr;
  TcpListener listener;

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
      : campaign(std::move(c)), opts(std::move(o)), store(s), listener(opts.bind, opts.port) {
    FNE_REQUIRE(opts.local_threads >= 1,
                "dist: local_threads must be >= 1 (the termination guarantee)");
    FNE_REQUIRE(opts.poll_ms >= 1, "dist: poll_ms must be >= 1");
  }

  [[nodiscard]] bool is_finished() {
    std::lock_guard<std::mutex> lk(m);
    return finished;
  }

  /// Next job for a remote worker: the first open one nobody holds.
  [[nodiscard]] std::size_t pick_remote_locked() const {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const JobSlot& s = slots[i];
      if (s.state == JobState::kOpen && !s.local && s.remote == 0) return i;
    }
    return kNoJob;
  }

  /// Next job for a local thread: the first open one no local thread
  /// holds, preferring one no worker holds either.  Otherwise a
  /// remote-held job, computed here as a backup task: local threads
  /// never wait for the fleet.
  [[nodiscard]] std::size_t pick_local_locked() const {
    std::size_t backup = kNoJob;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const JobSlot& s = slots[i];
      if (s.state != JobState::kOpen || s.local) continue;
      if (s.remote == 0) return i;
      if (backup == kNoJob) backup = i;
    }
    return backup;
  }

  /// Release `sid`'s hold on job `i` (kNoJob: none), so the next PULL
  /// may take the job again.
  void release_locked(std::size_t i, std::uint64_t sid) {
    if (i == kNoJob || slots[i].state != JobState::kOpen || slots[i].remote != sid) return;
    slots[i].remote = 0;
    ++stats.requeues;
  }

  /// Record job `i`'s result, where `accept` hands it to the plan's
  /// CampaignPlan::accept_*.  Returns false when the plan refused it.
  template <typename Accept>
  bool merge_locked(std::size_t i, bool remote, Accept&& accept) {
    JobSlot& s = slots[i];
    if (s.state == JobState::kDone) {
      ++stats.duplicates;
      return true;
    }
    if (!accept()) {
      ++stats.rejected_bad_payload;
      return false;
    }
    s.state = JobState::kDone;
    --open_jobs;
    const bool metric = plan->job(i).kind == CampaignJob::Kind::kMetric;
    ++(remote ? (metric ? stats.remote_metrics : stats.remote_cells)
              : (metric ? stats.local_metrics : stats.local_cells));
    for (const std::size_t child : children[i]) {
      if (slots[child].state == JobState::kBlocked) slots[child].state = JobState::kOpen;
    }
    finish_if_drained_locked();
    cv.notify_all();
    return true;
  }

  void finish_if_drained_locked() {
    if (open_jobs == 0 && !finished) {
      finished = true;
      listener.shutdown();  // wakes the acceptor
    }
  }

  /// Validate-then-merge for a RESULT frame.  Nothing a worker sends is
  /// trusted: index range, key, kind and decoded shape all have to match
  /// the plan or the result is dropped.  Returns false on a rejection.
  bool handle_result_locked(const ResultPayload& p) {
    if (p.index >= plan->num_jobs()) {
      ++stats.rejected_bad_payload;
      return false;
    }
    const std::size_t i = static_cast<std::size_t>(p.index);
    const CampaignJob& job = plan->job(i);
    if (p.key != job.key || p.kind != static_cast<std::uint32_t>(job.kind)) {
      ++stats.rejected_wrong_key;
      return false;
    }
    if (job.kind == CampaignJob::Kind::kMetric) {
      auto wire = decode_metric_record(p.data);
      if (!wire) {
        ++stats.rejected_bad_payload;
        return false;
      }
      return merge_locked(i, /*remote=*/true, [&] {
        return plan->accept_metric(
            i, MetricRecord{std::move(wire->name), std::move(wire->payload),
                            std::move(wire->brief)});
      });
    }
    auto runs = decode_runs(p.data);
    if (!runs) {
      ++stats.rejected_bad_payload;
      return false;
    }
    return merge_locked(i, /*remote=*/true,
                        [&] { return plan->accept_cell(i, std::move(*runs)); });
  }

  /// One worker connection, driven to completion.  Any verification
  /// failure — corrupt frame, pre-HELLO traffic, a coordinator-only
  /// message type — drops the connection; the worker's reconnect is
  /// idempotent.  A session holds at most one job: its next PULL, a
  /// rejected RESULT and its end all release it.
  void session(std::unique_ptr<Transport> transport) {
    FrameBuffer buf;
    Message msg;
    std::uint64_t sid = 0;      ///< 0 until HELLO
    std::size_t held = kNoJob;  ///< the job last sent to this worker
    bool clean_done = false;

    const auto drop_corrupt = [&] {
      std::lock_guard<std::mutex> lk(m);
      ++stats.rejected_corrupt;
    };

    for (;;) {
      if (is_finished()) {
        (void)transport->send(encode_frame({MsgType::kDone, ""}));
        clean_done = true;
        break;
      }
      const ReadStatus status = read_message(*transport, buf, msg, opts.poll_ms);
      if (status == ReadStatus::kTimeout) continue;  // silence costs nothing: jobs have backups
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
        if (sid == 0) {
          std::lock_guard<std::mutex> lk(m);
          sid = next_session++;
          ++stats.sessions;
        }
        if (!transport->send(encode_frame({MsgType::kWelcome, encode_welcome({true, ""})}))) break;
        continue;
      }

      if (sid == 0) {  // anything before HELLO is a protocol breach
        drop_corrupt();
        break;
      }

      if (msg.type == MsgType::kResult) {
        const auto result = decode_result(msg.payload);
        std::lock_guard<std::mutex> lk(m);
        if (!result) {
          ++stats.rejected_bad_payload;  // checksummed frame, malformed payload
          release_locked(held, sid);
        } else if (!handle_result_locked(*result)) {
          release_locked(held, sid);
        }
        continue;
      }
      if (msg.type != MsgType::kPull) {  // coordinator-only types coming FROM a worker
        drop_corrupt();
        break;
      }

      {
        std::lock_guard<std::mutex> lk(m);
        release_locked(held, sid);
        held = finished ? kNoJob : pick_remote_locked();
        if (held != kNoJob) {
          slots[held].remote = sid;
          ++stats.assignments;
        }
      }
      if (held == kNoJob) {
        if (is_finished()) continue;  // the loop head sends DONE
        const std::uint64_t retry_ms = 5 * static_cast<std::uint64_t>(opts.poll_ms);
        if (!transport->send(encode_frame({MsgType::kWait, encode_wait({retry_ms})}))) break;
        continue;
      }
      const CampaignJob& j = plan->job(held);
      JobPayload payload;
      payload.index = held;
      payload.kind = static_cast<std::uint32_t>(j.kind);
      payload.key = j.key;
      if (j.kind == CampaignJob::Kind::kMetric) {
        const ScenarioRun parent = plan->parent_run(held);
        payload.parent_runs = encode_runs(std::span<const ScenarioRun>(&parent, 1));
      }
      if (!transport->send(encode_frame({MsgType::kJob, encode_job(payload)}))) break;
    }

    transport->shutdown();
    std::lock_guard<std::mutex> lk(m);
    if (sid != 0) {
      release_locked(held, sid);
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

  /// Local executor: takes the job pick_local_locked offers and runs it
  /// through the plan's own pure compute.  A throw here is a campaign bug
  /// and aborts the run exactly like CampaignRunner would.
  void local_loop() {
    for (;;) {
      std::size_t job = kNoJob;
      {
        std::unique_lock<std::mutex> lk(m);
        // Every merge and the finish notify: nothing else opens work.
        while (!finished && (job = pick_local_locked()) == kNoJob) cv.wait(lk);
        if (finished) return;
        slots[job].local = true;
        if (slots[job].remote != 0) ++stats.backups;
      }
      try {
        bool accepted = false;
        if (plan->job(job).kind == CampaignJob::Kind::kMetric) {
          MetricRecord record = plan->compute_metric(job, plan->parent_run(job));
          std::lock_guard<std::mutex> lk(m);
          accepted = merge_locked(job, /*remote=*/false,
                                  [&] { return plan->accept_metric(job, std::move(record)); });
        } else {
          std::vector<ScenarioRun> runs = plan->compute_cell(job);
          std::lock_guard<std::mutex> lk(m);
          accepted = merge_locked(job, /*remote=*/false,
                                  [&] { return plan->accept_cell(job, std::move(runs)); });
        }
        FNE_REQUIRE(accepted, "dist: the plan refused its own local result");
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
                                                                : JobState::kOpen;
          ++open_jobs;
        }
      }
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
