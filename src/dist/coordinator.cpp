#include "dist/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <iterator>
#include <memory>
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

struct DistCoordinator::Impl {
  static constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);
  /// Socket poll granularity: how soon a session sees a job become ready
  /// for its pending PULL, or the run end.
  static constexpr int kPollMs = 10;

  Campaign campaign;
  DistOptions opts;
  ResultStore* store = nullptr;
  TcpListener listener;

  std::unique_ptr<CampaignPlan> plan;
  std::uint64_t fingerprint = 0;  ///< wire_fingerprint(plan), set before any session
  mutable std::mutex m;
  /// Per job, all the coordinator keeps beside the plan: the session
  /// holding it (0: none) and whether any worker was ever given it.
  std::vector<std::uint64_t> holder;
  std::vector<char> given;
  std::size_t tail = 0;                   ///< every job at index >= tail is done
  std::uint64_t given_remote_merges = 0;  ///< remote merges of given jobs
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};  ///< execute returned: sessions send DONE
  std::uint64_t next_session = 1;
  DistStats stats;
  /// One connection's thread; `ended` is set as its session returns.
  struct SessionThread {
    std::thread thread;
    std::unique_ptr<std::atomic<bool>> ended;
  };
  std::vector<SessionThread> session_threads;  ///< guarded by m; joined by the acceptor

  Impl(Campaign c, DistOptions o, ResultStore* s)
      : campaign(std::move(c)), opts(std::move(o)), store(s), listener(opts.bind, opts.port) {
    FNE_REQUIRE(opts.local_threads >= 1,
                "dist: local_threads must be >= 1 (the termination guarantee)");
  }

  /// Next job for a remote worker: the LAST ready job no session holds.
  /// Ready means not done and, for a metric job, its parent cell done.
  /// Local threads sweep from the front, so the two ends meet in the
  /// middle.  Done flags are read without the plan lock and never clear,
  /// so the done suffix is walked past once, not on every PULL.
  [[nodiscard]] std::size_t pick_remote_locked() {
    while (tail > 0 && plan->done(tail - 1)) --tail;
    for (std::size_t i = tail; i-- > 0;) {
      if (holder[i] != 0 || plan->done(i)) continue;
      const CampaignJob& job = plan->job(i);
      if (job.kind == CampaignJob::Kind::kMetric && !plan->done(job.parent)) continue;
      return i;
    }
    return kNoJob;
  }

  /// Release `sid`'s hold on job `i` (kNoJob: none), so the next PULL
  /// may take the job again.
  void release_locked(std::size_t i, std::uint64_t sid) {
    if (i == kNoJob || holder[i] != sid) return;
    holder[i] = 0;
    if (!plan->done(i)) ++stats.requeues;
  }

  /// Count a remote result for job `i` by CampaignPlan::accept_*'s
  /// answer: a refused result for a done job is a duplicate (first write
  /// won), any other refusal a rejection (returns false).
  bool count_merge_locked(std::size_t i, bool accepted) {
    if (accepted) {
      const bool metric = plan->job(i).kind == CampaignJob::Kind::kMetric;
      ++(metric ? stats.remote_metrics : stats.remote_cells);
      if (given[i] != 0) ++given_remote_merges;
      return true;
    }
    if (plan->done(i)) {
      ++stats.duplicates;
      return true;
    }
    ++stats.rejected_bad_payload;
    return false;
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
      auto record = decode_metric_record(p.data);
      if (!record) {
        ++stats.rejected_bad_payload;
        return false;
      }
      return count_merge_locked(i, plan->accept_metric(i, std::move(*record)));
    }
    auto runs = decode_runs(p.data);
    if (!runs) {
      ++stats.rejected_bad_payload;
      return false;
    }
    return count_merge_locked(i, plan->accept_cell(i, std::move(*runs)));
  }

  /// One worker connection, driven to completion.  Any verification
  /// failure — corrupt frame, pre-HELLO traffic, a coordinator-only
  /// message type — drops the connection; the worker's reconnect is
  /// idempotent.  A session holds at most one job: its next PULL, a
  /// rejected RESULT and its end all release it.  A PULL with no job
  /// ready stays pending, retried each poll tick until a job is ready
  /// or the run is finished.
  void session(std::unique_ptr<Transport> transport) {
    FrameBuffer buf;
    Message msg;
    std::uint64_t sid = 0;      ///< 0 until HELLO
    std::size_t held = kNoJob;  ///< the job last sent to this worker
    bool pulling = false;       ///< a PULL awaits its JOB (or DONE)
    bool clean_done = false;

    const auto drop_corrupt = [&] {
      std::lock_guard<std::mutex> lk(m);
      ++stats.rejected_corrupt;
    };

    for (;;) {
      if (finished) {
        (void)transport->send(encode_frame({MsgType::kDone, ""}));
        clean_done = true;
        break;
      }
      if (pulling) {
        {
          std::lock_guard<std::mutex> lk(m);
          release_locked(held, sid);
          held = pick_remote_locked();
          if (held != kNoJob) {
            holder[held] = sid;
            given[held] = 1;
            ++stats.assignments;
            pulling = false;
          }
        }
        if (!pulling && !send_job(*transport, held)) break;
      }
      const ReadStatus status = read_message(*transport, buf, msg, kPollMs);
      if (status == ReadStatus::kTimeout) continue;  // silence costs nothing: jobs have backups
      if (status == ReadStatus::kCorrupt) drop_corrupt();
      if (status != ReadStatus::kMessage) break;  // EOF, error or garbage

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
      pulling = true;  // the loop head releases the hold and answers
    }

    transport->shutdown();
    std::lock_guard<std::mutex> lk(m);
    if (sid != 0) {
      release_locked(held, sid);
      if (!clean_done) ++stats.disconnects;
    }
  }

  /// JOB frame for job `i`: a metric job carries its parent's run.
  [[nodiscard]] bool send_job(Transport& transport, std::size_t i) {
    const CampaignJob& j = plan->job(i);
    JobPayload payload;
    payload.index = i;
    payload.kind = static_cast<std::uint32_t>(j.kind);
    payload.key = j.key;
    if (j.kind == CampaignJob::Kind::kMetric) {
      const ScenarioRun parent = plan->parent_run(i);
      payload.parent_runs = encode_runs(std::span<const ScenarioRun>(&parent, 1));
    }
    return transport.send(encode_frame({MsgType::kJob, encode_job(payload)}));
  }

  /// Join the session threads whose connection ended, so a run holds a
  /// thread (and its stack) per open connection, not per connection it
  /// ever accepted: garbage, refused and reconnecting clients come and go.
  void reap_sessions() {
    std::vector<SessionThread> ended;
    {
      std::lock_guard<std::mutex> lk(m);
      const auto live =
          std::partition(session_threads.begin(), session_threads.end(),
                         [](const SessionThread& st) { return !st.ended->load(); });
      ended.assign(std::make_move_iterator(live), std::make_move_iterator(session_threads.end()));
      session_threads.erase(live, session_threads.end());
    }
    for (SessionThread& st : ended) st.thread.join();
  }

  void accept_loop() {
    for (;;) {
      if (finished) return;
      reap_sessions();
      std::unique_ptr<Transport> t = listener.accept(kPollMs);
      if (!t) continue;
      if (finished) {
        t->shutdown();
        continue;
      }
      auto ended = std::make_unique<std::atomic<bool>>(false);
      std::thread thread([this, flag = ended.get(), tr = std::move(t)]() mutable {
        session(std::move(tr));
        flag->store(true);
      });
      std::lock_guard<std::mutex> lk(m);
      session_threads.push_back({std::move(thread), std::move(ended)});
    }
  }

  /// The local run's four calls (plan, attach_store, execute, finish),
  /// with the acceptor and session threads serving workers beside
  /// execute.  A local compute that throws fails the run as it fails a
  /// local one: one ExecutorError after execute drains.
  [[nodiscard]] CampaignReport run_once() {
    FNE_REQUIRE(!started.exchange(true), "dist: run() may only be called once per coordinator");
    const EngineCacheStats cache_before = EngineCache::instance().stats();
    const Timer wall;
    plan = std::make_unique<CampaignPlan>(campaign, opts.local_threads);
    fingerprint = wire_fingerprint(plan->fingerprint());
    if (store != nullptr) (void)plan->attach_store(*store);
    std::uint64_t served_jobs = 0;
    for (std::size_t i = 0; i < plan->num_jobs(); ++i) served_jobs += plan->done(i) ? 1 : 0;
    holder.assign(plan->num_jobs(), 0);
    given.assign(plan->num_jobs(), 0);
    tail = plan->num_jobs();

    std::thread acceptor([this] { accept_loop(); });
    std::exception_ptr failure;
    try {
      plan->execute(opts.local_threads);
    } catch (...) {
      failure = std::current_exception();
    }
    finished = true;
    listener.shutdown();  // wakes the acceptor
    acceptor.join();
    for (SessionThread& st : session_threads) st.thread.join();  // the acceptor is gone

    if (failure) {
      // Destroy the plan now, not with the coordinator: its destructor
      // commits the cells that did complete, and the caller's store is
      // only known to be alive during run().
      plan.reset();
      std::rethrow_exception(failure);
    }
    {
      // Every job is done: what no worker merged was served or merged here.
      std::lock_guard<std::mutex> lk(m);
      const std::uint64_t served_cells = plan->cells_served();
      stats.local_cells = plan->num_cells() - served_cells - stats.remote_cells;
      stats.local_metrics = plan->num_jobs() - plan->num_cells() - (served_jobs - served_cells) -
                            stats.remote_metrics;
      stats.backups =
          static_cast<std::uint64_t>(std::count(given.begin(), given.end(), 1)) -
          given_remote_merges;
    }
    return plan->finish(opts.local_threads, wall.millis(),
                        EngineCache::instance().stats() - cache_before);
  }
};

DistCoordinator::DistCoordinator(Campaign campaign, DistOptions options, ResultStore* store)
    : impl_(std::make_unique<Impl>(std::move(campaign), options, store)) {}

DistCoordinator::~DistCoordinator() = default;

int DistCoordinator::port() const noexcept { return impl_->listener.port(); }

CampaignReport DistCoordinator::run() { return impl_->run_once(); }

std::size_t DistCoordinator::session_count() const {
  std::lock_guard<std::mutex> lk(impl_->m);
  return impl_->session_threads.size();
}

DistStats DistCoordinator::stats() const {
  std::lock_guard<std::mutex> lk(impl_->m);
  return impl_->stats;
}

}  // namespace fne
