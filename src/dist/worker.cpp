#include "dist/worker.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "dist/message.hpp"
#include "store/record.hpp"
#include "util/timer.hpp"

namespace fne {

namespace {

/// How often a blocked read looks at stop(); the protocol itself has no
/// timeout.
constexpr int kStopPollMs = 25;
/// Before the first WELCOME: connect deadline, and the backoff between
/// failed connections, doubled per failure up to the cap.
constexpr int kConnectTimeoutMs = 1000;
constexpr int kFirstBackoffMs = 50;
constexpr int kMaxBackoffMs = 1000;

enum class ConnEnd {
  kUnwelcomed,  ///< refused, or broke before WELCOME
  kLost,        ///< broke after WELCOME (send failure, EOF, garbage)
  kExit,        ///< run() is over (DONE, stop(), kill hook, mismatch)
  kZombie,      ///< kill_mid_job: exit but keep the socket open, so the
                ///< coordinator never sees the held job released
};

}  // namespace

DistWorker::DistWorker(Campaign campaign, WorkerOptions options)
    : campaign_(std::move(campaign)), opts_(std::move(options)) {}

WorkerReport DistWorker::run() {
  WorkerReport report;
  CampaignPlan plan(campaign_, std::max(opts_.plan_threads, 1));
  const std::uint64_t fingerprint = wire_fingerprint(plan.fingerprint());

  // Everything one connection does, handshake to grave.
  const auto drive = [&](Transport& transport) -> ConnEnd {
    FrameBuffer buf;
    Message msg;
    ConnEnd broken = ConnEnd::kUnwelcomed;
    // Send, then block for the reply frame; false when the connection
    // broke or stop() was called.
    const auto ask = [&](MsgType type, std::string payload) {
      if (!transport.send(encode_frame({type, std::move(payload)}))) return false;
      ReadStatus st = ReadStatus::kTimeout;
      while (st == ReadStatus::kTimeout && !stop_.load()) {
        st = read_message(transport, buf, msg, kStopPollMs);
      }
      return st == ReadStatus::kMessage;
    };
    const auto ended = [&] { return stop_.load() ? ConnEnd::kExit : broken; };

    if (!ask(MsgType::kHello, encode_hello({fingerprint, opts_.name}))) return ended();
    if (msg.type == MsgType::kWelcome) {
      const auto welcome = decode_welcome(msg.payload);
      if (!welcome) return broken;
      report.ever_connected = true;
      if (!welcome->ok) {
        report.fatal_mismatch = true;
        return ConnEnd::kExit;
      }
      broken = ConnEnd::kLost;
      if (!ask(MsgType::kPull, "")) return ended();
    }

    for (;;) {
      if (msg.type == MsgType::kDone) {
        report.ever_connected = true;
        report.saw_done = true;
        return ConnEnd::kExit;
      }
      // Anything but DONE before WELCOME, or but JOB after it, is garbage.
      if (msg.type != MsgType::kJob || broken != ConnEnd::kLost) return broken;

      const auto assignment = decode_job(msg.payload);
      if (!assignment || assignment->index >= plan.num_jobs()) return broken;
      const std::size_t index = static_cast<std::size_t>(assignment->index);
      const CampaignJob& job = plan.job(index);
      // The coordinator's word is checked against OUR plan: same index
      // must mean same kind and same content key, or this connection is
      // serving a different campaign than the handshake claimed.
      if (assignment->kind != static_cast<std::uint32_t>(job.kind) ||
          assignment->key != job.key) {
        return broken;
      }
      if (opts_.kill_mid_job) return ConnEnd::kZombie;

      const bool metric = job.kind == CampaignJob::Kind::kMetric;
      std::string data;
      try {
        if (metric) {
          const auto parents = decode_runs(assignment->parent_runs);
          if (!parents || parents->size() != 1) return broken;
          data = encode_metric_record(plan.compute_metric(index, parents->front()));
        } else {
          data = encode_runs(plan.compute_cell(index));
        }
      } catch (...) {
        return broken;  // drop the connection; the job is retried elsewhere
      }
      if (!transport.send(encode_frame(
              {MsgType::kResult,
               encode_result({assignment->index, assignment->kind, job.key, std::move(data)})}))) {
        return broken;
      }
      ++(metric ? report.metrics : report.cells);
      if (opts_.kill_after_results >= 0 &&
          report.cells + report.metrics >= static_cast<std::uint64_t>(opts_.kill_after_results)) {
        return ConnEnd::kExit;  // abrupt: no goodbye, like a SIGKILL
      }
      if (!ask(MsgType::kPull, "")) return ended();
    }
  };

  int failures = 0;
  int backoff = kFirstBackoffMs;
  while (!stop_.load()) {
    std::unique_ptr<Transport> transport = tcp_connect(opts_.host, opts_.port, kConnectTimeoutMs);
    ConnEnd end = ConnEnd::kUnwelcomed;
    if (transport) {
      if (opts_.faults.any()) {
        transport = std::make_unique<FaultyTransport>(std::move(transport), opts_.faults);
      }
      end = drive(*transport);
      if (end == ConnEnd::kZombie) {
        zombie_ = std::move(transport);  // no EOF: a local backup finishes the job
        return report;
      }
      transport->shutdown();
    }
    if (end == ConnEnd::kExit) break;
    if (end == ConnEnd::kLost) {
      ++report.reconnects;  // a WELCOMEd session broke: reconnect once, at once
      continue;
    }
    // Unwelcomed.  After an earlier WELCOME that was the one reconnect:
    // the coordinator is gone.  Before any, it may not be up yet.
    if (report.ever_connected || ++failures > opts_.connect_attempts) break;
    for (const Timer t; !stop_.load() && t.millis() < backoff;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    backoff = std::min(backoff * 2, kMaxBackoffMs);
  }
  return report;
}

}  // namespace fne
