// fnebench — one workload of the repository benchmark (README.md).
//
// perfbench/run.py generates a workload's seeded inputs, writes a
// manifest naming them and runs this binary once per workload, so every
// workload has its own process (peak RSS and the process-wide EngineCache
// are per workload).  The run has five parts:
//
//   reference  every campaign once on 1 thread, and every service request
//              once in-process: the payloads everything else must match
//              byte for byte (untimed warm-up);
//   cold       set-up (parse + CampaignPlan + graph builds + fresh store)
//              then execution into the store on the executor threads;
//   replay     the same campaigns served from the populated store;
//   service    an in-process ScenarioService: an open loop at the
//              workload's fixed rate, then a closed loop with 2 clients;
//   result     every end-to-end metric (--trace=0) or every per-layer
//              metric (--trace=1), then one JSON line.
//
// Usage: fnebench --manifest=FILE --seconds=S --trace=0|1 [--corrupt]
//   --corrupt flips one byte of one payload before it is compared (the
//   self-test proves a mismatch is counted and fails the run).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/campaign.hpp"
#include "api/executor.hpp"
#include "service/service.hpp"
#include "trace.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using fnebench::Op;
using fnebench::Scope;
using Clock = std::chrono::steady_clock;
using fne::Timer;

/// Enough open-loop requests that at least ten lie beyond the 99th
/// percentile.
constexpr std::size_t kMinOpenRequests = 1100;
constexpr int kClients = 2;
constexpr int kRequestTimeoutMs = 60000;

struct Manifest {
  std::string workload;
  std::uint64_t seed = 0;
  int threads = 2;
  int service_workers = 2;
  double rate_rps = 0.0;  ///< open-loop rate of the traced run; 0: no load loops
  std::vector<std::string> campaigns;  ///< campaign files, run in order
  std::vector<std::string> requests;   ///< service request pool (campaign JSON text)
  std::string store_dir;
  std::string trace_out;
};

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FNE_REQUIRE(in.good(), "cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

[[nodiscard]] Manifest load_manifest(const std::string& path) {
  const fne::JsonValue v = fne::JsonValue::parse_file(path);
  Manifest m;
  m.workload = v.at("workload").as_string();
  m.seed = static_cast<std::uint64_t>(v.at("seed").as_int());
  m.threads = static_cast<int>(v.at("threads").as_int());
  m.service_workers = static_cast<int>(v.at("service_workers").as_int());
  m.rate_rps = v.at("rate_rps").as_number();
  for (const auto& p : v.at("campaigns").items()) m.campaigns.push_back(p.as_string());
  for (const auto& p : v.at("requests").items()) m.requests.push_back(read_file(p.as_string()));
  m.store_dir = v.at("store_dir").as_string();
  m.trace_out = v.at("trace_out").as_string();
  FNE_REQUIRE(!m.campaigns.empty() && !m.requests.empty() && m.rate_rps >= 0.0,
              "manifest needs campaigns and requests");
  return m;
}

/// Every correctness check of the run: payload comparisons, trace
/// verification, well-formed solver results, service responses.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 5) std::cerr << "fnebench: FAILED " << what << "\n";
  }
};

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] double median_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : fne::median(v);
}

[[nodiscard]] double quantile_of(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : fne::quantile(v, q);
}

/// Every replay-verified trace in a report must verify.
void check_traces(const fne::CampaignReport& report, Checks& checks) {
  for (const auto& entry : report.scenarios) {
    for (const auto& run : entry.runs) {
      if (run.trace.has_value()) {
        checks.expect(run.trace->valid, "trace verification in '" + entry.scenario.name + "'");
      }
    }
  }
}

/// Runs the plan's pending cells, then its pending metric jobs, on the
/// executor pool (the two passes CampaignRunner::run makes), and encodes
/// the deterministic payload.
[[nodiscard]] std::string execute(fne::CampaignPlan& plan, int threads) {
  std::vector<std::size_t> cells;
  std::vector<std::size_t> metric_jobs;
  for (std::size_t i = 0; i < plan.num_jobs(); ++i) {
    if (plan.done(i)) continue;
    (plan.job(i).kind == fne::CampaignJob::Kind::kMetric ? metric_jobs : cells).push_back(i);
  }
  fne::ExecutorPool::run(cells.size(), threads, [&](std::size_t p) {
    const std::size_t i = cells[p];
    std::vector<fne::ScenarioRun> runs;
    {
      const Scope span(Op::kCell);
      runs = plan.compute_cell(i);
    }
    const Scope span(Op::kAccept);
    FNE_REQUIRE(plan.accept_cell(i, std::move(runs)), "cell result rejected");
  });
  fne::ExecutorPool::run(metric_jobs.size(), threads, [&](std::size_t p) {
    const std::size_t i = metric_jobs[p];
    fne::MetricRecord record;
    {
      const Scope span(Op::kMetricJob);
      record = plan.compute_metric(i, plan.parent_run(i));
    }
    const Scope span(Op::kAccept);
    FNE_REQUIRE(plan.accept_metric(i, std::move(record)), "metric result rejected");
  });
  const Scope span(Op::kFinish);
  return plan.finish(threads, 0.0, {}).to_json(false);
}

struct Plans {
  std::vector<std::unique_ptr<fne::CampaignPlan>> plans;
  std::unique_ptr<fne::ResultStore> store;
};

/// Set-up as a user pays it in a fresh process: empty engine cache, parse,
/// plan construction (graph builds, alpha measurement), store open.
[[nodiscard]] Plans set_up(const Manifest& m, const std::string& store_dir) {
  fne::EngineCache::instance().clear();
  Plans out;
  for (const std::string& path : m.campaigns) {
    const Scope span(Op::kPlan);
    out.plans.push_back(
        std::make_unique<fne::CampaignPlan>(fne::campaign_from_file(path), m.threads));
  }
  const Scope span(Op::kStoreOpen);
  out.store = std::make_unique<fne::ResultStore>(store_dir);
  return out;
}

struct ColdSample {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint32_t pass = 0;
  std::vector<std::string> payloads;
  fne::EngineCacheStats cache;
};

[[nodiscard]] ColdSample cold_pass(const Manifest& m, const std::string& store_dir) {
  std::filesystem::remove_all(store_dir);
  const fne::EngineCacheStats cache_before = fne::EngineCache::instance().stats();
  ColdSample out;
  const Scope pass(Op::kPass);
  out.pass = pass.pass();
  const Timer setup;
  Plans p = set_up(m, store_dir);
  for (auto& plan : p.plans) {
    FNE_REQUIRE(plan->attach_store(*p.store) == 0, "a fresh store served cells");
  }
  out.setup_s = setup.seconds();
  const Timer wall;
  for (auto& plan : p.plans) out.payloads.push_back(execute(*plan, m.threads));
  out.wall_s = wall.seconds();
  out.cache = fne::EngineCache::instance().stats() - cache_before;
  return out;
}

struct ReplaySample {
  double wall_s = 0.0;
  std::uint32_t pass = 0;
  std::vector<std::string> payloads;
  bool all_served = true;
  fne::StoreStats store;
};

/// The warm path of a fresh process (reproduce's REQUIRE_WARM): open the
/// populated store, plan, serve every cell from disk, encode.
[[nodiscard]] ReplaySample replay_pass(const Manifest& m, const std::string& store_dir) {
  fne::EngineCache::instance().clear();
  ReplaySample out;
  const Scope pass(Op::kPass);
  out.pass = pass.pass();
  const Timer wall;
  std::unique_ptr<fne::ResultStore> store;
  {
    const Scope span(Op::kStoreOpen);
    store = std::make_unique<fne::ResultStore>(store_dir);
  }
  for (const std::string& path : m.campaigns) {
    std::unique_ptr<fne::CampaignPlan> plan;
    {
      const Scope span(Op::kPlan);
      plan = std::make_unique<fne::CampaignPlan>(fne::campaign_from_file(path), m.threads);
    }
    out.all_served = out.all_served && plan->attach_store(*store) == plan->num_cells();
    const Scope span(Op::kFinish);
    out.payloads.push_back(plan->finish(m.threads, 0.0, {}).to_json(false));
  }
  out.wall_s = wall.seconds();
  out.store = store->stats();
  return out;
}

struct ServiceSample {
  std::uint32_t pass = 0;
  std::vector<double> latency_ms;   ///< open loop, from each request's scheduled time
  std::vector<double> lag_ms;       ///< how late each open-loop request was sent
  std::vector<double> exec_ms;      ///< the same request run in-process
  std::vector<double> overhead_ms;  ///< round trip minus in-process time
  double rps = 0.0;  ///< closed loop
  double start_s = 0.0;  ///< service start + client connects
  std::size_t queue_depth_max = 0;
  fne::ServiceStats stats;
};

/// The request pool's reference payloads and in-process times (parse +
/// plan + run + encode on a warm engine cache, 1 thread: what a service
/// worker does for the request, without the service).
struct RequestPool {
  std::vector<std::string> texts;
  std::vector<std::string> payloads;
  std::vector<double> exec_ms;
};

[[nodiscard]] std::string run_request_locally(const std::string& text) {
  fne::CampaignRunner runner(fne::campaign_from_json(text));
  return runner.run(1).to_json(false);
}

[[nodiscard]] RequestPool reference_pool(const Manifest& m, Checks& checks) {
  RequestPool pool;
  pool.texts = m.requests;
  for (const std::string& text : pool.texts) {
    pool.payloads.push_back(run_request_locally(text));
    const Timer t;
    const std::string again = run_request_locally(text);
    pool.exec_ms.push_back(t.millis());
    checks.expect(again == pool.payloads.back(), "in-process request rerun payload");
  }
  return pool;
}

/// Starts an in-process service, sends every pool request through it once
/// (payloads checked; this also makes the pool's graphs resident), then,
/// when open_requests > 0, runs the open and closed loops.
[[nodiscard]] ServiceSample service_pass(const Manifest& m, const RequestPool& pool,
                                         std::size_t open_requests, double closed_s,
                                         Checks& checks) {
  ServiceSample out;
  const Scope pass(Op::kPass);
  out.pass = pass.pass();

  const Timer start_timer;
  fne::ServiceOptions options;
  options.workers = m.service_workers;
  options.exec_threads = 1;
  options.queue_depth = 4 * std::max<std::size_t>(open_requests, pool.texts.size());
  fne::ScenarioService service(options);
  service.start();
  std::vector<std::unique_ptr<fne::ServiceClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<fne::ServiceClient>("127.0.0.1", service.port()));
  }
  out.start_s = start_timer.seconds();

  // One request through the service; a reject, error, timeout or payload
  // mismatch is a failure.
  const auto request = [&](fne::ServiceClient& client, std::size_t k) {
    try {
      const Scope span(Op::kRequest);
      const fne::ServiceResponse r = client.campaign(pool.texts[k], 1, kRequestTimeoutMs);
      return r.ok() && r.payload == pool.payloads[k];
    } catch (const std::exception&) {
      return false;
    }
  };

  for (std::size_t k = 0; k < pool.texts.size(); ++k) {
    checks.expect(request(*clients[k % kClients], k), "service response payload");
  }

  if (open_requests > 0) {
    // Open loop: request i is due at t0 + i/rate whatever happened before.
    // Each client connection sends its share in order, so a request whose
    // connection is still busy goes out late; its latency still counts
    // from when it was due, and the lateness is the generator's lag.
    fne::Rng rng(m.seed ^ 0x5eed5eedULL);
    std::vector<std::size_t> pick(open_requests);
    for (auto& k : pick) k = static_cast<std::size_t>(rng.uniform(pool.texts.size()));
    out.latency_ms.assign(open_requests, 0.0);
    out.lag_ms.assign(open_requests, 0.0);
    std::vector<double> rtt_ms(open_requests, 0.0);
    std::vector<char> ok(open_requests, 0);
    std::atomic<bool> sampling{true};
    std::thread sampler([&] {
      while (sampling.load()) {
        out.queue_depth_max = std::max(out.queue_depth_max, service.queue_size());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    const auto period = std::chrono::duration<double>(1.0 / m.rate_rps);
    std::vector<std::thread> senders;
    for (int c = 0; c < kClients; ++c) {
      senders.emplace_back([&, c] {
        for (std::size_t i = static_cast<std::size_t>(c); i < open_requests; i += kClients) {
          const auto due = t0 + std::chrono::duration_cast<Clock::duration>(period * i);
          std::this_thread::sleep_until(due);
          const auto sent = Clock::now();
          ok[i] = request(*clients[static_cast<std::size_t>(c)], pick[i]) ? 1 : 0;
          const auto done = Clock::now();
          out.lag_ms[i] = ms_between(due, sent);
          rtt_ms[i] = ms_between(sent, done);
          out.latency_ms[i] = ms_between(due, done);
        }
      });
    }
    for (auto& t : senders) t.join();
    sampling.store(false);
    sampler.join();
    const double open_span_ms = ms_between(t0, Clock::now());
    for (std::size_t i = 0; i < open_requests; ++i) {
      checks.expect(ok[i] != 0, "open-loop response");
      // A failed request misses every latency limit.
      if (ok[i] == 0) out.latency_ms[i] = open_span_ms;
      out.exec_ms.push_back(pool.exec_ms[pick[i]]);
      out.overhead_ms.push_back(rtt_ms[i] - pool.exec_ms[pick[i]]);
    }

    // Closed loop: each client sends its next request when the previous
    // one returns, for closed_s seconds (capacity).
    std::vector<std::size_t> done_count(kClients, 0);
    std::vector<char> closed_ok(kClients, 1);
    const auto begin = Clock::now();
    const auto end = begin + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(closed_s));
    std::vector<Clock::time_point> last(kClients, begin);
    std::vector<std::thread> loopers;
    for (int c = 0; c < kClients; ++c) {
      loopers.emplace_back([&, c] {
        fne::Rng local = rng.fork(static_cast<std::uint64_t>(c));
        while (Clock::now() < end) {
          const auto k = static_cast<std::size_t>(local.uniform(pool.texts.size()));
          if (!request(*clients[static_cast<std::size_t>(c)], k)) closed_ok[c] = 0;
          ++done_count[c];
          last[c] = Clock::now();
        }
      });
    }
    for (auto& t : loopers) t.join();
    std::size_t completed = 0;
    auto finished = begin;
    for (int c = 0; c < kClients; ++c) {
      completed += done_count[c];
      finished = std::max(finished, last[c]);
      checks.expect(closed_ok[c] != 0, "closed-loop responses");
    }
    out.rps = static_cast<double>(completed) / (ms_between(begin, finished) / 1e3);
  }
  out.stats = service.stats();
  clients.clear();
  service.stop();
  return out;
}

[[nodiscard]] double peak_rss_mb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// -- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(30) << m.name << std::right << std::setw(16)
              << std::setprecision(6) << m.value << " " << m.unit;
    if (!m.note.empty()) std::cout << "  (" << m.note << ")";
    std::cout << "\n";
  }
}

[[nodiscard]] std::string result_json(const Checks& checks, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << checks.attempted << ", \"failed\": " << checks.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

// -- traced-run analysis ------------------------------------------------------

/// Span totals over a set of passes, per op.
struct Totals {
  std::array<double, static_cast<std::size_t>(Op::kCount)> dur_s{};
  std::array<double, static_cast<std::size_t>(Op::kCount)> self_s{};
  std::array<std::uint64_t, static_cast<std::size_t>(Op::kCount)> n{};
  std::map<std::string, double> metric_s;  ///< MetricsRegistry::compute by name
  std::map<std::string, double> layer_self_s;
  std::vector<double> cell_ms;
  double fiedler_in_cells_s = 0.0;

  [[nodiscard]] double dur(Op op) const { return dur_s[static_cast<std::size_t>(op)]; }
  [[nodiscard]] std::uint64_t count(Op op) const { return n[static_cast<std::size_t>(op)]; }
};

[[nodiscard]] Totals totals(const std::vector<fnebench::Span>& spans,
                            const std::set<std::uint32_t>& passes) {
  std::unordered_map<std::int64_t, std::size_t> at;
  for (std::size_t i = 0; i < spans.size(); ++i) at.emplace(spans[i].id, i);
  Totals t;
  for (const fnebench::Span& s : spans) {
    if (passes.count(s.pass) == 0) continue;
    const auto op = static_cast<std::size_t>(s.op);
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.dur_s[op] += d;
    t.self_s[op] += static_cast<double>(s.self_ns) * 1e-9;
    ++t.n[op];
    if (s.op != Op::kPass) {
      t.layer_self_s[fnebench::op_layer(s.op)] += static_cast<double>(s.self_ns) * 1e-9;
    }
    if (s.op == Op::kMetric) t.metric_s[fnebench::detail_name(s.detail)] += d;
    if (s.op == Op::kCell) t.cell_ms.push_back(d * 1e3);
    if (s.op == Op::kFiedler) {
      // Charge the solve to a cell only if a cell caused it (alpha
      // measurement in the plan is set-up work).
      for (auto it = at.find(s.parent); it != at.end(); it = at.find(spans[it->second].parent)) {
        const Op up = spans[it->second].op;
        if (up == Op::kCell) t.fiedler_in_cells_s += d;
        if (up == Op::kCell || up == Op::kMetricJob || up == Op::kPlan || up == Op::kPass) break;
      }
    }
  }
  return t;
}

[[nodiscard]] double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  const fne::Cli cli(argc, argv);
  if (!cli.has("manifest")) {
    std::cerr << "usage: fnebench --manifest=FILE --seconds=S --trace=0|1 [--corrupt]\n";
    return 2;
  }
  const Manifest m = load_manifest(cli.get("manifest", ""));
  const double seconds = cli.get_double("seconds", 10.0);
  const bool traced = cli.get_int("trace", 0) != 0;
  const bool corrupt = cli.has("corrupt");
  int omp_threads = 1;
#ifdef _OPENMP
  omp_threads = omp_get_max_threads();
#endif
  std::cout << "fnebench workload=" << m.workload << " seed=" << m.seed << " seconds=" << seconds
            << " trace=" << traced << " compiler=\"" << FNEBENCH_COMPILER
            << "\" build_type=" << FNEBENCH_BUILD_TYPE << " omp_threads=" << omp_threads
            << " executor_threads=" << m.threads << " service_workers=" << m.service_workers
            << "\n";
  Checks checks;
  std::ostringstream phases;
  Timer phase;
  const auto phase_done = [&](const char* name) {
    phases << " " << name << "=" << std::setprecision(3) << phase.seconds() << "s";
    phase.reset();
  };

  // Reference: 1 thread, in-process, untimed (also the warm-up).
  std::vector<std::string> reference;
  fne::EngineStats engine_work;
  std::size_t payload_bytes = 0;
  for (const std::string& path : m.campaigns) {
    const fne::CampaignReport report = fne::CampaignRunner(fne::campaign_from_file(path)).run(1);
    check_traces(report, checks);
    engine_work += report.total_engine_stats();
    reference.push_back(report.to_json(false));
    payload_bytes += reference.back().size();
  }
  const auto compare = [&](std::vector<std::string> payloads, const std::string& what) {
    checks.expect(payloads.size() == reference.size(), what + " campaign count");
    for (std::size_t i = 0; i < payloads.size() && i < reference.size(); ++i) {
      checks.expect(payloads[i] == reference[i], what + " payload of " + m.campaigns[i]);
    }
  };
  const RequestPool pool = reference_pool(m, checks);
  {
    std::vector<double> sorted = pool.exec_ms;
    std::sort(sorted.begin(), sorted.end());
    std::cout << "request pool: " << sorted.size() << " requests, in-process ms min "
              << sorted.front() << " median " << median_of(sorted) << " max " << sorted.back()
              << "\n";
  }
  phase_done("reference");

  // Cold passes, each followed by replays of the store it filled until
  // replay time is kReplayPerCold of cold time, so both phases sample the
  // same stretch of the run (a host slowdown of a few seconds hits both
  // alike instead of one phase whole).  Traced runs alternate untraced and
  // traced cold passes so the tracing overhead is measured on the same
  // process state; their replays are all traced.
  constexpr double kReplayPerCold = 0.25;
  const std::string cold_dir = m.store_dir + "/cold";
  std::vector<double> setup_s;
  std::vector<double> cold_s;
  std::vector<double> cold_traced_s;
  std::vector<double> replay_s;
  std::set<std::uint32_t> cold_passes;
  std::set<std::uint32_t> replay_passes;
  std::vector<fne::EngineCacheStats> cold_cache;
  fne::StoreStats replay_store;
  fnebench::Counts work;   // traced cold passes
  fnebench::Counts loads;  // replays
  const int min_cold = traced ? 4 : 3;
  const fnebench::Counts work_start = fnebench::counts();
  double cold_total_s = 0.0;
  double replay_total_s = 0.0;
  const Timer budget;
  for (int rep = 0; rep < 100; ++rep) {
    if (rep >= min_cold && replay_s.size() >= 5 && budget.seconds() >= 0.75 * seconds) break;
    const bool trace_this = traced && rep % 2 == 1;
    fnebench::Counts before = fnebench::counts();
    fnebench::set_enabled(trace_this);
    ColdSample s = cold_pass(m, cold_dir);
    fnebench::set_enabled(false);
    work += fnebench::counts() - before;
    if (corrupt && rep == 0 && !s.payloads.empty() && !s.payloads[0].empty()) {
      s.payloads[0][s.payloads[0].size() / 2] ^= 0x20;
    }
    compare(s.payloads, "cold");
    cold_total_s += s.wall_s;
    if (trace_this) {
      cold_traced_s.push_back(s.wall_s);
      cold_passes.insert(s.pass);
      cold_cache.push_back(s.cache);
    } else {
      setup_s.push_back(s.setup_s);
      cold_s.push_back(s.wall_s);
    }

    fnebench::set_enabled(traced);
    do {
      before = fnebench::counts();
      ReplaySample r = replay_pass(m, cold_dir);
      loads += fnebench::counts() - before;
      checks.expect(r.all_served, "replay served every cell from the store");
      compare(r.payloads, "replay");
      replay_s.push_back(r.wall_s);
      replay_total_s += r.wall_s;
      replay_passes.insert(r.pass);
      replay_store = r.store;
    } while (replay_total_s < kReplayPerCold * cold_total_s);
    fnebench::set_enabled(false);
  }
  // Top set-up samples up to five with set-up-only passes.
  while (setup_s.size() < 5) {
    std::filesystem::remove_all(m.store_dir + "/setup");
    const Timer t;
    const Plans p = set_up(m, m.store_dir + "/setup");
    setup_s.push_back(t.seconds());
  }
  phase_done("cold+replay");

  // Service.  The load loops run only in the traced run of a workload
  // with a rate: their latencies are per-layer metrics (README.md says why
  // they are not end-to-end ones).
  const std::size_t open_requests =
      traced && m.rate_rps > 0.0
          ? std::max<std::size_t>(kMinOpenRequests,
                                  static_cast<std::size_t>(m.rate_rps * 0.30 * seconds))
          : 0;
  const ServiceSample svc =
      service_pass(m, pool, open_requests, std::max(1.0, 0.10 * seconds), checks);
  fnebench::set_enabled(false);
  phase_done("service");
  const double rss_mb = peak_rss_mb();
  std::cout << "phases:" << phases.str() << "\n";

  std::vector<Metric> out;
  const auto n = [](std::size_t k) { return "n=" + std::to_string(k); };
  const auto range = [&](const std::vector<double>& v) {
    std::ostringstream os;
    os << "median, " << n(v.size()) << ", range " << std::setprecision(4)
       << *std::min_element(v.begin(), v.end()) << ".." << *std::max_element(v.begin(), v.end());
    return os.str();
  };
  if (!traced) {
    out.push_back({"setup_s", median_of(setup_s), "s", range(setup_s)});
    out.push_back({"campaign_wall_s", median_of(cold_s), "s", range(cold_s)});
    out.push_back({"replay_wall_s", median_of(replay_s), "s", range(replay_s)});
    out.push_back({"peak_rss_mb", rss_mb, "MB", "process high-water RSS"});
  } else {
    const std::vector<fnebench::Span> spans = fnebench::collect();
    if (!m.trace_out.empty()) fnebench::write_jsonl(m.trace_out, spans);
    const Totals cold = totals(spans, cold_passes);
    const Totals replay = totals(spans, replay_passes);
    const double passes = static_cast<double>(std::max<std::size_t>(1, cold_passes.size()));
    const double replays = static_cast<double>(std::max<std::size_t>(1, replay_passes.size()));
    const fnebench::Counts all = fnebench::counts() - work_start;

    fne::EngineCacheStats cache;
    std::uint64_t peak_bytes = 0;
    for (const auto& c : cold_cache) {
      cache.leases += c.leases;
      cache.engine_hits += c.engine_hits;
      cache.graph_builds += c.graph_builds;
      cache.evictions += c.evictions;
      peak_bytes = std::max(peak_bytes, c.peak_bytes);
    }
    const double busy_s =
        cold.dur(Op::kCell) + cold.dur(Op::kMetricJob) + cold.dur(Op::kAccept);
    double exec_wall_s = 0.0;
    for (const double s : cold_traced_s) exec_wall_s += s;
    double busy_total = 0.0;
    for (const auto& [layer, s] : cold.layer_self_s) busy_total += s;
    const auto self_frac = [&](const char* layer) {
      const auto it = cold.layer_self_s.find(layer);
      return it == cold.layer_self_s.end() ? 0.0 : ratio(it->second, busy_total);
    };
    const auto metric_s = [&](const char* name) {
      const auto it = cold.metric_s.find(name);
      return it == cold.metric_s.end() ? 0.0 : it->second / passes;
    };
    const double computed_bytes =
        12.0 * static_cast<double>(work.apply_nnz) + 32.0 * static_cast<double>(work.apply_rows);

    out = {
        {"campaign.plan_s", cold.dur(Op::kPlan) / passes, "s", "per cold pass"},
        {"campaign.cell_s", cold.dur(Op::kCell) / passes, "s", "per cold pass"},
        {"campaign.cell_p50_ms", quantile_of(cold.cell_ms, 0.50), "ms", n(cold.cell_ms.size())},
        {"campaign.cell_p99_ms", quantile_of(cold.cell_ms, 0.99), "ms", n(cold.cell_ms.size())},
        {"campaign.cells", static_cast<double>(cold.count(Op::kCell)) / passes, "count", ""},
        {"campaign.metric_s", cold.dur(Op::kMetricJob) / passes, "s", "split metric jobs"},
        {"campaign.metric_jobs", static_cast<double>(cold.count(Op::kMetricJob)) / passes,
         "count", ""},
        {"campaign.accept_s", cold.dur(Op::kAccept) / passes, "s", "incl. store puts"},
        {"campaign.encode_s", cold.dur(Op::kFinish) / passes, "s", "finish + to_json"},
        {"campaign.payload_bytes", static_cast<double>(payload_bytes), "bytes", ""},
        {"executor.leases", static_cast<double>(cache.leases) / passes, "count", ""},
        {"executor.engine_hit_ratio",
         ratio(static_cast<double>(cache.engine_hits), static_cast<double>(cache.leases)),
         "ratio", ""},
        {"executor.graph_builds", static_cast<double>(cache.graph_builds) / passes, "count", ""},
        {"executor.evictions", static_cast<double>(cache.evictions) / passes, "count", ""},
        {"executor.peak_bytes", static_cast<double>(peak_bytes), "bytes", "gauge"},
        {"executor.idle_frac", 1.0 - ratio(busy_s, m.threads * exec_wall_s), "ratio",
         "threads x wall - busy"},
        {"topology.build_s", cold.dur(Op::kGraph) / passes, "s", "EngineCache::graph"},
        {"topology.graphs", static_cast<double>(cache.graph_builds) / passes, "count", ""},
        {"prune.run_s", cold.dur(Op::kPrune) / passes, "s", ""},
        {"prune.iterations", static_cast<double>(engine_work.iterations), "count", ""},
        {"prune.eigensolves", static_cast<double>(engine_work.eigensolves), "count", ""},
        {"prune.culled_sets", static_cast<double>(work.culled_sets) / passes, "count", ""},
        {"prune.relabel_bfs_vertices", static_cast<double>(engine_work.relabel_bfs_vertices),
         "count", ""},
        {"expansion.find_s", cold.dur(Op::kFind) / passes, "s", ""},
        {"expansion.find_calls", static_cast<double>(cold.count(Op::kFind)) / passes, "count",
         ""},
        {"expansion.found_ratio",
         ratio(static_cast<double>(work.find_found), static_cast<double>(work.find_calls)),
         "ratio", ""},
        {"spectral.fiedler_s", cold.dur(Op::kFiedler) / passes, "s", ""},
        {"spectral.solves", static_cast<double>(cold.count(Op::kFiedler)) / passes, "count", ""},
        {"spectral.converged_ratio",
         all.fiedler_solves == 0 ? 1.0
                                 : ratio(static_cast<double>(all.fiedler_converged),
                                         static_cast<double>(all.fiedler_solves)),
         "ratio", "all traced solves"},
        {"spectral.share_of_cell", ratio(cold.fiedler_in_cells_s, cold.dur(Op::kCell)), "ratio",
         ""},
        {"spectral.apply_ns_per_nnz",
         ratio(static_cast<double>(work.apply_ns), static_cast<double>(work.apply_nnz)),
         "ns/nnz", ""},
        {"spectral.apply_computed_bytes", computed_bytes / passes, "bytes",
         "computed: 12 B per nnz + 32 B per row"},
        {"metrics.fragmentation_s", metric_s("fragmentation"), "s", ""},
        {"metrics.expansion_bracket_s", metric_s("expansion_bracket"), "s", ""},
        {"metrics.verify_trace_s", metric_s("verify_trace"), "s", ""},
        {"metrics.mesh_span_s", metric_s("mesh_span"), "s", ""},
        {"metrics.span_estimate_s", metric_s("span_estimate"), "s", ""},
        {"metrics.embedding_quality_s", metric_s("embedding_quality"), "s", ""},
        {"metrics.expander_certificate_s", metric_s("expander_certificate"), "s", ""},
        {"span.sets_examined", static_cast<double>(work.span_sets) / passes, "count", ""},
        {"store.open_s", replay.dur(Op::kStoreOpen) / replays, "s", "populated store"},
        {"store.put_s", cold.dur(Op::kStorePut) / passes, "s", ""},
        {"store.puts", static_cast<double>(cold.count(Op::kStorePut)) / passes, "count", ""},
        {"store.bytes_committed", static_cast<double>(work.store_put_bytes) / passes, "bytes",
         ""},
        {"store.load_s", replay.dur(Op::kStoreLoad) / replays, "s", ""},
        {"store.hits", static_cast<double>(loads.store_hits) / replays, "count", ""},
        {"store.bytes_loaded", static_cast<double>(loads.store_load_bytes) / replays, "bytes",
         ""},
        {"store.corrupt_records", static_cast<double>(replay_store.corrupt_records), "count",
         ""},
        {"service.start_s", svc.start_s, "s", "service start + connects"},
        {"service.p50_ms", quantile_of(svc.latency_ms, 0.50), "ms",
         "open loop, from the scheduled send, " + n(svc.latency_ms.size())},
        {"service.p99_ms", quantile_of(svc.latency_ms, 0.99), "ms", n(svc.latency_ms.size())},
        {"service.rps", svc.rps, "1/s", "closed loop, 2 clients"},
        {"service.exec_p50_ms", quantile_of(svc.exec_ms, 0.50), "ms", "same request in-process"},
        {"service.overhead_p50_ms", quantile_of(svc.overhead_ms, 0.50), "ms",
         "round trip - exec"},
        {"service.queue_depth_max", static_cast<double>(svc.queue_depth_max), "count", ""},
        {"service.completed", static_cast<double>(svc.stats.completed), "count", ""},
        {"service.rejected",
         static_cast<double>(svc.stats.rejected_queue_full + svc.stats.rejected_expired +
                             svc.stats.rejected_oversized),
         "count", ""},
        {"service.errors", static_cast<double>(svc.stats.errors), "count", ""},
        {"loadgen.lag_p99_ms", quantile_of(svc.lag_ms, 0.99), "ms", "open-loop send lateness"},
        {"trace.overhead_frac", ratio(median_of(cold_traced_s), median_of(cold_s)) - 1.0, "ratio",
         "traced vs untraced campaign_wall_s"},
        {"self.campaign_frac", self_frac("campaign"), "ratio", "share of traced busy time"},
        {"self.store_frac", self_frac("store"), "ratio", ""},
        {"self.topology_frac", self_frac("topology"), "ratio", ""},
        {"self.prune_frac", self_frac("prune"), "ratio", ""},
        {"self.expansion_frac", self_frac("expansion"), "ratio", ""},
        {"self.spectral_frac", self_frac("spectral"), "ratio", ""},
        {"self.metrics_frac", self_frac("metrics"), "ratio", ""},
        {"self.span_frac", self_frac("span"), "ratio", ""},
    };
    // Every traced Fiedler solve must return a well-formed result.
    // Convergence is reported (spectral.converged_ratio), not required:
    // the library caps Lanczos iterations and uses the vector it has.
    for (std::uint64_t i = 0; i < all.fiedler_solves; ++i) {
      checks.expect(i >= all.fiedler_malformed, "traced Fiedler solve well-formed");
    }
  }
  const double fail_frac =
      checks.attempted == 0 ? 0.0
                            : static_cast<double>(checks.failed) /
                                  static_cast<double>(checks.attempted);
  print_metrics(out);
  std::cout << "  fail_frac " << fail_frac << " (" << checks.failed << " of " << checks.attempted
            << " checks)\n";
  std::cout << result_json(checks, out) << std::endl;
  return checks.failed == 0 ? 0 : 1;
}
