#include "api/campaign.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <initializer_list>
#include <iostream>
#include <utility>

#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "expansion/exact.hpp"
#include "store/key.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace fne {

namespace {

// ---------------------------------------------------------------------------
// JSON -> Campaign
// ---------------------------------------------------------------------------

/// Registry-style hygiene for config files: an unknown key is a typo and
/// fails loudly, naming the offender and the context.
void check_keys(const JsonValue& obj, const std::string& context,
                std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : obj.members()) {
    const bool known =
        std::any_of(allowed.begin(), allowed.end(),
                    [&](const char* a) { return key == a; });
    FNE_REQUIRE(known, "campaign: " + context + " has no key '" + key + "' (allowed: " +
                           join_list({allowed.begin(), allowed.end()}) + ")");
  }
}

[[nodiscard]] Params params_from_json(const JsonValue& obj, const std::string& context) {
  Params out;
  for (const auto& [key, value] : obj.members()) {
    switch (value.kind()) {
      case JsonValue::Kind::kString:
        out.set(key, value.as_string());
        break;
      case JsonValue::Kind::kBool:
        out.set(key, std::string(value.as_bool() ? "1" : "0"));
        break;
      case JsonValue::Kind::kNumber: {
        const double d = value.as_number();
        // Integral numbers round-trip as integers so "side": 24 matches
        // the flag form side=24 byte-for-byte in Params::to_string().
        if (static_cast<double>(static_cast<std::int64_t>(d)) == d) {
          out.set(key, static_cast<std::int64_t>(d));
        } else {
          out.set(key, d);
        }
        break;
      }
      default:
        FNE_REQUIRE(false, "campaign: " + context + "." + key +
                               " must be a scalar (string, number or bool)");
    }
  }
  return out;
}

void apply_scenario_json(Scenario& s, const JsonValue& obj) {
  check_keys(obj, "scenario entry",
             {"preset", "name", "seed", "repetitions", "topology", "fault", "prune", "metrics",
              "sweep"});
  if (const JsonValue* v = obj.find("name")) s.name = v->as_string();
  if (const JsonValue* v = obj.find("seed")) {
    s.seed = narrow_in_range<std::uint64_t>("campaign: seed", v->as_int(), 0, INT64_MAX);
  }
  if (const JsonValue* v = obj.find("repetitions")) {
    s.repetitions = narrow_in_range<int>("campaign: repetitions", v->as_int(), 1, INT_MAX);
  }
  if (const JsonValue* v = obj.find("topology")) {
    check_keys(*v, "topology", {"name", "params"});
    if (const JsonValue* name = v->find("name")) {
      if (name->as_string() != s.topology.name) s.topology = {name->as_string(), Params{}};
    }
    if (const JsonValue* params = v->find("params")) {
      const Params parsed = params_from_json(*params, "topology.params");
      for (const auto& [k, val] : parsed.values()) s.topology.params.set(k, val);
    }
  }
  if (const JsonValue* v = obj.find("fault")) {
    check_keys(*v, "fault", {"name", "params"});
    if (const JsonValue* name = v->find("name")) {
      if (name->as_string() != s.fault.name) s.fault = {name->as_string(), Params{}};
    }
    if (const JsonValue* params = v->find("params")) {
      const Params parsed = params_from_json(*params, "fault.params");
      for (const auto& [k, val] : parsed.values()) s.fault.params.set(k, val);
    }
  }
  if (const JsonValue* v = obj.find("prune")) {
    check_keys(*v, "prune",
               {"kind", "alpha", "epsilon", "fast", "max_iterations"});
    if (const JsonValue* kind = v->find("kind")) {
      const std::string& k = kind->as_string();
      FNE_REQUIRE(k == "node" || k == "edge", "campaign: prune.kind must be node or edge");
      s.prune.kind = k == "node" ? ExpansionKind::Node : ExpansionKind::Edge;
    }
    if (const JsonValue* a = v->find("alpha")) s.prune.alpha = a->as_number();
    if (const JsonValue* e = v->find("epsilon")) s.prune.epsilon = e->as_number();
    if (const JsonValue* f = v->find("fast")) s.prune.fast = f->as_bool();
    if (const JsonValue* m = v->find("max_iterations")) {
      s.prune.max_iterations =
          narrow_in_range<int>("campaign: prune.max_iterations", m->as_int(), 0, INT_MAX);
    }
  }
  if (const JsonValue* v = obj.find("metrics")) {
    check_keys(*v, "metrics",
               {"fragmentation", "expansion", "verify_trace", "bracket_exact_limit",
                "requests"});
    if (const JsonValue* f = v->find("fragmentation")) s.metrics.fragmentation = f->as_bool();
    if (const JsonValue* e = v->find("expansion")) s.metrics.expansion = e->as_bool();
    if (const JsonValue* t = v->find("verify_trace")) s.metrics.verify_trace = t->as_bool();
    if (const JsonValue* b = v->find("bracket_exact_limit")) {
      s.metrics.bracket_exact_limit = narrow_in_range<vid>(
          "campaign: metrics.bracket_exact_limit", b->as_int(), 0, kExactExpansionLimit);
    }
    if (const JsonValue* r = v->find("requests")) {
      // Registered-metric requests replace the preset's list wholesale
      // (like a topology name change: a partial merge of two metric
      // lists has no sensible semantics).  Unknown metric names and
      // undeclared params fail here, at parse time, with the registered
      // alternatives listed — same hygiene as every other unknown key.
      s.metrics.requests.clear();
      for (const JsonValue& item : r->items()) {
        check_keys(item, "metrics.requests entry", {"name", "params"});
        MetricRequest request;
        request.name = item.at("name").as_string();
        if (const JsonValue* p = item.find("params")) {
          request.params =
              params_from_json(*p, "metrics.requests." + request.name + ".params");
        }
        s.metrics.requests.push_back(std::move(request));
      }
      check_metric_requests(s);
    }
  }
}

[[nodiscard]] std::optional<SweepSpec> sweep_from_json(const JsonValue& obj) {
  const JsonValue* v = obj.find("sweep");
  if (v == nullptr) return std::nullopt;
  check_keys(*v, "sweep", {"param", "values", "mode"});
  SweepSpec sweep;
  sweep.param = v->at("param").as_string();
  for (const JsonValue& value : v->at("values").items()) {
    sweep.values.push_back(value.as_number());
  }
  FNE_REQUIRE(!sweep.values.empty(), "campaign: sweep.values must be non-empty");
  if (const JsonValue* mode = v->find("mode")) {
    const std::string& m = mode->as_string();
    FNE_REQUIRE(m == "independent" || m == "monotone",
                "campaign: sweep.mode must be independent or monotone");
    sweep.mode = m == "monotone" ? SweepMode::kMonotone : SweepMode::kIndependent;
  }
  return sweep;
}

// ---------------------------------------------------------------------------
// Report serialization
// ---------------------------------------------------------------------------

void put_engine_stats(JsonObject& obj, const EngineStats& st) {
  obj.put("runs", st.runs)
      .put("iterations", st.iterations)
      .put("eigensolves", st.eigensolves)
      .put("stale_sweeps", st.stale_sweeps)
      .put("stale_sweep_hits", st.stale_sweep_hits)
      .put("disconnected_culls", st.disconnected_culls)
      .put("relabel_bfs_calls", st.relabel_bfs_calls)
      .put("relabel_bfs_vertices", st.relabel_bfs_vertices);
}

/// One run as the next element of the open "runs" array.
void put_run_record(JsonObject& obj, const ScenarioRun& run, const MetricsSpec& metrics,
                    bool include_timing) {
  obj.open_object()
      .put("rep", run.repetition)
      .put("fault_seed", run.fault_seed)
      .put("finder_seed", run.finder_seed)
      .put("faults", static_cast<std::uint64_t>(run.faults))
      .put("alive", static_cast<std::uint64_t>(run.alive.count()))
      .put("survivors", static_cast<std::uint64_t>(run.prune.survivors.count()))
      .put("survivor_hash", mask_hash(run.prune.survivors))
      .put("culled", static_cast<std::uint64_t>(run.prune.total_culled))
      .put("iterations", run.prune.iterations);
  if (metrics.fragmentation) {
    obj.put("gamma", run.fragmentation.gamma)
        .put("components", static_cast<std::uint64_t>(run.fragmentation.num_components));
  }
  if (run.expansion.has_value()) {
    obj.put("expansion_lower", run.expansion->lower)
        .put("expansion_upper", run.expansion->upper);
  }
  if (run.trace.has_value()) obj.put("trace_valid", run.trace->valid);
  if (!run.metrics.empty()) {
    // Registered-metric payloads are deterministic by the MetricsRegistry
    // contract, so they belong to the thread-count-independent payload.
    obj.open_object("metrics");
    for (const MetricRecord& m : run.metrics) obj.put_json(m.name, m.payload);
    obj.close();
  }
  if (include_timing) obj.put("millis", run.millis);
  obj.close();
}

/// One scenario as the next element of the open "scenarios" array.
void put_scenario_report(JsonObject& obj, const ScenarioReport& report, bool include_timing) {
  const Scenario& s = report.scenario;
  obj.open_object()
      .put("name", s.name)
      .put("topology", s.topology.name)
      .put("topo_params", s.topology.params.to_string())
      .put("fault", s.fault.name)
      .put("fault_params", s.fault.params.to_string())
      .put("kind", s.prune.kind == ExpansionKind::Node ? "node" : "edge")
      .put("fast", s.prune.fast)
      .put("n", static_cast<std::uint64_t>(report.n))
      .put("alpha", report.alpha)
      .put("epsilon", report.epsilon)
      .put("seed", s.seed)
      .put("repetitions", s.repetitions);
  if (!s.metrics.requests.empty()) {
    std::string requested;
    for (const MetricRequest& r : s.metrics.requests) {
      if (!requested.empty()) requested += ";";
      requested += r.name;
      if (!r.params.empty()) requested += "[" + r.params.to_string() + "]";
    }
    obj.put("metrics_requested", requested);
  }
  if (report.sweep.has_value()) {
    obj.put("sweep_param", report.sweep->param)
        .put("sweep_mode",
             report.sweep->mode == SweepMode::kMonotone ? "monotone" : "independent")
        .put_numbers("sweep_values", report.sweep->values);
  }
  obj.open_array("runs");
  for (const ScenarioRun& run : report.runs) put_run_record(obj, run, s.metrics, include_timing);
  obj.close().open_object("engine");
  put_engine_stats(obj, report.engine);
  obj.close();
  if (include_timing) obj.put("millis", report.millis);
  obj.close();
}

}  // namespace

namespace {

[[nodiscard]] Campaign campaign_from_doc(const JsonValue& doc) {
  check_keys(doc, "campaign", {"name", "scenarios"});
  Campaign campaign;
  if (const JsonValue* name = doc.find("name")) campaign.name = name->as_string();
  const JsonValue& entries = doc.at("scenarios");
  FNE_REQUIRE(!entries.items().empty(), "campaign: scenarios must be non-empty");
  for (const JsonValue& entry : entries.items()) {
    CampaignEntry e;
    if (const JsonValue* preset = entry.find("preset")) {
      e.scenario = named_scenario(preset->as_string());
    }
    apply_scenario_json(e.scenario, entry);
    e.sweep = sweep_from_json(entry);
    campaign.entries.push_back(std::move(e));
  }
  return campaign;
}

}  // namespace

Campaign campaign_from_json(const std::string& text) {
  return campaign_from_doc(JsonValue::parse(text));
}

Campaign campaign_from_file(const std::string& path) {
  Campaign campaign = campaign_from_doc(JsonValue::parse_file(path));
  if (campaign.name == "campaign") campaign.name = path;  // unnamed files report their path
  return campaign;
}

Campaign catalog_campaign(int repetitions) {
  FNE_REQUIRE(repetitions >= 1, "catalog campaign needs >= 1 repetition");
  Campaign campaign;
  campaign.name = "catalog";
  for (Scenario s : scenario_catalog()) {
    s.repetitions = repetitions;
    campaign.entries.push_back({std::move(s), std::nullopt});
  }
  return campaign;
}

EngineStats CampaignReport::total_engine_stats() const {
  EngineStats total;
  for (const ScenarioReport& s : scenarios) total += s.engine;
  return total;
}

std::string CampaignReport::to_json(bool include_timing) const {
  // Capacity hint: a run record without metrics is about 230 bytes.
  std::size_t num_runs = 0;
  for (const ScenarioReport& s : scenarios) num_runs += s.runs.size();
  JsonObject top;
  top.reserve(1024 + 256 * num_runs).put("name", name).put("kind", "campaign_report");
  top.open_array("scenarios");
  for (const ScenarioReport& s : scenarios) put_scenario_report(top, s, include_timing);
  top.close().open_object("engine_total");
  put_engine_stats(top, total_engine_stats());
  top.close();
  if (include_timing) {
    top.put("threads", threads)
        .put("millis", millis)
        .open_object("cache")
        .put("leases", cache.leases)
        .put("engine_hits", cache.engine_hits)
        .put("engine_builds", cache.engine_builds)
        .put("graph_hits", cache.graph_hits)
        .put("graph_builds", cache.graph_builds)
        .put("evictions", cache.evictions)
        .put("bytes_resident", cache.bytes_resident)
        .put("peak_bytes", cache.peak_bytes)
        .close();
    if (store_enabled) {
      // The hit/miss split depends on store state, not on the campaign —
      // timing payload only, like the cache counters above.
      top.open_object("store")
          .put("hits", store.hits)
          .put("misses", store.misses)
          .put("bytes_loaded", store.bytes_loaded)
          .put("bytes_committed", store.bytes_committed)
          .put("corrupt_records", store.corrupt_records)
          .put("truncated_bytes", store.truncated_bytes)
          .put("rotated_files", store.rotated_files)
          .close();
    }
  }
  return std::move(top).dump();
}

// ---------------------------------------------------------------------------
// CampaignPlan
// ---------------------------------------------------------------------------

namespace {

/// Everything a campaign can get wrong in its entries, checked before any
/// graph is built: registered names, prune numbers, metric requests, and
/// each sweep.  α must be finite (<= 0 means "measure it") and ε below 1
/// (<= 0 means the kind's canonical value), the ranges PruneEngine::run
/// enforces.  A sweep's param must be one its fault model declares, and a
/// monotone sweep additionally needs a declared-monotone param and strictly
/// ascending values (the masks nest only then).  Left to the jobs, a bad
/// sweep would fail only after every other cell had run and committed.
void check_campaign(const Campaign& campaign) {
  FNE_REQUIRE(!campaign.entries.empty(), "campaign needs >= 1 entry");
  for (const CampaignEntry& e : campaign.entries) {
    (void)TopologyRegistry::instance().at(e.scenario.topology.name);
    const FaultModelEntry& model = FaultModelRegistry::instance().at(e.scenario.fault.name);
    FNE_REQUIRE(std::isfinite(e.scenario.prune.alpha),
                "campaign entry '" + e.scenario.name + "': prune.alpha must be finite");
    FNE_REQUIRE(e.scenario.prune.epsilon < 1.0,
                "campaign entry '" + e.scenario.name +
                    "': prune.epsilon must be < 1 (<= 0 picks the kind's canonical value)");
    check_metric_requests(e.scenario);
    if (!e.sweep.has_value()) continue;
    const SweepSpec& sweep = *e.sweep;
    const std::string who = "campaign entry '" + e.scenario.name + "': sweep over '" +
                            sweep.param + "'";
    FNE_REQUIRE(!sweep.values.empty(), who + " needs values");
    FNE_REQUIRE(FaultModelRegistry::declares(model, sweep.param),
                who + ": fault model '" + model.name + "' has no such param");
    if (sweep.mode != SweepMode::kMonotone) continue;
    const bool monotone = std::find(model.monotone_params.begin(), model.monotone_params.end(),
                                    sweep.param) != model.monotone_params.end();
    FNE_REQUIRE(monotone, who + ": fault model '" + model.name +
                              "' does not declare the param monotone; use the independent mode");
    const bool ascending =
        std::adjacent_find(sweep.values.begin(), sweep.values.end(),
                           [](double a, double b) { return !(a < b); }) == sweep.values.end();
    FNE_REQUIRE(ascending, who + ": monotone sweep values must be strictly ascending");
  }
}

// Group-commit threshold (key + payload bytes queued).  It bounds what a
// killed process can lose — at most one batch, which a resumed run
// recomputes — while one write() carries hundreds of small cells.
constexpr std::size_t kCommitBatchBytes = 64 * 1024;

}  // namespace

CampaignPlan::CampaignPlan(const Campaign& campaign, int threads) : campaign_(campaign) {
  check_campaign(campaign_);
  FNE_REQUIRE(threads >= 1, "campaign threads must be >= 1");

  // Resolve every entry: graph build (cache-shared) and α/ε measurement,
  // parallelized across entries.  Runner construction is a pure function
  // of the Scenario, so placement cannot change a bit.
  const std::size_t num_entries = campaign_.entries.size();
  runners_.resize(num_entries);
  ExecutorPool::run(num_entries, threads, [&](std::size_t e) {
    runners_[e] = std::make_unique<ScenarioRunner>(campaign_.entries[e].scenario);
  });

  // Flatten the schedule.  A monotone sweep chain is ONE serial cell (its
  // points are order-dependent); everything else is one cell per run.
  // Non-chain cells whose entry requests split-declared metrics get one
  // kMetric child per such request, scheduled right after their parent.
  // Keys are computed unconditionally: the store wants them, and the dist
  // protocol names every job by its cell key on the wire.
  results_.resize(num_entries);
  for (std::size_t e = 0; e < num_entries; ++e) {
    const CampaignEntry& entry = campaign_.entries[e];
    std::vector<std::size_t> split_requests;
    for (std::size_t i = 0; i < entry.scenario.metrics.requests.size(); ++i) {
      if (MetricsRegistry::instance().at(entry.scenario.metrics.requests[i].name).split_job) {
        split_requests.push_back(i);
      }
    }
    const auto push_cell = [&](CampaignJob job) {
      const std::size_t cell = jobs_.size();
      jobs_.push_back(std::move(job));
      children_.emplace_back();
      ++num_cells_;
      if (jobs_[cell].kind == CampaignJob::Kind::kChain) return;
      for (const std::size_t r : split_requests) {
        CampaignJob m;
        m.kind = CampaignJob::Kind::kMetric;
        m.entry = e;
        m.rep = jobs_[cell].rep;
        m.sweep_point = jobs_[cell].sweep_point;
        m.request = r;
        m.parent = cell;
        m.key = jobs_[cell].key;
        children_[cell].push_back(jobs_.size());
        jobs_.push_back(std::move(m));
        children_.emplace_back();
      }
    };
    if (entry.sweep.has_value() && entry.sweep->mode == SweepMode::kMonotone) {
      results_[e].resize(0);
      CampaignJob job;
      job.kind = CampaignJob::Kind::kChain;
      job.entry = e;
      job.key = store_cell_key(entry.scenario, entry.scenario.fault, 0, &*entry.sweep);
      push_cell(std::move(job));
    } else if (entry.sweep.has_value()) {
      results_[e].resize(entry.sweep->values.size());
      for (std::size_t j = 0; j < entry.sweep->values.size(); ++j) {
        CampaignJob job;
        job.kind = CampaignJob::Kind::kSweepPoint;
        job.entry = e;
        job.sweep_point = static_cast<int>(j);
        FaultSpec fault = entry.scenario.fault;
        fault.params.set(entry.sweep->param, entry.sweep->values[j]);
        job.key = store_cell_key(entry.scenario, fault, 0);
        push_cell(std::move(job));
      }
    } else {
      results_[e].resize(static_cast<std::size_t>(entry.scenario.repetitions));
      const std::string prefix = store_key_prefix(entry.scenario, entry.scenario.fault);
      for (int r = 0; r < entry.scenario.repetitions; ++r) {
        CampaignJob job;
        job.kind = CampaignJob::Kind::kRep;
        job.entry = e;
        job.rep = r;
        job.key = store_cell_key(prefix, r);
        push_cell(std::move(job));
      }
    }
  }

  job_done_ = std::vector<std::atomic<bool>>(jobs_.size());
  missing_metrics_.assign(jobs_.size(), 0);
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    missing_metrics_[i] = children_[i].size();
  }
  remaining_ = jobs_.size();
}

std::uint64_t CampaignPlan::fingerprint() const {
  Fnv1a h;
  h.text(campaign_.name);
  for (const CampaignJob& job : jobs_) {
    h.word(static_cast<std::uint64_t>(job.kind));
    h.word(job.entry);
    h.word(static_cast<std::uint64_t>(job.rep));
    h.word(static_cast<std::uint64_t>(static_cast<std::int64_t>(job.sweep_point)));
    h.word(job.request);
    h.word(job.parent);
    h.text(job.key);
  }
  return h.value();
}

const CampaignJob& CampaignPlan::job(std::size_t i) const {
  FNE_REQUIRE(i < jobs_.size(), "campaign plan: job index out of range");
  return jobs_[i];
}

std::size_t CampaignPlan::cell_slot(const CampaignJob& job) const {
  return job.sweep_point >= 0 ? static_cast<std::size_t>(job.sweep_point)
                              : static_cast<std::size_t>(job.rep);
}

std::size_t CampaignPlan::expected_runs(std::size_t i) const {
  const CampaignJob& job = this->job(i);
  FNE_REQUIRE(job.kind != CampaignJob::Kind::kMetric,
              "campaign plan: expected_runs on a metric job");
  return job.kind == CampaignJob::Kind::kChain
             ? campaign_.entries[job.entry].sweep->values.size()
             : 1;
}

std::vector<ScenarioRun> CampaignPlan::compute_cell(std::size_t i) const {
  const CampaignJob& job = this->job(i);
  const CampaignEntry& entry = campaign_.entries[job.entry];
  const ScenarioRunner& runner = *runners_[job.entry];
  switch (job.kind) {
    case CampaignJob::Kind::kChain:
      return runner.run_monotone_chain(entry.sweep->param, entry.sweep->values);
    case CampaignJob::Kind::kSweepPoint: {
      FaultSpec fault = entry.scenario.fault;
      fault.params.set(entry.sweep->param,
                       entry.sweep->values[static_cast<std::size_t>(job.sweep_point)]);
      return {runner.run_isolated(fault, 0, !children_[i].empty())};
    }
    case CampaignJob::Kind::kRep:
      return {runner.run_isolated(entry.scenario.fault, job.rep, !children_[i].empty())};
    case CampaignJob::Kind::kMetric:
      break;
  }
  FNE_REQUIRE(false, "campaign plan: compute_cell on a metric job");
  return {};
}

MetricRecord CampaignPlan::compute_metric(std::size_t i,
                                          const ScenarioRun& parent_run) const {
  const CampaignJob& job = this->job(i);
  FNE_REQUIRE(job.kind == CampaignJob::Kind::kMetric,
              "campaign plan: compute_metric on a cell job");
  return runners_[job.entry]->compute_metric_request(parent_run, job.request);
}

ScenarioRun CampaignPlan::parent_run(std::size_t metric_job) const {
  const CampaignJob& job = this->job(metric_job);
  FNE_REQUIRE(job.kind == CampaignJob::Kind::kMetric,
              "campaign plan: parent_run on a cell job");
  const std::lock_guard<std::mutex> lock(mutex_);
  FNE_REQUIRE(done(job.parent), "campaign plan: parent cell not done for metric job");
  return results_[job.entry][cell_slot(job)];
}

CampaignPlan::~CampaignPlan() {
  // A cancelled or failed run unwinds through here without finish():
  // commit the cells it did accept so a resubmission resumes from them.
  // A write error cannot propagate out of a destructor, so it is reported
  // on stderr; the lost cells recompute on resume like any miss.
  try {
    flush_commits();
  } catch (const std::exception& e) {
    std::cerr << "warning: campaign plan: queued cells not committed (" << e.what()
              << "); a resumed run recomputes them\n";
  }
}

void CampaignPlan::commit(StoreRecord record) {
  std::vector<StoreRecord> batch;
  {
    const std::lock_guard<std::mutex> lock(commit_mutex_);
    commit_bytes_ += record.key.size() + record.payload.size();
    commit_queue_.push_back(std::move(record));
    if (commit_bytes_ < kCommitBatchBytes) return;
    batch.swap(commit_queue_);
    commit_bytes_ = 0;
  }
  store_.load()->put_many(batch);
}

void CampaignPlan::flush_commits() {
  std::vector<StoreRecord> batch;
  {
    const std::lock_guard<std::mutex> lock(commit_mutex_);
    batch.swap(commit_queue_);
    commit_bytes_ = 0;
  }
  if (!batch.empty()) store_.load()->put_many(batch);
}

bool CampaignPlan::accept_cell(std::size_t i, std::vector<ScenarioRun> runs) {
  const CampaignJob& job = this->job(i);
  FNE_REQUIRE(job.kind != CampaignJob::Kind::kMetric,
              "campaign plan: accept_cell on a metric job");
  if (runs.size() != expected_runs(i)) return false;
  // A childless cell is complete on acceptance, so it is encoded here,
  // before the plan lock.  A cell with split metrics is committed by its
  // last accept_metric instead: the store only ever holds complete cells,
  // so a resumed run never serves a half-measured record.  Served cells
  // are already done and never reach the commit.
  std::optional<StoreRecord> record;
  if (children_[i].empty() && store_.load() != nullptr) {
    record = StoreRecord{job.key, encode_runs(runs)};
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (done(i)) return false;  // duplicate completion: first write won
    if (job.kind == CampaignJob::Kind::kChain) {
      results_[job.entry] = std::move(runs);
    } else {
      results_[job.entry][cell_slot(job)] = std::move(runs.front());
    }
    mark_done_locked(i);
  }
  if (record.has_value()) commit(std::move(*record));
  return true;
}

bool CampaignPlan::accept_metric(std::size_t i, MetricRecord record) {
  const CampaignJob& job = this->job(i);
  if (job.kind != CampaignJob::Kind::kMetric) return false;
  const std::string& expected_name =
      campaign_.entries[job.entry].scenario.metrics.requests[job.request].name;
  if (record.name != expected_name) return false;  // wrong/forged record
  std::optional<StoreRecord> cell;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!done(job.parent)) return false;  // parent not merged yet
    if (done(i)) return false;            // duplicate completion
    ScenarioRun& run = results_[job.entry][cell_slot(job)];
    run.metrics[job.request] = std::move(record);
    mark_done_locked(i);
    // The parent's last metric completes it (a metric job carries its
    // parent's key and slot).
    if (--missing_metrics_[job.parent] == 0 && store_.load() != nullptr) {
      cell = StoreRecord{job.key, encode_runs({&run, 1})};
    }
  }
  if (cell.has_value()) commit(std::move(*cell));
  return true;
}

bool CampaignPlan::done(std::size_t i) const {
  (void)this->job(i);
  return job_done_[i].load(std::memory_order_acquire);
}

void CampaignPlan::mark_done_locked(std::size_t i) {
  job_done_[i].store(true, std::memory_order_release);
  --remaining_;
}

bool CampaignPlan::all_done() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return remaining_ == 0;
}

std::uint64_t CampaignPlan::attach_store(ResultStore& store) {
  store.refresh();  // pick up cells committed by other processes
  const std::lock_guard<std::mutex> lock(mutex_);
  FNE_REQUIRE(store_.load() == nullptr, "campaign plan: store already attached");
  store_.store(&store);
  store_before_ = store.stats();
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const CampaignJob& job = jobs_[i];
    if (job.kind == CampaignJob::Kind::kMetric || done(i)) continue;
    const std::optional<std::string> payload = store.load(job.key);
    if (!payload.has_value()) continue;
    std::optional<std::vector<ScenarioRun>> runs = decode_runs(*payload);
    // Undecodable or wrong-shape records degrade to a miss — recompute,
    // never crash.  Committed cells are always complete, so their metric
    // children complete with them.
    if (!runs.has_value() || runs->size() != expected_runs(i)) continue;
    if (job.kind == CampaignJob::Kind::kChain) {
      results_[job.entry] = std::move(*runs);
    } else {
      results_[job.entry][cell_slot(job)] = std::move(runs->front());
    }
    mark_done_locked(i);
    ++served_cells_;
    for (const std::size_t child : children_[i]) {
      mark_done_locked(child);
      --missing_metrics_[i];
    }
  }
  return served_cells_;
}

std::uint64_t CampaignPlan::cells_served() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return served_cells_;
}

CampaignReport CampaignPlan::finish(int threads, double millis,
                                    const EngineCacheStats& cache_delta) {
  flush_commits();
  const std::lock_guard<std::mutex> lock(mutex_);
  FNE_REQUIRE(remaining_ == 0, "campaign plan: finish() before all jobs merged");
  // Per-entry engine stats fold from the runs themselves (run.engine is
  // the delta around each engine.run call): placement-independent like
  // runner totals, but ALSO reproducible from stored records — a fully
  // store-served entry reports the same stats as a computed one, keeping
  // the deterministic payload byte-identical.
  CampaignReport report;
  report.name = campaign_.name;
  report.threads = threads;
  report.scenarios.reserve(campaign_.entries.size());
  for (std::size_t e = 0; e < campaign_.entries.size(); ++e) {
    ScenarioReport sr;
    sr.scenario = runners_[e]->scenario();
    sr.sweep = campaign_.entries[e].sweep;
    sr.alpha = runners_[e]->alpha();
    sr.epsilon = runners_[e]->epsilon();
    sr.n = runners_[e]->graph().num_vertices();
    sr.runs = std::move(results_[e]);
    for (const ScenarioRun& r : sr.runs) {
      sr.engine += r.engine;
      sr.millis += r.millis;
    }
    report.scenarios.push_back(std::move(sr));
  }
  report.millis = millis;
  report.cache = cache_delta;
  if (ResultStore* store = store_.load()) {
    const StoreStats store_after = store->stats();
    report.store_enabled = true;
    report.store.hits = served_cells_;
    report.store.misses = num_cells_ - served_cells_;
    report.store.bytes_loaded = store_after.bytes_loaded - store_before_.bytes_loaded;
    report.store.bytes_committed =
        store_after.bytes_committed - store_before_.bytes_committed;
    report.store.corrupt_records = store_after.corrupt_records;
    report.store.truncated_bytes = store_after.truncated_bytes;
    report.store.rotated_files = store_after.rotated_files;
  }
  return report;
}

void CampaignPlan::execute(int threads, const CancelToken* cancel) {
  // Pass A runs the pending cells, pass B the pending metric jobs, so
  // every parent is done before any metric job starts.
  std::vector<std::size_t> passes[2];
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (!done(i)) passes[jobs_[i].kind == CampaignJob::Kind::kMetric ? 1 : 0].push_back(i);
  }
  for (const std::vector<std::size_t>& pass : passes) {
    ExecutorPool::run(
        pass.size(), threads,
        [&](std::size_t p) {
          const std::size_t i = pass[p];
          if (done(i)) return;  // served, or merged by a dist worker meanwhile
          const bool accepted = jobs_[i].kind == CampaignJob::Kind::kMetric
                                    ? accept_metric(i, compute_metric(i, parent_run(i)))
                                    : accept_cell(i, compute_cell(i));
          FNE_REQUIRE(accepted || done(i), "campaign: the plan refused its own local result");
        },
        cancel);
  }
}

// ---------------------------------------------------------------------------
// CampaignRunner
// ---------------------------------------------------------------------------

CampaignRunner::CampaignRunner(Campaign campaign) : campaign_(std::move(campaign)) {
  check_campaign(campaign_);
}

CampaignReport CampaignRunner::run(int threads, ResultStore* store, const CancelToken* cancel) {
  const EngineCacheStats cache_before = EngineCache::instance().stats();
  Timer wall;

  CampaignPlan plan(campaign_, threads);
  if (store != nullptr) (void)plan.attach_store(*store);
  plan.execute(threads, cancel);
  return plan.finish(threads, wall.millis(), EngineCache::instance().stats() - cache_before);
}

}  // namespace fne
