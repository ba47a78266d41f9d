// In-memory span recorder for the benchmark's traced run.
//
// A span is one call into a layer's public function: its op, start and
// end (steady clock), the span that caused it, the measured pass it
// belongs to, and the recording thread.  Spans opened on a thread with no
// open span of its own (executor-pool and service workers) take the
// innermost open Pass as parent, so a pass's tree covers every thread
// that worked for it.  Nothing is written until the run ends.
//
// Spans come from two places, both in the benchmark's own files: Scope
// objects in fnebench.cpp around the calls it makes (CampaignPlan,
// ResultStore ctor, ServiceClient), and the link-time wraps in trace.cpp
// around the calls the library makes internally (engine, cut finder,
// Fiedler solve, metric registry, span estimate, engine cache, store).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fnebench {

enum class Op : std::uint8_t {
  kPass,       ///< one measured pass (root of its tree)
  kPlan,       ///< CampaignPlan ctor
  kCell,       ///< CampaignPlan::compute_cell
  kMetricJob,  ///< CampaignPlan::compute_metric
  kAccept,     ///< CampaignPlan::accept_cell / accept_metric
  kFinish,     ///< CampaignPlan::finish + CampaignReport::to_json
  kStoreOpen,  ///< ResultStore ctor
  kStoreLoad,  ///< ResultStore::load
  kStorePut,   ///< ResultStore::put
  kGraph,      ///< EngineCache::graph
  kPrune,      ///< PruneEngine::run
  kFind,       ///< find_violating_set
  kFiedler,    ///< fiedler_vector
  kMetric,     ///< MetricsRegistry::compute (detail: the metric name)
  kSpan,       ///< estimate_span
  kRequest,    ///< ServiceClient::campaign
  kCount
};

[[nodiscard]] const char* op_name(Op op);
/// The layer (repository module) an op's self time is charged to.
[[nodiscard]] const char* op_layer(Op op);

/// Process-wide switch; while off, scopes and wraps record nothing.
void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Small integer for a detail string (metric names); 0 means none.
[[nodiscard]] std::uint32_t intern(const std::string& detail);
[[nodiscard]] std::string detail_name(std::uint32_t id);

/// RAII span on the calling thread.  A kPass scope also becomes the
/// parent of spans opened on threads that have none open.
class Scope {
 public:
  explicit Scope(Op op, std::uint32_t detail = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Pass id (kPass scopes) or 0; spans carry the id of their pass.
  [[nodiscard]] std::uint32_t pass() const noexcept { return pass_; }

 private:
  struct ThreadLog* log_ = nullptr;
  std::size_t index_ = 0;
  std::int64_t saved_ambient_ = -1;
  std::uint32_t saved_pass_ = 0;
  std::uint32_t pass_ = 0;
};

/// Work counters the wraps collect where the work happens.
struct Counts {
  std::uint64_t find_calls = 0;
  std::uint64_t find_found = 0;
  std::uint64_t fiedler_solves = 0;
  std::uint64_t fiedler_converged = 0;
  std::uint64_t fiedler_malformed = 0;  ///< results that break the solver's contract
  std::uint64_t apply_ns = 0;
  std::uint64_t apply_nnz = 0;
  std::uint64_t apply_rows = 0;
  std::uint64_t culled_sets = 0;
  std::uint64_t span_sets = 0;
  std::uint64_t store_put_bytes = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_load_bytes = 0;

  [[nodiscard]] Counts operator-(const Counts& before) const;
  Counts& operator+=(const Counts& more);
};
[[nodiscard]] Counts counts();

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;  ///< duration minus the time its children cover
  std::uint32_t pass = 0;
  std::uint32_t thread = 0;
  std::uint32_t detail = 0;
  Op op = Op::kPass;
};

/// Every recorded span, with self time filled in.  Call only while no
/// thread is recording (all pools drained, the service stopped).
[[nodiscard]] std::vector<Span> collect();

/// One JSON object per line: id, parent, pass, thread, name, layer,
/// detail, start_ns, end_ns, self_ns.
void write_jsonl(const std::string& path, const std::vector<Span>& spans);

}  // namespace fnebench
