#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <unordered_map>

#include "api/executor.hpp"
#include "api/metrics.hpp"
#include "expansion/cut_finder.hpp"
#include "prune/engine.hpp"
#include "span/span.hpp"
#include "spectral/fiedler.hpp"
#include "spectral/operator.hpp"
#include "store/result_store.hpp"
#include "util/json.hpp"

namespace fnebench {

struct ThreadLog {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::int64_t> open;  ///< ids of this thread's open spans
};

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_ambient{-1};  ///< innermost open Pass span
std::atomic<std::uint32_t> g_pass{0};      ///< its pass id
std::atomic<std::uint32_t> g_next_pass{0};

std::mutex g_logs_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  ///< guarded by g_logs_mutex
thread_local ThreadLog* t_log = nullptr;

std::mutex g_names_mutex;
std::vector<std::string> g_names{""};  ///< guarded by g_names_mutex

struct AtomicCounts {
  std::atomic<std::uint64_t> find_calls{0}, find_found{0}, fiedler_solves{0},
      fiedler_converged{0}, fiedler_malformed{0}, apply_ns{0}, apply_nnz{0}, apply_rows{0},
      culled_sets{0}, span_sets{0}, store_put_bytes{0}, store_hits{0}, store_load_bytes{0};
};
AtomicCounts g_counts;

void bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) {
  c.fetch_add(by, std::memory_order_relaxed);
}

[[nodiscard]] std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              epoch)
      .count();
}

ThreadLog& thread_log() {
  if (t_log == nullptr) {
    const std::lock_guard<std::mutex> lock(g_logs_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    t_log = g_logs.back().get();
    t_log->thread = static_cast<std::uint32_t>(g_logs.size() - 1);
  }
  return *t_log;
}

[[nodiscard]] std::int64_t span_id(std::uint32_t thread, std::size_t index) {
  return (static_cast<std::int64_t>(thread) << 32) | static_cast<std::int64_t>(index);
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kPass: return "pass";
    case Op::kPlan: return "campaign.plan";
    case Op::kCell: return "campaign.cell";
    case Op::kMetricJob: return "campaign.metric_job";
    case Op::kAccept: return "campaign.accept";
    case Op::kFinish: return "campaign.finish";
    case Op::kStoreOpen: return "store.open";
    case Op::kStoreLoad: return "store.load";
    case Op::kStorePut: return "store.put";
    case Op::kGraph: return "executor.graph";
    case Op::kPrune: return "prune.run";
    case Op::kFind: return "expansion.find";
    case Op::kFiedler: return "spectral.fiedler";
    case Op::kMetric: return "metrics.compute";
    case Op::kSpan: return "span.estimate";
    case Op::kRequest: return "service.request";
    case Op::kCount: break;
  }
  return "?";
}

const char* op_layer(Op op) {
  switch (op) {
    case Op::kPass: return "other";
    case Op::kPlan:
    case Op::kCell:
    case Op::kMetricJob:
    case Op::kAccept:
    case Op::kFinish: return "campaign";
    case Op::kStoreOpen:
    case Op::kStoreLoad:
    case Op::kStorePut: return "store";
    case Op::kGraph: return "topology";
    case Op::kPrune: return "prune";
    case Op::kFind: return "expansion";
    case Op::kFiedler: return "spectral";
    case Op::kMetric: return "metrics";
    case Op::kSpan: return "span";
    case Op::kRequest: return "service";
    case Op::kCount: break;
  }
  return "other";
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint32_t intern(const std::string& detail) {
  const std::lock_guard<std::mutex> lock(g_names_mutex);
  const auto it = std::find(g_names.begin(), g_names.end(), detail);
  if (it != g_names.end()) return static_cast<std::uint32_t>(it - g_names.begin());
  g_names.push_back(detail);
  return static_cast<std::uint32_t>(g_names.size() - 1);
}

std::string detail_name(std::uint32_t id) {
  const std::lock_guard<std::mutex> lock(g_names_mutex);
  return id < g_names.size() ? g_names[id] : std::string();
}

Scope::Scope(Op op, std::uint32_t detail) {
  if (!enabled()) return;
  log_ = &thread_log();
  index_ = log_->spans.size();
  Span s;
  s.id = span_id(log_->thread, index_);
  s.parent = log_->open.empty() ? g_ambient.load() : log_->open.back();
  s.thread = log_->thread;
  s.detail = detail;
  s.op = op;
  if (op == Op::kPass) {
    pass_ = g_next_pass.fetch_add(1) + 1;
    saved_ambient_ = g_ambient.exchange(s.id);
    saved_pass_ = g_pass.exchange(pass_);
  }
  s.pass = g_pass.load();
  s.start_ns = now_ns();
  log_->spans.push_back(s);
  log_->open.push_back(s.id);
}

Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans[index_].end_ns = now_ns();
  log_->open.pop_back();
  if (pass_ != 0) {
    g_ambient.store(saved_ambient_);
    g_pass.store(saved_pass_);
  }
}

Counts Counts::operator-(const Counts& b) const {
  return {find_calls - b.find_calls,         find_found - b.find_found,
          fiedler_solves - b.fiedler_solves, fiedler_converged - b.fiedler_converged,
          fiedler_malformed - b.fiedler_malformed,
          apply_ns - b.apply_ns,             apply_nnz - b.apply_nnz,
          apply_rows - b.apply_rows,         culled_sets - b.culled_sets,
          span_sets - b.span_sets,           store_put_bytes - b.store_put_bytes,
          store_hits - b.store_hits,
          store_load_bytes - b.store_load_bytes};
}

Counts& Counts::operator+=(const Counts& m) {
  find_calls += m.find_calls;
  find_found += m.find_found;
  fiedler_solves += m.fiedler_solves;
  fiedler_converged += m.fiedler_converged;
  fiedler_malformed += m.fiedler_malformed;
  apply_ns += m.apply_ns;
  apply_nnz += m.apply_nnz;
  apply_rows += m.apply_rows;
  culled_sets += m.culled_sets;
  span_sets += m.span_sets;
  store_put_bytes += m.store_put_bytes;
  store_hits += m.store_hits;
  store_load_bytes += m.store_load_bytes;
  return *this;
}

Counts counts() {
  const auto& c = g_counts;
  return {c.find_calls.load(),        c.find_found.load(),  c.fiedler_solves.load(),
          c.fiedler_converged.load(), c.fiedler_malformed.load(),
          c.apply_ns.load(),          c.apply_nnz.load(),
          c.apply_rows.load(),        c.culled_sets.load(), c.span_sets.load(),
          c.store_put_bytes.load(),   c.store_hits.load(),  c.store_load_bytes.load()};
}

std::vector<Span> collect() {
  std::vector<Span> all;
  {
    const std::lock_guard<std::mutex> lock(g_logs_mutex);
    for (const auto& log : g_logs) all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  // Self time: a span's duration minus the union of its children's
  // intervals (clipped to it).  Children on other threads may overlap
  // each other, hence the union rather than a sum.
  std::unordered_map<std::int64_t, std::size_t> at;
  at.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) at.emplace(all[i].id, i);
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto it = at.find(all[i].parent);
    if (it != at.end()) children[it->second].push_back(i);
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    Span& s = all[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end(),
              [&](std::size_t a, std::size_t b) { return all[a].start_ns < all[b].start_ns; });
    std::int64_t covered = 0;
    std::int64_t lo = 0;
    std::int64_t hi = -1;
    for (const std::size_t k : kids) {
      const std::int64_t a = std::max(all[k].start_ns, s.start_ns);
      const std::int64_t b = std::min(all[k].end_ns, s.end_ns);
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    s.self_ns = (s.end_ns - s.start_ns) - covered;
  }
  return all;
}

void write_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    fne::JsonObject o;
    o.put("id", s.id)
        .put("parent", s.parent)
        .put("pass", static_cast<std::uint64_t>(s.pass))
        .put("thread", static_cast<std::uint64_t>(s.thread))
        .put("name", std::string(op_name(s.op)))
        .put("layer", std::string(op_layer(s.op)))
        .put("detail", detail_name(s.detail))
        .put("start_ns", s.start_ns)
        .put("end_ns", s.end_ns)
        .put("self_ns", s.self_ns);
    out << o.dump() << "\n";
  }
}

}  // namespace fnebench

// -- link-time wraps ----------------------------------------------------------
//
// Each __wrap_ function below receives the calls the library makes to one
// public function (CMakeLists.txt lists them) and forwards to __real_.  A
// member function is declared as a free function taking `self` first: on
// the Itanium C++ ABI that is the member's calling convention, including
// the hidden result pointer of a class-type return value.

#define FNEBENCH_REAL(ret, name, sym, ...) \
  ret name(__VA_ARGS__) __asm__("__real_" sym) __attribute__((weak))
#define FNEBENCH_WRAP(ret, name, sym, ...) ret name(__VA_ARGS__) __asm__("__wrap_" sym)

namespace {

using fnebench::Op;
using fnebench::Scope;

#define SYM_PRUNE_RUN "_ZN3fne11PruneEngine3runERKNS_9VertexSetEddRKNS_18PruneEngineOptionsE"
#define SYM_FIND                                                                              \
  "_ZN3fne18find_violating_setERKNS_5GraphERKNS_9VertexSetENS_13ExpansionKindEdRKNS_"        \
  "16CutFinderOptionsE"
#define SYM_FIND_WS                                                                           \
  "_ZN3fne18find_violating_setERKNS_5GraphERKNS_9VertexSetENS_13ExpansionKindEdRKNS_"        \
  "16CutFinderOptionsEPNS_18ExpansionWorkspaceE"
#define SYM_FIEDLER "_ZN3fne14fiedler_vectorERKNS_5GraphERKNS_9VertexSetERKNS_14FiedlerOptionsE"
#define SYM_FIEDLER_SEED "_ZN3fne14fiedler_vectorERKNS_5GraphERKNS_9VertexSetEm"
#define SYM_APPLY "_ZNK3fne15SubCsrLaplacian5applyERKSt6vectorIdSaIdEERS3_"
#define SYM_SPAN "_ZN3fne13estimate_spanERKNS_5GraphERKNS_19SpanEstimateOptionsE"
#define SYM_METRIC                                                                            \
  "_ZNK3fne15MetricsRegistry7computeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEE" \
  "ERKNS_13MetricContextERKNS_6ParamsE"
#define SYM_GRAPH                                                                             \
  "_ZN3fne11EngineCache5graphERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_" \
  "6ParamsEm"
#define SYM_LOAD "_ZN3fne11ResultStore4loadERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define SYM_PUT                                                                               \
  "_ZN3fne11ResultStore3putERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES8_"

using Str = std::string;
using fne::CutFinderOptions;
using fne::ExpansionKind;
using fne::ExpansionWorkspace;
using fne::FiedlerOptions;
using fne::FiedlerResult;
using fne::Graph;
using fne::VertexSet;
using Witness = std::optional<fne::CutWitness>;

}  // namespace

FNEBENCH_REAL(fne::PruneResult, real_prune_run, SYM_PRUNE_RUN, fne::PruneEngine*,
              const VertexSet&, double, double, const fne::PruneEngineOptions&);
FNEBENCH_REAL(Witness, real_find, SYM_FIND, const Graph&, const VertexSet&, ExpansionKind,
              double, const CutFinderOptions&);
FNEBENCH_REAL(Witness, real_find_ws, SYM_FIND_WS, const Graph&, const VertexSet&,
              ExpansionKind, double, const CutFinderOptions&, ExpansionWorkspace*);
FNEBENCH_REAL(FiedlerResult, real_fiedler, SYM_FIEDLER, const Graph&, const VertexSet&,
              const FiedlerOptions&);
FNEBENCH_REAL(FiedlerResult, real_fiedler_seed, SYM_FIEDLER_SEED, const Graph&,
              const VertexSet&, std::uint64_t);
FNEBENCH_REAL(void, real_apply, SYM_APPLY, const fne::SubCsrLaplacian*,
              const std::vector<double>&, std::vector<double>&);
FNEBENCH_REAL(fne::SpanResult, real_span, SYM_SPAN, const Graph&,
              const fne::SpanEstimateOptions&);
FNEBENCH_REAL(fne::MetricRecord, real_metric, SYM_METRIC, const fne::MetricsRegistry*,
              const Str&, const fne::MetricContext&, const fne::Params&);
FNEBENCH_REAL(std::shared_ptr<const Graph>, real_graph, SYM_GRAPH, fne::EngineCache*,
              const Str&, const fne::Params&, std::uint64_t);
FNEBENCH_REAL(std::optional<Str>, real_load, SYM_LOAD, fne::ResultStore*, const Str&);
FNEBENCH_REAL(void, real_put, SYM_PUT, fne::ResultStore*, const Str&, const Str&);

FNEBENCH_WRAP(fne::PruneResult, wrap_prune_run, SYM_PRUNE_RUN, fne::PruneEngine*,
              const VertexSet&, double, double, const fne::PruneEngineOptions&);
FNEBENCH_WRAP(Witness, wrap_find, SYM_FIND, const Graph&, const VertexSet&, ExpansionKind,
              double, const CutFinderOptions&);
FNEBENCH_WRAP(Witness, wrap_find_ws, SYM_FIND_WS, const Graph&, const VertexSet&,
              ExpansionKind, double, const CutFinderOptions&, ExpansionWorkspace*);
FNEBENCH_WRAP(FiedlerResult, wrap_fiedler, SYM_FIEDLER, const Graph&, const VertexSet&,
              const FiedlerOptions&);
FNEBENCH_WRAP(FiedlerResult, wrap_fiedler_seed, SYM_FIEDLER_SEED, const Graph&,
              const VertexSet&, std::uint64_t);
FNEBENCH_WRAP(void, wrap_apply, SYM_APPLY, const fne::SubCsrLaplacian*,
              const std::vector<double>&, std::vector<double>&);
FNEBENCH_WRAP(fne::SpanResult, wrap_span, SYM_SPAN, const Graph&,
              const fne::SpanEstimateOptions&);
FNEBENCH_WRAP(fne::MetricRecord, wrap_metric, SYM_METRIC, const fne::MetricsRegistry*,
              const Str&, const fne::MetricContext&, const fne::Params&);
FNEBENCH_WRAP(std::shared_ptr<const Graph>, wrap_graph, SYM_GRAPH, fne::EngineCache*,
              const Str&, const fne::Params&, std::uint64_t);
FNEBENCH_WRAP(std::optional<Str>, wrap_load, SYM_LOAD, fne::ResultStore*, const Str&);
FNEBENCH_WRAP(void, wrap_put, SYM_PUT, fne::ResultStore*, const Str&, const Str&);

namespace {

fnebench::AtomicCounts& c() { return fnebench::g_counts; }
using fnebench::bump;

// What fiedler_vector promises whether or not Lanczos converged within
// its iteration cap (the cut finder's staged solves stop early on
// purpose, and a cut is swept from an unconverged vector): one entry per
// vertex, all finite, 0 on dead vertices, not all 0 on the alive ones,
// and a Ritz value inside the Laplacian's spectrum [0, 2 * max degree].
bool well_formed(const Graph& g, const VertexSet& alive, const FiedlerResult& r) {
  if (r.vector.size() != g.num_vertices()) return false;
  const double top = 2.0 * static_cast<double>(g.max_degree());
  if (!std::isfinite(r.lambda2) || r.lambda2 < -1e-9 * (1.0 + top) ||
      r.lambda2 > top * (1.0 + 1e-9)) {
    return false;
  }
  double norm = 0.0;
  for (fne::vid v = 0; v < g.num_vertices(); ++v) {
    const double x = r.vector[v];
    if (!std::isfinite(x) || (!alive.test(v) && x != 0.0)) return false;
    norm += x * x;
  }
  return norm > 0.0;
}

void count_fiedler(const Graph& g, const VertexSet& alive, const FiedlerResult& r) {
  bump(c().fiedler_solves);
  if (r.converged) bump(c().fiedler_converged);
  if (!well_formed(g, alive, r)) bump(c().fiedler_malformed);
}

void count_find(const Witness& w) {
  bump(c().find_calls);
  if (w.has_value()) bump(c().find_found);
}

}  // namespace

fne::PruneResult wrap_prune_run(fne::PruneEngine* self, const VertexSet& alive, double alpha,
                                double epsilon, const fne::PruneEngineOptions& options) {
  const Scope span(Op::kPrune);
  fne::PruneResult r = real_prune_run(self, alive, alpha, epsilon, options);
  if (fnebench::enabled()) bump(c().culled_sets, r.culled.size());
  return r;
}

Witness wrap_find(const Graph& g, const VertexSet& alive, ExpansionKind kind, double threshold,
                  const CutFinderOptions& options) {
  const Scope span(Op::kFind);
  Witness w = real_find(g, alive, kind, threshold, options);
  if (fnebench::enabled()) count_find(w);
  return w;
}

Witness wrap_find_ws(const Graph& g, const VertexSet& alive, ExpansionKind kind,
                     double threshold, const CutFinderOptions& options, ExpansionWorkspace* ws) {
  const Scope span(Op::kFind);
  Witness w = real_find_ws(g, alive, kind, threshold, options, ws);
  if (fnebench::enabled()) count_find(w);
  return w;
}

FiedlerResult wrap_fiedler(const Graph& g, const VertexSet& alive, const FiedlerOptions& o) {
  const Scope span(Op::kFiedler);
  FiedlerResult r = real_fiedler(g, alive, o);
  if (fnebench::enabled()) count_fiedler(g, alive, r);
  return r;
}

FiedlerResult wrap_fiedler_seed(const Graph& g, const VertexSet& alive, std::uint64_t seed) {
  const Scope span(Op::kFiedler);
  FiedlerResult r = real_fiedler_seed(g, alive, seed);
  if (fnebench::enabled()) count_fiedler(g, alive, r);
  return r;
}

// The operator apply is the hottest call (hundreds of thousands per
// solve), so it is counted, not recorded as a span.  Its sub-CSR is read
// through the class's only member, which a standard-layout class lets a
// pointer to the object stand for.
static_assert(std::is_standard_layout_v<fne::SubCsrLaplacian> &&
              sizeof(fne::SubCsrLaplacian) == sizeof(const fne::SubCsr*));

void wrap_apply(const fne::SubCsrLaplacian* self, const std::vector<double>& x,
                std::vector<double>& y) {
  if (!fnebench::enabled()) {
    real_apply(self, x, y);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  real_apply(self, x, y);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  const fne::SubCsr& sub = **reinterpret_cast<const fne::SubCsr* const*>(self);
  bump(c().apply_ns, static_cast<std::uint64_t>(ns));
  bump(c().apply_nnz, sub.adj.size());
  bump(c().apply_rows, sub.dim());
}

fne::SpanResult wrap_span(const Graph& g, const fne::SpanEstimateOptions& options) {
  const Scope span(Op::kSpan);
  fne::SpanResult r = real_span(g, options);
  if (fnebench::enabled()) bump(c().span_sets, r.sets_examined);
  return r;
}

fne::MetricRecord wrap_metric(const fne::MetricsRegistry* self, const Str& name,
                              const fne::MetricContext& ctx, const fne::Params& params) {
  const Scope span(Op::kMetric, fnebench::enabled() ? fnebench::intern(name) : 0);
  return real_metric(self, name, ctx, params);
}

std::shared_ptr<const Graph> wrap_graph(fne::EngineCache* self, const Str& topology,
                                        const fne::Params& params, std::uint64_t build_seed) {
  const Scope span(Op::kGraph);
  return real_graph(self, topology, params, build_seed);
}

std::optional<Str> wrap_load(fne::ResultStore* self, const Str& key) {
  const Scope span(Op::kStoreLoad);
  std::optional<Str> r = real_load(self, key);
  if (fnebench::enabled()) {
    if (r.has_value()) {
      bump(c().store_hits);
      bump(c().store_load_bytes, r->size());
    }
  }
  return r;
}

void wrap_put(fne::ResultStore* self, const Str& key, const Str& payload) {
  const Scope span(Op::kStorePut);
  real_put(self, key, payload);
  if (fnebench::enabled()) bump(c().store_put_bytes, payload.size());
}
