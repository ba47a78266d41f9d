// The executor layer under the scenario/campaign APIs (DESIGN.md §8):
// a process-wide engine cache plus a small deterministic job pool.
//
// PR 3 gave each ScenarioRunner worker its own throwaway PruneEngine;
// every cross-scenario study (a campaign over the catalog, a parameter
// grid, the benches' family loops) therefore rebuilt graphs and engine
// workspaces from scratch per scenario.  This layer hoists that state one
// level up:
//
//   EngineCache — process-wide singleton mapping
//       (topology name, topology params, build seed, expansion kind)
//     to built Graphs (shared) and idle PruneEngines (pooled).  Engines
//     are LEASED per job: lease() pops an idle engine (or builds one),
//     calls PruneEngine::drop_warm_state() and snapshots its stats.
//     Dropping the warm state on every lease is what keeps results
//     bit-identical for any thread count and any cache-hit pattern — a
//     leased engine behaves exactly like a freshly constructed one, it
//     just skips the graph build and the workspace allocations.  Unseeded
//     topologies (mesh, hypercube, ...) normalize their build seed to 0
//     in the key, so scenarios that differ only in their fault seed share
//     one graph and one engine pool.
//
//   EngineLease — movable RAII handle returned by lease(); exposes the
//     engine, the shared graph, and stats_delta() (work accrued since the
//     lease — the placement-independent number campaign reports fold).
//     The destructor returns the engine to the idle pool.
//
//   ExecutorPool — runs fn(i) for i in [0, jobs) on a worker pool, jobs
//     claimed off an atomic counter.  Safe for any fn whose result is a
//     pure function of i (the scenario layer's determinism contract);
//     the first exception is rethrown on the caller after all workers
//     drain, so one bad job cannot strand the rest.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "api/params.hpp"
#include "core/graph.hpp"
#include "prune/engine.hpp"
#include "util/require.hpp"

namespace fne {

/// Cache-op telemetry.  These counters describe *placement* (who hit, who
/// built), so they are wall-clock-class data: campaign reports keep them
/// out of the deterministic payload.
///
/// The last three fields came with the byte budget (DESIGN.md §13):
/// `evictions` is a counter like the rest; `bytes_resident` and
/// `peak_bytes` are GAUGES — they describe the cache's current state, so
/// a snapshot difference carries the later snapshot's value unchanged.
struct EngineCacheStats {
  std::uint64_t leases = 0;
  std::uint64_t engine_hits = 0;    ///< leases served from the idle pool
  std::uint64_t engine_builds = 0;  ///< leases that constructed an engine
  std::uint64_t graph_hits = 0;
  std::uint64_t graph_builds = 0;
  std::uint64_t evictions = 0;       ///< entries destroyed by the byte budget
  std::uint64_t bytes_resident = 0;  ///< gauge: bytes the cache pins right now
  std::uint64_t peak_bytes = 0;      ///< gauge: high-water mark of bytes_resident

  [[nodiscard]] friend EngineCacheStats operator-(const EngineCacheStats& after,
                                                  const EngineCacheStats& before) {
    return {after.leases - before.leases,
            after.engine_hits - before.engine_hits,
            after.engine_builds - before.engine_builds,
            after.graph_hits - before.graph_hits,
            after.graph_builds - before.graph_builds,
            after.evictions - before.evictions,
            after.bytes_resident,
            after.peak_bytes};
  }
};

class EngineCache;

/// Movable RAII handle over one cached engine.  Default-constructed
/// leases are empty; engine()/graph() REQUIRE a held lease.
class EngineLease {
 public:
  EngineLease() = default;
  EngineLease(EngineLease&& o) noexcept;
  EngineLease& operator=(EngineLease&& o) noexcept;
  EngineLease(const EngineLease&) = delete;
  EngineLease& operator=(const EngineLease&) = delete;
  ~EngineLease();

  [[nodiscard]] explicit operator bool() const noexcept { return slot_ != nullptr; }
  [[nodiscard]] PruneEngine& engine() const;
  [[nodiscard]] const Graph& graph() const;
  /// Engine work accrued since this lease was taken.  A pure function of
  /// the jobs run on the lease — placement- and cache-history-independent.
  [[nodiscard]] EngineStats stats_delta() const;
  /// Return the engine to the cache now (also done by the destructor).
  void release();

 private:
  friend class EngineCache;
  struct Slot;
  EngineLease(EngineCache* cache, std::unique_ptr<Slot> slot) noexcept;

  EngineCache* cache_ = nullptr;
  std::unique_ptr<Slot> slot_;
};

class EngineCache {
 public:
  /// The process-wide cache (one per process, like the registries).
  [[nodiscard]] static EngineCache& instance();

  /// The graph `TopologyRegistry::build(topology, params, build_seed)`
  /// produces, built at most once per distinct key and shared.  Unseeded
  /// topologies ignore `build_seed` (normalized to 0 in the key).
  [[nodiscard]] std::shared_ptr<const Graph> graph(const std::string& topology,
                                                   const Params& params,
                                                   std::uint64_t build_seed);

  /// Lease an engine for (topology, params, build_seed, kind).  Pops an
  /// idle engine or builds one; ALWAYS drops the warm state, so the jobs
  /// run on the lease are pure functions of their inputs regardless of
  /// the engine's history.
  [[nodiscard]] EngineLease lease(const std::string& topology, const Params& params,
                                  std::uint64_t build_seed, ExpansionKind kind);

  [[nodiscard]] EngineCacheStats stats() const;
  [[nodiscard]] std::size_t idle_engines() const;
  [[nodiscard]] std::size_t cached_graphs() const;

  /// Byte budget for everything the cache pins — cached graphs plus idle
  /// pooled engines, measured by their memory_bytes().  0 (the default)
  /// means unbounded, the pre-§13 behavior.  When an insert or release
  /// pushes the resident total past the budget, unleased entries are
  /// evicted least-recently-used until it fits (or nothing evictable is
  /// left).  Setting a budget below the current residency evicts
  /// immediately.  Outstanding leases are NEVER evicted — they are owned
  /// by their lease, not the cache — so a serving process's true ceiling
  /// is budget + (concurrent leases × engine footprint).
  ///
  /// Eviction cannot change results: a leased engine always drops its
  /// warm state, so an evicted entry is indistinguishable from a cold
  /// start — the next lease just pays the rebuild (test-enforced
  /// byte-identity in tests/test_cache_budget.cpp).
  void set_budget_bytes(std::uint64_t bytes);
  [[nodiscard]] std::uint64_t budget_bytes() const;

  /// Drop every idle engine and cached graph (stats counters survive).
  /// Outstanding leases are unaffected; their engines return to the
  /// (now empty) pool as usual.  Graphs are retained until clear(),
  /// eviction or budget pressure by design — cross-campaign reuse is the
  /// point of the cache — so a process cycling through unboundedly many
  /// DISTINCT topology keys should set a byte budget (or clear() between
  /// studies); idle engines are additionally capped per key
  /// (kMaxIdlePerKey), so engine memory is bounded by the number of
  /// distinct keys, not by past pool widths.  On glibc, when the cache
  /// held at least 4 MiB, the freed pages are handed back to the OS
  /// (malloc_trim), so resident memory drops with the cache instead of
  /// depending on where the allocator's live chunks happen to sit.
  void clear();

  /// Ceiling on pooled idle engines per key; releases beyond it destroy
  /// the engine instead of pooling it.
  static constexpr std::size_t kMaxIdlePerKey = 16;

 private:
  friend class EngineLease;
  using GraphKey = std::tuple<std::string, std::string, std::uint64_t>;
  using EngineKey = std::tuple<std::string, std::string, std::uint64_t, int>;

  struct GraphEntry {
    std::shared_ptr<const Graph> graph;
    std::uint64_t bytes = 0;  ///< memory_bytes() at insert (graphs are immutable)
    std::uint64_t tick = 0;   ///< LRU stamp: last hit or insert
  };
  struct IdleEngine {
    std::unique_ptr<EngineLease::Slot> slot;
    std::uint64_t bytes = 0;  ///< memory_bytes() at release (buffers grow in use)
    std::uint64_t tick = 0;   ///< LRU stamp: release time
  };

  EngineCache() = default;
  void release(std::unique_ptr<EngineLease::Slot> slot);
  [[nodiscard]] std::uint64_t normalized_seed(const std::string& topology,
                                              std::uint64_t build_seed) const;
  void add_resident_locked(std::uint64_t bytes);
  /// Evict LRU unleased entries until bytes_resident fits the budget.
  void enforce_budget_locked();

  mutable std::mutex mutex_;
  std::map<GraphKey, GraphEntry> graphs_;
  std::map<EngineKey, std::vector<IdleEngine>> idle_;
  EngineCacheStats stats_;
  std::uint64_t budget_bytes_ = 0;  ///< 0 = unbounded
  std::uint64_t tick_ = 0;          ///< LRU clock (bumped per cache op)
};

/// One engine bound to one shared graph, plus the bookkeeping the lease
/// needs to re-pool it and attribute its work.
struct EngineLease::Slot {
  EngineCache::EngineKey key;
  std::shared_ptr<const Graph> graph;
  PruneEngine engine;
  EngineStats at_lease;  ///< stats snapshot when the lease was taken

  Slot(EngineCache::EngineKey k, std::shared_ptr<const Graph> g, ExpansionKind kind)
      : key(std::move(k)), graph(std::move(g)), engine(*graph, kind) {}
};

/// Cooperative cancellation handle (DESIGN.md §13).  A requester keeps
/// one token per unit of work it may abandon (the scenario service keeps
/// one per client request) and cancel()s it when the result is no longer
/// wanted — a disconnected client, a shutdown.  Pools and runners poll
/// cancelled() between jobs: cancellation is a scheduling fence, never an
/// interrupt, so a job that already started runs to completion and the
/// purity contract is untouched.  Copies share one flag; all operations
/// are thread-safe.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const noexcept { state_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return state_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// Thrown by ExecutorPool::run (and the campaign/scenario surfaces above
/// it) when a cancellation token stopped the schedule before every job
/// ran.  Derives from PreconditionError so generic catch sites treat it
/// like any other aborted run; the service catches it specifically to
/// count abandoned requests instead of reporting errors.
class CancelledError : public PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

/// Aggregated failure report thrown by ExecutorPool::run when any job
/// threw.  Derives from PreconditionError so existing catch sites keep
/// working, but carries the failure COUNT: a scheduler above the pool
/// (the distributed coordinator, a retry loop) needs to distinguish "one
/// flaky job" from "everything is failing" without parsing a message.
class ExecutorError : public PreconditionError {
 public:
  ExecutorError(std::size_t failed, std::size_t total, std::string first_message);

  [[nodiscard]] std::size_t failed_jobs() const noexcept { return failed_; }
  [[nodiscard]] std::size_t total_jobs() const noexcept { return total_; }
  [[nodiscard]] const std::string& first_message() const noexcept { return first_; }

 private:
  std::size_t failed_;
  std::size_t total_;
  std::string first_;
};

class ExecutorPool {
 public:
  /// Run fn(i) for every i in [0, jobs).  `threads` is clamped to
  /// [1, jobs]; 1 runs inline on the caller.  Workers claim indices off a
  /// shared atomic counter — dynamic placement is safe exactly when fn(i)
  /// is a pure function of i.  Jobs that throw never strand the rest:
  /// every job runs regardless, failures are counted, and one
  /// ExecutorError aggregating (failed, total, first message) is thrown
  /// after the pool drains.
  ///
  /// `cancel` (optional) is checked before every claim: once cancelled,
  /// workers stop claiming, in-flight jobs finish, and — iff any job was
  /// skipped — the pool throws CancelledError after draining (job errors
  /// win over cancellation when both happened).  A token that fires after
  /// the last claim changes nothing: the run completes normally.
  static void run(std::size_t jobs, int threads, const std::function<void(std::size_t)>& fn,
                  const CancelToken* cancel = nullptr);
};

}  // namespace fne
