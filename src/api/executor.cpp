#include "api/executor.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "api/registry.hpp"
#include "util/require.hpp"

namespace fne {

// ---------------------------------------------------------------------------
// EngineLease
// ---------------------------------------------------------------------------

EngineLease::EngineLease(EngineCache* cache, std::unique_ptr<Slot> slot) noexcept
    : cache_(cache), slot_(std::move(slot)) {}

EngineLease::EngineLease(EngineLease&& o) noexcept
    : cache_(o.cache_), slot_(std::move(o.slot_)) {
  o.cache_ = nullptr;
}

EngineLease& EngineLease::operator=(EngineLease&& o) noexcept {
  if (this != &o) {
    release();
    cache_ = o.cache_;
    slot_ = std::move(o.slot_);
    o.cache_ = nullptr;
  }
  return *this;
}

EngineLease::~EngineLease() { release(); }

PruneEngine& EngineLease::engine() const {
  FNE_REQUIRE(slot_ != nullptr, "engine() on an empty EngineLease");
  return slot_->engine;
}

const Graph& EngineLease::graph() const {
  FNE_REQUIRE(slot_ != nullptr, "graph() on an empty EngineLease");
  return *slot_->graph;
}

EngineStats EngineLease::stats_delta() const {
  FNE_REQUIRE(slot_ != nullptr, "stats_delta() on an empty EngineLease");
  return slot_->engine.stats() - slot_->at_lease;
}

void EngineLease::release() {
  if (slot_ != nullptr && cache_ != nullptr) {
    cache_->release(std::move(slot_));
  }
  slot_.reset();
  cache_ = nullptr;
}

// ---------------------------------------------------------------------------
// EngineCache
// ---------------------------------------------------------------------------

EngineCache& EngineCache::instance() {
  static EngineCache cache;
  return cache;
}

std::uint64_t EngineCache::normalized_seed(const std::string& topology,
                                           std::uint64_t build_seed) const {
  // Unseeded families build the same graph for every seed; folding the
  // key to 0 lets scenarios that differ only in their (fault) seed share
  // one graph and one engine pool.
  return TopologyRegistry::instance().at(topology).seeded ? build_seed : 0;
}

namespace {

/// The params component of a cache key.  Entries whose build output
/// depends on state beyond the params (the `file` topology's on-disk
/// bytes) declare a cache_salt; appending it here means a rewritten file
/// can never be served a stale cached graph or engine (DESIGN.md §14).
[[nodiscard]] std::string keyed_params(const std::string& topology, const Params& params) {
  std::string key = params.to_string();
  const std::string salt = topology_cache_salt(topology, params);
  if (!salt.empty()) key += "|" + salt;
  return key;
}

}  // namespace

std::shared_ptr<const Graph> EngineCache::graph(const std::string& topology,
                                                const Params& params,
                                                std::uint64_t build_seed) {
  const std::uint64_t seed = normalized_seed(topology, build_seed);
  const GraphKey key{topology, keyed_params(topology, params), seed};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = graphs_.find(key);
    if (it != graphs_.end()) {
      ++stats_.graph_hits;
      it->second.tick = ++tick_;
      return it->second.graph;
    }
  }
  // Build OUTSIDE the lock: topology factories can be expensive and the
  // campaign construction phase builds many distinct graphs in parallel.
  // A concurrent duplicate build is harmless — factories are pure, and
  // the loser's copy is discarded below.
  auto built = std::make_shared<const Graph>(
      TopologyRegistry::instance().build(topology, params, seed));
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = graphs_.find(key);
  if (it != graphs_.end()) {
    ++stats_.graph_hits;
    it->second.tick = ++tick_;
    return it->second.graph;
  }
  ++stats_.graph_builds;
  GraphEntry entry;
  entry.graph = std::move(built);
  entry.bytes = entry.graph->memory_bytes();
  entry.tick = ++tick_;
  std::shared_ptr<const Graph> out = entry.graph;
  add_resident_locked(entry.bytes);
  graphs_.emplace(key, std::move(entry));
  enforce_budget_locked();
  return out;
}

EngineLease EngineCache::lease(const std::string& topology, const Params& params,
                               std::uint64_t build_seed, ExpansionKind kind) {
  const std::uint64_t seed = normalized_seed(topology, build_seed);
  const EngineKey key{topology, keyed_params(topology, params), seed, static_cast<int>(kind)};
  std::unique_ptr<EngineLease::Slot> slot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.leases;
    const auto it = idle_.find(key);
    if (it != idle_.end() && !it->second.empty()) {
      // A leased engine leaves the cache's residency: it is owned by the
      // lease until release() re-measures and re-charges it.
      IdleEngine& entry = it->second.back();
      slot = std::move(entry.slot);
      stats_.bytes_resident -= std::min(stats_.bytes_resident, entry.bytes);
      it->second.pop_back();
      ++stats_.engine_hits;
    }
  }
  if (slot == nullptr) {
    std::shared_ptr<const Graph> g = graph(topology, params, build_seed);
    slot = std::make_unique<EngineLease::Slot>(key, std::move(g), kind);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.engine_builds;
  }
  // The one cross-lease channel is the workspace's warm Fiedler cache;
  // dropping it here makes a cache hit indistinguishable from a fresh
  // engine — the whole bit-identity story of the campaign layer.
  slot->engine.drop_warm_state();
  slot->at_lease = slot->engine.stats();
  return EngineLease(this, std::move(slot));
}

void EngineCache::release(std::unique_ptr<EngineLease::Slot> slot) {
  // Measure OUTSIDE the lock: memory_bytes walks the workspace's buffer
  // list, and the lease destructor runs on every worker thread.
  const std::uint64_t bytes = slot->engine.memory_bytes();
  const std::lock_guard<std::mutex> lock(mutex_);
  // Bound the idle pool per key: an engine owns full workspace buffers
  // (Krylov basis, BFS queues, sub-CSR pool), and a burst of wide
  // campaigns must not pin them all forever.  kMaxIdlePerKey matches the
  // widest pool a single host realistically runs; excess engines are
  // simply destroyed (the next lease rebuilds one — correctness is
  // lease-local either way).
  auto& pool = idle_[slot->key];
  if (pool.size() >= kMaxIdlePerKey) return;
  IdleEngine entry;
  entry.slot = std::move(slot);
  entry.bytes = bytes;
  entry.tick = ++tick_;
  add_resident_locked(entry.bytes);
  pool.push_back(std::move(entry));
  enforce_budget_locked();
}

void EngineCache::add_resident_locked(std::uint64_t bytes) {
  stats_.bytes_resident += bytes;
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes_resident);
}

void EngineCache::enforce_budget_locked() {
  if (budget_bytes_ == 0) return;
  while (stats_.bytes_resident > budget_bytes_) {
    // Victim: the least-recently-used unleased entry, engines and graphs
    // competing on one LRU clock.  Evicting a graph also drops its idle
    // engines (their slots hold shared_ptrs to it, so the bytes would
    // stay pinned otherwise); campaign-held references keep the Graph
    // alive until they drop — the cache only stops pinning it.
    const IdleEngine* engine_victim = nullptr;
    auto engine_pool = idle_.end();
    std::size_t engine_index = 0;
    for (auto it = idle_.begin(); it != idle_.end(); ++it) {
      for (std::size_t i = 0; i < it->second.size(); ++i) {
        if (engine_victim == nullptr || it->second[i].tick < engine_victim->tick) {
          engine_victim = &it->second[i];
          engine_pool = it;
          engine_index = i;
        }
      }
    }
    auto graph_victim = graphs_.end();
    for (auto it = graphs_.begin(); it != graphs_.end(); ++it) {
      if (graph_victim == graphs_.end() || it->second.tick < graph_victim->second.tick) {
        graph_victim = it;
      }
    }
    if (engine_victim != nullptr &&
        (graph_victim == graphs_.end() || engine_victim->tick < graph_victim->second.tick)) {
      stats_.bytes_resident -= std::min<std::uint64_t>(stats_.bytes_resident, engine_victim->bytes);
      ++stats_.evictions;
      engine_pool->second.erase(engine_pool->second.begin() +
                                static_cast<std::ptrdiff_t>(engine_index));
      if (engine_pool->second.empty()) idle_.erase(engine_pool);
    } else if (graph_victim != graphs_.end()) {
      const Graph* graph = graph_victim->second.graph.get();
      stats_.bytes_resident -=
          std::min<std::uint64_t>(stats_.bytes_resident, graph_victim->second.bytes);
      ++stats_.evictions;
      graphs_.erase(graph_victim);
      for (auto it = idle_.begin(); it != idle_.end();) {
        auto& pool = it->second;
        for (std::size_t i = pool.size(); i-- > 0;) {
          if (pool[i].slot->graph.get() != graph) continue;
          stats_.bytes_resident -= std::min<std::uint64_t>(stats_.bytes_resident, pool[i].bytes);
          ++stats_.evictions;
          pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
        }
        it = pool.empty() ? idle_.erase(it) : std::next(it);
      }
    } else {
      break;  // nothing evictable left (everything is leased out)
    }
  }
}

void EngineCache::set_budget_bytes(std::uint64_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  budget_bytes_ = bytes;
  enforce_budget_locked();
}

std::uint64_t EngineCache::budget_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return budget_bytes_;
}

EngineCacheStats EngineCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t EngineCache::idle_engines() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, pool] : idle_) total += pool.size();
  return total;
}

std::size_t EngineCache::cached_graphs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return graphs_.size();
}

void EngineCache::clear() {
  [[maybe_unused]] std::uint64_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dropped = stats_.bytes_resident;
    idle_.clear();
    graphs_.clear();
    stats_.bytes_resident = 0;  // counters survive; the residency gauge resets
  }
#if defined(__GLIBC__)
  // Return the freed pages to the OS.  glibc keeps freed heap memory
  // resident until the top of its heap is free, so without this how much
  // of the dropped engines' Krylov bases stays resident depends on which
  // small live allocations happened to land above them: the certify
  // benchmark workload's peak RSS ranged 27-37 MB over seeds, and is
  // 21-22.5 MB for every seed with the trim.  The trim walks every arena,
  // so a cache that held little is not worth it.
  constexpr std::uint64_t kTrimBytes = std::uint64_t{4} << 20;
  if (dropped >= kTrimBytes) malloc_trim(0);
#endif
}

// ---------------------------------------------------------------------------
// ExecutorPool
// ---------------------------------------------------------------------------

namespace {

[[nodiscard]] std::string executor_error_message(std::size_t failed, std::size_t total,
                                                 const std::string& first) {
  return "executor pool: " + std::to_string(failed) + " of " + std::to_string(total) +
         " jobs failed; first: " + first;
}

[[nodiscard]] std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "(non-standard exception)";
  }
}

}  // namespace

ExecutorError::ExecutorError(std::size_t failed, std::size_t total, std::string first_message)
    : PreconditionError(executor_error_message(failed, total, first_message)),
      failed_(failed),
      total_(total),
      first_(std::move(first_message)) {}

void ExecutorPool::run(std::size_t jobs, int threads,
                       const std::function<void(std::size_t)>& fn, const CancelToken* cancel) {
  if (jobs == 0) return;
  threads = std::clamp<int>(threads, 1, static_cast<int>(std::min<std::size_t>(
                                            jobs, static_cast<std::size_t>(1) << 10)));

  // Failure policy (same for inline and pooled execution): every job runs
  // even when earlier ones threw — they are independent by the pool's
  // purity contract — and the caller gets ONE aggregated ExecutorError.
  // A cancellation token is the one exception: once it fires, workers
  // stop CLAIMING (in-flight jobs still finish), and the skipped tail is
  // reported as CancelledError after the drain.
  std::size_t failed = 0;
  std::string first_message;
  std::mutex error_mutex;
  const auto record_failure = [&] {
    const std::string what = describe_current_exception();
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (failed++ == 0) first_message = what;
  };
  const auto cancelled = [&] { return cancel != nullptr && cancel->cancelled(); };
  std::atomic<std::size_t> completed{0};

  if (threads == 1) {
    for (std::size_t i = 0; i < jobs; ++i) {
      if (cancelled()) break;
      try {
        fn(i);
      } catch (...) {
        record_failure();
      }
      completed.fetch_add(1);
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      pool.emplace_back([&] {
        while (!cancelled()) {
          const std::size_t i = next.fetch_add(1);
          if (i >= jobs) break;
          try {
            fn(i);
          } catch (...) {
            record_failure();
          }
          completed.fetch_add(1);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  if (failed > 0) throw ExecutorError(failed, jobs, std::move(first_message));
  if (completed.load() < jobs) {
    throw CancelledError("executor pool: cancelled after " + std::to_string(completed.load()) +
                         " of " + std::to_string(jobs) + " jobs");
  }
}

}  // namespace fne
