/**
 * @file
 * Content-addressed schedule cache.
 *
 * The online service sees churny workloads revisit earlier states
 * (admit X, remove X, admit X again). Compiling is expensive;
 * looking up is not. The cache maps a *canonical workload key* — a
 * deterministic serialization of everything the compiler's output
 * depends on (fabric + fault mask, timing model, compiler knobs,
 * tasks, placement, and messages in id order) — to the compiled,
 * verifier-certified schedule. Bounded LRU; hit/miss/eviction
 * counts feed the online.* / cache.* metrics.
 *
 * The key is order-sensitive on messages by design: segment row i of
 * a GlobalSchedule indexes the i-th *network* message in TFG id
 * order, so two workloads with the same message set but different
 * id order are different cache entries.
 *
 * Thread-safety: every method is safe to call concurrently. The
 * scheduling daemon shares one cache across many sessions, each
 * served by its own worker thread; lookups return an immutable
 * shared_ptr snapshot so an entry stays valid even if it is evicted
 * while the caller still holds it. Because the key serializes the
 * *entire* compile problem (including the fabric name and fault
 * mask) and the compiler is a deterministic function of the key, a
 * hit from any session republishes exactly the bytes a fresh
 * compile would have produced.
 */

#ifndef SRSIM_ONLINE_CACHE_HH_
#define SRSIM_ONLINE_CACHE_HH_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/schedule.hh"
#include "core/sr_compiler.hh"
#include "mapping/allocation.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/topology.hh"

namespace srsim {

namespace metrics {
class Registry;
}

namespace online {

/**
 * Canonical serialization of one compile problem. Two problems with
 * equal keys compile from scratch to byte-identical schedules (the
 * compiler is a deterministic function of exactly these inputs). A
 * warm-started incremental re-solve cached under the same key is
 * verified but may print different bytes.
 */
std::string canonicalWorkloadKey(const TaskFlowGraph &g,
                                 const Topology &topo,
                                 const TaskAllocation &alloc,
                                 const TimingModel &tm,
                                 const SrCompilerConfig &cfg);

/** FNV-1a 64-bit hash (stable across platforms, for logging). */
std::uint64_t fnv1a64(const std::string &s);

/** LRU-bounded canonical-key -> compiled-schedule cache. */
class ScheduleCache
{
  public:
    /**
     * @param registry registry the cache.bytes gauge and
     *        cache.evictions counter land in; nullptr records
     *        nothing. The daemon's shared cross-session cache
     *        reports into its root context's registry (its traffic
     *        is aggregate by nature).
     */
    explicit ScheduleCache(std::size_t capacity = 64,
                           metrics::Registry *registry = nullptr);

    /** One cached, verifier-certified schedule. */
    struct Entry
    {
        GlobalSchedule omega;
        std::size_t numSubsets = 0;
        double peakUtilization = 0.0;
    };

    /**
     * @return the entry for `key` (bumped to most-recently-used),
     *         or nullptr on a miss. The returned snapshot stays
     *         valid even if the entry is evicted concurrently.
     */
    std::shared_ptr<const Entry> lookup(const std::string &key);

    /** Insert (or refresh) an entry, evicting the LRU tail. */
    void insert(const std::string &key, Entry entry);

    /** One dumped (key, entry) pair for snapshotting. */
    struct DumpedEntry
    {
        std::string key;
        Entry entry;
    };

    /**
     * Copy of the whole cache, most-recently-used first. The cache
     * image is part of a daemon's byte-level history: a WAL-suffix
     * replay reproduces the original run's published bytes only if
     * it also reproduces the original run's hits, so snapshots
     * persist the cache and recovery re-seeds it (LRU order and
     * all) before replaying.
     */
    std::vector<DumpedEntry> dumpForSnapshot() const;

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t evictions() const { return evictions_.load(); }
    /** Approximate resident payload bytes (keys + schedules). */
    std::uint64_t bytes() const { return bytes_.load(); }

  private:
    /** Approximate payload size of one (key, entry) pair. */
    static std::uint64_t entryBytes(const std::string &key,
                                    const Entry &entry);
    /** Re-publish bytes_ to the cache.bytes gauge (mu_ held). */
    void publishBytesGauge();

    using Node = std::pair<std::string, std::shared_ptr<const Entry>>;

    const std::size_t capacity_;
    /** Destination of the cache.* metrics (never null). */
    metrics::Registry *registry_;
    mutable std::mutex mu_;
    /** Most-recently-used at the front. */
    std::list<Node> lru_;
    std::unordered_map<std::string, std::list<Node>::iterator> map_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> bytes_{0};
};

} // namespace online
} // namespace srsim

#endif // SRSIM_ONLINE_CACHE_HH_
