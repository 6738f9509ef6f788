/**
 * @file
 * The concurrent multi-tenant scheduling daemon.
 *
 * One daemon owns many named *sessions* — each an OnlineScheduler
 * with its own fabric, workload, and fault mask — and dispatches
 * their requests from a bounded queue onto a worker pool. The
 * concurrency contract:
 *
 *  - per-session serialization: one session's requests apply in
 *    submission order, one at a time (each session has a pending
 *    deque drained by at most one worker);
 *  - cross-session parallelism: distinct sessions drain on distinct
 *    workers concurrently; they share only the thread-safe
 *    ScheduleCache, keyed by workload. A hit is a verified schedule
 *    for the same workload, but not necessarily the bytes a fresh
 *    compile would print: incremental re-solves warm-start from the
 *    computing session's basis history, and a warm re-solve may end
 *    on a different optimal vertex than a cold one;
 *  - determinism: a session that does not use the shared cache
 *    (cache=0) publishes schedules that depend only on its own
 *    accepted-request sequence, so they are identical for any
 *    worker count (absent overload/deadline rejections, which
 *    admission ordering can change). With the cache on, a session's
 *    bytes can depend on which session first computed a cached
 *    state, and so on worker interleaving.
 *
 * Robustness: submit() never blocks — a full queue returns a
 * structured Overloaded rejection; a request older than its
 * deadline when a worker picks it up is rejected DeadlineExpired
 * without touching the scheduler; drain() waits for the queues to
 * empty and shutdown() then snapshots and closes the WAL.
 *
 * Durability (when a state directory is configured): every accepted
 * state change is appended to the WAL before the response is
 * delivered, group-committed every `walSyncEvery` records (and at
 * drain); snapshots are taken at quiescent points every
 * `snapshotEvery` accepted requests and at shutdown. Recovery =
 * newest intact snapshot + WAL suffix replay, re-verified on load,
 * falling back to older snapshots and ultimately a full WAL replay.
 */

#ifndef SRSIM_SERVER_DAEMON_HH_
#define SRSIM_SERVER_DAEMON_HH_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/context.hh"
#include "online/cache.hh"
#include "online/service.hh"
#include "server/protocol.hh"
#include "server/snapshot.hh"
#include "server/wal.hh"
#include "util/thread_pool.hh"

namespace srsim {
namespace server {

/** Daemon policy knobs. */
struct DaemonConfig
{
    /** Worker-pool concurrency (>= 1; 1 = inline, deterministic). */
    std::size_t workers = 1;
    /** Max queued (not yet executing) requests across sessions. */
    std::size_t queueCap = 64;
    /**
     * State directory for WAL + snapshots; empty = ephemeral (no
     * durability, no recovery).
     */
    std::string stateDir{};
    /** Accepted requests between snapshots; 0 = shutdown only. */
    std::size_t snapshotEvery = 0;
    /** Group-commit batch: fsync after this many WAL records. */
    std::size_t walSyncEvery = 1;
    /** Per-request deadline from submission (ms); 0 = none. */
    double deadlineMs = 0.0;
    /** Shared schedule-cache capacity (entries); 0 disables. */
    std::size_t cacheCapacity = 64;
    /**
     * Root engine context the daemon runs under; every session gets
     * a child of it (own metrics registry, optional private thread
     * budget via the open line's threads= key). Required.
     */
    const engine::EngineContext *ctx = nullptr;
};

/** Daemon-level disposition of one operation. */
enum class DaemonOutcome
{
    /** Reached the scheduler; see RequestResult for its verdict. */
    Ok,
    /** Bounded queue full at submission (backpressure). */
    Overloaded,
    /** Deadline expired before a worker picked the request up. */
    DeadlineExpired,
    /** Request for a session that is not open. */
    UnknownSession,
    /** Open of a name that is already a live session. */
    DuplicateSession,
    /** Open could not build the fabric/workload it described. */
    InvalidConfig,
    /** Submitted after shutdown began. */
    ShuttingDown,
};

/** @return stable lowercase-dashed outcome name. */
const char *daemonOutcomeName(DaemonOutcome o);

/** One operation's full disposition. */
struct DaemonResponse
{
    /** Submission index (response order == submission order). */
    std::uint64_t id = 0;
    std::string session;
    /** open | close | admit | remove | period | fault. */
    std::string kind;
    DaemonOutcome outcome = DaemonOutcome::Ok;
    /** Daemon-level detail (empty when outcome == Ok). */
    std::string detail;
    /** Scheduler verdict (meaningful when outcome == Ok). */
    online::RequestResult result;
    /** Time spent queued before a worker picked it up (ms). */
    double queueMs = 0.0;
};

/** What recover() found and did. */
struct RecoveryResult
{
    bool attempted = false;
    /** WAL records found (intact prefix). */
    std::uint64_t walRecords = 0;
    bool walTornTail = false;
    /** Snapshot used (empty = full replay). */
    std::string snapshotPath;
    std::uint64_t snapshotSeq = 0;
    /** Sessions live after recovery. */
    std::size_t sessionsRestored = 0;
    /** WAL records replayed on top of the snapshot. */
    std::uint64_t replayed = 0;
    /** Replayed records whose re-execution was rejected (0 on a
        healthy log: accepted requests replay as accepted). */
    std::uint64_t replayRejected = 0;
    /** Snapshots that failed verification and were skipped. */
    std::vector<std::string> rejectedSnapshots;
};

/**
 * The daemon. Construction opens the state directory (if any) and
 * runs recovery; destruction drains and shuts down.
 */
class SchedulingDaemon
{
  public:
    explicit SchedulingDaemon(DaemonConfig cfg);
    ~SchedulingDaemon();

    SchedulingDaemon(const SchedulingDaemon &) = delete;
    SchedulingDaemon &operator=(const SchedulingDaemon &) = delete;

    /** Outcome of the construction-time recovery. */
    const RecoveryResult &recovery() const { return recovery_; }

    /**
     * Open a session: build its fabric + workload, compile + publish
     * the initial schedule. Synchronous (runs on the caller).
     */
    DaemonResponse open(const SessionConfig &sc);

    /**
     * Close a session. Synchronous; drains the session's queue
     * first so earlier requests keep their submission-order slot.
     */
    DaemonResponse close(const std::string &session);

    /**
     * Enqueue one request. Never blocks: a full queue or unknown
     * session resolves the future immediately with the structured
     * rejection.
     */
    std::future<DaemonResponse> submit(const std::string &session,
                                       online::Request r);

    /**
     * Execute a parsed script: open/close run inline, requests
     * stream through the queue. @return responses in op order.
     */
    std::vector<DaemonResponse>
    run(const std::vector<DaemonOp> &ops);

    /** Wait until every queued request has been served. */
    void drain();

    /**
     * Drain, take a final snapshot (when durable), sync + close the
     * WAL. Further submits reject with ShuttingDown. Idempotent;
     * the destructor calls it.
     */
    void shutdown();

    /** Crash simulation for tests: drop unsynced WAL bytes and cut
        the daemon off from disk — no final snapshot, no sync. */
    void crashForTest();

    // -- Introspection --------------------------------------------

    /** Published snapshot of one session (nullptr if not open). */
    std::shared_ptr<const online::PublishedState>
    published(const std::string &session) const;

    /** Live session names, in open order. */
    std::vector<std::string> sessionNames() const;

    /** Currently queued (not executing) requests. */
    std::size_t queueDepth() const;

    online::ScheduleCache &cache() { return *cache_; }

    /**
     * (name, registry) of every session that has opened, in
     * first-open order. A session's registry is its child context's
     * — it holds only that session's activity (the same updates
     * also wrote through to the daemon aggregate) — and survives
     * close() so a post-run summary can still report it. Reopening
     * a name starts that name's registry over. Pointers stay valid
     * for the daemon's lifetime.
     */
    std::vector<std::pair<std::string, const metrics::Registry *>>
    sessionMetrics() const;

    /**
     * Size of a session's private worker pool (its threads= budget);
     * 0 when it shares the daemon's pool or is not open.
     */
    std::size_t sessionPoolSize(const std::string &session) const;

    std::uint64_t walRecords() const;
    std::uint64_t walFsyncs() const;
    std::uint64_t snapshotsWritten() const { return snapshots_; }

    // -- Test hooks -----------------------------------------------

    /** Stop workers from picking up new requests (current request
        finishes). Queued requests park; submits still enqueue. */
    void pauseForTest();
    /** Resume draining after pauseForTest(). */
    void resumeForTest();

  private:
    struct Job
    {
        std::uint64_t id = 0;
        online::Request req;
        std::string kind;
        std::promise<DaemonResponse> promise;
        double enqueueUs = 0.0;
        /** Absolute deadline (wall us since epoch); 0 = none. */
        double deadlineUs = 0.0;
    };

    struct Session
    {
        SessionConfig cfg;
        /**
         * This session's engine context (child of the daemon's
         * root). Declared before svc, which holds a raw pointer to
         * it, so it is destroyed after svc; the daemon's
         * sessionCtxs_ map also keeps it alive across close().
         */
        std::shared_ptr<engine::EngineContext> ctx;
        std::unique_ptr<online::OnlineScheduler> svc;
        std::deque<std::unique_ptr<Job>> pending;
        /** True while a worker is draining this session. */
        bool active = false;
        /** Open order, for stable iteration. */
        std::uint64_t openIndex = 0;
    };

    /** Build fabric + workload + service for `sc`, running under
        `ctx`; throws FatalError on invalid config. */
    std::unique_ptr<online::OnlineScheduler>
    buildService(const SessionConfig &sc, Time period,
                 const engine::EngineContext *ctx) const;

    /**
     * Child context for one session per its open-line overrides.
     * The one owner of the kMaxSessionThreads cap; throws
     * FatalError past it or when the host refuses the threads.
     */
    std::shared_ptr<engine::EngineContext>
    makeSessionContext(const SessionConfig &sc) const;

    /** Record `ctx` as session `name`'s context (caller holds
        mu_ or is in single-threaded recovery). */
    void registerSessionCtxLocked(
        const std::string &name,
        std::shared_ptr<engine::EngineContext> ctx);

    void runRecovery();
    /** Replay one WAL op inline during recovery. */
    bool replayOp(const DaemonOp &op, RecoveryResult &rr);
    /** Restore sessions from a snapshot; false = fall back. */
    bool restoreFromSnapshot(const DaemonSnapshot &snap,
                             std::string *why);

    void drainSession(const std::string &name);
    void finishJob(Session &s, Job &job);
    /** Log an accepted op; group-commit per walSyncEvery. */
    void walAppend(const DaemonOp &op);
    /** Snapshot if due and quiescent (daemon lock held). */
    void maybeSnapshotLocked();
    void writeSnapshotLocked();
    void setQueueGaugeLocked();

    DaemonConfig cfg_;
    /** Resolved root context (never null after construction). */
    const engine::EngineContext *root_ = nullptr;
    std::shared_ptr<online::ScheduleCache> cache_;
    std::unique_ptr<ThreadPool> pool_;

    mutable std::mutex mu_;
    std::condition_variable idleCv_;
    std::map<std::string, Session> sessions_;
    /**
     * Session contexts by name, kept past close() so per-session
     * metrics survive for the end-of-run summary (and so a child
     * context always outlives its scheduler). Reopening a name
     * replaces its context.
     */
    std::map<std::string, std::shared_ptr<engine::EngineContext>>
        sessionCtxs_;
    /** First-open order of sessionCtxs_ keys. */
    std::vector<std::string> sessionCtxOrder_;
    std::uint64_t nextOpenIndex_ = 0;
    std::uint64_t nextId_ = 1;
    std::size_t queued_ = 0;
    std::size_t executing_ = 0;
    bool paused_ = false;
    bool shutdown_ = false;

    /** Serializes WAL appends + snapshot writes. */
    mutable std::mutex walMu_;
    WriteAheadLog wal_;
    std::size_t unsynced_ = 0;
    std::size_t acceptedSinceSnapshot_ = 0;
    std::uint64_t snapshots_ = 0;

    RecoveryResult recovery_;
};

} // namespace server
} // namespace srsim

#endif // SRSIM_SERVER_DAEMON_HH_
