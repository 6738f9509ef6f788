#include "server/daemon.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <unordered_map>

#include "core/schedule_io.hh"
#include "engine/context.hh"
#include "metrics/metrics.hh"
#include "tfg/dvb.hh"
#include "tfg/tfg_io.hh"
#include "topology/factory.hh"
#include "trace/trace.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace srsim {
namespace server {

namespace {

void
bump(metrics::Registry &reg, const char *name, std::uint64_t n = 1)
{
    if (SRSIM_METRICS_ENABLED())
        reg.counter(name).add(n);
}

std::string
walPath(const std::string &stateDir)
{
    return (std::filesystem::path(stateDir) / "wal.jsonl").string();
}

/** Workload of an open line: the dvb builtin or a TFG file. */
TaskFlowGraph
buildWorkload(const SessionConfig &sc)
{
    if (sc.tfg == "dvb")
        return buildDvbTfg(DvbParams{});
    std::ifstream in(sc.tfg);
    if (!in)
        fatal("cannot open TFG file '", sc.tfg, "'");
    return readTfg(in);
}

TimingModel
effectiveTiming(const SessionConfig &sc)
{
    TimingModel tm;
    tm.bandwidth = sc.bandwidth;
    if (sc.apSpeed > 0.0)
        tm.apSpeed = sc.apSpeed;
    else
        tm.apSpeed =
            sc.tfg == "dvb" ? DvbParams{}.matchedApSpeed() : 1.0;
    return tm;
}

TaskAllocation
buildAllocation(const SessionConfig &sc, const TaskFlowGraph &g,
                const Topology &topo)
{
    if (sc.alloc == "greedy")
        return alloc::greedy(g, topo);
    if (sc.alloc == "random") {
        Rng rng(sc.seed);
        return alloc::random(g, topo, rng);
    }
    int stride = 0;
    if (sc.alloc.rfind("rr:", 0) == 0 &&
        parseStride(sc.alloc.substr(3), &stride))
        return alloc::roundRobin(g, topo, stride);
    fatal("invalid input: unknown alloc kind '", sc.alloc,
          "' (greedy | random | rr:<stride>, stride in [1, ", INT_MAX,
          "])");
}

} // namespace

std::shared_ptr<engine::EngineContext>
SchedulingDaemon::makeSessionContext(const SessionConfig &sc) const
{
    if (sc.threads > kMaxSessionThreads)
        fatal("invalid input: threads=", sc.threads, " exceeds the ",
              kMaxSessionThreads, "-thread session budget");
    engine::ChildOptions co;
    co.name = "session." + sc.name;
    co.threads = sc.threads;
    co.baseSeed = sc.seed;
    try {
        return root_->createChild(co);
    } catch (const std::system_error &e) {
        // The host refused the session's private threads.
        fatal("cannot start session threads: ", e.what());
    }
}

void
SchedulingDaemon::registerSessionCtxLocked(
    const std::string &name,
    std::shared_ptr<engine::EngineContext> ctx)
{
    if (!sessionCtxs_.count(name))
        sessionCtxOrder_.push_back(name);
    sessionCtxs_[name] = std::move(ctx);
}

const char *
daemonOutcomeName(DaemonOutcome o)
{
    switch (o) {
      case DaemonOutcome::Ok: return "ok";
      case DaemonOutcome::Overloaded: return "overloaded";
      case DaemonOutcome::DeadlineExpired:
          return "deadline-expired";
      case DaemonOutcome::UnknownSession: return "unknown-session";
      case DaemonOutcome::DuplicateSession:
          return "duplicate-session";
      case DaemonOutcome::InvalidConfig: return "invalid-config";
      case DaemonOutcome::ShuttingDown: return "shutting-down";
    }
    return "unknown";
}

SchedulingDaemon::SchedulingDaemon(DaemonConfig cfg)
    : cfg_(std::move(cfg)),
      root_(&engine::require(cfg_.ctx, "SchedulingDaemon")),
      cache_(std::make_shared<online::ScheduleCache>(
          cfg_.cacheCapacity == 0 ? 1 : cfg_.cacheCapacity,
          &root_->metricsRegistry()))
{
    if (cfg_.workers == 0)
        cfg_.workers = 1;
    if (cfg_.walSyncEvery == 0)
        cfg_.walSyncEvery = 1;
    wal_.setRegistry(&root_->metricsRegistry());
    if (!cfg_.stateDir.empty())
        runRecovery();
    // Workers exist only after recovery: recovery is deliberately
    // single-threaded so replay order equals WAL order.
    pool_ = std::make_unique<ThreadPool>(cfg_.workers);
}

SchedulingDaemon::~SchedulingDaemon()
{
    shutdown();
    // Join the workers before any other member is destroyed: a
    // drain task can still be between its last queue pop and its
    // final `sessions_` lookup after drain() saw the queues empty,
    // and members declared after pool_ would otherwise be freed
    // under it.
    pool_.reset();
}

std::unique_ptr<online::OnlineScheduler>
SchedulingDaemon::buildService(const SessionConfig &sc, Time period,
                               const engine::EngineContext *ctx) const
{
    TaskFlowGraph g = buildWorkload(sc);
    auto topo = makeTopology(sc.topo);
    const TimingModel tm = effectiveTiming(sc);
    const TaskAllocation alloc = buildAllocation(sc, g, *topo);
    online::OnlineSchedulerConfig ocfg;
    ocfg.compiler.ctx = ctx;
    ocfg.compiler.inputPeriod = period;
    ocfg.compiler.assign.seed = sc.seed;
    ocfg.cacheCapacity =
        (sc.cache && cfg_.cacheCapacity > 0) ? cfg_.cacheCapacity
                                             : 0;
    ocfg.sharedCache = cache_;
    return std::make_unique<online::OnlineScheduler>(
        std::move(g), std::move(topo), alloc, tm, ocfg);
}

// -- Durability ---------------------------------------------------

void
SchedulingDaemon::walAppend(const DaemonOp &op)
{
    std::lock_guard<std::mutex> lock(walMu_);
    if (!wal_.isOpen())
        return;
    wal_.append(op);
    ++acceptedSinceSnapshot_;
    // On a failed sync the records stay pending (or the log is
    // marked failed): keep counting so the next append retries.
    if (++unsynced_ >= cfg_.walSyncEvery && wal_.sync())
        unsynced_ = 0;
}

void
SchedulingDaemon::maybeSnapshotLocked()
{
    if (cfg_.stateDir.empty() || cfg_.snapshotEvery == 0)
        return;
    if (queued_ != 0 || executing_ != 0)
        return; // only quiescent states are snapshot-consistent
    {
        std::lock_guard<std::mutex> wlock(walMu_);
        if (acceptedSinceSnapshot_ < cfg_.snapshotEvery)
            return;
    }
    writeSnapshotLocked();
}

void
SchedulingDaemon::writeSnapshotLocked()
{
    if (cfg_.stateDir.empty())
        return;
    trace::ScopedPhase phase("server_snapshot", root_->tracer(),
                             root_->metricsRegistry());
    std::lock_guard<std::mutex> wlock(walMu_);
    if (!wal_.isOpen())
        return; // crashed or already shut down
    // The image must not be ahead of durable history: a snapshot
    // certifies every record up to its walSeq, so if the WAL cannot
    // be made durable the snapshot must not be taken (it would
    // certify records a crash can still lose, and the reopened log
    // would then carry a sequence gap).
    if (!wal_.sync()) {
        warn("snapshot skipped: WAL is not durable");
        return;
    }
    unsynced_ = 0;

    DaemonSnapshot snap;
    snap.walSeq = wal_.nextSeq() - 1;
    std::vector<const Session *> ordered;
    for (const auto &[name, s] : sessions_) {
        // An in-flight open() parks a placeholder with no service
        // (and no WAL record yet): not part of state at walSeq.
        if (!s.svc)
            continue;
        ordered.push_back(&s);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const Session *a, const Session *b) {
                  return a->openIndex < b->openIndex;
              });
    for (const Session *s : ordered) {
        const auto st = s->svc->published();
        SessionSnapshot ss;
        ss.cfg = s->cfg;
        ss.period = s->svc->currentPeriod();
        const TaskFlowGraph &g = st->g;
        const TaskAllocation &alloc = s->svc->allocation();
        for (const Task &t : g.tasks())
            ss.tasks.push_back(
                {t.name, t.operations, alloc.nodeOf(t.id)});
        for (const Message &m : g.messages())
            ss.messages.push_back({m.name, g.task(m.src).name,
                                   g.task(m.dst).name, m.bytes});
        std::ostringstream os;
        writeSchedule(os, st->omega);
        ss.scheduleText = os.str();
        snap.sessions.push_back(std::move(ss));
    }
    for (const online::ScheduleCache::DumpedEntry &de :
         cache_->dumpForSnapshot()) {
        SnapshotCacheEntry e;
        e.key = de.key;
        std::ostringstream os;
        writeSchedule(os, de.entry.omega);
        e.scheduleText = os.str();
        e.numSubsets = de.entry.numSubsets;
        e.peakUtilization = de.entry.peakUtilization;
        snap.cache.push_back(std::move(e));
    }

    std::string path, err;
    if (!writeSnapshotFile(cfg_.stateDir, snap, &path, &err)) {
        // A failed snapshot costs recovery time, not correctness:
        // the WAL still has everything.
        warn("snapshot failed: ", err);
        return;
    }
    acceptedSinceSnapshot_ = 0;
    ++snapshots_;
    bump(root_->metricsRegistry(), "server.snapshots");
}

// -- Recovery -----------------------------------------------------

bool
SchedulingDaemon::restoreFromSnapshot(const DaemonSnapshot &snap,
                                      std::string *why)
{
    std::map<std::string, Session> restored;
    // Fabrics by display name, for validating cache entries below
    // (cache keys carry the fabric's name, not its build spec).
    std::map<std::string, std::unique_ptr<Topology>> topoByName;
    std::uint64_t openIndex = 0;
    for (const SessionSnapshot &ss : snap.sessions) {
        auto topo = makeTopology(ss.cfg.topo);
        if (!topoByName.count(topo->name()))
            topoByName.emplace(topo->name(),
                               makeTopology(ss.cfg.topo));
        TaskFlowGraph g;
        std::unordered_map<std::string, TaskId> taskIds;
        TaskAllocation alloc(static_cast<int>(ss.tasks.size()),
                             topo->numNodes());
        for (const SnapshotTask &t : ss.tasks) {
            const TaskId id = g.addTask(t.name, t.operations);
            taskIds[t.name] = id;
            alloc.assign(id, t.node);
        }
        for (const SnapshotMessage &m : ss.messages) {
            const auto si = taskIds.find(m.src);
            const auto di = taskIds.find(m.dst);
            if (si == taskIds.end() || di == taskIds.end()) {
                *why = "session '" + ss.cfg.name +
                       "': message endpoints missing";
                return false;
            }
            g.addMessage(m.name, si->second, di->second, m.bytes);
        }
        std::istringstream sin(ss.scheduleText);
        const ScheduleReadResult sched =
            tryReadSchedule(sin, *topo);
        if (!sched.ok) {
            *why = "session '" + ss.cfg.name +
                   "': " + sched.error;
            return false;
        }

        // An over-cap thread budget or a refused thread start
        // rejects this snapshot, not the process.
        std::shared_ptr<engine::EngineContext> sctx;
        std::unique_ptr<online::OnlineScheduler> svc;
        online::RequestResult res;
        try {
            sctx = makeSessionContext(ss.cfg);
            online::OnlineSchedulerConfig ocfg;
            ocfg.compiler.ctx = sctx.get();
            ocfg.compiler.inputPeriod = ss.period;
            ocfg.compiler.assign.seed = ss.cfg.seed;
            ocfg.cacheCapacity =
                (ss.cfg.cache && cfg_.cacheCapacity > 0)
                    ? cfg_.cacheCapacity
                    : 0;
            ocfg.sharedCache = cache_;
            svc = std::make_unique<online::OnlineScheduler>(
                std::move(g), std::move(topo), alloc,
                effectiveTiming(ss.cfg), ocfg);
            res = svc->restore(sched.omega, sched.omega.faultSpec);
        } catch (const FatalError &e) {
            *why = "session '" + ss.cfg.name + "': " + e.what();
            return false;
        }
        if (!res.accepted) {
            *why = "session '" + ss.cfg.name +
                   "': restore rejected (" +
                   online::rejectReasonName(res.reason) +
                   "): " + res.detail;
            return false;
        }
        Session s;
        s.cfg = ss.cfg;
        s.ctx = std::move(sctx);
        s.svc = std::move(svc);
        s.openIndex = openIndex++;
        restored.emplace(ss.cfg.name, std::move(s));
    }

    // Stage the cache image before touching the shared cache: a
    // rejected snapshot must not pollute the cache the next
    // candidate (or the full replay) runs against. Each entry is
    // validated against the fabric its key's `topo=<name>;` prefix
    // names; an entry whose fabric no restored session uses is
    // skipped (only a fabric some live session runs on can ever be
    // looked up again, short of replayed re-opens).
    std::vector<
        std::pair<std::string, online::ScheduleCache::Entry>>
        seeds;
    for (const SnapshotCacheEntry &e : snap.cache) {
        if (e.key.rfind("topo=", 0) != 0) {
            *why = "cache entry key lacks a topo prefix";
            return false;
        }
        const std::size_t semi = e.key.find(';');
        if (semi == std::string::npos) {
            *why = "malformed cache entry key";
            return false;
        }
        const auto ti = topoByName.find(e.key.substr(5, semi - 5));
        if (ti == topoByName.end())
            continue;
        std::istringstream sin(e.scheduleText);
        ScheduleReadResult sched =
            tryReadSchedule(sin, *ti->second);
        if (!sched.ok) {
            *why = "cache entry schedule: " + sched.error;
            return false;
        }
        online::ScheduleCache::Entry entry;
        entry.omega = std::move(sched.omega);
        entry.numSubsets =
            static_cast<std::size_t>(e.numSubsets);
        entry.peakUtilization = e.peakUtilization;
        seeds.emplace_back(e.key, std::move(entry));
    }

    sessions_ = std::move(restored);
    nextOpenIndex_ = openIndex;
    // Only a *committed* restore registers its contexts: a rejected
    // candidate must leave no per-session registries behind.
    for (auto &[name, s] : sessions_)
        registerSessionCtxLocked(name, s.ctx);
    // Re-seed least-recently-used first so the LRU order (and so
    // future evictions) match the image.
    for (auto it = seeds.rbegin(); it != seeds.rend(); ++it)
        cache_->insert(it->first, std::move(it->second));
    return true;
}

bool
SchedulingDaemon::replayOp(const DaemonOp &op, RecoveryResult &rr)
{
    switch (op.kind) {
      case DaemonOp::Kind::Open: {
          if (sessions_.count(op.session)) {
              ++rr.replayRejected;
              return false;
          }
          std::unique_ptr<online::OnlineScheduler> svc;
          std::shared_ptr<engine::EngineContext> sctx;
          try {
              sctx = makeSessionContext(op.open);
              svc = buildService(op.open, op.open.period,
                                 sctx.get());
          } catch (const FatalError &) {
              ++rr.replayRejected;
              return false;
          }
          if (!svc->start().accepted) {
              ++rr.replayRejected;
              return false;
          }
          Session s;
          s.cfg = op.open;
          s.ctx = sctx;
          s.svc = std::move(svc);
          s.openIndex = nextOpenIndex_++;
          registerSessionCtxLocked(op.session, std::move(sctx));
          sessions_.emplace(op.session, std::move(s));
          return true;
      }
      case DaemonOp::Kind::Close:
          if (sessions_.erase(op.session) == 0) {
              ++rr.replayRejected;
              return false;
          }
          return true;
      case DaemonOp::Kind::Request: {
          const auto it = sessions_.find(op.session);
          if (it == sessions_.end()) {
              ++rr.replayRejected;
              return false;
          }
          online::RequestResult res;
          try {
              res = it->second.svc->process(op.request);
          } catch (const FatalError &) {
              res.accepted = false;
          }
          if (!res.accepted) {
              ++rr.replayRejected;
              return false;
          }
          return true;
      }
    }
    return false;
}

void
SchedulingDaemon::runRecovery()
{
    recovery_.attempted = true;
    std::error_code ec;
    std::filesystem::create_directories(cfg_.stateDir, ec);
    if (ec)
        fatal("cannot create state dir '", cfg_.stateDir,
              "': ", ec.message());

    const std::string wpath = walPath(cfg_.stateDir);
    const WalReadResult wr = readWal(wpath);
    if (!wr.ok)
        fatal("cannot read WAL '", wpath, "': ", wr.error);
    recovery_.walRecords = wr.records.size();
    recovery_.walTornTail = wr.tornTail;

    // A torn tail means the file ends in garbage; appending after
    // it would corrupt the log, so rewrite the intact prefix first.
    if (wr.tornTail) {
        std::ostringstream body;
        for (const WalRecord &rec : wr.records)
            body << encodeWalRecord(rec) << '\n';
        std::string err;
        const std::string tmp = wpath + ".tmp";
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out << body.str();
        out.close();
        std::filesystem::rename(tmp, wpath, ec);
        if (ec)
            fatal("cannot rewrite torn WAL '", wpath,
                  "': ", ec.message());
    }

    const std::uint64_t lastWalSeq =
        wr.records.empty() ? 0 : wr.records.back().seq;
    const std::uint64_t firstWalSeq =
        wr.records.empty() ? 0 : wr.records.front().seq;

    // Newest intact + certifying snapshot wins; anything less falls
    // back to the next one, and ultimately to a full replay. A log
    // whose first record is past seq 1 (its predecessor was retired
    // below) is only replayable on top of a snapshot that certifies
    // at least firstWalSeq-1 — older images cannot bridge the gap.
    std::uint64_t fromSeq = 0;
    for (const SnapshotFileInfo &info :
         listSnapshots(cfg_.stateDir)) {
        if (info.walSeq + 1 < firstWalSeq) {
            recovery_.rejectedSnapshots.push_back(
                info.path + ": certifies seq " +
                std::to_string(info.walSeq) +
                " but the WAL starts at seq " +
                std::to_string(firstWalSeq));
            continue;
        }
        DaemonSnapshot snap;
        std::string err;
        if (!loadSnapshotFile(info, &snap, &err) ||
            !restoreFromSnapshot(snap, &err)) {
            recovery_.rejectedSnapshots.push_back(info.path + ": " +
                                                  err);
            sessions_.clear();
            nextOpenIndex_ = 0;
            continue;
        }
        recovery_.snapshotPath = info.path;
        recovery_.snapshotSeq = snap.walSeq;
        fromSeq = snap.walSeq;
        break;
    }
    if (fromSeq + 1 < firstWalSeq)
        fatal("state dir '", cfg_.stateDir,
              "' is unrecoverable: the WAL starts at seq ",
              firstWalSeq, " and no intact snapshot certifies seq ",
              firstWalSeq - 1);

    for (const WalRecord &rec : wr.records) {
        if (rec.seq <= fromSeq)
            continue;
        ++recovery_.replayed;
        replayOp(rec.op, recovery_);
    }
    recovery_.sessionsRestored = sessions_.size();

    // A snapshot may certify records the log no longer has (a state
    // dir damaged after the fact). Appending at fromSeq+1 would
    // then write a sequence gap after lastWalSeq, and the *next*
    // recovery would discard everything past the gap as a torn
    // tail. Every certified record's effect lives in the restored
    // snapshot, so the stale log is redundant: retire it and let
    // the reopened log start fresh at the snapshot's sequence.
    if (fromSeq > lastWalSeq &&
        std::filesystem::exists(wpath)) {
        std::filesystem::rename(wpath, wpath + ".stale", ec);
        if (ec)
            fatal("cannot retire stale WAL '", wpath,
                  "': ", ec.message());
    }

    std::string err;
    if (!wal_.open(wpath, std::max(lastWalSeq, fromSeq) + 1, &err))
        fatal(err);
}

// -- Control plane ------------------------------------------------

DaemonResponse
SchedulingDaemon::open(const SessionConfig &sc)
{
    DaemonResponse resp;
    resp.session = sc.name;
    resp.kind = "open";
    {
        std::lock_guard<std::mutex> lock(mu_);
        resp.id = nextId_++;
        if (shutdown_) {
            resp.outcome = DaemonOutcome::ShuttingDown;
            return resp;
        }
        if (sessions_.count(sc.name)) {
            resp.outcome = DaemonOutcome::DuplicateSession;
            resp.detail =
                "session '" + sc.name + "' is already open";
            return resp;
        }
        // Reserve the name; active=true parks any request that is
        // submitted while the initial compile runs below.
        Session s;
        s.cfg = sc;
        s.active = true;
        s.openIndex = nextOpenIndex_++;
        sessions_.emplace(sc.name, std::move(s));
    }

    std::unique_ptr<online::OnlineScheduler> svc;
    std::shared_ptr<engine::EngineContext> sctx;
    online::RequestResult first;
    std::string configError;
    try {
        sctx = makeSessionContext(sc);
        svc = buildService(sc, sc.period, sctx.get());
        first = svc->start();
    } catch (const FatalError &e) {
        configError = e.what();
    }

    const bool ok = configError.empty() && first.accepted;
    bool kick = false;
    bool closedOut = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        closedOut = shutdown_;
        auto it = sessions_.find(sc.name);
        if (ok && !closedOut) {
            it->second.ctx = sctx;
            it->second.svc = std::move(svc);
            registerSessionCtxLocked(sc.name, std::move(sctx));
            // WAL order must equal publication order: append the
            // Open while the lock still parks this session's first
            // request (its worker only starts below) and blocks
            // snapshots, so no Request or image can be sequenced
            // ahead of it.
            DaemonOp op;
            op.kind = DaemonOp::Kind::Open;
            op.session = sc.name;
            op.open = sc;
            walAppend(op);
            it->second.active = false;
            kick = !it->second.pending.empty() && !paused_;
            if (kick)
                it->second.active = true;
        } else {
            // Failed opens leave no session (and no WAL record);
            // anything queued meanwhile dies with it.
            for (auto &job : it->second.pending) {
                DaemonResponse dead;
                dead.id = job->id;
                dead.session = sc.name;
                dead.kind = job->kind;
                dead.outcome = DaemonOutcome::UnknownSession;
                dead.detail = "session open failed";
                --queued_;
                job->promise.set_value(std::move(dead));
            }
            sessions_.erase(it);
            setQueueGaugeLocked();
        }
    }
    metrics::Registry &reg = root_->metricsRegistry();
    if (!configError.empty()) {
        resp.outcome = DaemonOutcome::InvalidConfig;
        resp.detail = configError;
        bump(reg, "server.rejected");
        return resp;
    }
    if (closedOut) {
        // Shutdown began while the initial compile ran: the final
        // snapshot has been (or is being) taken without this
        // session, so it must not come alive after it.
        resp.outcome = DaemonOutcome::ShuttingDown;
        bump(reg, "server.rejected");
        return resp;
    }
    resp.result = first;
    if (ok) {
        bump(reg, "server.opens");
        bump(reg, "server.accepted");
    } else {
        bump(reg, "server.rejected");
    }
    if (kick) {
        const std::string name = sc.name;
        pool_->submit([this, name] { drainSession(name); });
    }
    idleCv_.notify_all();
    return resp;
}

DaemonResponse
SchedulingDaemon::close(const std::string &session)
{
    DaemonResponse resp;
    resp.session = session;
    resp.kind = "close";
    {
        std::unique_lock<std::mutex> lock(mu_);
        resp.id = nextId_++;
        const auto it = sessions_.find(session);
        if (it == sessions_.end()) {
            resp.outcome = DaemonOutcome::UnknownSession;
            resp.detail = "session '" + session + "' is not open";
            return resp;
        }
        // Earlier requests keep their submission-order slot: wait
        // for this session's queue to drain before closing. (While
        // paused, parked requests would wait forever — resume
        // first.)
        idleCv_.wait(lock, [&] {
            const auto i2 = sessions_.find(session);
            return i2 == sessions_.end() ||
                   (i2->second.pending.empty() &&
                    !i2->second.active);
        });
        if (sessions_.erase(session) == 0) {
            resp.outcome = DaemonOutcome::UnknownSession;
            resp.detail = "session '" + session +
                          "' closed concurrently";
            return resp;
        }
        // Log the Close before releasing the lock: a concurrent
        // re-open of the same name must be sequenced after it.
        DaemonOp op;
        op.kind = DaemonOp::Kind::Close;
        op.session = session;
        walAppend(op);
    }
    bump(root_->metricsRegistry(), "server.closes");
    return resp;
}

// -- Data plane ---------------------------------------------------

void
SchedulingDaemon::setQueueGaugeLocked()
{
    if (SRSIM_METRICS_ENABLED())
        root_->metricsRegistry().gauge("server.queue_depth")
            .set(static_cast<double>(queued_));
}

std::future<DaemonResponse>
SchedulingDaemon::submit(const std::string &session,
                         online::Request r)
{
    auto job = std::make_unique<Job>();
    job->req = std::move(r);
    job->kind = online::requestKindName(job->req.kind);
    std::future<DaemonResponse> fut = job->promise.get_future();

    DaemonResponse reject;
    reject.session = session;
    reject.kind = job->kind;

    bool startWorker = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        reject.id = job->id = nextId_++;
        bump(root_->metricsRegistry(), "server.requests");
        if (shutdown_) {
            reject.outcome = DaemonOutcome::ShuttingDown;
            job->promise.set_value(std::move(reject));
            return fut;
        }
        const auto it = sessions_.find(session);
        if (it == sessions_.end()) {
            reject.outcome = DaemonOutcome::UnknownSession;
            reject.detail =
                "session '" + session + "' is not open";
            job->promise.set_value(std::move(reject));
            return fut;
        }
        if (queued_ >= cfg_.queueCap) {
            // Backpressure: never block, never abort — tell the
            // caller to retry later.
            reject.outcome = DaemonOutcome::Overloaded;
            reject.detail = "queue full (cap " +
                            std::to_string(cfg_.queueCap) + ")";
            bump(root_->metricsRegistry(), "server.overloaded");
            job->promise.set_value(std::move(reject));
            return fut;
        }
        job->enqueueUs = trace::Tracer::nowWallUs();
        if (cfg_.deadlineMs > 0.0)
            job->deadlineUs =
                job->enqueueUs + cfg_.deadlineMs * 1000.0;
        Session &s = it->second;
        s.pending.push_back(std::move(job));
        ++queued_;
        setQueueGaugeLocked();
        if (!s.active && !paused_) {
            s.active = true;
            startWorker = true;
        }
    }
    if (startWorker)
        pool_->submit([this, session] { drainSession(session); });
    return fut;
}

void
SchedulingDaemon::finishJob(Session &s, Job &job)
{
    DaemonResponse resp;
    resp.id = job.id;
    resp.session = s.cfg.name;
    resp.kind = job.kind;
    const engine::EngineContext &ectx = *s.ctx;
    const double pickedUs = trace::Tracer::nowWallUs();
    resp.queueMs = (pickedUs - job.enqueueUs) / 1000.0;
    if (SRSIM_METRICS_ENABLED())
        root_->metricsRegistry()
            .histogram("server.queue_wait_us",
                       metrics::Histogram::timeBucketsUs())
            .add(pickedUs - job.enqueueUs);

    if (job.deadlineUs > 0.0 && pickedUs > job.deadlineUs) {
        resp.outcome = DaemonOutcome::DeadlineExpired;
        resp.detail = "queued " + std::to_string(resp.queueMs) +
                      " ms past its deadline";
        bump(root_->metricsRegistry(), "server.deadline_expired");
        job.promise.set_value(std::move(resp));
        return;
    }

    trace::ScopedPhase phase("server_request", ectx.tracer(),
                             ectx.metricsRegistry());
    try {
        resp.result = s.svc->process(job.req);
    } catch (const FatalError &e) {
        resp.result.accepted = false;
        resp.result.reason = online::RejectReason::InvalidRequest;
        resp.result.detail = e.what();
    }
    if (resp.result.accepted) {
        DaemonOp op;
        op.kind = DaemonOp::Kind::Request;
        op.session = s.cfg.name;
        op.request = job.req;
        walAppend(op);
        bump(root_->metricsRegistry(), "server.accepted");
    } else {
        bump(root_->metricsRegistry(), "server.rejected");
    }
    // The session's registry writes through to the root aggregate,
    // so this per-session histogram lands in both.
    if (job.req.kind == online::RequestKind::AdmitMessage &&
        SRSIM_METRICS_ENABLED())
        ectx.metricsRegistry()
            .histogram("server.session." + s.cfg.name +
                           ".admit_latency_us",
                       metrics::Histogram::timeBucketsUs())
            .add(resp.result.latencyMs * 1000.0);
    job.promise.set_value(std::move(resp));
}

void
SchedulingDaemon::drainSession(const std::string &name)
{
    for (;;) {
        std::unique_ptr<Job> job;
        Session *s = nullptr;
        {
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = sessions_.find(name);
            if (it == sessions_.end())
                return;
            s = &it->second;
            if (paused_ || s->pending.empty()) {
                s->active = false;
                idleCv_.notify_all();
                return;
            }
            job = std::move(s->pending.front());
            s->pending.pop_front();
            --queued_;
            ++executing_;
            setQueueGaugeLocked();
        }
        // Process outside the daemon lock: distinct sessions run
        // in parallel; this session stays serialized because only
        // this (active) worker pops its queue. `s` stays valid:
        // close() waits for active to clear.
        finishJob(*s, *job);
        {
            std::lock_guard<std::mutex> lock(mu_);
            --executing_;
            maybeSnapshotLocked();
            idleCv_.notify_all();
        }
    }
}

// -- Lifecycle ----------------------------------------------------

void
SchedulingDaemon::drain()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        idleCv_.wait(lock, [&] {
            return queued_ == 0 && executing_ == 0;
        });
    }
    std::lock_guard<std::mutex> wlock(walMu_);
    if (wal_.sync())
        unsynced_ = 0;
}

void
SchedulingDaemon::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (shutdown_)
            return;
        // Stop admission before draining: nothing may slip in
        // between the drain and the final snapshot.
        shutdown_ = true;
    }
    drain();
    std::lock_guard<std::mutex> lock(mu_);
    if (!cfg_.stateDir.empty())
        writeSnapshotLocked();
    std::lock_guard<std::mutex> wlock(walMu_);
    wal_.close();
}

void
SchedulingDaemon::crashForTest()
{
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (auto &[name, s] : sessions_) {
        for (auto &job : s.pending) {
            DaemonResponse dead;
            dead.id = job->id;
            dead.session = name;
            dead.kind = job->kind;
            dead.outcome = DaemonOutcome::ShuttingDown;
            dead.detail = "daemon crashed";
            job->promise.set_value(std::move(dead));
        }
        s.pending.clear();
    }
    queued_ = 0;
    std::lock_guard<std::mutex> wlock(walMu_);
    wal_.crashForTest();
}

std::vector<DaemonResponse>
SchedulingDaemon::run(const std::vector<DaemonOp> &ops)
{
    std::vector<DaemonResponse> out(ops.size());
    std::vector<std::pair<std::size_t,
                          std::future<DaemonResponse>>>
        pending;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const DaemonOp &op = ops[i];
        switch (op.kind) {
          case DaemonOp::Kind::Open:
              out[i] = open(op.open);
              break;
          case DaemonOp::Kind::Close:
              out[i] = close(op.session);
              break;
          case DaemonOp::Kind::Request:
              pending.emplace_back(
                  i, submit(op.session, op.request));
              break;
        }
    }
    for (auto &[i, fut] : pending)
        out[i] = fut.get();
    return out;
}

// -- Introspection ------------------------------------------------

std::shared_ptr<const online::PublishedState>
SchedulingDaemon::published(const std::string &session) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end() || !it->second.svc)
        return nullptr;
    return it->second.svc->published();
}

std::vector<std::string>
SchedulingDaemon::sessionNames() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const Session *> ordered;
    for (const auto &[name, s] : sessions_)
        ordered.push_back(&s);
    std::sort(ordered.begin(), ordered.end(),
              [](const Session *a, const Session *b) {
                  return a->openIndex < b->openIndex;
              });
    std::vector<std::string> names;
    for (const Session *s : ordered)
        names.push_back(s->cfg.name);
    return names;
}

std::size_t
SchedulingDaemon::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return queued_;
}

std::vector<std::pair<std::string, const metrics::Registry *>>
SchedulingDaemon::sessionMetrics() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, const metrics::Registry *>>
        out;
    for (const std::string &name : sessionCtxOrder_) {
        const auto it = sessionCtxs_.find(name);
        if (it != sessionCtxs_.end())
            out.emplace_back(name, &it->second->metricsRegistry());
    }
    return out;
}

std::size_t
SchedulingDaemon::sessionPoolSize(const std::string &session) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end() || !it->second.ctx)
        return 0;
    const ThreadPool &pool = it->second.ctx->pool();
    return &pool == &root_->pool() ? 0 : pool.size();
}

std::uint64_t
SchedulingDaemon::walRecords() const
{
    std::lock_guard<std::mutex> lock(walMu_);
    return wal_.recordsAppended();
}

std::uint64_t
SchedulingDaemon::walFsyncs() const
{
    std::lock_guard<std::mutex> lock(walMu_);
    return wal_.fsyncs();
}

void
SchedulingDaemon::pauseForTest()
{
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = true;
}

void
SchedulingDaemon::resumeForTest()
{
    std::vector<std::string> kick;
    {
        std::lock_guard<std::mutex> lock(mu_);
        paused_ = false;
        for (auto &[name, s] : sessions_) {
            if (!s.pending.empty() && !s.active && s.svc) {
                s.active = true;
                kick.push_back(name);
            }
        }
    }
    for (const std::string &name : kick)
        pool_->submit([this, name] { drainSession(name); });
}

} // namespace server
} // namespace srsim
