/**
 * @file
 * The `churn` workload: what a tenant of the scheduling daemon waits
 * on, from submit() to a durable, verified publish.
 *
 * A SchedulingDaemon configured with two workers (one drain thread:
 * ThreadPool counts the submitting thread, which never drains), a
 * root context with a one-thread budget, the shared cache off, and
 * the WAL on with an fsync per record (walSyncEvery = 1: with group
 * commit the daemon acknowledges before fsync, and a durable-ack
 * latency would not exist) serves four sessions of the fig10 fabric
 * (torus:4,4,4, period 120, bandwidth 128, rr:13). Each session
 * alternates admitting and removing a message on a seeded DVB skip
 * edge with a seeded size, so every request is a real incremental
 * re-solve: greedy routing, dirty-subset LPs with warm bases,
 * verifier, WAL fsync.
 *
 * Phase 1 is open loop at a fixed rate, each request timed from
 * when it was due; phase 2 is closed loop with one outstanding
 * request per session. The reported latencies and capacity are on
 * the process CPU clock, which a shared host's steal and disk
 * contention do not advance; wall-clock figures go to the detail
 * record. Every verdict must equal a serial replay's,
 * every final schedule must re-verify and equal the replay's bytes,
 * and a daemon recovered from the run's state directory must
 * republish the same bytes. The traced run also times the replay's
 * layer calls: OnlineScheduler::process, and WAL append/sync on a
 * scratch log.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <iostream>
#include <mutex>
#include <optional>
#include <thread>

#include "common.hh"
#include "engine/context.hh"
#include "mapping/allocation.hh"
#include "metrics/metrics.hh"
#include "server/daemon.hh"
#include "server/wal.hh"
#include "tfg/dvb.hh"
#include "topology/factory.hh"
// Complete types for the services an EngineContext may own.
#include "trace/trace.hh"
#include "util/thread_pool.hh"

namespace srbench {

using namespace srsim;

namespace {

constexpr int kSessions = 4;
/** DaemonConfig::workers; ThreadPool(n) starts n - 1 drain threads. */
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kDrainThreads = kWorkers - 1;

/**
 * Open-loop rate (requests/s), fixed across commits. When the
 * benchmark was defined, on a shared 4-core host, the wall-clock
 * closed-loop rate ranged 227-540 req/s; the rate is about a third
 * of the low end, so a slow spell of the host does not turn the open
 * loop into a backlog. 85 req/s over the 0.6 share of a 30 s run gives 1530
 * samples: 153 beyond the p90, and 15 beyond the p99 kept in the
 * detail record.
 */
constexpr double kOpenLoopRps = 85.0;

/** Share of the run spent in phase 1 (open loop). */
constexpr double kOpenLoopShare = 0.6;

/** Run-quality bounds: beyond them the run is flagged. */
constexpr double kMaxMedianLatenessMs = 1.0;
constexpr double kMaxLatenessMs = 50.0;
constexpr std::size_t kMaxBacklog = 2 * kSessions;

/** Set-ups per run, half before the measured phases, half after. */
constexpr int kSetUps = 16;

/** Plain compiles and stage replays of the session-open compile
    that the traced run alternates. */
constexpr int kOpenReplayPairs = 3;

/** Skip edges over the DVB recognition chain: a message on one
    nests inside the chain's precedence, so admitting it moves no
    other message's bounds. */
const std::pair<const char *, const char *> kSkipEdges[] = {
    {"match", "probe"},  {"hough", "extend"}, {"probe", "verify"},
    {"extend", "filter"}, {"verify", "score"}, {"match", "extend"},
};
constexpr std::size_t kEdges = std::size(kSkipEdges);

server::SessionConfig
fig10Session(int k)
{
    server::SessionConfig sc;
    sc.name = "t" + std::to_string(k);
    sc.topo = "torus:4,4,4";
    sc.tfg = "dvb";
    sc.period = 120.0; // 2.4 tau_c at bandwidth 128, matched AP
    sc.bandwidth = 128.0;
    sc.alloc = "rr:13";
    return sc;
}

/**
 * One session's seeded request stream: admit "x" on a skip edge with
 * a fresh size, remove "x", and so on.
 */
class RequestStream
{
  public:
    RequestStream(std::uint64_t seed, int session)
        : rng_(seed * 1000003ULL + static_cast<std::uint64_t>(session))
    {
    }

    online::Request
    next()
    {
        online::Request r;
        if (admitNext_) {
            const std::size_t e = rng_.below(kEdges);
            online::AdmitSpec spec;
            spec.name = "x";
            spec.src = kSkipEdges[e].first;
            spec.dst = kSkipEdges[e].second;
            // 64..448 bytes in steps of 16 (0.5..3.5 us at bandwidth 128).
            spec.bytes = 64.0 + 16.0 * static_cast<double>(rng_.below(25));
            r.kind = online::RequestKind::AdmitMessage;
            r.admits.push_back(std::move(spec));
        } else {
            r.kind = online::RequestKind::RemoveMessage;
            r.name = "x";
        }
        admitNext_ = !admitNext_;
        return r;
    }

  private:
    SeededStream rng_;
    bool admitNext_ = true;
};

/** One request as the daemon answered it. */
struct Served
{
    online::Request req;
    server::DaemonResponse resp;
};

/** Per-session request history, in submission order. */
struct SessionLog
{
    std::vector<Served> served;
    std::string finalBytes;
};

server::DaemonConfig
daemonConfig(const std::string &stateDir, const engine::EngineContext *ctx)
{
    server::DaemonConfig cfg;
    cfg.workers = kWorkers;
    cfg.queueCap = 1 << 16; // phase 1 must never be refused
    cfg.stateDir = stateDir;
    cfg.walSyncEvery = 1;
    cfg.cacheCapacity = 0;
    cfg.ctx = ctx;
    return cfg;
}

/** Open the four sessions; @return false if any open failed. */
bool
openSessions(server::SchedulingDaemon &d, Outcome &out)
{
    bool ok = true;
    for (int k = 0; k < kSessions; ++k) {
        const server::DaemonResponse r = d.open(fig10Session(k));
        ++out.attempted;
        if (r.outcome != server::DaemonOutcome::Ok || !r.result.accepted) {
            ++out.failed;
            out.problem("open " + fig10Session(k).name + " failed: " +
                        r.detail + r.result.detail);
            ok = false;
        }
    }
    return ok;
}

/** Count one daemon response against the run. */
void
countResponse(const server::DaemonResponse &r, Outcome &out)
{
    ++out.attempted;
    if (r.outcome != server::DaemonOutcome::Ok || !r.result.accepted)
        ++out.failed;
}

std::uint64_t
counterOf(const metrics::Registry &reg, const std::string &name)
{
    for (const auto &[n, v] : reg.counterSnapshot())
        if (n == name)
            return v;
    return 0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Session k's inputs, built as the daemon builds them. */
struct SessionInputs
{
    std::string topoSpec;
    TaskFlowGraph g;
    std::unique_ptr<Topology> topo;
    std::optional<TaskAllocation> alloc;
    TimingModel tm;
    online::OnlineSchedulerConfig ocfg;

    SessionInputs(const server::SessionConfig &sc,
                  const engine::EngineContext *ctx)
    {
        const DvbParams dvb;
        topoSpec = sc.topo;
        g = buildDvbTfg(dvb);
        topo = makeTopology(topoSpec);
        tm.apSpeed = dvb.matchedApSpeed();
        tm.bandwidth = sc.bandwidth;
        alloc.emplace(alloc::roundRobin(g, *topo, 13));
        ocfg.compiler.ctx = ctx;
        ocfg.compiler.inputPeriod = sc.period;
        ocfg.compiler.assign.seed = sc.seed;
        ocfg.cacheCapacity = 0;
    }

    /** A started replica of the session's scheduler. */
    std::unique_ptr<online::OnlineScheduler>
    start()
    {
        auto svc = std::make_unique<online::OnlineScheduler>(
            g, makeTopology(topoSpec), *alloc, tm, ocfg);
        if (!svc->start().accepted)
            return nullptr;
        return svc;
    }
};

/** The session-open compile, split by stage (traced run only). */
struct OpenSplit
{
    /** Per-stage median over the replays (ms). */
    double stageMs[kStages] = {};
    /** Median over pairs of stage sum / plain compile wall time. */
    double coverage = 0.0;
    StageReplay last;
};

/**
 * Alternate plain compiles of session 0's opening workload with
 * stage-by-stage replays of it; the coverage compares each replay's
 * stage sum with the plain compile next to it, so a stage the split
 * misses, or work it adds, shows.
 */
OpenSplit
splitOpenCompile(SessionInputs &in, Outcome &out)
{
    OpenSplit split;
    std::vector<double> stages[kStages], coverage;
    for (int i = 0; i < kOpenReplayPairs; ++i) {
        const auto a = Clock::now();
        const SrCompileResult plain = compileScheduledRouting(
            in.g, *in.topo, *in.alloc, in.tm, in.ocfg.compiler);
        const double plainMs = msBetween(a, Clock::now());
        split.last = replayCompileByStage(in.g, *in.topo, *in.alloc, in.tm,
                                          in.ocfg.compiler);
        if (!plain.feasible || !split.last.ok ||
            scheduleBytes(plain.omega) != scheduleBytes(split.last.omega)) {
            out.problem("stage replay of the session-open compile does "
                        "not reproduce the plain compile");
            return split;
        }
        double sum = 0.0;
        for (int s = 0; s < kStages; ++s) {
            stages[s].push_back(split.last.stageMs[s]);
            sum += split.last.stageMs[s];
        }
        coverage.push_back(sum / plainMs);
    }
    for (int s = 0; s < kStages; ++s)
        split.stageMs[s] = median(stages[s]);
    split.coverage = median(coverage);
    return split;
}

/** Layer timings the traced replay collects. */
struct LayerSamples
{
    std::vector<double> processMs, appendMs, syncMs;
    /** Session 0's request loop (CPU ms): untraced, then traced. */
    double untracedLoopMs = 0.0, tracedLoopMs = 0.0;
    OpenSplit open;
};

/**
 * Replay every session's stream serially through a fresh
 * OnlineScheduler built as the daemon builds its sessions, and
 * check the daemon against it. With `layers` set (the traced run),
 * also time each process() call and each request's WAL append and
 * sync on a scratch log, split session 0's opening compile by stage,
 * and replay session 0 once more untraced (metrics off, no timers)
 * to price the tracing.
 */
void
replayAndCheck(const Args &args, const std::vector<SessionLog> &logs,
               Outcome &out, LayerSamples *layers)
{
    engine::EngineContext root;
    engine::ChildOptions dco;
    dco.name = "bench.replay";
    dco.threads = 1;
    const auto daemonCtx = root.createChild(dco);

    bool flip = args.flipExpectedVerdict;
    for (int k = 0; k < kSessions; ++k) {
        const server::SessionConfig sc = fig10Session(k);
        engine::ChildOptions co;
        co.name = "session." + sc.name;
        co.baseSeed = sc.seed;
        const auto ctx = daemonCtx->createChild(co);
        SessionInputs in(sc, ctx.get());
        const bool priced = layers != nullptr && k == 0;

        if (priced) {
            layers->open = splitOpenCompile(in, out);
            metrics::Registry::setEnabled(false);
            const auto bareCtx = daemonCtx->createChild(co);
            const auto bare = SessionInputs(sc, bareCtx.get()).start();
            if (bare != nullptr) {
                const double cpu0 = threadCpuMs();
                for (const Served &s : logs[k].served)
                    if (s.resp.outcome == server::DaemonOutcome::Ok)
                        bare->process(s.req);
                layers->untracedLoopMs = threadCpuMs() - cpu0;
            }
            metrics::Registry::setEnabled(true);
        }

        const auto svc = in.start();
        if (svc == nullptr) {
            out.problem("replay of " + sc.name + " failed to start");
            continue;
        }
        const double cpu0 = threadCpuMs();
        std::size_t mismatches = 0;
        std::vector<const online::Request *> accepted;
        for (const Served &s : logs[k].served) {
            if (s.resp.outcome != server::DaemonOutcome::Ok)
                continue; // never reached the scheduler
            const auto a = layers != nullptr ? Clock::now()
                                             : Clock::time_point{};
            const online::RequestResult r = svc->process(s.req);
            if (layers != nullptr)
                layers->processMs.push_back(msBetween(a, Clock::now()));
            bool expected = r.accepted;
            if (flip) {
                expected = !expected;
                flip = false;
            }
            if (expected != s.resp.result.accepted ||
                r.reason != s.resp.result.reason)
                ++mismatches;
            if (r.accepted)
                accepted.push_back(&s.req);
        }
        if (priced)
            layers->tracedLoopMs = threadCpuMs() - cpu0;
        if (mismatches > 0) {
            out.failed += mismatches;
            out.problem(sc.name + ": " + std::to_string(mismatches) +
                        " daemon verdicts differ from the serial replay");
        }
        if (scheduleBytes(svc->published()->omega) != logs[k].finalBytes)
            out.problem(sc.name + ": final published schedule differs "
                                  "from the serial replay");
        if (layers == nullptr)
            continue;

        // The WAL layer, on a scratch log: each accepted request is
        // appended and synced as the daemon does with walSyncEvery=1.
        server::WriteAheadLog wal;
        const std::string walPath =
            args.stateDir + "/layer-probe-wal-" + sc.name + ".jsonl";
        std::string err;
        if (!wal.open(walPath, 1, &err))
            throw std::runtime_error("cannot open probe WAL: " + err);
        for (const online::Request *req : accepted) {
            server::DaemonOp op;
            op.kind = server::DaemonOp::Kind::Request;
            op.session = sc.name;
            op.request = *req;
            const auto a = Clock::now();
            wal.append(op);
            const auto b = Clock::now();
            const bool synced = wal.sync();
            const auto c = Clock::now();
            if (!synced)
                out.problem("probe WAL sync failed");
            layers->appendMs.push_back(msBetween(a, b));
            layers->syncMs.push_back(msBetween(b, c));
        }
        wal.close();
        std::filesystem::remove(walPath);
    }
}

} // namespace

void
runChurnWorkload(const Args &args, Outcome &out, JsonWriter &w)
{
    namespace fs = std::filesystem;
    fs::remove_all(args.stateDir);
    fs::create_directories(args.stateDir);
    const std::string runDir = args.stateDir + "/run";

    engine::EngineContext root;
    engine::ChildOptions co;
    co.name = "bench.daemon";
    co.threads = 1;
    const auto ctx = root.createChild(co);
    // The traced run reads counters from the session registries;
    // the untraced run keeps the daemon's default, metrics off.
    metrics::Registry::setEnabled(args.trace);

    // Set-up: construct a daemon (recovery of an empty state
    // directory) and open the four sessions. Half of the set-ups run
    // before the measured phases (the last of them builds the daemon
    // that serves the run), half after it has shut down. Each spare
    // daemon is torn down outside its timed window before the next
    // set-up starts, so at most one daemon is alive at a time.
    SetupTimes setups;
    int spares = 0;
    const auto setUp = [&](const std::string &dir) {
        std::unique_ptr<server::SchedulingDaemon> d;
        setups.time([&] {
            d = std::make_unique<server::SchedulingDaemon>(
                daemonConfig(dir, ctx.get()));
            if (!openSessions(*d, out))
                throw std::runtime_error("session open failed");
        });
        return d;
    };
    const auto spareSetUps = [&](int n) {
        for (int i = 0; i < n; ++i) {
            const std::string dir =
                args.stateDir + "/setup" + std::to_string(spares++);
            setUp(dir).reset();
            fs::remove_all(dir);
        }
    };
    spareSetUps(kSetUps / 2 - 1);
    std::unique_ptr<server::SchedulingDaemon> daemon = setUp(runDir);

    std::vector<RequestStream> streams;
    for (int k = 0; k < kSessions; ++k)
        streams.emplace_back(args.seed, k);
    std::vector<SessionLog> logs(kSessions);
    std::atomic<std::uint64_t> completed{0};
    // A future that throws (a broken promise) ends its thread's loop
    // and fails the run instead of terminating the process.
    std::atomic<bool> brokenFuture{false};
    const auto await = [&](std::future<server::DaemonResponse> &f,
                           server::DaemonResponse *r) {
        try {
            *r = f.get();
            return true;
        } catch (const std::exception &) {
            brokenFuture = true;
            return false;
        }
    };

    // Phase 1: open loop. One collector per session waits on that
    // session's futures, which complete in submission order.
    struct Inflight
    {
        Clock::time_point due;
        double dueCpuMs;
        online::Request req;
        std::future<server::DaemonResponse> fut;
    };
    struct Channel
    {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<Inflight> q;
        bool closed = false;
    };
    std::vector<Channel> chans(kSessions);
    std::vector<double> openMs[kSessions], openCpuMs[kSessions];
    std::vector<std::thread> collectors;
    // Closes the channels and joins the collectors, also when the
    // generator below throws.
    const auto stopCollectors = [&] {
        for (Channel &ch : chans) {
            {
                std::lock_guard<std::mutex> lock(ch.mu);
                ch.closed = true;
            }
            ch.cv.notify_one();
        }
        for (std::thread &t : collectors)
            if (t.joinable())
                t.join();
    };
    struct StopGuard
    {
        const decltype(stopCollectors) &stop;
        ~StopGuard() { stop(); }
    } stopGuard{stopCollectors};
    for (int k = 0; k < kSessions; ++k)
        collectors.emplace_back([&, k] {
            Channel &ch = chans[k];
            for (;;) {
                Inflight f;
                {
                    std::unique_lock<std::mutex> lock(ch.mu);
                    ch.cv.wait(lock,
                               [&] { return ch.closed || !ch.q.empty(); });
                    if (ch.q.empty())
                        return;
                    f = std::move(ch.q.front());
                    ch.q.pop_front();
                }
                server::DaemonResponse r;
                if (!await(f.fut, &r))
                    continue;
                openMs[k].push_back(msBetween(f.due, Clock::now()));
                openCpuMs[k].push_back(processCpuMs() - f.dueCpuMs);
                ++completed;
                logs[k].served.push_back({std::move(f.req), std::move(r)});
            }
        });

    const double phase1S = args.seconds * kOpenLoopShare;
    const auto p1 = Clock::now();
    const auto gap = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kOpenLoopRps));
    std::vector<double> latenessMs;
    std::uint64_t submitted = 0;
    for (std::uint64_t i = 0;; ++i) {
        const auto due = p1 + gap * static_cast<std::int64_t>(i);
        if (msBetween(p1, due) >= phase1S * 1000.0)
            break;
        std::this_thread::sleep_until(due);
        latenessMs.push_back(msBetween(due, Clock::now()));
        const double dueCpuMs = processCpuMs();
        const int k = static_cast<int>(i % kSessions);
        online::Request req = streams[k].next();
        auto fut = daemon->submit(fig10Session(k).name, req);
        {
            std::lock_guard<std::mutex> lock(chans[k].mu);
            chans[k].q.push_back(
                {due, dueCpuMs, std::move(req), std::move(fut)});
        }
        chans[k].cv.notify_one();
        ++submitted;
    }
    const std::uint64_t backlog = submitted - completed.load();
    const std::size_t queueDepth = daemon->queueDepth();
    stopCollectors();
    std::vector<double> phase1Ms, phase1CpuMs, queueMs;
    for (int k = 0; k < kSessions; ++k) {
        phase1Ms.insert(phase1Ms.end(), openMs[k].begin(), openMs[k].end());
        phase1CpuMs.insert(phase1CpuMs.end(), openCpuMs[k].begin(),
                           openCpuMs[k].end());
        for (const Served &s : logs[k].served)
            queueMs.push_back(s.resp.queueMs);
    }

    // Phase 2: closed loop, one outstanding request per session.
    const double phase2S = args.seconds - phase1S;
    std::vector<double> closedMs[kSessions];
    const auto p2 = Clock::now();
    const double p2Cpu = processCpuMs();
    std::vector<std::thread> clients;
    for (int k = 0; k < kSessions; ++k)
        clients.emplace_back([&, k] {
            while (msBetween(p2, Clock::now()) < phase2S * 1000.0) {
                online::Request req = streams[k].next();
                const auto a = Clock::now();
                auto fut = daemon->submit(fig10Session(k).name, req);
                server::DaemonResponse r;
                if (!await(fut, &r))
                    break;
                closedMs[k].push_back(msBetween(a, Clock::now()));
                logs[k].served.push_back({std::move(req), std::move(r)});
            }
        });
    for (std::thread &t : clients)
        t.join();
    const double phase2Elapsed = msBetween(p2, Clock::now()) / 1000.0;
    const double phase2CpuS = (processCpuMs() - p2Cpu) / 1000.0;
    // The serving daemon's peak: read before the later set-ups, the
    // recovery check and the serial replay add their own.
    const double peakRss = peakRssMb();
    std::uint64_t phase2Count = 0;
    std::vector<double> phase2Ms;
    for (int k = 0; k < kSessions; ++k) {
        phase2Count += closedMs[k].size();
        phase2Ms.insert(phase2Ms.end(), closedMs[k].begin(),
                        closedMs[k].end());
    }

    if (brokenFuture)
        out.problem("a daemon response was never delivered");

    // Snapshot what the run left behind, then shut down.
    const auto fabric = makeTopology("torus:4,4,4");
    const TaskAllocation placement =
        alloc::roundRobin(buildDvbTfg(DvbParams{}), *fabric, 13);
    for (int k = 0; k < kSessions; ++k) {
        for (const Served &s : logs[k].served)
            countResponse(s.resp, out);
        const std::string name = fig10Session(k).name;
        const auto st = daemon->published(name);
        if (!st) {
            out.problem(name + " has no published state");
            continue;
        }
        logs[k].finalBytes = scheduleBytes(st->omega);
        if (!verifySchedule(st->g, *fabric, placement, st->bounds, st->omega)
                 .ok)
            out.problem(name + ": final published schedule fails "
                               "re-verification");
    }
    const std::uint64_t walRecords = daemon->walRecords();
    const std::uint64_t walFsyncs = daemon->walFsyncs();
    std::uint64_t copied = 0, resolved = 0, warmHits = 0, warmMisses = 0,
                  lpSolves = 0, lpPivots = 0;
    for (const auto &[name, reg] : daemon->sessionMetrics()) {
        copied += counterOf(*reg, "online.subsets_copied");
        resolved += counterOf(*reg, "online.subsets_resolved");
        warmHits += counterOf(*reg, "solver.warmstart.hits");
        warmMisses += counterOf(*reg, "solver.warmstart.misses");
        lpSolves += counterOf(*reg, "solver.solves");
        lpPivots += counterOf(*reg, "solver.pivots");
    }
    daemon->shutdown();
    daemon.reset();
    spareSetUps(kSetUps / 2);

    // Recovery: a daemon reopened on the run's state directory must
    // republish every session byte for byte.
    {
        server::SchedulingDaemon recovered(daemonConfig(runDir, ctx.get()));
        for (int k = 0; k < kSessions; ++k) {
            const auto st = recovered.published(fig10Session(k).name);
            if (!st || scheduleBytes(st->omega) != logs[k].finalBytes)
                out.problem(fig10Session(k).name +
                            ": recovered schedule differs from the "
                            "published one");
        }
        recovered.shutdown();
    }

    LayerSamples layers;
    replayAndCheck(args, logs, out, args.trace ? &layers : nullptr);
    metrics::Registry::setEnabled(false);
    fs::remove_all(args.stateDir);

    // Run-quality flags.
    const double lateP50 = median(latenessMs);
    const double lateMax =
        latenessMs.empty() ? 0.0
                           : *std::max_element(latenessMs.begin(),
                                               latenessMs.end());
    if (lateP50 > kMaxMedianLatenessMs || lateMax > kMaxLatenessMs)
        out.flags.push_back("open-loop generator ran late (median " +
                            std::to_string(lateP50) + " ms, max " +
                            std::to_string(lateMax) + " ms)");
    if (backlog > kMaxBacklog)
        out.flags.push_back("backlog of " + std::to_string(backlog) +
                            " requests at the end of the open loop");

    const double capacity = static_cast<double>(phase2Count) / phase2CpuS;
    const double wallCapacity =
        static_cast<double>(phase2Count) / phase2Elapsed;
    w.kv("sessions", static_cast<std::int64_t>(kSessions));
    w.kv("workers", static_cast<std::uint64_t>(kWorkers));
    w.kv("drain_threads", static_cast<std::uint64_t>(kDrainThreads));
    writeSetup(w, setups);
    w.key("open_loop").beginObject();
    w.kv("rate_rps", kOpenLoopRps);
    w.kv("seconds", phase1S);
    w.kv("requests", submitted);
    writeSummary(w, "admit_ms", phase1Ms);
    writeSummary(w, "admit_cpu_ms", phase1CpuMs);
    writeSummary(w, "queue_ms", queueMs);
    w.kv("generator_lateness_ms_p50", lateP50);
    w.kv("generator_lateness_ms_max", lateMax);
    w.kv("backlog_at_end", backlog);
    w.kv("queue_depth_at_end", static_cast<std::uint64_t>(queueDepth));
    w.endObject();
    w.key("closed_loop").beginObject();
    w.kv("seconds", phase2Elapsed);
    w.kv("cpu_seconds", phase2CpuS);
    w.kv("requests", phase2Count);
    w.kv("capacity_rps", capacity);
    w.kv("capacity_wall_rps", wallCapacity);
    writeSummary(w, "admit_ms", phase2Ms);
    w.endObject();
    w.kv("wal_records", walRecords);
    w.kv("wal_fsyncs", walFsyncs);
    if (args.trace) {
        // Whole-run LP work of the sessions (opens and requests).
        w.kv("session_lp_solves", lpSolves);
        w.kv("session_lp_pivots", lpPivots);
        w.kv("replay_untraced_cpu_ms", layers.untracedLoopMs);
        w.kv("replay_traced_cpu_ms", layers.tracedLoopMs);
        w.kv("open_stage_coverage", layers.open.coverage);
    }

    std::cerr << "srbench: " << args.workload << " open loop "
              << submitted << " req @ " << kOpenLoopRps << "/s mean "
              << mean(phase1CpuMs) << " CPU ms (" << mean(phase1Ms)
              << " wall) p90 " << percentile(phase1CpuMs, 90.0)
              << " CPU ms (" << percentile(phase1Ms, 90.0)
              << " wall); closed loop " << capacity << " req per CPU s ("
              << wallCapacity << " req/s)\n";

    if (!args.trace) {
        out.metric("setup_s", setups.medianS(), "s");
        out.metric("latency_ms_mean", mean(phase1CpuMs), "ms");
        out.metric("latency_ms_p90", percentile(phase1CpuMs, 90.0), "ms");
        out.metric("capacity_rps", capacity, "1/s");
        out.metric("peak_rss_mb", peakRss, "MiB");
        return;
    }

    const OpenSplit &open = layers.open;
    if (std::abs(open.coverage - 1.0) > 0.05)
        out.flags.push_back("stage times cover " +
                            std::to_string(open.coverage * 100.0) +
                            "% of the plain session-open compile");
    for (int s = 0; s < kStages; ++s)
        out.metric(std::string("core.") + kStageNames[s] + ".ms",
                   open.stageMs[s], "ms");
    out.metric("core.stage_coverage", open.coverage, "frac");
    out.metric("core.path_assignment.restarts", open.last.restarts,
               "count");
    out.metric("core.path_assignment.reroutes", open.last.reroutes,
               "count");
    out.metric("core.path_assignment.peak_u", open.last.peakU, "frac");
    out.metric("core.subsets.count",
               static_cast<double>(open.last.subsets), "count");
    out.metric("solver.solves", static_cast<double>(open.last.solves),
               "count");
    out.metric("solver.pivots", static_cast<double>(open.last.pivots),
               "count");
    out.metric("online.process_ms.p50", median(layers.processMs), "ms");
    out.metric("online.process_ms.p99", percentile(layers.processMs, 99.0),
               "ms");
    out.metric("server.wal.append_ms", median(layers.appendMs), "ms");
    out.metric("server.wal.sync_ms", median(layers.syncMs), "ms");
    out.metric("server.queue_ms.p50", median(queueMs), "ms");
    out.metric("server.queue_ms.p99", percentile(queueMs, 99.0), "ms");
    out.metric("online.subsets_copied_frac",
               ratio(static_cast<double>(copied),
                     static_cast<double>(copied + resolved)),
               "frac");
    out.metric("online.subsets_copied", static_cast<double>(copied),
               "count");
    out.metric("online.subsets_touched",
               static_cast<double>(copied + resolved), "count");
    out.metric("solver.warmstart.hit_frac",
               ratio(static_cast<double>(warmHits),
                     static_cast<double>(warmHits + warmMisses)),
               "frac");
    out.metric("solver.warmstart.hits", static_cast<double>(warmHits),
               "count");
    out.metric("solver.warmstart.attempts",
               static_cast<double>(warmHits + warmMisses), "count");
    out.metric("server.wal.records_per_fsync",
               ratio(static_cast<double>(walRecords),
                     static_cast<double>(walFsyncs)),
               "ratio");
    out.metric("server.wal.records", static_cast<double>(walRecords),
               "count");
    out.metric("server.wal.fsyncs", static_cast<double>(walFsyncs),
               "count");
    // Session 0's requests replayed with metrics on and a timer around
    // each process() call, against the same requests replayed without.
    out.metric("trace.overhead_pct",
               100.0 * (ratio(layers.tracedLoopMs, layers.untracedLoopMs) -
                        1.0),
               "%");
}

} // namespace srbench
