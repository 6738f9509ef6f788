/**
 * @file
 * Scheduling-daemon suite: protocol parsing, WAL + snapshot codecs,
 * daemon/direct-service equivalence, backpressure, deadlines, and
 * crash recovery (the recovered daemon must republish byte-identical
 * schedules). Labeled `server tsan`: the churn stress runs under
 * ThreadSanitizer in the -DSRSIM_SANITIZE=thread CI lane.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "core/schedule_io.hh"
#include "engine/context.hh"
#include "engine_fixture.hh"
#include "metrics/metrics.hh"
#include "online/script.hh"
#include "online/service.hh"
#include "server/daemon.hh"
#include "server/protocol.hh"
#include "server/snapshot.hh"
#include "server/wal.hh"
#include "tfg/dvb.hh"
#include "topology/factory.hh"

namespace srsim {
namespace {

using ServerDaemon = EngineTest;

using server::DaemonConfig;
using server::DaemonOp;
using server::DaemonOutcome;
using server::DaemonResponse;
using server::SchedulingDaemon;
using server::SessionConfig;

/**
 * Fresh empty scratch directory, unique per test *and* per process:
 * the same suite may run concurrently from several build trees
 * (plain and sanitizer lanes), and a fixed path would let one run's
 * remove_all() clobber the other's live WAL mid-test.
 */
std::vector<std::filesystem::path> &
scratchDirsMade()
{
    static std::vector<std::filesystem::path> dirs;
    return dirs;
}

std::string
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("srsim-server-" + name + "-" +
         std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    scratchDirsMade().push_back(dir);
    return dir.string();
}

/**
 * Remove this process's scratch dirs when its tests passed; keep
 * them for post-mortem inspection when something failed.
 */
class ScratchCleanup : public ::testing::Environment
{
    void TearDown() override
    {
        if (!::testing::UnitTest::GetInstance()->Passed())
            return;
        std::error_code ec;
        for (const std::filesystem::path &dir : scratchDirsMade())
            std::filesystem::remove_all(dir, ec);
    }
};

const ::testing::Environment *const scratchCleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchCleanup);

/** The golden-churn figure configuration as a daemon session. */
SessionConfig
figSession(const std::string &name)
{
    SessionConfig sc;
    sc.name = name;
    sc.topo = "torus:4,4,4";
    sc.tfg = "dvb";
    sc.period = 120.0;
    sc.bandwidth = 128.0;
    sc.alloc = "rr:13";
    return sc;
}

std::vector<DaemonOp>
parseOps(const std::string &script)
{
    std::istringstream is(script);
    const server::DaemonScriptParseResult r =
        server::parseDaemonScript(is);
    EXPECT_TRUE(r.ok) << "line " << r.errorLine << ": " << r.error;
    return r.ops;
}

std::string
publishedBytes(const SchedulingDaemon &d, const std::string &name)
{
    const auto st = d.published(name);
    if (!st)
        return {};
    std::ostringstream os;
    writeSchedule(os, st->omega);
    return os.str();
}

/** The same figure recipe driven directly, no daemon. */
std::string
directBytes(const std::string &requestScript,
            const engine::EngineContext &ctx)
{
    const DvbParams dvb;
    TaskFlowGraph g = buildDvbTfg(dvb);
    auto topo = makeTopology("torus:4,4,4");
    TimingModel tm;
    tm.apSpeed = dvb.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, *topo, 13);
    online::OnlineSchedulerConfig cfg{.compiler = {.ctx = &ctx}};
    cfg.compiler.inputPeriod = 120.0;
    cfg.compiler.assign.seed = 12345;
    online::OnlineScheduler svc(std::move(g), std::move(topo),
                                alloc, tm, cfg);
    EXPECT_TRUE(svc.start().accepted);
    std::istringstream is(requestScript);
    const online::ScriptParseResult script =
        online::parseRequestScript(is);
    EXPECT_TRUE(script.ok);
    for (const online::Request &r : script.requests)
        EXPECT_TRUE(svc.process(r).accepted);
    std::ostringstream os;
    writeSchedule(os, svc.published()->omega);
    return os.str();
}

/**
 * Serve session "a" on a daemon over `dir` through the request
 * `script`, then crash it (no final snapshot, no graceful close) or,
 * with `graceful`, shut it down (writes the final snapshot).
 * @return snapshots the daemon wrote.
 */
std::uint64_t
serveSessionA(const std::string &dir, const std::string &script,
              const engine::EngineContext &root,
              std::size_t snapshotEvery = 0, bool graceful = false)
{
    DaemonConfig cfg{.ctx = &root};
    cfg.stateDir = dir;
    cfg.snapshotEvery = snapshotEvery;
    SchedulingDaemon d(cfg);
    EXPECT_TRUE(d.open(figSession("a")).result.accepted);
    std::istringstream is(script);
    for (const online::Request &r :
         online::parseRequestScript(is).requests)
        EXPECT_TRUE(d.submit("a", r).get().result.accepted);
    if (graceful) {
        d.shutdown();
    } else {
        d.drain();
        d.crashForTest();
    }
    return d.snapshotsWritten();
}

/** The whole file at `path`. */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// -- Protocol -----------------------------------------------------

TEST(ServerProtocol, ParsesOpenRequestsAndClose)
{
    const auto ops = parseOps(
        "# comment\n"
        "open a topo=torus:4,4,4 period=120 tfg=dvb bw=128 "
        "alloc=rr:13 seed=7 cache=0\n"
        "a admit x0 probe verify 256\n"
        "a period 125\n"
        "a fault link:0-1\n"
        "close a\n");
    ASSERT_EQ(ops.size(), 5u);
    EXPECT_EQ(ops[0].kind, DaemonOp::Kind::Open);
    EXPECT_EQ(ops[0].open.name, "a");
    EXPECT_EQ(ops[0].open.bandwidth, 128.0);
    EXPECT_EQ(ops[0].open.seed, 7u);
    EXPECT_FALSE(ops[0].open.cache);
    EXPECT_EQ(ops[1].kind, DaemonOp::Kind::Request);
    EXPECT_EQ(ops[1].request.kind,
              online::RequestKind::AdmitMessage);
    EXPECT_EQ(ops[4].kind, DaemonOp::Kind::Close);
}

TEST(ServerProtocol, BatchCoalescesIntoOneRequest)
{
    const auto ops = parseOps(
        "open a topo=cube:3 period=100 tfg=dvb\n"
        "a batch 2\n"
        "a admit x0 probe verify 256\n"
        "a admit x1 match probe 128\n");
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[1].request.admits.size(), 2u);
}

TEST(ServerProtocol, RejectsMalformedLines)
{
    const char *bad[] = {
        "open a period=120 tfg=dvb\n",            // missing topo
        "open a topo=cube:3 period=0 tfg=dvb\n",  // bad period
        "open a topo=cube:3 period=nan tfg=dvb\n", // non-finite
        "open a topo=cube:3 period=120 tfg=dvb bw=nan\n",
        "open a topo=cube:3 period=inf tfg=dvb\n",
        // Round-robin strides outside [1, INT_MAX].
        "open a topo=cube:3 period=120 tfg=dvb alloc=rr:0\n",
        "open a topo=cube:3 period=120 tfg=dvb alloc=rr:-3\n",
        "open a topo=cube:3 period=120 tfg=dvb alloc=rr:abc\n",
        "open a topo=cube:3 period=120 tfg=dvb alloc=rr:99999999999\n",
        "open open topo=cube:3 period=1 tfg=dvb\n", // reserved name
        "a admit x0 probe verify 256\n"
        "close a extra\n",
        "a batch 2\n"
        "a admit x0 probe verify 256\n"
        "b admit x1 match probe 128\n", // wrong session in batch
        "frobnicate\n",
        // Seeds and thread budgets are whole numbers in range.
        "open a topo=cube:3 period=120 tfg=dvb seed=1.5\n",
        "open a topo=cube:3 period=120 tfg=dvb seed=1e300\n",
        "open a topo=cube:3 period=120 tfg=dvb seed=-1\n",
        "open a topo=cube:3 period=120 tfg=dvb "
        "seed=18446744073709551616\n",
        "open a topo=cube:3 period=120 tfg=dvb threads=0\n",
        "open a topo=cube:3 period=120 tfg=dvb threads=2.5\n",
        "open a topo=cube:3 period=120 tfg=dvb threads=1e300\n",
        "open a topo=cube:3 period=120 tfg=dvb threads=100000\n",
        // One batch rule for every script.
        "a batch 0\n",
        "a batch 1.5\n",
        "a batch 100001\n",
        "a admit x0 probe verify -5\n",
        "a period -1\n",
    };
    for (const char *script : bad) {
        std::istringstream is(script);
        EXPECT_FALSE(server::parseDaemonScript(is).ok) << script;
    }
    // The session thread cap is inclusive, and one past it is a
    // structured error naming the cap.
    const std::string open = "open a topo=cube:3 period=120 tfg=dvb "
                             "threads=";
    std::istringstream atCap(
        open + std::to_string(server::kMaxSessionThreads) + "\n");
    EXPECT_TRUE(server::parseDaemonScript(atCap).ok);
    std::istringstream overCap(
        open + std::to_string(server::kMaxSessionThreads + 1) + "\n");
    const server::DaemonScriptParseResult over =
        server::parseDaemonScript(overCap);
    EXPECT_FALSE(over.ok);
    EXPECT_NE(over.error.find(
                  std::to_string(server::kMaxSessionThreads)),
              std::string::npos)
        << over.error;
    // The retired solver-kind switch is an unknown key like any
    // other, not a value error.
    std::istringstream legacy(
        "open a topo=cube:3 period=120 tfg=dvb solver=dense\n");
    const server::DaemonScriptParseResult r =
        server::parseDaemonScript(legacy);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "unknown open key 'solver'");
    EXPECT_EQ(r.errorLine, 1);
}

// -- WAL ----------------------------------------------------------

TEST(ServerWal, RecordsRoundTripThroughTheLog)
{
    const std::string dir = scratchDir("wal-roundtrip");
    const std::string path = dir + "/wal.jsonl";
    {
        server::WriteAheadLog wal;
        std::string err;
        ASSERT_TRUE(wal.open(path, 1, &err)) << err;
        for (const DaemonOp &op : parseOps(
                 "open a topo=torus:4,4,4 period=120 tfg=dvb "
                 "bw=128 alloc=rr:13\n"
                 "a admit x0 probe verify 256\n"
                 "a remove x0\n"
                 "a period 125\n"
                 "a fault link:0-1\n"
                 "close a\n"))
            wal.append(op);
        wal.sync();
        EXPECT_EQ(wal.recordsAppended(), 6u);
        EXPECT_EQ(wal.fsyncs(), 1u);
    }
    const server::WalReadResult r = server::readWal(path);
    ASSERT_TRUE(r.ok);
    EXPECT_FALSE(r.tornTail);
    ASSERT_EQ(r.records.size(), 6u);
    EXPECT_EQ(r.records[0].op.kind, DaemonOp::Kind::Open);
    EXPECT_EQ(r.records[0].op.open.alloc, "rr:13");
    EXPECT_EQ(r.records[1].op.request.admits[0].bytes, 256.0);
    EXPECT_EQ(r.records[3].op.request.period, 125.0);
    EXPECT_EQ(r.records[4].op.request.faultSpec, "link:0-1");
    EXPECT_EQ(r.records[5].op.kind, DaemonOp::Kind::Close);
}

TEST(ServerWal, ExactDoublesAndWideSeedsSurviveReplay)
{
    // Found by the multi-session fuzzer: replay recompiles from the
    // WAL's numbers, so %.12g doubles (periods) and u64-through-
    // double seeds (> 2^53) diverged byte-wise after recovery.
    const std::string dir = scratchDir("wal-precision");
    const std::string path = dir + "/wal.jsonl";
    DaemonOp op;
    op.kind = DaemonOp::Kind::Open;
    op.session = "a";
    op.open.name = "a";
    op.open.topo = "torus:2,7,4";
    op.open.period = 140.64778820468143;
    op.open.apSpeed = 24.63606304888733;
    op.open.alloc = "rr:1";
    op.open.seed = 13546682927695711814ULL;
    {
        server::WriteAheadLog wal;
        std::string err;
        ASSERT_TRUE(wal.open(path, 1, &err)) << err;
        wal.append(op);
        wal.sync();
    }
    const server::WalReadResult r = server::readWal(path);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.records.size(), 1u);
    const SessionConfig &sc = r.records[0].op.open;
    EXPECT_EQ(sc.period, 140.64778820468143);
    EXPECT_EQ(sc.apSpeed, 24.63606304888733);
    EXPECT_EQ(sc.seed, 13546682927695711814ULL);
}

TEST(ServerWal, TornTailEndsReplayCleanly)
{
    const std::string dir = scratchDir("wal-torn");
    const std::string path = dir + "/wal.jsonl";
    {
        server::WriteAheadLog wal;
        std::string err;
        ASSERT_TRUE(wal.open(path, 1, &err)) << err;
        for (const DaemonOp &op : parseOps(
                 "open a topo=cube:3 period=100 tfg=dvb\n"
                 "a admit x0 probe verify 256\n"))
            wal.append(op);
        wal.sync();
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"seq\":3,\"op\":\"adm"; // torn mid-record
    }
    const server::WalReadResult r = server::readWal(path);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.tornTail);
    EXPECT_EQ(r.records.size(), 2u);
}

TEST(ServerWal, SequenceBreakIsATornTail)
{
    const std::string dir = scratchDir("wal-seqbreak");
    const std::string path = dir + "/wal.jsonl";
    {
        std::ofstream out(path);
        out << R"({"seq":1,"op":"close","session":"a"})" << "\n";
        out << R"({"seq":3,"op":"close","session":"a"})" << "\n";
    }
    const server::WalReadResult r = server::readWal(path);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.tornTail);
    EXPECT_EQ(r.records.size(), 1u);
}

TEST(ServerWal, OutOfRangeIntegersAreATornTail)
{
    // Each record decodes only if every integer in it is whole and
    // in range; otherwise the log ends there, as at a torn write.
    const std::string open =
        R"({"seq":1,"op":"open","session":"a","topo":"cube:3",)"
        R"("tfg":"dvb","period":100,"bw":64,"ap":0,"alloc":"greedy",)"
        R"("cache":true,)";
    const std::string bad[] = {
        open + R"("seed":"7","threads":1e300})",
        open + R"("seed":"7","threads":2.5})",
        open + R"("seed":"7","threads":0})",
        open + R"("seed":"1.5"})",
        open + R"("seed":"-1"})",
        open + R"("seed":"1e300"})",
        R"({"seq":1e300,"op":"close","session":"a"})",
        R"({"seq":-1,"op":"close","session":"a"})",
    };
    const std::string dir = scratchDir("wal-ranges");
    const std::string path = dir + "/wal.jsonl";
    for (const std::string &record : bad) {
        {
            std::ofstream out(path, std::ios::trunc);
            out << record << "\n";
        }
        const server::WalReadResult r = server::readWal(path);
        ASSERT_TRUE(r.ok) << record;
        EXPECT_TRUE(r.tornTail) << record;
        EXPECT_TRUE(r.records.empty()) << record;
    }
    // A budget past the session cap still decodes: the cap is the
    // daemon's, and replay rejects that one open (see
    // ServerDaemon.OverCapOpenInWalIsOneRejectedReplay).
    {
        std::ofstream out(path, std::ios::trunc);
        out << open << R"("seed":"7","threads":)"
            << server::kMaxSessionThreads + 1 << "}\n";
    }
    const server::WalReadResult ok = server::readWal(path);
    ASSERT_EQ(ok.records.size(), 1u);
    EXPECT_FALSE(ok.tornTail);
    EXPECT_EQ(ok.records[0].op.open.threads,
              server::kMaxSessionThreads + 1);
    EXPECT_EQ(ok.records[0].op.open.seed, 7u);
}

TEST(ServerWal, MissingFileIsAnEmptyLog)
{
    const server::WalReadResult r =
        server::readWal(scratchDir("wal-missing") + "/nope.jsonl");
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.tornTail);
    EXPECT_TRUE(r.records.empty());
}

TEST(ServerWal, LogBaseMayStartPastOne)
{
    // A log continued after recovery retired its stale predecessor
    // starts at the snapshot's seq + 1, not at 1; continuity is
    // still required from the base onward.
    const std::string dir = scratchDir("wal-base");
    const std::string path = dir + "/wal.jsonl";
    {
        std::ofstream out(path);
        out << R"({"seq":5,"op":"close","session":"a"})" << "\n";
        out << R"({"seq":6,"op":"close","session":"b"})" << "\n";
        out << R"({"seq":8,"op":"close","session":"c"})" << "\n";
    }
    const server::WalReadResult r = server::readWal(path);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.tornTail); // 6 -> 8 breaks continuity
    ASSERT_EQ(r.records.size(), 2u);
    EXPECT_EQ(r.records[0].seq, 5u);
    EXPECT_EQ(r.records[1].seq, 6u);
}

TEST(ServerWal, ControlCharactersInStringsRoundTrip)
{
    // JsonWriter escapes control bytes as \u00xx; the reader must
    // decode them back or replayed state diverges byte-wise.
    const std::string dir = scratchDir("wal-ctrl");
    const std::string path = dir + "/wal.jsonl";
    DaemonOp op;
    op.kind = DaemonOp::Kind::Request;
    op.session = std::string("a\x01b\x1f", 4);
    op.request.kind = online::RequestKind::InjectFault;
    op.request.faultSpec = std::string("link:0-1\x07", 9);
    {
        server::WriteAheadLog wal;
        std::string err;
        ASSERT_TRUE(wal.open(path, 1, &err)) << err;
        wal.append(op);
        EXPECT_TRUE(wal.sync());
    }
    const server::WalReadResult r = server::readWal(path);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].op.session, op.session);
    EXPECT_EQ(r.records[0].op.request.faultSpec,
              op.request.faultSpec);
}

// -- Snapshots ----------------------------------------------------

server::DaemonSnapshot
sampleSnapshot()
{
    server::DaemonSnapshot snap;
    snap.walSeq = 42;
    server::SessionSnapshot s;
    s.cfg = figSession("a");
    s.period = 123.5;
    s.tasks = {{"probe", 1000.0, 3}, {"verify", 500.0, 7}};
    s.messages = {{"m0", "probe", "verify", 256.0}};
    s.scheduleText = "not a real schedule\nbut raw bytes\n";
    snap.sessions.push_back(std::move(s));
    server::SnapshotCacheEntry e;
    e.key = "topo=cube:3;ap=1;t:probe:1:0;";
    e.scheduleText = "cached schedule\nbytes\n";
    e.numSubsets = 9;
    e.peakUtilization = 0.25;
    snap.cache.push_back(std::move(e));
    return snap;
}

TEST(ServerSnapshot, CodecRoundTrips)
{
    const server::DaemonSnapshot snap = sampleSnapshot();
    const std::string body = server::encodeSnapshot(snap);
    server::DaemonSnapshot back;
    std::string err;
    ASSERT_TRUE(server::decodeSnapshot(body, &back, &err)) << err;
    EXPECT_EQ(back.walSeq, 42u);
    ASSERT_EQ(back.sessions.size(), 1u);
    EXPECT_EQ(back.sessions[0].cfg.topo, "torus:4,4,4");
    EXPECT_EQ(back.sessions[0].period, 123.5);
    ASSERT_EQ(back.sessions[0].tasks.size(), 2u);
    EXPECT_EQ(back.sessions[0].tasks[1].node, 7);
    EXPECT_EQ(back.sessions[0].scheduleText,
              snap.sessions[0].scheduleText);
    ASSERT_EQ(back.cache.size(), 1u);
    EXPECT_EQ(back.cache[0].key, snap.cache[0].key);
    EXPECT_EQ(back.cache[0].scheduleText,
              snap.cache[0].scheduleText);
    EXPECT_EQ(back.cache[0].numSubsets, 9u);
    EXPECT_EQ(back.cache[0].peakUtilization, 0.25);
}

TEST(ServerSnapshot, ThreadBudgetRoundTripsAndIsOptional)
{
    server::DaemonSnapshot snap = sampleSnapshot();
    snap.sessions[0].cfg.threads = 3;
    server::DaemonSnapshot back;
    std::string err;
    ASSERT_TRUE(server::decodeSnapshot(server::encodeSnapshot(snap),
                                       &back, &err))
        << err;
    ASSERT_EQ(back.sessions.size(), 1u);
    EXPECT_EQ(back.sessions[0].cfg.threads, 3u);

    // A session without a budget writes no threads line, which is
    // also how snapshots from before budgets were kept look.
    snap.sessions[0].cfg.threads = 0;
    const std::string body = server::encodeSnapshot(snap);
    EXPECT_EQ(body.find("\nthreads "), std::string::npos);
    ASSERT_TRUE(server::decodeSnapshot(body, &back, &err)) << err;
    EXPECT_EQ(back.sessions[0].cfg.threads, 0u);
    EXPECT_EQ(back.sessions[0].period, 123.5);

    std::string zero = body;
    zero.insert(zero.find("\nperiod ") + 1, "threads 0\n");
    EXPECT_FALSE(server::decodeSnapshot(zero, &back, &err));
    EXPECT_NE(err.find("thread budget"), std::string::npos) << err;
}

TEST(ServerSnapshot, OutOfRangeIntegersAreRejected)
{
    const std::string body = server::encodeSnapshot(sampleSnapshot());
    const auto with = [&](const std::string &key,
                          const std::string &value) {
        const std::size_t at = body.find("\n" + key + " ") + 1;
        const std::size_t eol = body.find('\n', at);
        return body.substr(0, at) + key + " " + value +
               body.substr(eol);
    };
    const std::pair<const char *, std::string> bad[] = {
        {"seed", "-1"},
        {"seed", "1.5"},
        {"seed", "1e300"},
        {"seed", "18446744073709551616"},
        {"walseq", "-1"},
    };
    server::DaemonSnapshot back;
    std::string err;
    for (const auto &[key, value] : bad) {
        EXPECT_FALSE(server::decodeSnapshot(with(key, value), &back,
                                            &err))
            << key << " " << value;
        EXPECT_NE(err.find("malformed"), std::string::npos) << err;
    }
    const auto withThreads = [&](const std::string &threads) {
        std::string out = body;
        out.insert(out.find("\nperiod ") + 1,
                   "threads " + threads + "\n");
        return out;
    };
    for (const char *threads :
         {"1e300", "2.5", "-1", "18446744073709551616"}) {
        EXPECT_FALSE(
            server::decodeSnapshot(withThreads(threads), &back, &err))
            << threads;
        EXPECT_NE(err.find("thread budget"), std::string::npos) << err;
    }
    // Past the session cap still decodes; restore enforces the cap
    // (ServerDaemon.OverCapSnapshotSessionRejectsTheSnapshot).
    ASSERT_TRUE(server::decodeSnapshot(
        withThreads(std::to_string(server::kMaxSessionThreads + 1)),
        &back, &err))
        << err;
    EXPECT_EQ(back.sessions[0].cfg.threads,
              server::kMaxSessionThreads + 1);
}

TEST(ServerSnapshot, WideSeedsSurviveTheCodec)
{
    // Same trap as the WAL: the decoder's double-based number
    // parser clips u64 seeds above 2^53.
    server::DaemonSnapshot snap;
    snap.walSeq = 3;
    server::SessionSnapshot s;
    s.cfg.name = "a";
    s.cfg.topo = "cube:3";
    s.cfg.seed = 13546682927695711814ULL;
    s.period = 140.64778820468143;
    snap.sessions.push_back(std::move(s));

    server::DaemonSnapshot out;
    std::string err;
    ASSERT_TRUE(server::decodeSnapshot(
        server::encodeSnapshot(snap), &out, &err))
        << err;
    ASSERT_EQ(out.sessions.size(), 1u);
    EXPECT_EQ(out.sessions[0].cfg.seed, 13546682927695711814ULL);
    EXPECT_EQ(out.sessions[0].period, 140.64778820468143);
}

TEST(ServerSnapshot, DecodeIsTotalOnGarbage)
{
    server::DaemonSnapshot snap;
    std::string err;
    EXPECT_FALSE(server::decodeSnapshot("", &snap, &err));
    EXPECT_FALSE(server::decodeSnapshot("bogus v9\n", &snap, &err));
    std::string body = server::encodeSnapshot(sampleSnapshot());
    EXPECT_FALSE(server::decodeSnapshot(
        body.substr(0, body.size() / 2), &snap, &err));
}

TEST(ServerSnapshot, NonFiniteNumbersAreRejected)
{
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        server::DaemonSnapshot snap = sampleSnapshot();
        snap.sessions[0].period = bad;
        server::DaemonSnapshot back;
        std::string err;
        EXPECT_FALSE(server::decodeSnapshot(
            server::encodeSnapshot(snap), &back, &err));
        EXPECT_NE(err.find("malformed number"), std::string::npos)
            << err;
    }
}

TEST(ServerSnapshot, FilesAreContentAddressedAndVerified)
{
    const std::string dir = scratchDir("snap-files");
    std::string path, err;
    ASSERT_TRUE(server::writeSnapshotFile(dir, sampleSnapshot(),
                                          &path, &err))
        << err;
    auto infos = server::listSnapshots(dir);
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].walSeq, 42u);
    server::DaemonSnapshot back;
    ASSERT_TRUE(server::loadSnapshotFile(infos[0], &back, &err))
        << err;
    EXPECT_EQ(back.sessions.size(), 1u);

    // Flip one byte: the content hash must catch it.
    {
        std::fstream f(path, std::ios::in | std::ios::out);
        f.seekp(10);
        f.put('X');
    }
    EXPECT_FALSE(server::loadSnapshotFile(infos[0], &back, &err));
}

// -- Daemon behavior ----------------------------------------------

TEST_F(ServerDaemon, MatchesTheDirectServiceByteForByte)
{
    DaemonConfig cfg; // ephemeral, 1 worker
    cfg.ctx = &root;
    SchedulingDaemon d(cfg);
    const DaemonResponse opened = d.open(figSession("a"));
    ASSERT_EQ(opened.outcome, DaemonOutcome::Ok);
    ASSERT_TRUE(opened.result.accepted) << opened.result.detail;
    const std::string script = "admit x0 probe verify 256\n"
                               "remove x0\n"
                               "admit x0 probe verify 256\n";
    for (const DaemonOp &op :
         parseOps("a admit x0 probe verify 256\n"
                  "a remove x0\n"
                  "a admit x0 probe verify 256\n")) {
        const DaemonResponse r =
            d.submit("a", op.request).get();
        ASSERT_EQ(r.outcome, DaemonOutcome::Ok);
        ASSERT_TRUE(r.result.accepted) << r.result.detail;
    }
    d.drain();
    EXPECT_EQ(publishedBytes(d, "a"), directBytes(script, root));
}

TEST_F(ServerDaemon, UnknownAndDuplicateSessionsAreStructured)
{
    DaemonConfig cfg{.ctx = &root};
    SchedulingDaemon d(cfg);
    online::Request r;
    r.kind = online::RequestKind::RemoveMessage;
    r.name = "x";
    EXPECT_EQ(d.submit("ghost", r).get().outcome,
              DaemonOutcome::UnknownSession);
    ASSERT_TRUE(d.open(figSession("a")).result.accepted);
    EXPECT_EQ(d.open(figSession("a")).outcome,
              DaemonOutcome::DuplicateSession);
    SessionConfig bad = figSession("b");
    bad.topo = "hypertorus:9";
    EXPECT_EQ(d.open(bad).outcome, DaemonOutcome::InvalidConfig);
    EXPECT_EQ(d.close("ghost").outcome,
              DaemonOutcome::UnknownSession);
}

TEST_F(ServerDaemon, FullQueueRejectsOverloadedWithoutBlocking)
{
    DaemonConfig cfg{.ctx = &root};
    cfg.queueCap = 3;
    SchedulingDaemon d(cfg);
    ASSERT_TRUE(d.open(figSession("a")).result.accepted);
    d.pauseForTest();
    online::Request admit;
    admit.kind = online::RequestKind::AdmitMessage;
    admit.admits.push_back({"x0", "probe", "verify", 256.0});
    online::Request remove;
    remove.kind = online::RequestKind::RemoveMessage;
    remove.name = "x0";
    std::vector<std::future<DaemonResponse>> futs;
    futs.push_back(d.submit("a", admit));
    futs.push_back(d.submit("a", remove));
    futs.push_back(d.submit("a", admit));
    // Queue is at cap: these must resolve immediately, not block.
    for (int i = 0; i < 3; ++i) {
        auto f = d.submit("a", remove);
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_EQ(f.get().outcome, DaemonOutcome::Overloaded);
    }
    EXPECT_EQ(d.queueDepth(), 3u);
    d.resumeForTest();
    for (auto &f : futs) {
        const DaemonResponse r = f.get();
        EXPECT_EQ(r.outcome, DaemonOutcome::Ok);
        EXPECT_TRUE(r.result.accepted) << r.result.detail;
    }
}

TEST_F(ServerDaemon, StaleRequestsExpireAtPickup)
{
    DaemonConfig cfg{.ctx = &root};
    cfg.deadlineMs = 5.0;
    SchedulingDaemon d(cfg);
    ASSERT_TRUE(d.open(figSession("a")).result.accepted);
    d.pauseForTest();
    online::Request admit;
    admit.kind = online::RequestKind::AdmitMessage;
    admit.admits.push_back({"x0", "probe", "verify", 256.0});
    auto f = d.submit("a", admit);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    d.resumeForTest();
    const DaemonResponse r = f.get();
    EXPECT_EQ(r.outcome, DaemonOutcome::DeadlineExpired);
    // The scheduler never saw it: version is still the initial one.
    EXPECT_EQ(d.published("a")->version, 1u);
}

/**
 * Per-session isolation (the context refactor's acceptance case):
 * two *concurrent* sessions that differ only in thread budget and
 * request count must land their solver.warmstart.* and online.*
 * counters in their own child registries with zero cross-session
 * bleed, while the daemon root registry holds the exact aggregate.
 * Runs in the plain and TSan lanes (suite is labeled server+tsan).
 */
TEST_F(ServerDaemon, ConcurrentSessionsIsolatePerSessionMetrics)
{
    metrics::Registry::setEnabled(true);
    // The test's own root context: its aggregate holds exactly this
    // daemon's traffic.
    DaemonConfig cfg{.ctx = &root};
    cfg.workers = 2;
    cfg.cacheCapacity = 0; // every request is a real re-solve
    SchedulingDaemon d(cfg);

    SessionConfig shared = figSession("shared");
    shared.cache = false;
    SessionConfig budgeted = figSession("budgeted");
    budgeted.threads = 2;
    budgeted.cache = false;
    ASSERT_TRUE(d.open(shared).result.accepted);
    ASSERT_TRUE(d.open(budgeted).result.accepted);

    // Distinct request counts per session: equal counters in both
    // registries would mask a cross-wiring bug.
    const int sharedN = 6, budgetedN = 4;
    const auto churn = [&](const std::string &session, int n) {
        for (int i = 0; i < n; ++i) {
            online::Request admit;
            admit.kind = online::RequestKind::AdmitMessage;
            admit.admits.push_back(
                {"x" + std::to_string(i), "probe", "verify",
                 256.0});
            EXPECT_TRUE(
                d.submit(session, admit).get().result.accepted);
        }
    };
    std::thread ts([&] { churn("shared", sharedN); });
    std::thread tb([&] { churn("budgeted", budgetedN); });
    ts.join();
    tb.join();
    d.drain();

    const auto mets = d.sessionMetrics();
    ASSERT_EQ(mets.size(), 2u);
    EXPECT_EQ(mets[0].first, "shared");
    EXPECT_EQ(mets[1].first, "budgeted");
    const metrics::Registry &sharedReg = *mets[0].second;
    const metrics::Registry &budgetedReg = *mets[1].second;
    const auto count = [](const metrics::Registry &r,
                          const std::string &name) {
        // counterSnapshot, not counter(): the latter would create
        // the metric in a const-cast world; snapshots can't.
        for (const auto &[n, v] : r.counterSnapshot())
            if (n == name)
                return v;
        return std::uint64_t{0};
    };

    // online.* landed in the right child, exactly once per request
    // (+1 each: open()'s initial compile is a counted request too).
    EXPECT_EQ(count(sharedReg, "online.requests"),
              static_cast<std::uint64_t>(sharedN + 1));
    EXPECT_EQ(count(budgetedReg, "online.requests"),
              static_cast<std::uint64_t>(budgetedN + 1));
    // The aggregate is the exact sum — write-through, not copies.
    EXPECT_EQ(count(root.metricsRegistry(), "online.requests"),
              static_cast<std::uint64_t>(sharedN + budgetedN + 2));

    // Both sessions re-solve warm; each registry holds only its own
    // warm-start traffic and the root holds their sum.
    for (const char *name :
         {"solver.warmstart.hits", "solver.warmstart.misses"}) {
        EXPECT_EQ(count(root.metricsRegistry(), name),
                  count(sharedReg, name) + count(budgetedReg, name))
            << name;
    }
    EXPECT_GT(count(sharedReg, "solver.warmstart.hits"), 0u);
    EXPECT_GT(count(budgetedReg, "solver.warmstart.hits"), 0u);

    metrics::Registry::setEnabled(false);
}

TEST_F(ServerDaemon, SharedCacheServesCrossSessionHits)
{
    DaemonConfig cfg{.ctx = &root};
    cfg.workers = 2;
    SchedulingDaemon d(cfg);
    ASSERT_TRUE(d.open(figSession("a")).result.accepted);
    const std::uint64_t missesAfterA = d.cache().misses();
    // Identical config: b's initial compile is a shared-cache hit.
    ASSERT_TRUE(d.open(figSession("b")).result.accepted);
    EXPECT_GT(d.cache().hits(), 0u);
    EXPECT_EQ(d.cache().misses(), missesAfterA);
    EXPECT_EQ(publishedBytes(d, "a"), publishedBytes(d, "b"));
    EXPECT_GT(d.cache().bytes(), 0u);
}

TEST_F(ServerDaemon, CacheEvictionsKeepByteAccounting)
{
    DaemonConfig cfg{.ctx = &root};
    cfg.cacheCapacity = 1;
    SchedulingDaemon d(cfg);
    ASSERT_TRUE(d.open(figSession("a")).result.accepted);
    online::Request admit;
    admit.kind = online::RequestKind::AdmitMessage;
    admit.admits.push_back({"x0", "probe", "verify", 256.0});
    ASSERT_TRUE(d.submit("a", admit).get().result.accepted);
    EXPECT_GT(d.cache().evictions(), 0u);
    EXPECT_EQ(d.cache().size(), 1u);
    EXPECT_GT(d.cache().bytes(), 0u);
}

// -- Durability ---------------------------------------------------

TEST_F(ServerDaemon, RecoversByteIdenticalFromWalReplay)
{
    const std::string dir = scratchDir("recover-wal");
    const std::string script = "admit x0 probe verify 256\n"
                               "admit x1 match probe 128\n"
                               "remove x0\n";
    serveSessionA(dir, script, root);
    DaemonConfig cfg{.ctx = &root};
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_TRUE(d2.recovery().snapshotPath.empty());
    EXPECT_EQ(d2.recovery().walRecords, 4u);
    EXPECT_EQ(d2.recovery().replayed, 4u);
    EXPECT_EQ(d2.recovery().replayRejected, 0u);
    ASSERT_EQ(d2.sessionNames(),
              std::vector<std::string>{"a"});
    EXPECT_EQ(publishedBytes(d2, "a"), directBytes(script, root));
}

TEST_F(ServerDaemon, RecoversFromSnapshotPlusWalSuffix)
{
    const std::string dir = scratchDir("recover-snap");
    EXPECT_GT(serveSessionA(dir,
                            "admit x0 probe verify 256\n"
                            "admit x1 match probe 128\n"
                            "remove x0\n",
                            root, 2),
              0u);
    DaemonConfig cfg{.ctx = &root};
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_FALSE(d2.recovery().snapshotPath.empty());
    EXPECT_LT(d2.recovery().replayed, 4u);
    EXPECT_EQ(d2.recovery().replayRejected, 0u);
    EXPECT_EQ(publishedBytes(d2, "a"),
              directBytes("admit x0 probe verify 256\n"
                          "admit x1 match probe 128\n"
                          "remove x0\n", root));
}

TEST_F(ServerDaemon, CorruptSnapshotFallsBackToOlderState)
{
    const std::string dir = scratchDir("recover-corrupt");
    serveSessionA(dir, "admit x0 probe verify 256\nremove x0\n", root,
                  1);
    // Corrupt the newest snapshot; recovery must reject it on the
    // content hash and fall back (older snapshot or full replay),
    // converging on the same state.
    auto infos = server::listSnapshots(dir);
    ASSERT_GE(infos.size(), 2u);
    {
        std::fstream f(infos[0].path,
                       std::ios::in | std::ios::out);
        f.seekp(40);
        f.put('!');
    }
    DaemonConfig cfg{.ctx = &root};
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_GE(d2.recovery().rejectedSnapshots.size(), 1u);
    EXPECT_EQ(publishedBytes(d2, "a"),
              directBytes("admit x0 probe verify 256\n"
                          "remove x0\n", root));
}

/**
 * Leave `dir` holding session "a" after `script` plus the final
 * snapshot a graceful shutdown writes, then rewrite that snapshot through
 * `alter`. The new file's content hash is valid, so only decode or
 * restore can refuse it.
 */
void
writeAlteredSnapshot(
    const std::string &dir, const std::string &script,
    const engine::EngineContext &root,
    const std::function<void(server::DaemonSnapshot &)> &alter)
{
    serveSessionA(dir, script, root, 0, true);
    auto infos = server::listSnapshots(dir);
    ASSERT_EQ(infos.size(), 1u);
    server::DaemonSnapshot snap;
    std::string err;
    ASSERT_TRUE(server::loadSnapshotFile(infos[0], &snap, &err)) << err;
    ASSERT_EQ(snap.sessions.size(), 1u);
    alter(snap);
    std::filesystem::remove(infos[0].path);
    std::string path;
    ASSERT_TRUE(server::writeSnapshotFile(dir, snap, &path, &err))
        << err;
}

TEST_F(ServerDaemon, NanSnapshotFallsBackToFullReplay)
{
    const std::string dir = scratchDir("recover-nan-snap");
    const std::string script = "admit x0 probe verify 256\n"
                               "remove x0\n";
    // A snapshot whose period is NaN: only the number parser can
    // refuse it.
    ASSERT_NO_FATAL_FAILURE(writeAlteredSnapshot(
        dir, script, root, [](server::DaemonSnapshot &snap) {
            snap.sessions[0].period =
                std::numeric_limits<double>::quiet_NaN();
        }));

    DaemonConfig cfg{.ctx = &root};
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    ASSERT_EQ(d2.recovery().rejectedSnapshots.size(), 1u);
    EXPECT_NE(d2.recovery().rejectedSnapshots[0].find("nan"),
              std::string::npos)
        << d2.recovery().rejectedSnapshots[0];
    EXPECT_TRUE(d2.recovery().snapshotPath.empty());
    EXPECT_EQ(d2.recovery().replayed, 3u);
    EXPECT_EQ(d2.recovery().replayRejected, 0u);
    EXPECT_EQ(publishedBytes(d2, "a"), directBytes(script, root));
}

/**
 * A snapshot session past the thread cap decodes, and restore
 * refuses it before any thread starts: that snapshot is rejected
 * with a reason and recovery falls back to the full replay.
 */
TEST_F(ServerDaemon, OverCapSnapshotSessionRejectsTheSnapshot)
{
    const std::string dir = scratchDir("recover-over-cap-snap");
    const std::string script = "admit x0 probe verify 256\n"
                               "remove x0\n";
    ASSERT_NO_FATAL_FAILURE(writeAlteredSnapshot(
        dir, script, root, [](server::DaemonSnapshot &snap) {
            snap.sessions[0].cfg.threads =
                server::kMaxSessionThreads + 1;
        }));

    DaemonConfig cfg{.ctx = &root};
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    ASSERT_EQ(d2.recovery().rejectedSnapshots.size(), 1u);
    EXPECT_NE(d2.recovery().rejectedSnapshots[0].find(
                  "session budget"),
              std::string::npos)
        << d2.recovery().rejectedSnapshots[0];
    EXPECT_TRUE(d2.recovery().snapshotPath.empty());
    EXPECT_EQ(d2.recovery().replayed, 3u);
    EXPECT_EQ(d2.recovery().replayRejected, 0u);
    EXPECT_EQ(d2.sessionPoolSize("a"), 0u);
    EXPECT_EQ(publishedBytes(d2, "a"), directBytes(script, root));
}

/**
 * A WAL written before the thread cap may hold an over-cap open.
 * Recovery rejects that one record and keeps every later one: the
 * log is neither cut there nor rewritten.
 */
TEST_F(ServerDaemon, OverCapOpenInWalIsOneRejectedReplay)
{
    const std::string dir = scratchDir("recover-over-cap-wal");
    const std::string wal = dir + "/wal.jsonl";
    const std::string script = "admit x0 probe verify 256\n";
    std::vector<DaemonOp> ops = parseOps(
        "open big topo=torus:4,4,4 tfg=dvb period=120 bw=128 alloc=rr:13\n"
        "open a topo=torus:4,4,4 tfg=dvb period=120 bw=128 alloc=rr:13\n"
        "a " + script);
    ops[0].open.threads = server::kMaxSessionThreads + 1;
    std::string body;
    for (std::size_t i = 0; i < ops.size(); ++i)
        body += server::encodeWalRecord({i + 1, ops[i]}) + "\n";
    std::ofstream(wal, std::ios::trunc) << body;

    DaemonConfig cfg{.ctx = &root};
    cfg.stateDir = dir;
    SchedulingDaemon d(cfg);
    EXPECT_FALSE(d.recovery().walTornTail);
    EXPECT_EQ(d.recovery().replayed, 3u);
    EXPECT_EQ(d.recovery().replayRejected, 1u);
    EXPECT_EQ(d.sessionNames(), std::vector<std::string>{"a"});
    EXPECT_EQ(publishedBytes(d, "a"), directBytes(script, root));
    EXPECT_EQ(readFile(wal), body);
    d.shutdown();
}

TEST_F(ServerDaemon, LegacySolverFieldInWalIsIgnored)
{
    // Open records written while sessions could pick a solver kind
    // carry "solver":"dense"; recovery must still replay them, to
    // the bytes the direct service publishes.
    const std::string dir = scratchDir("recover-legacy-solver");
    const std::string script = "admit x0 probe verify 256\n";
    serveSessionA(dir, script, root);
    const std::string wal = dir + "/wal.jsonl";
    std::string body = readFile(wal);
    const std::size_t at = body.find("\"cache\":true");
    ASSERT_NE(at, std::string::npos) << body;
    ASSERT_LT(at, body.find('\n'));
    body.insert(at, "\"solver\":\"dense\",");
    std::ofstream(wal, std::ios::trunc) << body;

    DaemonConfig cfg{.ctx = &root};
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_FALSE(d2.recovery().walTornTail);
    EXPECT_EQ(d2.recovery().replayed, 2u);
    EXPECT_EQ(d2.recovery().replayRejected, 0u);
    EXPECT_EQ(publishedBytes(d2, "a"), directBytes(script, root));
}

TEST_F(ServerDaemon, RejectedOpenLeavesOthersServingAndIsNotJournaled)
{
    const std::string dir = scratchDir("rejected-open");
    {
        DaemonConfig cfg{.ctx = &root};
        cfg.stateDir = dir;
        cfg.workers = 2;
        SchedulingDaemon d(cfg);
        ASSERT_TRUE(d.open(figSession("a")).result.accepted);
        online::Request admit;
        admit.kind = online::RequestKind::AdmitMessage;
        admit.admits.push_back({"x0", "probe", "verify", 256.0});
        ASSERT_TRUE(d.submit("a", admit).get().result.accepted);

        // Past MixedRadix's address space: an error for this open
        // only, never an abort of the daemon.
        SessionConfig big = figSession("big");
        big.topo = "cube:40";
        const DaemonResponse r = d.open(big);
        EXPECT_EQ(r.outcome, DaemonOutcome::InvalidConfig);
        EXPECT_NE(r.detail.find("invalid input"), std::string::npos)
            << r.detail;
        SessionConfig unknown = figSession("unknown");
        unknown.topo = "hypertorus:9";
        EXPECT_EQ(d.open(unknown).outcome,
                  DaemonOutcome::InvalidConfig);
        // Extents are whole tokens: these used to open a fabric.
        for (const char *spec :
             {"torus:4abc,4", "cube:3.9", "torus: 4,4", "torus:4,4,"}) {
            SessionConfig junk = figSession("junk");
            junk.topo = spec;
            const DaemonResponse jr = d.open(junk);
            EXPECT_EQ(jr.outcome, DaemonOutcome::InvalidConfig) << spec;
            EXPECT_NE(jr.detail.find("invalid input"), std::string::npos)
                << jr.detail;
        }

        online::Request remove;
        remove.kind = online::RequestKind::RemoveMessage;
        remove.name = "x0";
        ASSERT_TRUE(d.submit("a", remove).get().result.accepted);
        EXPECT_EQ(d.sessionNames(), std::vector<std::string>{"a"});
        d.shutdown();
    }
    const server::WalReadResult wr =
        server::readWal(dir + "/wal.jsonl");
    ASSERT_TRUE(wr.ok);
    ASSERT_EQ(wr.records.size(), 3u);
    for (const server::WalRecord &rec : wr.records)
        EXPECT_EQ(rec.op.session, "a");
}

TEST_F(ServerDaemon, RejectedStrideOpenLeavesOthersServing)
{
    const std::string dir = scratchDir("rejected-stride");
    {
        DaemonConfig cfg{.ctx = &root};
        cfg.stateDir = dir;
        cfg.workers = 2;
        SchedulingDaemon d(cfg);
        ASSERT_TRUE(d.open(figSession("a")).result.accepted);

        // Opens that bypass the protocol parser (API callers, WAL
        // replay) must still refuse a bad stride, for that open
        // only: rr:0 used to trip the round-robin assertion and
        // abort the daemon.
        for (const char *alloc : {"rr:0", "rr:99999999999"}) {
            SessionConfig bad = figSession("bad");
            bad.alloc = alloc;
            const DaemonResponse r = d.open(bad);
            EXPECT_EQ(r.outcome, DaemonOutcome::InvalidConfig)
                << alloc;
            EXPECT_NE(r.detail.find("invalid input"),
                      std::string::npos)
                << r.detail;
        }

        online::Request admit;
        admit.kind = online::RequestKind::AdmitMessage;
        admit.admits.push_back({"x0", "probe", "verify", 256.0});
        ASSERT_TRUE(d.submit("a", admit).get().result.accepted);
        EXPECT_EQ(d.sessionNames(), std::vector<std::string>{"a"});
        d.shutdown();
    }
    const server::WalReadResult wr =
        server::readWal(dir + "/wal.jsonl");
    ASSERT_TRUE(wr.ok);
    ASSERT_EQ(wr.records.size(), 2u);
    for (const server::WalRecord &rec : wr.records)
        EXPECT_EQ(rec.op.session, "a");
}

/**
 * An API open past the session thread cap is refused before any
 * thread starts: a structured error, no session, no WAL record.
 */
TEST_F(ServerDaemon, OverCapThreadBudgetIsRefusedAndNotJournaled)
{
    const std::string dir = scratchDir("over-cap-threads");
    {
        DaemonConfig cfg{.ctx = &root};
        cfg.stateDir = dir;
        SchedulingDaemon d(cfg);
        for (const std::size_t threads :
             {server::kMaxSessionThreads + 1, std::size_t{100000}}) {
            SessionConfig sc = figSession("greedy");
            sc.threads = threads;
            const DaemonResponse r = d.open(sc);
            EXPECT_EQ(r.outcome, DaemonOutcome::InvalidConfig)
                << threads;
            EXPECT_NE(r.detail.find("invalid input"),
                      std::string::npos)
                << r.detail;
        }
        EXPECT_TRUE(d.sessionNames().empty());
        EXPECT_EQ(d.walRecords(), 0u);
        d.shutdown();
    }
    const server::WalReadResult wr =
        server::readWal(dir + "/wal.jsonl");
    ASSERT_TRUE(wr.ok);
    EXPECT_TRUE(wr.records.empty());
}

/**
 * A session's threads= budget survives a snapshot: recovered from
 * the image alone (no WAL replay), it runs on its own pool again.
 */
TEST_F(ServerDaemon, SnapshotKeepsSessionThreadBudget)
{
    const std::string dir = scratchDir("snapshot-threads");
    {
        DaemonConfig cfg{.ctx = &root};
        cfg.stateDir = dir;
        cfg.snapshotEvery = 1;
        SchedulingDaemon d(cfg);
        SessionConfig sc = figSession("a");
        sc.threads = 2;
        ASSERT_TRUE(d.open(sc).result.accepted);
        EXPECT_EQ(d.sessionPoolSize("a"), 2u);
        online::Request admit;
        admit.kind = online::RequestKind::AdmitMessage;
        admit.admits.push_back({"x0", "probe", "verify", 256.0});
        ASSERT_TRUE(d.submit("a", admit).get().result.accepted);
        d.shutdown();
        EXPECT_GT(d.snapshotsWritten(), 0u);
    }
    DaemonConfig cfg{.ctx = &root};
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_FALSE(d2.recovery().snapshotPath.empty());
    EXPECT_EQ(d2.recovery().replayed, 0u);
    EXPECT_EQ(d2.sessionNames(), std::vector<std::string>{"a"});
    EXPECT_EQ(d2.sessionPoolSize("a"), 2u);
}

TEST_F(ServerDaemon, UnsyncedTailIsLostOnCrash)
{
    const std::string dir = scratchDir("recover-unsynced");
    {
        DaemonConfig cfg{.ctx = &root};
        cfg.stateDir = dir;
        cfg.walSyncEvery = 100; // group commit, never reached
        SchedulingDaemon d(cfg);
        ASSERT_TRUE(d.open(figSession("a")).result.accepted);
        online::Request admit;
        admit.kind = online::RequestKind::AdmitMessage;
        admit.admits.push_back({"x0", "probe", "verify", 256.0});
        ASSERT_TRUE(d.submit("a", admit).get().result.accepted);
        d.crashForTest(); // pending WAL bytes dropped
    }
    DaemonConfig cfg{.ctx = &root};
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_EQ(d2.recovery().walRecords, 0u);
    EXPECT_TRUE(d2.sessionNames().empty());
}

TEST_F(ServerDaemon, TornWalTailRecoversTheIntactPrefix)
{
    const std::string dir = scratchDir("recover-torn");
    serveSessionA(dir, "admit x0 probe verify 256\n", root);
    {
        std::ofstream out(dir + "/wal.jsonl", std::ios::app);
        out << "{\"seq\":3,\"op\":\"re"; // torn mid-record
    }
    DaemonConfig cfg{.ctx = &root};
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_TRUE(d2.recovery().walTornTail);
    EXPECT_EQ(d2.recovery().walRecords, 2u);
    EXPECT_EQ(publishedBytes(d2, "a"),
              directBytes("admit x0 probe verify 256\n", root));
    // The rewritten log must append cleanly from here.
    online::Request admit;
    admit.kind = online::RequestKind::AdmitMessage;
    admit.admits.push_back({"x1", "match", "probe", 128.0});
    ASSERT_TRUE(d2.submit("a", admit).get().result.accepted);
    d2.shutdown();
    const server::WalReadResult wr =
        server::readWal(dir + "/wal.jsonl");
    EXPECT_FALSE(wr.tornTail);
    EXPECT_EQ(wr.records.size(), 3u);
}

TEST_F(ServerDaemon, SnapshotSupersedingALostWalTailLeavesNoGap)
{
    // A snapshot may certify records a damaged state dir's WAL no
    // longer has. Recovery must not reopen the log ahead of its
    // last on-disk record (the gap would make the *next* recovery
    // discard acknowledged records as a torn tail); it retires the
    // stale log and continues from the snapshot's sequence.
    const std::string dir = scratchDir("recover-lost-tail");
    {
        DaemonConfig cfg{.ctx = &root};
        cfg.stateDir = dir;
        cfg.snapshotEvery = 1;
        SchedulingDaemon d(cfg);
        ASSERT_TRUE(d.open(figSession("a")).result.accepted);
        for (const DaemonOp &op :
             parseOps("a admit x0 probe verify 256\n"
                      "a admit x1 match probe 128\n"
                      "a remove x0\n"))
            ASSERT_TRUE(
                d.submit("a", op.request).get().result.accepted);
        d.shutdown(); // final snapshot certifies seq 4
    }
    // Lose the WAL tail the snapshot certifies (keep seq 1-2).
    {
        const server::WalReadResult wr =
            server::readWal(dir + "/wal.jsonl");
        ASSERT_EQ(wr.records.size(), 4u);
        std::ofstream out(dir + "/wal.jsonl",
                          std::ios::binary | std::ios::trunc);
        for (std::size_t i = 0; i < 2; ++i)
            out << server::encodeWalRecord(wr.records[i]) << "\n";
    }
    std::string afterOneMore;
    {
        DaemonConfig cfg{.ctx = &root};
        cfg.stateDir = dir;
        SchedulingDaemon d2(cfg);
        EXPECT_FALSE(d2.recovery().snapshotPath.empty());
        EXPECT_EQ(d2.recovery().replayed, 0u);
        EXPECT_EQ(publishedBytes(d2, "a"),
                  directBytes("admit x0 probe verify 256\n"
                              "admit x1 match probe 128\n"
                              "remove x0\n", root));
        EXPECT_TRUE(
            std::filesystem::exists(dir + "/wal.jsonl.stale"));
        online::Request admit;
        admit.kind = online::RequestKind::AdmitMessage;
        admit.admits.push_back({"x2", "probe", "verify", 64.0});
        ASSERT_TRUE(d2.submit("a", admit).get().result.accepted);
        d2.drain();
        afterOneMore = publishedBytes(d2, "a");
        d2.crashForTest();
    }
    // The fresh log starts at seq 5 and replays cleanly on top of
    // the snapshot — nothing acknowledged was discarded.
    const server::WalReadResult wr =
        server::readWal(dir + "/wal.jsonl");
    EXPECT_FALSE(wr.tornTail);
    ASSERT_EQ(wr.records.size(), 1u);
    EXPECT_EQ(wr.records[0].seq, 5u);
    DaemonConfig cfg{.ctx = &root};
    cfg.stateDir = dir;
    SchedulingDaemon d3(cfg);
    EXPECT_EQ(d3.recovery().replayed, 1u);
    EXPECT_EQ(d3.recovery().replayRejected, 0u);
    EXPECT_EQ(publishedBytes(d3, "a"), afterOneMore);
}

// -- Concurrency --------------------------------------------------

TEST_F(ServerDaemon, SnapshotsTolerateInFlightOpens)
{
    // open() parks a placeholder session (no service yet) while the
    // initial compile runs outside the daemon lock; snapshots taken
    // meanwhile (another session quiescing with snapshotEvery=1)
    // must skip it, not dereference it. Also pins WAL commit order:
    // a session's Open record precedes all its Requests, which
    // precede its Close.
    const std::string dir = scratchDir("snap-inflight-open");
    const std::string script = "admit x0 probe verify 256\n"
                               "remove x0\n"
                               "admit x0 probe verify 256\n"
                               "remove x0\n"
                               "admit x0 probe verify 256\n"
                               "remove x0\n";
    {
        DaemonConfig cfg{.ctx = &root};
        cfg.stateDir = dir;
        cfg.snapshotEvery = 1;
        cfg.workers = 2;
        SchedulingDaemon d(cfg);
        ASSERT_TRUE(d.open(figSession("a")).result.accepted);
        std::thread opener([&] {
            for (int i = 0; i < 6; ++i) {
                const std::string name = "b" + std::to_string(i);
                EXPECT_TRUE(
                    d.open(figSession(name)).result.accepted);
                EXPECT_EQ(d.close(name).outcome,
                          DaemonOutcome::Ok);
            }
        });
        for (const DaemonOp &op : parseOps(
                 "a admit x0 probe verify 256\n"
                 "a remove x0\n"
                 "a admit x0 probe verify 256\n"
                 "a remove x0\n"
                 "a admit x0 probe verify 256\n"
                 "a remove x0\n"))
            ASSERT_TRUE(
                d.submit("a", op.request).get().result.accepted);
        opener.join();
        d.shutdown();
    }
    // Per-session WAL order: Open < every Request < Close.
    const server::WalReadResult wr =
        server::readWal(dir + "/wal.jsonl");
    ASSERT_TRUE(wr.ok);
    EXPECT_FALSE(wr.tornTail);
    std::map<std::string, std::uint64_t> opened, closed;
    for (const server::WalRecord &rec : wr.records) {
        const std::string &name = rec.op.session;
        switch (rec.op.kind) {
          case DaemonOp::Kind::Open:
              EXPECT_FALSE(opened.count(name)) << name;
              opened[name] = rec.seq;
              break;
          case DaemonOp::Kind::Close:
              ASSERT_TRUE(opened.count(name)) << name;
              EXPECT_GT(rec.seq, opened[name]);
              closed[name] = rec.seq;
              break;
          case DaemonOp::Kind::Request:
              ASSERT_TRUE(opened.count(name)) << name;
              EXPECT_GT(rec.seq, opened[name]);
              EXPECT_FALSE(closed.count(name)) << name;
              break;
        }
    }
    // And the interleaved run recovers byte-identically.
    DaemonConfig cfg{.ctx = &root};
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_EQ(d2.recovery().replayRejected, 0u);
    ASSERT_EQ(d2.sessionNames(), std::vector<std::string>{"a"});
    EXPECT_EQ(publishedBytes(d2, "a"), directBytes(script, root));
}

TEST_F(ServerDaemon, ChurnStressMatchesSingleWorkerRun)
{
    // 6 sessions x alternating admit/remove churn on 4 workers,
    // submitted from 3 threads, must publish exactly the bytes a
    // serialized 1-worker daemon publishes.
    constexpr int kSessions = 6;
    constexpr int kRounds = 8;
    const auto runAll = [&](std::size_t workers) {
        DaemonConfig cfg{.ctx = &root};
        cfg.workers = workers;
        cfg.queueCap = 1024;
        SchedulingDaemon d(cfg);
        for (int s = 0; s < kSessions; ++s)
            EXPECT_TRUE(d.open(figSession("s" +
                                          std::to_string(s)))
                            .result.accepted);
        std::vector<std::thread> drivers;
        for (int t = 0; t < 3; ++t) {
            drivers.emplace_back([&, t] {
                for (int s = t; s < kSessions; s += 3) {
                    const std::string name =
                        "s" + std::to_string(s);
                    std::vector<std::future<DaemonResponse>> fs;
                    for (int i = 0; i < kRounds; ++i) {
                        online::Request r;
                        if (i % 2 == 0) {
                            r.kind =
                                online::RequestKind::AdmitMessage;
                            r.admits.push_back({"x0", "probe",
                                                "verify", 256.0});
                        } else {
                            r.kind =
                                online::RequestKind::RemoveMessage;
                            r.name = "x0";
                        }
                        fs.push_back(d.submit(name, std::move(r)));
                    }
                    for (auto &f : fs)
                        EXPECT_TRUE(
                            f.get().result.accepted);
                }
            });
        }
        for (auto &t : drivers)
            t.join();
        d.drain();
        std::vector<std::string> bytes;
        for (int s = 0; s < kSessions; ++s)
            bytes.push_back(
                publishedBytes(d, "s" + std::to_string(s)));
        return bytes;
    };
    EXPECT_EQ(runAll(4), runAll(1));
}

} // namespace
} // namespace srsim
