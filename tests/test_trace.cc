/**
 * @file
 * Tests for the structured event tracer: the disabled path records
 * nothing and changes nothing, and the Chrome trace-event export of
 * a real DVB run is structurally valid — parseable JSON, per-link
 * tracks with metadata, per-track monotonic timestamps, balanced
 * B/E nesting, and (the paper's core guarantee) no overlapping
 * occupancy windows on any half-duplex link under a verified SR
 * schedule.
 */

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/schedule_io.hh"
#include "core/sr_compiler.hh"
#include "cpsim/cp_simulator.hh"
#include "engine_fixture.hh"
#include "json_mini.hh"
#include "mapping/allocation.hh"
#include "metrics/metrics.hh"
#include "tfg/dvb.hh"
#include "tfg/timing.hh"
#include "topology/generalized_hypercube.hh"
#include "trace/trace.hh"
#include "wormhole/wormhole.hh"

namespace srsim {
namespace {

/** DVB on the binary 6-cube, the paper's primary configuration. */
struct DvbSetup
{
    TaskFlowGraph g = buildDvbTfg({});
    GeneralizedHypercube cube = GeneralizedHypercube::binaryCube(6);
    TimingModel tm;
    TaskAllocation alloc{1, 1};

    DvbSetup() : alloc(alloc::roundRobin(g, cube, 13))
    {
        DvbParams dp;
        tm.apSpeed = dp.matchedApSpeed();
        tm.bandwidth = 128.0;
    }
};

/**
 * Every test records into its own root context's tracer and
 * registry, with both switched off around it.
 */
class TraceTest : public EngineTest
{
  protected:
    void
    SetUp() override
    {
        trace::Tracer::setEnabled(false);
        metrics::Registry::setEnabled(false);
    }

    void
    TearDown() override
    {
        trace::Tracer::setEnabled(false);
        metrics::Registry::setEnabled(false);
    }
};

TEST_F(TraceTest, DisabledPathRecordsNothing)
{
    ASSERT_FALSE(SRSIM_TRACE_ENABLED());
    // The guard every instrumentation site uses: with tracing off
    // the statement must not run, so nothing is recorded.
    SRSIM_TRACE_IF(trace::linkAcquire(root.tracer(), 0,
                                      "m", 0, 0, 1.0));
    SRSIM_TRACE_IF(
        trace::violation(root.tracer(), "nope", 2.0));
    EXPECT_EQ(root.tracer().size(), 0u);

    // A full instrumented run with tracing off records nothing.
    DvbSetup s;
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2.0 * s.tm.tauC(s.g);
    const SrCompileResult sr = compileScheduledRouting(
        s.g, s.cube, s.alloc, s.tm, cfg);
    ASSERT_TRUE(sr.feasible);
    CpSimConfig sim{.ctx = &root};
    simulateCps(s.g, s.cube, s.alloc, s.tm, sr.bounds, sr.omega, sim);
    EXPECT_EQ(root.tracer().size(), 0u);
}

TEST_F(TraceTest, TracingDoesNotChangeCompileResults)
{
    DvbSetup s;
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2.0 * s.tm.tauC(s.g);

    const SrCompileResult off = compileScheduledRouting(
        s.g, s.cube, s.alloc, s.tm, cfg);
    ASSERT_TRUE(off.feasible);

    trace::Tracer::setEnabled(true);
    metrics::Registry::setEnabled(true);
    const SrCompileResult on = compileScheduledRouting(
        s.g, s.cube, s.alloc, s.tm, cfg);
    trace::Tracer::setEnabled(false);
    metrics::Registry::setEnabled(false);
    ASSERT_TRUE(on.feasible);

    std::ostringstream a, b;
    writeSchedule(a, off.omega);
    writeSchedule(b, on.omega);
    EXPECT_EQ(a.str(), b.str());
}

/** Trace one full SR pipeline (compile + CP-level simulation). */
std::string
traceDvbSrRun(const engine::EngineContext &root)
{
    DvbSetup s;
    trace::Tracer::setEnabled(true);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2.0 * s.tm.tauC(s.g);
    const SrCompileResult sr = compileScheduledRouting(
        s.g, s.cube, s.alloc, s.tm, cfg);
    EXPECT_TRUE(sr.feasible);
    CpSimConfig sim{.ctx = &root};
    const CpSimResult r = simulateCps(s.g, s.cube, s.alloc, s.tm,
                                      sr.bounds, sr.omega, sim);
    EXPECT_TRUE(r.ok());
    trace::Tracer::setEnabled(false);
    std::ostringstream oss;
    root.tracer().exportChrome(oss);
    return oss.str();
}

TEST_F(TraceTest, ChromeExportOfSrRunIsStructurallyValid)
{
    const std::string text = traceDvbSrRun(root);
    const jsonmini::ValuePtr doc = jsonmini::parse(text);

    ASSERT_EQ(doc->kind, jsonmini::Value::Kind::Object);
    ASSERT_TRUE(doc->has("traceEvents"));
    const auto &events = doc->at("traceEvents");
    ASSERT_EQ(events.kind, jsonmini::Value::Kind::Array);
    ASSERT_GT(events.array.size(), 100u);

    // Track bookkeeping: pid -> process name, (pid,tid) -> events.
    std::map<int, std::string> procs;
    std::map<std::pair<int, int>, std::vector<const jsonmini::Value *>>
        tracks;
    for (const auto &ev : events.array) {
        ASSERT_EQ(ev->kind, jsonmini::Value::Kind::Object);
        ASSERT_TRUE(ev->has("ph"));
        ASSERT_TRUE(ev->has("pid"));
        ASSERT_TRUE(ev->has("name"));
        const std::string ph = ev->at("ph").string;
        const int pid = static_cast<int>(ev->at("pid").number);
        if (ph == "M") {
            if (ev->at("name").string == "process_name")
                procs[pid] = ev->at("args").at("name").string;
            continue;
        }
        ASSERT_TRUE(ev->has("ts"));
        ASSERT_TRUE(ev->has("tid"));
        tracks[{pid, static_cast<int>(ev->at("tid").number)}]
            .push_back(ev.get());
    }

    // The run must produce link, CP, AP, message, sim, and
    // compiler tracks, each named by metadata.
    std::map<std::string, int> pidOf;
    for (const auto &[pid, name] : procs)
        pidOf[name] = pid;
    for (const char *kind :
         {"links", "cps", "aps", "messages", "sim", "compiler"})
        EXPECT_TRUE(pidOf.count(kind)) << "missing track " << kind;

    int linkTracks = 0;
    for (const auto &[key, evs] : tracks) {
        if (key.first == pidOf["links"])
            ++linkTracks;

        // Timestamps non-decreasing along every track.
        double prev = -1.0;
        for (const jsonmini::Value *e : evs) {
            const double ts = e->at("ts").number;
            EXPECT_GE(ts, prev) << "ts regression on pid "
                                << key.first << " tid "
                                << key.second;
            prev = ts;
        }

        // B/E events balance and never close an unopened span.
        int depth = 0;
        for (const jsonmini::Value *e : evs) {
            const std::string ph = e->at("ph").string;
            if (ph == "B")
                ++depth;
            else if (ph == "E")
                --depth;
            ASSERT_GE(depth, 0) << "unbalanced E on pid "
                                << key.first << " tid "
                                << key.second;
        }
        EXPECT_EQ(depth, 0) << "unclosed B on pid " << key.first
                            << " tid " << key.second;
    }
    EXPECT_GT(linkTracks, 1) << "expected per-link tracks";

    // The SR guarantee: on every half-duplex link the scheduled
    // occupancy windows (X events) never overlap.
    for (const auto &[key, evs] : tracks) {
        if (key.first != pidOf["links"])
            continue;
        std::vector<std::pair<double, double>> windows;
        for (const jsonmini::Value *e : evs)
            if (e->at("ph").string == "X")
                windows.emplace_back(e->at("ts").number,
                                     e->at("ts").number +
                                         e->at("dur").number);
        std::sort(windows.begin(), windows.end());
        for (std::size_t i = 1; i < windows.size(); ++i) {
            EXPECT_LE(windows[i - 1].second,
                      windows[i].first + 1e-6)
                << "overlapping occupancy on link " << key.second;
        }
    }
}

TEST_F(TraceTest, WormholeTraceBalancesAcquireRelease)
{
    DvbSetup s;
    trace::Tracer::setEnabled(true);
    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2.0 * s.tm.tauC(s.g);
    cfg.invocations = 10;
    cfg.warmup = 2;
    WormholeSimulator sim(s.g, s.cube, s.alloc, s.tm);
    const WormholeResult r = sim.run(cfg);
    trace::Tracer::setEnabled(false);
    ASSERT_FALSE(r.deadlocked);

    // Per link: acquires and releases alternate — a half-duplex
    // link has at most one holder at any time.
    std::map<std::int32_t, int> depth;
    for (const trace::Event &e : root.tracer().collect()) {
        if (e.track != trace::TrackKind::Link)
            continue;
        if (e.type == trace::EventType::Begin) {
            EXPECT_EQ(++depth[e.trackId], 1)
                << "double acquire on link " << e.trackId;
        } else if (e.type == trace::EventType::End) {
            EXPECT_EQ(--depth[e.trackId], 0)
                << "release without holder on link " << e.trackId;
        }
    }
    for (const auto &[link, d] : depth)
        EXPECT_EQ(d, 0) << "link " << link << " never released";
}

TEST_F(TraceTest, CsvExportHasHeaderAndOneRowPerEvent)
{
    DvbSetup s;
    trace::Tracer::setEnabled(true);
    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2.0 * s.tm.tauC(s.g);
    cfg.invocations = 3;
    cfg.warmup = 1;
    WormholeSimulator sim(s.g, s.cube, s.alloc, s.tm);
    sim.run(cfg);
    trace::Tracer::setEnabled(false);

    const std::size_t n = root.tracer().size();
    ASSERT_GT(n, 0u);
    std::ostringstream oss;
    root.tracer().exportCsv(oss);
    std::istringstream in(oss.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line,
              "ts,dur,type,track,track_id,category,name,msg,"
              "invocation,detail");
    std::size_t rows = 0;
    const std::size_t fields =
        static_cast<std::size_t>(
            std::count(line.begin(), line.end(), ',')) + 1;
    while (std::getline(in, line)) {
        ++rows;
        EXPECT_GE(static_cast<std::size_t>(std::count(
                      line.begin(), line.end(), ',')) + 1,
                  fields);
    }
    EXPECT_EQ(rows, n);
}

TEST_F(TraceTest, ScopedPhaseEmitsMatchedPairAndHistogram)
{
    trace::Tracer::setEnabled(true);
    metrics::Registry::setEnabled(true);
    {
        trace::ScopedPhase phase("unit_test_phase",
                                 root.tracer(),
                                 root.metricsRegistry());
    }
    trace::Tracer::setEnabled(false);
    metrics::Registry::setEnabled(false);

    const auto events = root.tracer().collect();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].type, trace::EventType::Begin);
    EXPECT_EQ(events[1].type, trace::EventType::End);
    EXPECT_EQ(events[0].name, "unit_test_phase");
    EXPECT_EQ(events[0].track, trace::TrackKind::Compiler);
    EXPECT_GE(events[1].ts, events[0].ts);

    auto &h = root.metricsRegistry().histogram(
        "sr.phase_ms.unit_test_phase",
        metrics::Histogram::timeBucketsMs());
    EXPECT_EQ(h.count(), 1u);
}

} // namespace
} // namespace srsim
