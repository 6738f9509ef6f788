/**
 * @file
 * Tests for the CP-level discrete-event simulator: verified
 * schedules must execute cleanly with constant throughput, and
 * injected schedule corruptions must be caught dynamically.
 */

#include <gtest/gtest.h>

#include "cpsim/cp_simulator.hh"
#include "core/sr_compiler.hh"
#include "core/sr_executor.hh"
#include "engine_fixture.hh"
#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "tfg/timing.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"

namespace srsim {
namespace {

using CpSimTest = EngineTest;

/** Compile a feasible DVB schedule to execute / corrupt. */
struct CpSimFixture : public EngineTest
{
    TaskFlowGraph g = buildDvbTfg({});
    GeneralizedHypercube cube = GeneralizedHypercube::binaryCube(6);
    TimingModel tm;
    TaskAllocation alloc{1, 1};
    SrCompileResult sr;
    /** Default run settings under the test's root context. */
    CpSimConfig plain;

    CpSimFixture() : alloc(alloc::roundRobin(g, cube, 13))
    {
        plain.ctx = &root;
        DvbParams dp;
        tm.apSpeed = dp.matchedApSpeed();
        tm.bandwidth = 128.0;
    }

    void
    SetUp() override
    {
        SrCompilerConfig cfg{.ctx = &root};
        cfg.inputPeriod = 2.0 * tm.tauC(g);
        sr = compileScheduledRouting(g, cube, alloc, tm, cfg);
        ASSERT_TRUE(sr.feasible) << sr.detail;
    }
};

TEST_F(CpSimFixture, VerifiedScheduleRunsClean)
{
    const CpSimResult r =
        simulateCps(g, cube, alloc, tm, sr.bounds, sr.omega, plain);
    EXPECT_TRUE(r.ok()) << (r.violations.empty()
                                ? ""
                                : r.violations.front());
    EXPECT_GT(r.commandsExecuted, 0u);
}

TEST_F(CpSimFixture, ThroughputIsConstantAndEqualsPeriod)
{
    CpSimConfig cfg{.ctx = &root};
    cfg.invocations = 40;
    cfg.warmup = 8;
    const CpSimResult r =
        simulateCps(g, cube, alloc, tm, sr.bounds, sr.omega, cfg);
    ASSERT_TRUE(r.ok());
    const SeriesStats s = r.outputIntervals(cfg.warmup);
    EXPECT_NEAR(s.mean(), sr.omega.period, 1e-6);
    EXPECT_NEAR(s.spread(), 0.0, 1e-6);
}

TEST_F(CpSimFixture, AgreesWithAnalyticExecutor)
{
    CpSimConfig cfg{.ctx = &root};
    cfg.invocations = 25;
    cfg.warmup = 5;
    const CpSimResult dyn =
        simulateCps(g, cube, alloc, tm, sr.bounds, sr.omega, cfg);
    ASSERT_TRUE(dyn.ok());
    const SrExecutionResult ana = executeSchedule(
        g, alloc, tm, sr.bounds, sr.omega, cfg.invocations, root);
    ASSERT_EQ(dyn.completions.size(), ana.completions.size());
    for (std::size_t j = 0; j < dyn.completions.size(); ++j)
        EXPECT_NEAR(dyn.completions[j], ana.completions[j], 1e-6)
            << "invocation " << j;
}

TEST_F(CpSimFixture, DetectsInjectedLinkContention)
{
    GlobalSchedule bad = sr.omega;
    // Give message 1 message 0's path and windows: every shared
    // link is double-booked.
    bad.paths.paths[1] = bad.paths.paths[0];
    bad.segments[1] = bad.segments[0];
    const CpSimResult r =
        simulateCps(g, cube, alloc, tm, sr.bounds, bad, plain);
    ASSERT_FALSE(r.ok());
    bool found = false;
    for (const std::string &v : r.violations)
        found = found ||
                v.find("double-booked") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST_F(CpSimFixture, DetectsPrematureTransmission)
{
    GlobalSchedule bad = sr.omega;
    // Shift one message's first window well before its release:
    // the CP would transmit data the AP has not produced yet.
    const std::size_t victim = 0;
    const MessageBounds &b = sr.bounds.messages[victim];
    const Time len = bad.segments[victim].front().length();
    Time new_start = b.release - sr.bounds.tauC * 0.5;
    if (new_start < 0.0)
        new_start += sr.omega.period;
    bad.segments[victim].front() =
        TimeWindow{new_start, new_start + len};
    const CpSimResult r =
        simulateCps(g, cube, alloc, tm, sr.bounds, bad, plain);
    ASSERT_FALSE(r.ok());
    bool found = false;
    for (const std::string &v : r.violations)
        found = found || v.find("before its data") !=
                             std::string::npos;
    EXPECT_TRUE(found);
}

TEST_F(CpSimFixture, DetectsShortDelivery)
{
    GlobalSchedule bad = sr.omega;
    bad.segments[2].back().end -= 0.5; // drop half a microsecond
    const CpSimResult r =
        simulateCps(g, cube, alloc, tm, sr.bounds, bad, plain);
    ASSERT_FALSE(r.ok());
    bool found = false;
    for (const std::string &v : r.violations)
        found = found ||
                v.find("delivered") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST_F(CpSimFixture, DetectsDeadlineMiss)
{
    GlobalSchedule bad = sr.omega;
    // Push a message's last window past its deadline.
    const std::size_t victim = 3;
    TimeWindow &w = bad.segments[victim].back();
    const Time shift = sr.bounds.tauC; // one whole window late
    w.start += shift;
    w.end += shift;
    const CpSimResult r =
        simulateCps(g, cube, alloc, tm, sr.bounds, bad, plain);
    ASSERT_FALSE(r.ok());
    bool found = false;
    for (const std::string &v : r.violations)
        found = found ||
                v.find("deadline") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST_F(CpSimFixture, RepeatedViolationsAreDeduplicated)
{
    GlobalSchedule bad = sr.omega;
    // The same double-booking recurs every invocation; the report
    // must collapse the repeats into one line with a count instead
    // of flooding one line per invocation.
    bad.paths.paths[1] = bad.paths.paths[0];
    bad.segments[1] = bad.segments[0];
    CpSimConfig cfg{.ctx = &root};
    cfg.invocations = 20;
    const CpSimResult r =
        simulateCps(g, cube, alloc, tm, sr.bounds, bad, cfg);
    ASSERT_FALSE(r.ok());
    ASSERT_EQ(r.violations.size(), r.violationRepeats.size());
    EXPECT_LT(r.violations.size(), r.totalViolations);
    std::uint64_t repeats = 0;
    bool suffixed = false;
    for (std::size_t i = 0; i < r.violations.size(); ++i) {
        repeats += r.violationRepeats[i];
        if (r.violationRepeats[i] > 1) {
            EXPECT_NE(r.violations[i].find(
                          " [x" +
                          std::to_string(r.violationRepeats[i]) +
                          "]"),
                      std::string::npos)
                << r.violations[i];
            suffixed = true;
        }
    }
    EXPECT_EQ(repeats, r.totalViolations);
    EXPECT_TRUE(suffixed);
}

TEST_F(CpSimFixture, StopOnViolationAborts)
{
    GlobalSchedule bad = sr.omega;
    bad.paths.paths[1] = bad.paths.paths[0];
    bad.segments[1] = bad.segments[0];
    CpSimConfig cfg{.ctx = &root};
    cfg.stopOnViolation = true;
    const CpSimResult r =
        simulateCps(g, cube, alloc, tm, sr.bounds, bad, cfg);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.violations.size(), 1u);
}

TEST_F(CpSimTest, WorksOnTorusSchedules)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const Torus torus({4, 4, 4});
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, torus, 13);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = tm.tauC(g); // maximum load
    const SrCompileResult sr =
        compileScheduledRouting(g, torus, alloc, tm, cfg);
    ASSERT_TRUE(sr.feasible) << sr.detail;
    CpSimConfig plain{.ctx = &root};
    const CpSimResult r =
        simulateCps(g, torus, alloc, tm, sr.bounds, sr.omega, plain);
    EXPECT_TRUE(r.ok()) << (r.violations.empty()
                                ? ""
                                : r.violations.front());
    EXPECT_NEAR(r.outputIntervals(5).mean(), sr.omega.period,
                1e-6);
}

TEST_F(CpSimTest, MismatchedScheduleIsFatal)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 13);
    const TimeBounds tb =
        computeTimeBounds(g, alloc, tm, 2.0 * tm.tauC(g));
    GlobalSchedule empty;
    empty.period = tb.inputPeriod;
    CpSimConfig plain{.ctx = &root};
    EXPECT_THROW(simulateCps(g, cube, alloc, tm, tb, empty, plain),
                 FatalError);
}

} // namespace
} // namespace srsim
