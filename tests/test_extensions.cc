/**
 * @file
 * Tests for the paper's suggested extensions implemented by srsim:
 * the virtual-channel wormhole model (Sec. 6's stricter model),
 * feedback between the Fig. 3 compiler steps, CP-synchronization
 * guard margins, allocation-path coupling, and schedule
 * serialization.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "core/coupled_allocation.hh"
#include "core/schedule_io.hh"
#include "core/sr_compiler.hh"
#include "core/sr_executor.hh"
#include "engine_fixture.hh"
#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "tfg/timing.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"
#include "wormhole/wormhole.hh"

namespace srsim {
namespace {

using CoupledAllocationTest = EngineTest;
using FeedbackTest = EngineTest;
using GuardTimeTest = EngineTest;
using ScheduleIoTest = EngineTest;
using VirtualChannelTest = EngineTest;

// ---------------------------------------------------------------
// Virtual-channel wormhole model.
// ---------------------------------------------------------------

TEST_F(VirtualChannelTest, HalvedBandwidthDoublesTransmission)
{
    TaskFlowGraph g;
    const TaskId a = g.addTask("a", 100.0);
    const TaskId b = g.addTask("b", 100.0);
    g.addMessage("ab", a, b, 640.0); // 10 us at full bandwidth
    TimingModel tm;
    tm.apSpeed = 10.0;
    tm.bandwidth = 64.0;
    const auto cube = GeneralizedHypercube::binaryCube(3);
    TaskAllocation alloc(2, 8);
    alloc.assign(0, 0);
    alloc.assign(1, 1);
    WormholeSimulator sim(g, cube, alloc, tm);
    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 100.0;
    cfg.invocations = 4;
    cfg.warmup = 1;

    const WormholeResult plain = sim.run(cfg);
    EXPECT_DOUBLE_EQ(plain.records[0].latency(), 30.0);

    cfg.virtualChannels = 2;
    const WormholeResult vc = sim.run(cfg);
    // 10 us task + 20 us transfer + 10 us task.
    EXPECT_DOUBLE_EQ(vc.records[0].latency(), 40.0);
}

TEST_F(VirtualChannelTest, TwoMessagesShareALink)
{
    // Two messages over the same single link, same release: with
    // 2 VCs they ride together at half bandwidth instead of
    // serializing at full bandwidth. Same finish time here (20 us
    // either way), but the second message's *start* is immediate.
    TaskFlowGraph g;
    const TaskId s1 = g.addTask("s1", 100.0);
    const TaskId s2 = g.addTask("s2", 100.0);
    const TaskId d1 = g.addTask("d1", 100.0);
    const TaskId d2 = g.addTask("d2", 100.0);
    g.addMessage("m1", s1, d1, 640.0);
    g.addMessage("m2", s2, d2, 640.0);
    TimingModel tm;
    tm.apSpeed = 10.0;
    tm.bandwidth = 64.0;
    const Torus ring({4});
    TaskAllocation a(4, 4);
    a.assign(0, 0);
    a.assign(1, 0);
    a.assign(2, 1);
    a.assign(3, 1);
    WormholeSimulator sim(g, ring, a, tm);
    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 200.0;
    cfg.invocations = 3;
    cfg.warmup = 0;

    // Plain capture: serialization -> slower destination ends at
    // 10 + 10 + 10 + 10 = 40.
    const WormholeResult plain = sim.run(cfg);
    EXPECT_DOUBLE_EQ(plain.records[0].latency(), 40.0);

    // 2 VCs: both transmit [10, 30] concurrently at half
    // bandwidth; both arrive at node 1 at t=30, whose single AP
    // then serializes d1 [30,40] and d2 [40,50].
    cfg.virtualChannels = 2;
    const WormholeResult vc = sim.run(cfg);
    EXPECT_DOUBLE_EQ(vc.records[0].latency(), 50.0);
    EXPECT_FALSE(vc.deadlocked);
}

TEST_F(VirtualChannelTest, ResolvesPlainModelDeadlock)
{
    // The 6-ring deadlock scenario of the wormhole tests: with two
    // virtual channels per link the wait-for cycle cannot close.
    TaskFlowGraph g;
    const TaskId blk_s = g.addTask("blk_s", 80.0);
    const TaskId blk_d = g.addTask("blk_d", 10.0);
    const TaskId mb_s = g.addTask("mb_s", 100.0);
    const TaskId mb_d = g.addTask("mb_d", 10.0);
    const TaskId ma_s = g.addTask("ma_s", 120.0);
    const TaskId ma_d = g.addTask("ma_d", 10.0);
    g.addMessage("blk", blk_s, blk_d, 640.0);
    g.addMessage("mB", mb_s, mb_d, 640.0);
    g.addMessage("mA", ma_s, ma_d, 640.0);
    TimingModel tm;
    tm.apSpeed = 10.0;
    tm.bandwidth = 64.0;
    const Torus ring({6});
    TaskAllocation a(g.numTasks(), ring.numNodes());
    a.assign(blk_s, 2);
    a.assign(blk_d, 3);
    a.assign(mb_s, 1);
    a.assign(mb_d, 4);
    a.assign(ma_s, 4);
    a.assign(ma_d, 2);
    WormholeSimulator sim(g, ring, a, tm);
    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 1000.0;
    cfg.invocations = 2;
    cfg.warmup = 0;

    EXPECT_TRUE(sim.run(cfg).deadlocked);
    cfg.virtualChannels = 2;
    EXPECT_FALSE(sim.run(cfg).deadlocked);
}

TEST_F(VirtualChannelTest, ZeroChannelsRejected)
{
    TaskFlowGraph g;
    g.addTask("only", 10.0);
    TimingModel tm;
    const auto cube = GeneralizedHypercube::binaryCube(2);
    TaskAllocation a(1, 4);
    a.assign(0, 0);
    WormholeSimulator sim(g, cube, a, tm);
    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 10.0;
    cfg.virtualChannels = 0;
    EXPECT_THROW(sim.run(cfg), FatalError);
}

// ---------------------------------------------------------------
// Compiler feedback.
// ---------------------------------------------------------------

TEST_F(FeedbackTest, RoundsUsedStaysZeroOnFirstTrySuccess)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 13);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 3.0 * tm.tauC(g);
    cfg.feedbackRounds = 3;
    const SrCompileResult r =
        compileScheduledRouting(g, cube, alloc, tm, cfg);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.feedbackRoundsUsed, 0);
}

TEST_F(FeedbackTest, NeverHurtsFeasibility)
{
    // Across the load sweep, enabling feedback can only turn
    // failures into successes, never the reverse (round 0 uses the
    // same seed as the no-feedback compile).
    const TaskFlowGraph g = buildDvbTfg({});
    const Torus torus({8, 8});
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, torus, 13);
    for (double f : {1.0, 1.5, 2.2, 3.0}) {
        SrCompilerConfig base{.ctx = &root};
        base.inputPeriod = f * tm.tauC(g);
        const bool without =
            compileScheduledRouting(g, torus, alloc, tm, base)
                .feasible;
        SrCompilerConfig fb = base;
        fb.feedbackRounds = 2;
        const SrCompileResult with_fb =
            compileScheduledRouting(g, torus, alloc, tm, fb);
        if (without) {
            EXPECT_TRUE(with_fb.feasible) << "factor " << f;
        }
    }
}

TEST_F(FeedbackTest, LsdPathsDoNotLoop)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const Torus torus({8, 8});
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 64.0;
    const TaskAllocation alloc = alloc::roundRobin(g, torus, 13);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 5.0 * tm.tauC(g);
    cfg.useAssignPaths = false;
    cfg.feedbackRounds = 5;
    const SrCompileResult r =
        compileScheduledRouting(g, torus, alloc, tm, cfg);
    // Deterministic paths: feedback must stop after round 0.
    EXPECT_EQ(r.feedbackRoundsUsed, 0);
    EXPECT_FALSE(r.feasible); // torus at B=64 is over capacity
}

// ---------------------------------------------------------------
// Guard margins.
// ---------------------------------------------------------------

TEST_F(GuardTimeTest, ScheduleStillVerifiesWithGuard)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 13);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 3.0 * tm.tauC(g);
    cfg.scheduling.guardTime = 0.25;
    const SrCompileResult r =
        compileScheduledRouting(g, cube, alloc, tm, cfg);
    ASSERT_TRUE(r.feasible) << r.detail;
    EXPECT_TRUE(r.verification.ok);
    // Guard gaps do not change total transmission time.
    for (std::size_t i = 0; i < r.bounds.messages.size(); ++i) {
        EXPECT_NEAR(r.omega.scheduledTime(i),
                    r.bounds.messages[i].duration, 1e-6);
    }
    const SrExecutionResult ex =
        executeSchedule(g, alloc, tm, r.bounds, r.omega, 30, root);
    EXPECT_TRUE(ex.consistent(5));
}

TEST_F(GuardTimeTest, LargeGuardCausesSchedulingFailure)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 13);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = tm.tauC(g); // maximum load, no slack left
    cfg.scheduling.guardTime = 20.0; // huge vs tau_c = 50
    const SrCompileResult r =
        compileScheduledRouting(g, cube, alloc, tm, cfg);
    EXPECT_FALSE(r.feasible);
}

TEST_F(GuardTimeTest, GuardMonotonicallyShrinksFeasibility)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 13);
    bool prev_feasible = true;
    for (double guard : {0.0, 0.5, 2.0, 10.0, 30.0}) {
        SrCompilerConfig cfg{.ctx = &root};
        cfg.inputPeriod = 1.2 * tm.tauC(g);
        cfg.scheduling.guardTime = guard;
        const bool feas =
            compileScheduledRouting(g, cube, alloc, tm, cfg)
                .feasible;
        // Once infeasible, larger guards must stay infeasible.
        if (!prev_feasible) {
            EXPECT_FALSE(feas) << "guard " << guard;
        }
        prev_feasible = feas;
    }
}

// ---------------------------------------------------------------
// Coupled allocation.
// ---------------------------------------------------------------

TEST_F(CoupledAllocationTest, NeverWorseThanSeed)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 64.0;
    const Time period = 2.0 * tm.tauC(g);

    const TaskAllocation seed = alloc::greedy(g, cube);
    Rng rng(11);
    const CoupledAllocationResult res = coupleAllocationWithPaths(
        g, cube, tm, period, seed, rng, root);
    EXPECT_TRUE(res.allocation.complete());

    // Score both with the same short AssignPaths effort.
    CoupledAllocationOptions opts;
    opts.scoring.ctx = &root;
    const TimeBounds tb_seed =
        computeTimeBounds(g, seed, tm, period);
    const IntervalSet ivs_seed(tb_seed);
    const double seed_u =
        assignPaths(g, cube, seed, tb_seed, ivs_seed, opts.scoring)
            .report.peak;
    EXPECT_LE(res.peakUtilization, seed_u + 1e-6);
}

TEST_F(CoupledAllocationTest, RecoversInfeasibleGreedySeed)
{
    // The greedy allocation pins the DVB fan-in to four cube
    // dimensions (U stuck at 1.44 at B = 64); the coupled search
    // must find an allocation that the compiler can schedule at a
    // low load.
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 64.0;
    const Time period = 4.0 * tm.tauC(g);

    const TaskAllocation seed = alloc::greedy(g, cube);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = period;
    ASSERT_FALSE(
        compileScheduledRouting(g, cube, seed, tm, cfg).feasible);

    Rng rng(3);
    const CoupledAllocationResult res = coupleAllocationWithPaths(
        g, cube, tm, period, seed, rng, root);
    // U <= 1 is necessary but not sufficient for the allocation
    // stage; give the compiler its Fig. 3 feedback rounds (the
    // production recovery path) so a low-U allocation whose first
    // path assignment trips the interval LP still schedules.
    SrCompilerConfig final_cfg = cfg;
    final_cfg.feedbackRounds = 6;
    const SrCompileResult r = compileScheduledRouting(
        g, cube, res.allocation, tm, final_cfg);
    EXPECT_TRUE(r.feasible)
        << "coupled U = " << res.peakUtilization << ", "
        << r.detail;
}

TEST_F(CoupledAllocationTest, IncompleteSeedIsStructuredFailure)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    TimingModel tm;
    tm.apSpeed = 38.5;
    TaskAllocation seed(g.numTasks(), cube.numNodes());
    Rng rng(1);
    const CoupledAllocationResult res =
        coupleAllocationWithPaths(g, cube, tm, 100.0, seed, rng, root);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.error.empty());
    EXPECT_EQ(res.accepted, 0);
}

// ---------------------------------------------------------------
// Schedule serialization.
// ---------------------------------------------------------------

TEST_F(ScheduleIoTest, RoundTripPreservesSchedule)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 13);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 1.5 * tm.tauC(g);
    const SrCompileResult r =
        compileScheduledRouting(g, cube, alloc, tm, cfg);
    ASSERT_TRUE(r.feasible);

    std::stringstream ss;
    writeSchedule(ss, r.omega);
    const GlobalSchedule back = readSchedule(ss, cube);

    EXPECT_DOUBLE_EQ(back.period, r.omega.period);
    ASSERT_EQ(back.segments.size(), r.omega.segments.size());
    for (std::size_t i = 0; i < back.segments.size(); ++i) {
        EXPECT_EQ(back.paths.pathFor(i), r.omega.paths.pathFor(i));
        ASSERT_EQ(back.segments[i].size(),
                  r.omega.segments[i].size());
        for (std::size_t s = 0; s < back.segments[i].size(); ++s)
            EXPECT_TRUE(back.segments[i][s] ==
                        r.omega.segments[i][s]);
    }

    // The reloaded schedule must still verify.
    const VerifyResult v =
        verifySchedule(g, cube, alloc, r.bounds, back);
    EXPECT_TRUE(v.ok);
}

TEST_F(ScheduleIoTest, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "not a schedule\n";
    const auto cube = GeneralizedHypercube::binaryCube(2);
    EXPECT_THROW(readSchedule(ss, cube), FatalError);
}

TEST_F(ScheduleIoTest, RejectsTruncatedFile)
{
    std::stringstream ss;
    ss << "srsim-schedule v1\nperiod 100\nmessages 2\n";
    const auto cube = GeneralizedHypercube::binaryCube(2);
    EXPECT_THROW(readSchedule(ss, cube), FatalError);
}

TEST_F(ScheduleIoTest, RejectsNonAdjacentPath)
{
    std::stringstream ss;
    ss << "srsim-schedule v1\n"
       << "period 100\n"
       << "messages 1\n"
       << "message 0 path 0 3\n" // 0 and 3 not adjacent in a 2-cube
       << "segments 1\n"
       << "  0 10\n"
       << "end\n";
    const auto cube = GeneralizedHypercube::binaryCube(2);
    // A bad file is user input, not an internal invariant: it must
    // fail loudly as a structured FatalError, never a panic/assert.
    EXPECT_THROW(readSchedule(ss, cube), FatalError);
}

} // namespace
} // namespace srsim
