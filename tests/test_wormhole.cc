/**
 * @file
 * Tests for the wormhole-routing simulator: FCFS link capture,
 * path-holding back-pressure, pipelined invocations, the Section-3
 * output-inconsistency claim, and deadlock detection.
 */

#include <gtest/gtest.h>

#include "engine_fixture.hh"
#include "mapping/allocation.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/mesh.hh"
#include "topology/torus.hh"
#include "wormhole/wormhole.hh"

namespace srsim {
namespace {

using WormholeTest = EngineTest;

/** Two tasks, one message, endpoints adjacent. */
struct SingleMessageFixture
{
    TaskFlowGraph g;
    TimingModel tm;

    SingleMessageFixture()
    {
        const TaskId a = g.addTask("a", 100.0);
        const TaskId b = g.addTask("b", 100.0);
        g.addMessage("ab", a, b, 640.0);
        tm.apSpeed = 10.0;   // tasks take 10 us
        tm.bandwidth = 64.0; // message takes 10 us
    }
};

TEST_F(WormholeTest, SingleMessageEndToEndTiming)
{
    SingleMessageFixture f;
    const auto cube = GeneralizedHypercube::binaryCube(3);
    TaskAllocation a(f.g.numTasks(), cube.numNodes());
    a.assign(0, 0);
    a.assign(1, 1);
    WormholeSimulator sim(f.g, cube, a, f.tm);
    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 100.0;
    cfg.invocations = 5;
    cfg.warmup = 1;
    const WormholeResult r = sim.run(cfg);
    ASSERT_FALSE(r.deadlocked);
    ASSERT_EQ(r.records.size(), 5u);
    // Invocation j: a [j*100, j*100+10], msg [.., +10], b [.., +10].
    for (const auto &rec : r.records) {
        EXPECT_DOUBLE_EQ(rec.latency(), 30.0);
        EXPECT_DOUBLE_EQ(rec.complete, rec.index * 100.0 + 30.0);
    }
    EXPECT_FALSE(r.outputInconsistent(cfg.warmup));
}

TEST_F(WormholeTest, CoLocatedMessageBypassesNetwork)
{
    SingleMessageFixture f;
    const auto cube = GeneralizedHypercube::binaryCube(3);
    TaskAllocation a(f.g.numTasks(), cube.numNodes());
    a.assign(0, 2);
    a.assign(1, 2);
    WormholeSimulator sim(f.g, cube, a, f.tm);
    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 100.0;
    cfg.invocations = 3;
    cfg.warmup = 1;
    const WormholeResult r = sim.run(cfg);
    ASSERT_FALSE(r.deadlocked);
    // No transmission time; but b shares the AP with a, so b runs
    // right after a: latency 20.
    EXPECT_DOUBLE_EQ(r.records[0].latency(), 20.0);
}

TEST_F(WormholeTest, MultiHopPathHeldForWholeTransmission)
{
    // Two messages whose LSD-to-MSD paths share the middle link.
    // M1: 0 -> 3 via 0-1-3; M2: 1 -> 7 via 1-3-7. They share link
    // 1-3, so FCFS serializes them.
    TaskFlowGraph g;
    const TaskId s1 = g.addTask("s1", 100.0);
    const TaskId s2 = g.addTask("s2", 100.0);
    const TaskId d1 = g.addTask("d1", 100.0);
    const TaskId d2 = g.addTask("d2", 100.0);
    g.addMessage("m1", s1, d1, 640.0); // 10 us
    g.addMessage("m2", s2, d2, 640.0); // 10 us
    TimingModel tm;
    tm.apSpeed = 10.0;
    tm.bandwidth = 64.0;

    const auto cube = GeneralizedHypercube::binaryCube(3);
    TaskAllocation a(g.numTasks(), cube.numNodes());
    a.assign(s1, 0);
    a.assign(d1, 3);
    a.assign(s2, 1);
    a.assign(d2, 7);
    WormholeSimulator sim(g, cube, a, tm);
    EXPECT_EQ(sim.pathOf(0).nodes, (std::vector<NodeId>{0, 1, 3}));
    EXPECT_EQ(sim.pathOf(1).nodes, (std::vector<NodeId>{1, 3, 7}));

    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 200.0;
    cfg.invocations = 3;
    cfg.warmup = 0;
    const WormholeResult r = sim.run(cfg);
    ASSERT_FALSE(r.deadlocked);
    // Both sources finish at t=10 and contend for link 1-3; one
    // message transmits [10,20], the other [20,30]; the slower
    // destination task ends at 40.
    EXPECT_DOUBLE_EQ(r.records[0].latency(), 40.0);
}

TEST_F(WormholeTest, SetPathValidatesEndpoints)
{
    SingleMessageFixture f;
    const auto cube = GeneralizedHypercube::binaryCube(3);
    TaskAllocation a(f.g.numTasks(), cube.numNodes());
    a.assign(0, 0);
    a.assign(1, 3);
    WormholeSimulator sim(f.g, cube, a, f.tm);
    EXPECT_THROW(sim.setPath(0, cube.makePath({0, 1})), FatalError);
    EXPECT_NO_THROW(sim.setPath(0, cube.makePath({0, 2, 3})));
    EXPECT_EQ(sim.pathOf(0).nodes, (std::vector<NodeId>{0, 2, 3}));
}

/**
 * The Section-3 claim: messages M1 (T1s -> T1d) and M2
 * (T2s -> T2d) with T1d preceding T2s, sharing a link, pipelined
 * with a period such that M2 of invocation j-1 still holds the
 * shared link when M1 of invocation j becomes ready. FCFS capture
 * then delays M1 in some invocations and not others: successive
 * outputs appear at unequal intervals (output inconsistency),
 * while the *average* interval still tracks the input period.
 */
class Section3Claim : public ::testing::TestWithParam<double>
{
  protected:
    /** A@0 --M1--> B@1 --M2--> C@0 on a 4-ring: M1 and M2 cross
     *  the same physical half-duplex link 0-1. */
    WormholeResult
    run(double tau_in, int invocations = 60, int warmup = 15)
    {
        TaskFlowGraph g;
        const TaskId A = g.addTask("A", 100.0);
        const TaskId B = g.addTask("B", 100.0);
        const TaskId C = g.addTask("C", 100.0);
        g.addMessage("M1", A, B, 3200.0); // 50 us at B = 64
        g.addMessage("M2", B, C, 3200.0); // 50 us
        TimingModel tm;
        tm.apSpeed = 10.0; // tasks take 10 us
        tm.bandwidth = 64.0;
        const Torus ring({4});
        TaskAllocation a(3, 4);
        a.assign(A, 0);
        a.assign(B, 1);
        a.assign(C, 0);
        WormholeSimulator sim(g, ring, a, tm);
        WormholeConfig cfg{.ctx = &root};
        cfg.inputPeriod = tau_in;
        cfg.invocations = invocations;
        cfg.warmup = warmup;
        warmup_ = warmup;
        return sim.run(cfg);
    }
    int warmup_ = 0;
    engine::EngineContext root;
};

TEST_P(Section3Claim, SharedLinkCausesOutputInconsistency)
{
    const double tau_in = GetParam();
    const WormholeResult r = run(tau_in);
    ASSERT_FALSE(r.deadlocked);
    EXPECT_TRUE(r.outputInconsistent(warmup_));
    const SeriesStats s = r.outputIntervals(warmup_);
    // Alternating delay: spikes well away from the mean...
    EXPECT_GT(s.spread(), 10.0);
    // ...but no unbounded accumulation: the mean interval tracks
    // the input period.
    EXPECT_NEAR(s.mean(), tau_in, 0.05 * tau_in);
}

INSTANTIATE_TEST_SUITE_P(Periods, Section3Claim,
                         ::testing::Values(101.0, 104.0, 107.0,
                                           109.0));

TEST_F(WormholeTest, LargePeriodRemovesInterInvocationContention)
{
    // Same scenario, but tau_in so large that invocations never
    // overlap: output intervals become constant.
    TaskFlowGraph g;
    const TaskId A = g.addTask("A", 100.0);
    const TaskId B = g.addTask("B", 100.0);
    const TaskId C = g.addTask("C", 100.0);
    g.addMessage("M1", A, B, 3200.0);
    g.addMessage("M2", B, C, 3200.0);
    TimingModel tm;
    tm.apSpeed = 10.0;
    tm.bandwidth = 64.0;
    const Torus ring({4});
    TaskAllocation a(3, 4);
    a.assign(A, 0);
    a.assign(B, 1);
    a.assign(C, 0);
    WormholeSimulator sim(g, ring, a, tm);
    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 500.0;
    cfg.invocations = 20;
    cfg.warmup = 4;
    const WormholeResult r = sim.run(cfg);
    ASSERT_FALSE(r.deadlocked);
    EXPECT_FALSE(r.outputInconsistent(cfg.warmup));
}

TEST_F(WormholeTest, DeadlockDetectedOnCyclicHoldAndWait)
{
    // On a 6-ring, a blocker message occupies link 2-3 while mB
    // (1 -> 4, route 1-2-3-4) holds links 1-2 and 2-3's queue and
    // mA (4 -> 2, route 4-3-2) holds link 3-4 and queues on 2-3.
    // When the blocker releases, mB takes 2-3 and needs 3-4 (held
    // by mA) while mA needs 2-3 (now held by mB): a wait-for
    // cycle.
    TaskFlowGraph g;
    const TaskId blk_s = g.addTask("blk_s", 80.0);   // ends t=8
    const TaskId blk_d = g.addTask("blk_d", 10.0);
    const TaskId mb_s = g.addTask("mb_s", 100.0);    // ends t=10
    const TaskId mb_d = g.addTask("mb_d", 10.0);
    const TaskId ma_s = g.addTask("ma_s", 120.0);    // ends t=12
    const TaskId ma_d = g.addTask("ma_d", 10.0);
    g.addMessage("blk", blk_s, blk_d, 640.0); // 10 us
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
    // Route checks: mB ties at half-ring and takes 1-2-3-4; mA
    // takes the short way 4-3-2.
    ASSERT_EQ(sim.pathOf(1).nodes, (std::vector<NodeId>{1, 2, 3, 4}));
    ASSERT_EQ(sim.pathOf(2).nodes, (std::vector<NodeId>{4, 3, 2}));

    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 1000.0;
    cfg.invocations = 2;
    cfg.warmup = 0;
    const WormholeResult r = sim.run(cfg);
    EXPECT_TRUE(r.deadlocked);
    EXPECT_NE(r.deadlockInfo.find("cycle"), std::string::npos)
        << r.deadlockInfo;
    EXPECT_TRUE(r.outputInconsistent(cfg.warmup));
}

TEST_F(WormholeTest, ApQueuesSuccessiveInvocations)
{
    // One task only; invocations arrive faster than downstream
    // work would allow if the task were slower than the period --
    // here equal, so completions are exactly periodic.
    TaskFlowGraph g;
    g.addTask("only", 100.0);
    TimingModel tm;
    tm.apSpeed = 10.0; // 10 us per invocation
    const auto cube = GeneralizedHypercube::binaryCube(2);
    TaskAllocation a(1, cube.numNodes());
    a.assign(0, 0);
    WormholeSimulator sim(g, cube, a, tm);
    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 10.0; // == task time
    cfg.invocations = 10;
    cfg.warmup = 2;
    const WormholeResult r = sim.run(cfg);
    ASSERT_FALSE(r.deadlocked);
    EXPECT_FALSE(r.outputInconsistent(cfg.warmup));
    EXPECT_DOUBLE_EQ(r.records.back().complete, 9 * 10.0 + 10.0);
}

TEST_F(WormholeTest, ConfigValidation)
{
    SingleMessageFixture f;
    const auto cube = GeneralizedHypercube::binaryCube(3);
    TaskAllocation a(f.g.numTasks(), cube.numNodes());
    a.assign(0, 0);
    a.assign(1, 1);
    WormholeSimulator sim(f.g, cube, a, f.tm);
    WormholeConfig bad{.ctx = &root};
    bad.inputPeriod = 0.0;
    EXPECT_THROW(sim.run(bad), FatalError);
    bad.inputPeriod = 10.0;
    bad.invocations = 5;
    bad.warmup = 5;
    EXPECT_THROW(sim.run(bad), FatalError);
}

TEST_F(WormholeTest, IncompleteAllocationIsFatal)
{
    SingleMessageFixture f;
    const auto cube = GeneralizedHypercube::binaryCube(3);
    TaskAllocation a(f.g.numTasks(), cube.numNodes());
    a.assign(0, 0); // task 1 unassigned
    EXPECT_THROW(WormholeSimulator(f.g, cube, a, f.tm), FatalError);
}

} // namespace
} // namespace srsim
