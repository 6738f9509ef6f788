/**
 * @file
 * Tests for the progressive-filling (fair-share) virtual-channel
 * wormhole model: with flit-level multiplexing, the bandwidth of a
 * link is split evenly among the messages currently crossing it,
 * and a message's rate is set by its most-contended link. Unlike
 * the static model (bandwidth divided by the channel count
 * unconditionally), an uncontended message still runs at full
 * bandwidth.
 */

#include <gtest/gtest.h>

#include "engine_fixture.hh"
#include "mapping/allocation.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"
#include "wormhole/wormhole.hh"

namespace srsim {
namespace {

using FairShareTest = EngineTest;

TEST_F(FairShareTest, UncontendedMessageKeepsFullBandwidth)
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
    cfg.invocations = 3;
    cfg.warmup = 0;
    cfg.virtualChannels = 2;
    cfg.fairShare = true;

    const WormholeResult r = sim.run(cfg);
    ASSERT_FALSE(r.deadlocked);
    // Static model would give 40 (halved bandwidth); fair sharing
    // keeps the lone message at full rate: 10 + 10 + 10.
    EXPECT_NEAR(r.records[0].latency(), 30.0, 1e-6);
}

TEST_F(FairShareTest, TwoSharersSplitTheLink)
{
    // m1: 0 -> 1 and m2: 3 -> 0 -> 1 share link 0-1 from t=10
    // (sources on different nodes so both inject simultaneously);
    // 640 bytes each at B/2 apiece completes together at t=30.
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
    a.assign(1, 3); // s2 on its own node: injects at t=10 too
    a.assign(2, 1);
    a.assign(3, 1);
    WormholeSimulator sim(g, ring, a, tm);
    ASSERT_EQ(sim.pathOf(1).nodes, (std::vector<NodeId>{3, 0, 1}));
    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 200.0;
    cfg.invocations = 3;
    cfg.warmup = 0;
    cfg.virtualChannels = 2;
    cfg.fairShare = true;
    const WormholeResult r = sim.run(cfg);
    ASSERT_FALSE(r.deadlocked);
    // Both arrive at t=30; the shared destination AP serializes
    // d1 [30,40], d2 [40,50].
    EXPECT_NEAR(r.records[0].latency(), 50.0, 1e-6);
}

TEST_F(FairShareTest, RateRecomputedWhenASharerLeaves)
{
    // m1 (0 -> 1, 960 B) and m2 (3 -> 0 -> 1, 320 B) share link
    // 0-1 from t=10.
    //  [10, 20): both at 32 B/us -> m2 done at t=20 (320 B),
    //            m1 has moved 320 of 960.
    //  [20, 30): m1 alone at 64 B/us -> remaining 640 B done at 30.
    TaskFlowGraph g;
    const TaskId s1 = g.addTask("s1", 100.0);
    const TaskId s2 = g.addTask("s2", 100.0);
    const TaskId d1 = g.addTask("d1", 100.0);
    const TaskId d2 = g.addTask("d2", 100.0);
    g.addMessage("m1", s1, d1, 960.0);
    g.addMessage("m2", s2, d2, 320.0);
    TimingModel tm;
    tm.apSpeed = 10.0;
    tm.bandwidth = 64.0;
    const Torus ring({4});
    TaskAllocation a(4, 4);
    a.assign(0, 0);
    a.assign(1, 3); // s2 on its own node
    a.assign(2, 1);
    a.assign(3, 1);
    WormholeSimulator sim(g, ring, a, tm);
    ASSERT_EQ(sim.pathOf(1).nodes, (std::vector<NodeId>{3, 0, 1}));
    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 500.0;
    cfg.invocations = 2;
    cfg.warmup = 0;
    cfg.virtualChannels = 2;
    cfg.fairShare = true;
    const WormholeResult r = sim.run(cfg);
    ASSERT_FALSE(r.deadlocked);
    // m2 delivered at 20: d2 runs [20, 30] on node 1's AP; m1
    // delivered at 30: d1 runs [30, 40]. Completion = 40.
    EXPECT_NEAR(r.records[0].latency(), 40.0, 1e-6);
}

TEST_F(FairShareTest, ThroughputConservedUnderSaturation)
{
    // The Sec. 3 scenario under fair sharing with the shared link
    // near saturation: whatever the contention pattern, the mean
    // output interval must track the input period (no unbounded
    // accumulation).
    TaskFlowGraph g;
    const TaskId A = g.addTask("A", 500.0);
    const TaskId B = g.addTask("B", 500.0);
    const TaskId C = g.addTask("C", 500.0);
    g.addMessage("M1", A, B, 3200.0);
    g.addMessage("M2", B, C, 3200.0);
    TimingModel tm;
    tm.apSpeed = 10.0;    // 50 us tasks; node 0 runs A and C
    tm.bandwidth = 128.0; // 25 us messages
    const Torus ring({4});
    TaskAllocation a(3, 4);
    a.assign(A, 0);
    a.assign(B, 1);
    a.assign(C, 0);
    WormholeSimulator sim(g, ring, a, tm);
    WormholeConfig cfg{.ctx = &root};
    // Node 0's AP carries 100 us of work per period and the shared
    // link 50 us, so 104 us is just above saturation.
    cfg.inputPeriod = 104.0;
    cfg.invocations = 50;
    cfg.warmup = 10;
    cfg.virtualChannels = 2;
    cfg.fairShare = true;
    const WormholeResult r = sim.run(cfg);
    ASSERT_FALSE(r.deadlocked);
    const SeriesStats s = r.outputIntervals(cfg.warmup);
    // Mean interval still tracks the input period (no unbounded
    // queueing): demand on the shared link is 50 us per 55 us.
    EXPECT_NEAR(s.mean(), cfg.inputPeriod,
                0.1 * cfg.inputPeriod);
}

TEST_F(FairShareTest, FairShareRequiresMultipleChannels)
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
    cfg.virtualChannels = 1;
    cfg.fairShare = true; // meaningless without VCs
    EXPECT_THROW(sim.run(cfg), FatalError);
}

} // namespace
} // namespace srsim
