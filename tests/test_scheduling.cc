/**
 * @file
 * Tests for message-interval allocation (Sec. 5.2), interval
 * scheduling via link-feasible sets (Sec. 5.3), and the node
 * switching-schedule derivation (Sec. 5.4).
 */

#include <algorithm>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "core/interval_allocation.hh"
#include "core/interval_scheduling.hh"
#include "core/schedule.hh"
#include "engine_fixture.hh"
#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"

namespace srsim {
namespace {

using FeasibleSetsTest = EngineTest;
using IntervalAllocationTest = EngineTest;
using NodeScheduleTest = EngineTest;
using IntervalSchedulingTest = EngineTest;

/** Shared pipeline pieces for a mapped TFG at one period. */
struct Pipeline
{
    TaskFlowGraph g;
    TimingModel tm;
    std::unique_ptr<Topology> topo;
    std::unique_ptr<TaskAllocation> alloc;
    std::unique_ptr<TimeBounds> bounds;
    std::unique_ptr<IntervalSet> ivs;
    PathAssignment pa;
    std::vector<MessageSubset> subsets;
    /** Interval-scheduling defaults under the pipeline's context. */
    IntervalSchedulingOptions sched;

    void
    finish(Time period, const engine::EngineContext &ctx)
    {
        bounds = std::make_unique<TimeBounds>(
            computeTimeBounds(g, *alloc, tm, period));
        ivs = std::make_unique<IntervalSet>(*bounds);
        AssignPathsOptions opts{.ctx = &ctx};
        const AssignPathsResult r =
            assignPaths(g, *topo, *alloc, *bounds, *ivs, opts);
        pa = r.assignment;
        subsets = computeMaximalSubsets(*bounds, *ivs, pa);
        sched.ctx = &ctx;
    }

    /** Sec. 5.2 allocation of the pipeline's subsets. */
    IntervalAllocation
    allocate(AllocationMethod method = AllocationMethod::Lp) const
    {
        return allocateMessageIntervals(*bounds, *ivs, pa, subsets,
                                        method, 0.0, 0.0, nullptr,
                                        nullptr, sched.ctx);
    }
};

/** Two same-window messages 0 -> 3 on a 2-cube. */
Pipeline
contendedPair(const engine::EngineContext &ctx, Time period,
              double bytes = 384.0)
{
    Pipeline p;
    const TaskId s1 = p.g.addTask("s1", 100.0);
    const TaskId s2 = p.g.addTask("s2", 100.0);
    const TaskId d1 = p.g.addTask("d1", 100.0);
    const TaskId d2 = p.g.addTask("d2", 100.0);
    p.g.addMessage("m1", s1, d1, bytes);
    p.g.addMessage("m2", s2, d2, bytes);
    p.tm.apSpeed = 10.0; // tau_c = 10
    p.tm.bandwidth = 64.0;
    p.topo = std::make_unique<GeneralizedHypercube>(
        GeneralizedHypercube::binaryCube(2));
    p.alloc = std::make_unique<TaskAllocation>(4, 4);
    p.alloc->assign(0, 0);
    p.alloc->assign(1, 0);
    p.alloc->assign(2, 3);
    p.alloc->assign(3, 3);
    p.finish(period, ctx);
    return p;
}

/** The DVB pipeline mapped on a fabric at a load factor. */
Pipeline
dvbPipeline(const engine::EngineContext &ctx, double periodFactor,
            double bandwidth)
{
    Pipeline p;
    DvbParams dp;
    p.g = buildDvbTfg(dp);
    p.tm.apSpeed = dp.matchedApSpeed();
    p.tm.bandwidth = bandwidth;
    p.topo = std::make_unique<GeneralizedHypercube>(
        GeneralizedHypercube::binaryCube(6));
    p.alloc = std::make_unique<TaskAllocation>(
        alloc::roundRobin(p.g, *p.topo, 13));
    p.finish(periodFactor * p.tm.tauC(p.g), ctx);
    return p;
}

TEST_F(IntervalAllocationTest, TotalAllocationEqualsDuration)
{
    Pipeline p = contendedPair(root, 40.0);
    const IntervalAllocation ia = p.allocate();
    ASSERT_TRUE(ia.feasible);
    for (std::size_t i = 0; i < p.bounds->messages.size(); ++i) {
        EXPECT_NEAR(ia.allocation.rowSum(i),
                    p.bounds->messages[i].duration, 1e-6);
        for (std::size_t k = 0; k < p.ivs->size(); ++k) {
            if (!p.ivs->active(i, k)) {
                EXPECT_NEAR(ia.allocation.at(i, k), 0.0, 1e-9);
            }
        }
    }
}

TEST_F(IntervalAllocationTest, LinkCapacityConstraintHolds)
{
    Pipeline p = contendedPair(root, 40.0);
    const IntervalAllocation ia = p.allocate();
    ASSERT_TRUE(ia.feasible);
    // (4): per (link, interval), total allocation of messages using
    // the link fits the interval.
    for (LinkId l = 0; l < p.topo->numLinks(); ++l) {
        for (std::size_t k = 0; k < p.ivs->size(); ++k) {
            Time sum = 0.0;
            for (std::size_t i = 0; i < p.bounds->messages.size();
                 ++i) {
                const auto &links = p.pa.pathFor(i).links;
                if (std::find(links.begin(), links.end(), l) !=
                    links.end())
                    sum += ia.allocation.at(i, k);
            }
            EXPECT_LE(sum, p.ivs->interval(k).length() + 1e-6);
        }
    }
    EXPECT_LE(ia.peakLoad, 1.0 + 1e-6);
}

TEST_F(IntervalAllocationTest, OverloadedLinkInfeasible)
{
    // Three no-slack (10 us) messages forced through one 2-node
    // fabric link inside one 10 us window: 30 us of demand, 10 us
    // of capacity.
    Pipeline p;
    for (int i = 0; i < 3; ++i) {
        const TaskId s =
            p.g.addTask("s" + std::to_string(i), 100.0);
        const TaskId d =
            p.g.addTask("d" + std::to_string(i), 100.0);
        p.g.addMessage("m" + std::to_string(i), s, d, 640.0);
    }
    p.tm.apSpeed = 10.0;
    p.tm.bandwidth = 64.0;
    p.topo = std::make_unique<GeneralizedHypercube>(
        GeneralizedHypercube::binaryCube(1));
    p.alloc = std::make_unique<TaskAllocation>(6, 2);
    for (int i = 0; i < 3; ++i) {
        p.alloc->assign(2 * i, 0);
        p.alloc->assign(2 * i + 1, 1);
    }
    p.finish(60.0, root);
    const IntervalAllocation ia = p.allocate();
    EXPECT_FALSE(ia.feasible);
    EXPECT_GE(ia.failedSubset, 0);
}

TEST_F(IntervalAllocationTest, GreedyAgreesOnEasyInstances)
{
    Pipeline p = contendedPair(root, 40.0);
    const IntervalAllocation greedy = p.allocate(AllocationMethod::Greedy);
    ASSERT_TRUE(greedy.feasible);
    for (std::size_t i = 0; i < p.bounds->messages.size(); ++i)
        EXPECT_NEAR(greedy.allocation.rowSum(i),
                    p.bounds->messages[i].duration, 1e-6);
}

TEST_F(FeasibleSetsTest, PairwiseLinkDisjointAndMaximal)
{
    Pipeline p = dvbPipeline(root, 2.0, 128.0);
    // Pick the busiest interval of the largest subset.
    const MessageSubset *sub = &p.subsets[0];
    for (const auto &s : p.subsets)
        if (s.members.size() > sub->members.size())
            sub = &s;
    const auto sets = maximalLinkFeasibleSets(sub->members, p.pa);
    ASSERT_FALSE(sets.empty());

    auto share_link = [&](std::size_t a, std::size_t b) {
        const auto &la = p.pa.pathFor(a).links;
        const auto &lb = p.pa.pathFor(b).links;
        for (LinkId l : la)
            if (std::find(lb.begin(), lb.end(), l) != lb.end())
                return true;
        return false;
    };

    for (const auto &set : sets) {
        // Link-feasible: no two members share a link (Def. 5.5).
        for (std::size_t i = 0; i < set.size(); ++i)
            for (std::size_t j = i + 1; j < set.size(); ++j)
                EXPECT_FALSE(share_link(set[i], set[j]));
        // Maximal: no outside member can be added.
        for (std::size_t m : sub->members) {
            if (std::find(set.begin(), set.end(), m) != set.end())
                continue;
            bool compatible = true;
            for (std::size_t s : set)
                compatible = compatible && !share_link(m, s);
            EXPECT_FALSE(compatible)
                << "set missing compatible member " << m;
        }
    }

    // Every member appears in at least one set.
    for (std::size_t m : sub->members) {
        bool found = false;
        for (const auto &set : sets)
            found = found ||
                    std::find(set.begin(), set.end(), m) != set.end();
        EXPECT_TRUE(found);
    }
}

TEST_F(IntervalSchedulingTest, SegmentsMatchAllocations)
{
    Pipeline p = contendedPair(root, 40.0);
    const IntervalAllocation ia = p.allocate();
    ASSERT_TRUE(ia.feasible);
    const IntervalScheduleResult sr = scheduleIntervals(
        *p.bounds, *p.ivs, p.pa, p.subsets, ia, p.sched);
    ASSERT_TRUE(sr.feasible);
    for (std::size_t i = 0; i < p.bounds->messages.size(); ++i) {
        Time total = 0.0;
        for (const TimeWindow &w : sr.segments[i])
            total += w.length();
        EXPECT_NEAR(total, p.bounds->messages[i].duration, 1e-6);
    }
}

TEST_F(IntervalSchedulingTest, NoLinkCarriesTwoMessagesAtOnce)
{
    Pipeline p = dvbPipeline(root, 2.0, 128.0);
    const IntervalAllocation ia = p.allocate();
    ASSERT_TRUE(ia.feasible);
    const IntervalScheduleResult sr = scheduleIntervals(
        *p.bounds, *p.ivs, p.pa, p.subsets, ia, p.sched);
    ASSERT_TRUE(sr.feasible);

    for (LinkId l = 0; l < p.topo->numLinks(); ++l) {
        std::vector<TimeWindow> wins;
        for (std::size_t i = 0; i < p.bounds->messages.size();
             ++i) {
            const auto &links = p.pa.pathFor(i).links;
            if (std::find(links.begin(), links.end(), l) ==
                links.end())
                continue;
            wins.insert(wins.end(), sr.segments[i].begin(),
                        sr.segments[i].end());
        }
        std::sort(wins.begin(), wins.end(),
                  [](const TimeWindow &a, const TimeWindow &b) {
                      return a.start < b.start;
                  });
        for (std::size_t w = 1; w < wins.size(); ++w)
            EXPECT_TRUE(timeLe(wins[w - 1].end, wins[w].start));
    }
}

TEST_F(IntervalSchedulingTest, SegmentsRespectTimeBounds)
{
    Pipeline p = dvbPipeline(root, 1.5, 128.0);
    const IntervalAllocation ia = p.allocate();
    ASSERT_TRUE(ia.feasible);
    const IntervalScheduleResult sr = scheduleIntervals(
        *p.bounds, *p.ivs, p.pa, p.subsets, ia, p.sched);
    ASSERT_TRUE(sr.feasible);
    for (std::size_t i = 0; i < p.bounds->messages.size(); ++i) {
        for (const TimeWindow &w : sr.segments[i]) {
            bool inside = false;
            for (const TimeWindow &win :
                 p.bounds->messages[i].windows)
                inside = inside || win.covers(w.start, w.end);
            EXPECT_TRUE(inside)
                << "segment outside bounds for message " << i;
        }
    }
}

TEST_F(IntervalSchedulingTest, GreedyFallbackAlsoValid)
{
    Pipeline p = contendedPair(root, 40.0);
    const IntervalAllocation ia = p.allocate();
    ASSERT_TRUE(ia.feasible);
    IntervalSchedulingOptions opts{.ctx = &root};
    opts.method = SchedulingMethod::ListScheduling;
    const IntervalScheduleResult sr = scheduleIntervals(
        *p.bounds, *p.ivs, p.pa, p.subsets, ia, opts);
    ASSERT_TRUE(sr.feasible);
    for (std::size_t i = 0; i < p.bounds->messages.size(); ++i) {
        Time total = 0.0;
        for (const TimeWindow &w : sr.segments[i])
            total += w.length();
        EXPECT_NEAR(total, p.bounds->messages[i].duration, 1e-6);
    }
}

TEST_F(IntervalSchedulingTest, OverfullIntervalReported)
{
    // Two no-slack messages that must share the only link: the
    // allocation stage already fails; drive the scheduler directly
    // with a hand-made (overfull) allocation to exercise its own
    // failure path.
    Pipeline p = contendedPair(root, 40.0, 640.0); // 10 us each
    // Force both on the same path (binary 2-cube: 0-1-3).
    auto *cube =
        dynamic_cast<GeneralizedHypercube *>(p.topo.get());
    p.pa.paths[0] = cube->makePath({0, 1, 3});
    p.pa.paths[1] = cube->makePath({0, 1, 3});
    p.subsets = computeMaximalSubsets(*p.bounds, *p.ivs, p.pa);

    IntervalAllocation ia;
    ia.feasible = true;
    ia.allocation =
        Matrix<Time>(p.bounds->messages.size(), p.ivs->size(), 0.0);
    const std::size_t k =
        p.ivs->intervalAt(p.bounds->messages[0].release);
    ia.allocation.at(0, k) = 10.0;
    ia.allocation.at(1, k) = 10.0; // 20 us into a 10 us interval
    const IntervalScheduleResult sr = scheduleIntervals(
        *p.bounds, *p.ivs, p.pa, p.subsets, ia, p.sched);
    EXPECT_FALSE(sr.feasible);
    EXPECT_EQ(sr.failedInterval, static_cast<int>(k));
    EXPECT_GT(sr.overrun, 1e-6);
}

TEST_F(NodeScheduleTest, CommandsWirePortsAlongThePath)
{
    Pipeline p = contendedPair(root, 40.0);
    const IntervalAllocation ia = p.allocate();
    const IntervalScheduleResult sr = scheduleIntervals(
        *p.bounds, *p.ivs, p.pa, p.subsets, ia, p.sched);
    ASSERT_TRUE(sr.feasible);
    GlobalSchedule omega;
    omega.period = p.bounds->inputPeriod;
    omega.segments = sr.segments;
    omega.paths = p.pa;

    const auto nodes = deriveNodeSchedules(p.g, *p.topo, *p.alloc,
                                           *p.bounds, omega);
    ASSERT_EQ(nodes.size(),
              static_cast<std::size_t>(p.topo->numNodes()));

    // Source node commands start at the AP buffer; destination
    // commands end at it; intermediate nodes connect link to link.
    for (std::size_t i = 0; i < p.bounds->messages.size(); ++i) {
        const Path &path = p.pa.pathFor(i);
        const MessageId mid = p.bounds->messages[i].msg;
        const std::size_t nsegs = sr.segments[i].size();
        std::size_t seen = 0;
        for (const NodeSchedule &ns : nodes) {
            for (const SwitchCommand &c : ns.commands) {
                if (c.msg != mid)
                    continue;
                ++seen;
                if (ns.node == path.source()) {
                    EXPECT_EQ(c.in.kind, PortRef::Kind::ApBuffer);
                }
                if (ns.node == path.destination()) {
                    EXPECT_EQ(c.out.kind, PortRef::Kind::ApBuffer);
                }
            }
        }
        // One command per path node per segment.
        EXPECT_EQ(seen, nsegs * path.nodes.size());
    }
}

} // namespace
} // namespace srsim
