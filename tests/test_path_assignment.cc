/**
 * @file
 * Tests for utilization analysis (Defs. 5.1/5.2) and the
 * AssignPaths heuristic (Fig. 4), plus the maximal related-subset
 * decomposition (Defs. 5.3/5.4).
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/intervals.hh"
#include "core/path_assignment.hh"
#include "core/subsets.hh"
#include "core/time_bounds.hh"
#include "engine_fixture.hh"
#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "topology/factory.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace srsim {

void
PrintTo(const PeakPosition &p, std::ostream *os)
{
    *os << (p.isSpot ? "spot" : "link") << " #" << p.link;
    if (p.isSpot)
        *os << " interval " << p.interval;
}

namespace {

/** AssignPaths' default options, run under `ctx`. */
AssignPathsOptions
defaultsUnder(const engine::EngineContext &ctx)
{
    AssignPathsOptions opts{.ctx = &ctx};
    return opts;
}

using SubsetsTest = EngineTest;
using AssignPathsTest = EngineTest;

/**
 * Two parallel messages released together, both 0 -> 3 on a
 * 2-cube: forcing them onto one path overloads it; splitting onto
 * the two disjoint minimal paths balances it.
 */
struct ParallelFixture
{
    TaskFlowGraph g;
    GeneralizedHypercube cube = GeneralizedHypercube::binaryCube(2);
    TimingModel tm;
    TaskAllocation alloc{4, 4};

    ParallelFixture()
    {
        const TaskId s1 = g.addTask("s1", 100.0);
        const TaskId s2 = g.addTask("s2", 100.0);
        const TaskId d1 = g.addTask("d1", 100.0);
        const TaskId d2 = g.addTask("d2", 100.0);
        g.addMessage("m1", s1, d1, 384.0); // 6 us
        g.addMessage("m2", s2, d2, 384.0); // 6 us
        tm.apSpeed = 10.0;   // tau_c = 10
        tm.bandwidth = 64.0;
        alloc.assign(0, 0);
        alloc.assign(1, 0);
        alloc.assign(2, 3);
        alloc.assign(3, 3);
    }
};

TEST(UtilizationTest, LinkUtilizationDefinition)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    UtilizationAnalyzer ua(tb, ivs, f.cube);

    // Both messages on the same path 0-1-3.
    PathAssignment pa;
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    // Each link carries 12 us of demand inside a 10 us window.
    const LinkId l01 = f.cube.linkBetween(0, 1);
    EXPECT_NEAR(ua.linkUtilization(pa, l01), 1.2, 1e-9);
    const UtilizationReport rep = ua.analyze(pa);
    EXPECT_NEAR(rep.peak, 1.2, 1e-9);
    EXPECT_FALSE(rep.position.isSpot);

    // Split onto disjoint paths: 6/10 per link.
    pa.paths[1] = f.cube.makePath({0, 2, 3});
    EXPECT_NEAR(ua.linkUtilization(pa, l01), 0.6, 1e-9);
    EXPECT_NEAR(ua.analyze(pa).peak, 0.6, 1e-9);
}

TEST(UtilizationTest, SpotUtilizationCountsNoSlackMessages)
{
    // Make the two messages no-slack: duration == tau_c.
    ParallelFixture f;
    TaskFlowGraph g2;
    const TaskId s1 = g2.addTask("s1", 100.0);
    const TaskId s2 = g2.addTask("s2", 100.0);
    const TaskId d1 = g2.addTask("d1", 100.0);
    const TaskId d2 = g2.addTask("d2", 100.0);
    g2.addMessage("m1", s1, d1, 640.0); // 10 us == tau_c
    g2.addMessage("m2", s2, d2, 640.0);
    const TimeBounds tb = computeTimeBounds(g2, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    UtilizationAnalyzer ua(tb, ivs, f.cube);

    PathAssignment pa;
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    const LinkId l01 = f.cube.linkBetween(0, 1);
    const std::size_t k = ivs.intervalAt(tb.messages[0].release);
    EXPECT_DOUBLE_EQ(ua.spotUtilization(pa, l01, k), 2.0);
    const UtilizationReport rep = ua.analyze(pa);
    // Both the link ratio (20 us demand / 10 us window) and the
    // hot-spot count are 2.0 here; the peak must report it either
    // way.
    EXPECT_DOUBLE_EQ(rep.peak, 2.0);

    // Disjoint paths: one no-slack message per spot is *not*
    // contention, so the peak is the link ratio (10/10 = 1).
    pa.paths[1] = f.cube.makePath({0, 2, 3});
    EXPECT_DOUBLE_EQ(ua.spotUtilization(pa, l01, k), 1.0);
    EXPECT_NEAR(ua.analyze(pa).peak, 1.0, 1e-9);
}

TEST(UtilizationTest, UnusedLinkHasZeroUtilization)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    UtilizationAnalyzer ua(tb, ivs, f.cube);
    PathAssignment pa;
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    const LinkId l23 = f.cube.linkBetween(2, 3);
    EXPECT_DOUBLE_EQ(ua.linkUtilization(pa, l23), 0.0);
}

/** What the reference scan computes: the peak and every link's U. */
struct ReferenceScan
{
    UtilizationReport report;
    std::vector<double> linkU;
};

/**
 * The whole-assignment scan of Defs. 5.1/5.2 as a plain loop, kept
 * independent of LinkLoadState: links are visited in first-touch
 * order (message index, then position in the route), each link's
 * ratio before its spots, and only a strictly higher value moves the
 * peak.
 */
ReferenceScan
referenceAnalyze(const TimeBounds &tb, const IntervalSet &ivs,
                 const Topology &topo, const PathAssignment &pa)
{
    const std::size_t nl = static_cast<std::size_t>(topo.numLinks());
    const std::size_t kk = ivs.size();
    std::vector<double> demand(nl, 0.0);
    std::vector<char> used(nl * kk, 0);
    std::vector<int> spot(nl * kk, 0);
    std::vector<LinkId> touched;
    for (std::size_t i = 0; i < pa.paths.size(); ++i) {
        for (LinkId l : pa.paths[i].links) {
            const std::size_t lj = static_cast<std::size_t>(l);
            if (demand[lj] == 0.0)
                touched.push_back(l);
            demand[lj] += tb.messages[i].duration;
            for (std::size_t k : ivs.activeIntervals(i)) {
                used[lj * kk + k] = 1;
                if (tb.messages[i].noSlack())
                    ++spot[lj * kk + k];
            }
        }
    }
    ReferenceScan out;
    out.linkU.assign(nl, 0.0);
    UtilizationReport &rep = out.report;
    for (LinkId j : touched) {
        const std::size_t lj = static_cast<std::size_t>(j);
        double avail = 0.0;
        for (std::size_t k = 0; k < kk; ++k)
            if (used[lj * kk + k])
                avail += ivs.interval(k).length();
        avail *= topo.linkCapacity(j);
        const double u =
            avail > 0.0 ? demand[lj] / avail
                        : (demand[lj] > 0.0
                               ? std::numeric_limits<double>::infinity()
                               : 0.0);
        out.linkU[lj] = u;
        if (u > rep.peak) {
            rep.peak = u;
            rep.position = PeakPosition{false, j, 0};
        }
        for (std::size_t k = 0; k < kk; ++k) {
            const double s = static_cast<double>(spot[lj * kk + k]);
            if (s > 1.0 && s > rep.peak) {
                rep.peak = s;
                rep.position = PeakPosition{true, j, k};
            }
        }
    }
    return out;
}

/** The state, analyze() and the reference agree bit for bit. */
void
expectSameReport(const LinkLoadState &load,
                 const UtilizationAnalyzer &ua, const Topology &topo,
                 const PathAssignment &pa, const std::string &where)
{
    const UtilizationReport got = load.report();
    const UtilizationReport fresh = ua.analyze(pa);
    const UtilizationReport ref =
        referenceAnalyze(ua.bounds(), ua.intervals(), topo, pa).report;
    EXPECT_EQ(got.peak, ref.peak) << where;
    EXPECT_EQ(got.position, ref.position) << where;
    EXPECT_EQ(fresh.peak, ref.peak) << where;
    EXPECT_EQ(fresh.position, ref.position) << where;
}

/** Ascending message indices whose route in `pa` crosses link l. */
std::vector<std::size_t>
crossing(const PathAssignment &pa, LinkId l)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < pa.paths.size(); ++i) {
        const auto &links = pa.paths[i].links;
        if (std::find(links.begin(), links.end(), l) != links.end())
            out.push_back(i);
    }
    return out;
}

/**
 * Twenty chains s -> m -> t placed at random on `topo`: every first
 * message and every other second message is no-slack (tau_m ==
 * tau_c = 10 us at 64 B/us), and the two stages are active in
 * different intervals, so a hot-spot can outrank its link's ratio.
 */
struct HotSpotWorkload
{
    TaskFlowGraph g;
    TimingModel tm;
    TaskAllocation alloc;

    explicit HotSpotWorkload(const Topology &topo)
        : alloc(60, topo.numNodes())
    {
        tm.apSpeed = 10.0;
        tm.bandwidth = 64.0;
        Rng rng(77);
        const auto other = [&](NodeId n) {
            NodeId o = n;
            while (o == n)
                o = static_cast<NodeId>(
                    rng.index(static_cast<std::size_t>(topo.numNodes())));
            return o;
        };
        for (int c = 0; c < 20; ++c) {
            const std::string n = std::to_string(c);
            const TaskId s = g.addTask("s" + n, 100.0);
            const TaskId m = g.addTask("m" + n, 100.0);
            const TaskId t = g.addTask("t" + n, 100.0);
            g.addMessage("x" + n, s, m, 640.0);
            g.addMessage("y" + n, m, t, c % 2 ? 640.0 : 384.0);
            const NodeId ns = other(kInvalidNode);
            const NodeId nm = other(ns);
            alloc.assign(s, ns);
            alloc.assign(m, nm);
            alloc.assign(t, other(nm));
        }
    }
};

/**
 * Differential: random starts and random single-message moves.
 * After every move the incremental state must report exactly what a
 * from-scratch analysis of the same assignment reports. One link is
 * derated throughout; the last round also fails one link (capacity
 * 0, so any demand on it is U = infinity), which would otherwise
 * hide every other peak.
 */
void
expectIncrementalMatchesScratch(const TaskFlowGraph &g,
                                const TaskAllocation &alloc,
                                const TimingModel &tm, double period,
                                Topology &topo, bool expectSpots)
{
    const TimeBounds tb = computeTimeBounds(g, alloc, tm, period);
    const IntervalSet ivs(tb);
    // Candidates come from the healthy fabric, so some still cross
    // the failed link.
    std::vector<std::vector<Path>> cands;
    for (const MessageBounds &b : tb.messages) {
        const Message &m = g.message(b.msg);
        cands.push_back(topo.minimalPaths(alloc.nodeOf(m.src),
                                          alloc.nodeOf(m.dst), 16));
    }
    const LinkId failed = cands.front().front().links.front();
    const LinkId derated = cands.back().back().links.back();
    ASSERT_NE(failed, derated) << topo.name();
    topo.derateLink(derated, 0.5);

    for (std::uint64_t seed : {1u, 2u, 3u}) {
        if (seed == 3)
            topo.failLink(failed);
        const UtilizationAnalyzer ua(tb, ivs, topo);
        Rng rng(seed);
        PathAssignment pa;
        for (const auto &cs : cands)
            pa.paths.push_back(cs[rng.index(cs.size())]);
        LinkLoadState load(ua, pa);
        const std::string run =
            topo.name() + " seed " + std::to_string(seed);
        expectSameReport(load, ua, topo, pa, run + " start");
        bool sawInfinity = false, sawSpot = false;
        for (int step = 0; step < 300; ++step) {
            const std::size_t i = rng.index(cands.size());
            const Path &p = cands[i][rng.index(cands[i].size())];
            load.move(i, p);
            pa.paths[i] = p;
            const std::string where =
                run + " step " + std::to_string(step);
            expectSameReport(load, ua, topo, pa, where);
            sawInfinity = sawInfinity || std::isinf(load.report().peak);
            sawSpot = sawSpot || load.report().position.isSpot;
            if (step % 50 == 0) {
                const std::vector<double> linkU =
                    referenceAnalyze(tb, ivs, topo, pa).linkU;
                for (LinkId l = 0; l < topo.numLinks(); ++l) {
                    ASSERT_EQ(load.messagesOn(l), crossing(pa, l))
                        << where << " link " << l;
                    EXPECT_EQ(load.linkUtilization(l),
                              linkU[static_cast<std::size_t>(l)])
                        << where << " link " << l;
                }
            }
            if (::testing::Test::HasFailure())
                return;
        }
        if (seed == 3) {
            EXPECT_TRUE(sawInfinity) << run;
        } else if (expectSpots) {
            EXPECT_TRUE(sawSpot) << run;
        }
    }
    topo.clearFaults();
}

const char *const kDifferentialFabrics[] = {"cube:6", "ghc:4,4,4",
                                            "torus:4,4,4"};

/**
 * At 100 B/us most DVB message times (1.92, 15.36, 17.28 us, ...)
 * are inexact binary fractions, so a link's demand depends on the
 * order it is summed in.
 */
TEST(LinkLoadStateTest, MatchesFromScratchOnTheDvbWorkload)
{
    const TaskFlowGraph g = buildDvbTfg({});
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 100.0;
    for (const char *spec : kDifferentialFabrics) {
        const auto topo = makeTopology(spec);
        const TaskAllocation alloc = alloc::roundRobin(g, *topo, 13);
        expectIncrementalMatchesScratch(g, alloc, tm,
                                        2.0 * tm.tauC(g), *topo,
                                        false);
    }
}

TEST(LinkLoadStateTest, MatchesFromScratchWithHotSpots)
{
    for (const char *spec : kDifferentialFabrics) {
        const auto topo = makeTopology(spec);
        const HotSpotWorkload w(*topo);
        expectIncrementalMatchesScratch(w.g, w.alloc, w.tm, 30.0,
                                        *topo, true);
    }
}

TEST(LinkLoadStateTest, EqualLinkUTiesGoToTheFirstTouchedLink)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    const UtilizationAnalyzer ua(tb, ivs, f.cube);
    const Path low = f.cube.makePath({0, 1, 3});
    const Path high = f.cube.makePath({0, 2, 3});

    // Both on 0-1-3: links 0-1 and 1-3 tie at 1.2; message 0 crosses
    // 0-1 first.
    PathAssignment pa;
    pa.paths = {low, low};
    LinkLoadState load(ua, pa);
    expectSameReport(load, ua, f.cube, pa, "both low");
    EXPECT_EQ(load.report().position.link, f.cube.linkBetween(0, 1));

    // Split: four links tie at 0.6; message 0's first link wins.
    load.move(0, high);
    pa.paths[0] = high;
    expectSameReport(load, ua, f.cube, pa, "split");
    EXPECT_EQ(load.report().position.link, f.cube.linkBetween(0, 2));

    // Swap which message is first on which links.
    load.move(0, low);
    load.move(1, high);
    pa.paths = {low, high};
    expectSameReport(load, ua, f.cube, pa, "swapped");
    EXPECT_EQ(load.report().position.link, f.cube.linkBetween(0, 1));
}

/**
 * A link's place in the scan follows its first message's route, so
 * a move that keeps a link but changes where the route crosses it
 * can reorder ties. Minimal routes always cross a shared link at the
 * same position; a detour does not.
 */
TEST(LinkLoadStateTest, TieOrderFollowsThePositionInTheRoute)
{
    ParallelFixture f;
    const auto cube3 = GeneralizedHypercube::binaryCube(3);
    TaskAllocation alloc{4, 8};
    alloc.assign(0, 0);
    alloc.assign(1, 5);
    alloc.assign(2, 3);
    alloc.assign(3, 3);
    const TimeBounds tb = computeTimeBounds(f.g, alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    const UtilizationAnalyzer ua(tb, ivs, cube3);
    const Path direct = cube3.makePath({0, 1, 3});
    const Path detour = cube3.makePath({0, 4, 5, 1, 3});

    // Message 1 (5-1-3) doubles the load on 5-1 and 1-3.
    PathAssignment pa;
    pa.paths = {direct, cube3.makePath({5, 1, 3})};
    LinkLoadState load(ua, pa);
    expectSameReport(load, ua, cube3, pa, "direct");
    EXPECT_EQ(load.report().position.link, cube3.linkBetween(1, 3));

    // 1-3 stays on message 0's route but moves from position 1 to
    // position 3, behind the equally loaded 5-1 at position 2.
    load.move(0, detour);
    pa.paths[0] = detour;
    expectSameReport(load, ua, cube3, pa, "detour");
    EXPECT_EQ(load.report().position.link, cube3.linkBetween(5, 1));

    load.move(0, direct);
    pa.paths[0] = direct;
    expectSameReport(load, ua, cube3, pa, "back");
}

TEST(LinkLoadStateTest, SpotAndLinkUTieGoesToLinkU)
{
    // Two no-slack messages on one route: the link ratio (20 us of
    // demand in a 10 us window) and the hot-spot count are both 2.0,
    // and the link ratio is scanned first.
    ParallelFixture f;
    TaskFlowGraph g2;
    const TaskId s1 = g2.addTask("s1", 100.0);
    const TaskId s2 = g2.addTask("s2", 100.0);
    const TaskId d1 = g2.addTask("d1", 100.0);
    const TaskId d2 = g2.addTask("d2", 100.0);
    g2.addMessage("m1", s1, d1, 640.0);
    g2.addMessage("m2", s2, d2, 640.0);
    const TimeBounds tb = computeTimeBounds(g2, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    const UtilizationAnalyzer ua(tb, ivs, f.cube);

    PathAssignment pa;
    pa.paths = {f.cube.makePath({0, 2, 3}), f.cube.makePath({0, 1, 3})};
    LinkLoadState load(ua, pa);
    expectSameReport(load, ua, f.cube, pa, "split");
    EXPECT_EQ(load.report().peak, 1.0);

    load.move(0, pa.paths[1]);
    pa.paths[0] = pa.paths[1];
    expectSameReport(load, ua, f.cube, pa, "shared");
    const UtilizationReport rep = load.report();
    EXPECT_EQ(rep.peak, 2.0);
    EXPECT_EQ(rep.position,
              (PeakPosition{false, f.cube.linkBetween(0, 1), 0}));
    EXPECT_EQ(load.spotCount(f.cube.linkBetween(0, 1),
                             ivs.intervalAt(tb.messages[0].release)),
              2);
}

TEST(LinkLoadStateTest, IdleFabricHasNoPeakPosition)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    const UtilizationAnalyzer ua(tb, ivs, f.cube);
    const Path local = f.cube.makePath({0});
    const Path route = f.cube.makePath({0, 1, 3});

    PathAssignment pa;
    pa.paths = {local, local};
    LinkLoadState load(ua, pa);
    expectSameReport(load, ua, f.cube, pa, "idle");
    EXPECT_EQ(load.report().peak, 0.0);
    EXPECT_EQ(load.report().position.link, kInvalidLink);

    load.move(1, route);
    EXPECT_GT(load.report().peak, 0.0);
    load.move(1, local);
    expectSameReport(load, ua, f.cube, pa, "idle again");
    EXPECT_EQ(load.report().position, PeakPosition{});
}

/**
 * The tournament tree under random moves: after every move each
 * internal node must hold the winner of its two children, which is
 * what settle()'s early exit relies on. Every message is s_i -> t_i
 * with one size and one window, so links that carry as many
 * messages tie on U exactly and the tree decides among them by scan
 * order.
 */
TEST(LinkLoadStateTest, EveryTreeNodeHoldsItsChildrensWinner)
{
    const auto topo = makeTopology("torus:4,4,4");
    TaskFlowGraph g;
    TaskAllocation alloc(48, topo->numNodes());
    Rng place(5);
    for (int i = 0; i < 24; ++i) {
        const TaskId s = g.addTask("s" + std::to_string(i), 100.0);
        const TaskId t = g.addTask("t" + std::to_string(i), 100.0);
        g.addMessage("m" + std::to_string(i), s, t, 640.0);
        const NodeId ns = static_cast<NodeId>(
            place.index(static_cast<std::size_t>(topo->numNodes())));
        NodeId nt = ns;
        while (nt == ns)
            nt = static_cast<NodeId>(place.index(
                static_cast<std::size_t>(topo->numNodes())));
        alloc.assign(s, ns);
        alloc.assign(t, nt);
    }
    TimingModel tm;
    tm.apSpeed = 10.0;
    tm.bandwidth = 64.0;
    const TimeBounds tb = computeTimeBounds(g, alloc, tm, 40.0);
    const IntervalSet ivs(tb);
    const UtilizationAnalyzer ua(tb, ivs, *topo);
    std::vector<std::vector<Path>> cands;
    for (const MessageBounds &b : tb.messages) {
        const Message &m = g.message(b.msg);
        cands.push_back(topo->minimalPaths(alloc.nodeOf(m.src),
                                           alloc.nodeOf(m.dst), 16));
    }

    Rng rng(11);
    PathAssignment pa;
    for (const auto &cs : cands)
        pa.paths.push_back(cs[rng.index(cs.size())]);
    LinkLoadState load(ua, pa);
    ASSERT_EQ(load.staleNode(), 0u) << "after construction";
    int ties = 0;
    for (int step = 0; step < 1500; ++step) {
        const std::size_t i = rng.index(cands.size());
        const Path &p = cands[i][rng.index(cands[i].size())];
        load.move(i, p);
        pa.paths[i] = p;
        ASSERT_EQ(load.staleNode(), 0u) << "step " << step;
        const UtilizationReport rep = load.report();
        ASSERT_EQ(rep.peak, ua.analyze(pa).peak) << "step " << step;
        ASSERT_EQ(rep.position, ua.analyze(pa).position)
            << "step " << step;
        int atPeak = 0;
        for (LinkId l = 0; l < topo->numLinks(); ++l)
            atPeak += load.linkUtilization(l) == rep.peak;
        ties += atPeak > 1;
    }
    // Not vacuous: the peak was shared by several links most of the
    // time.
    EXPECT_GT(ties, 750);
}

TEST_F(AssignPathsTest, FindsTheBalancedAssignment)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    const AssignPathsResult r =
        assignPaths(f.g, f.cube, f.alloc, tb, ivs, defaultsUnder(root));
    // The optimum splits the messages onto disjoint paths: 0.6.
    EXPECT_NEAR(r.report.peak, 0.6, 1e-9);
    EXPECT_NE(r.assignment.paths[0].nodes[1],
              r.assignment.paths[1].nodes[1]);
}

TEST_F(AssignPathsTest, LsdBaselineUsesRoutingFunction)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const PathAssignment pa =
        lsdToMsdAssignment(f.g, f.cube, f.alloc, tb);
    ASSERT_EQ(pa.paths.size(), 2u);
    for (const Path &p : pa.paths)
        EXPECT_EQ(p.nodes, (std::vector<NodeId>{0, 1, 3}));
}

TEST_F(AssignPathsTest, AssignedPathsAreValidMinimalAndEndToEnd)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 64.0;
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 13);
    const TimeBounds tb =
        computeTimeBounds(g, alloc, tm, 3.0 * tm.tauC(g));
    const IntervalSet ivs(tb);
    const AssignPathsResult r =
        assignPaths(g, cube, alloc, tb, ivs, defaultsUnder(root));
    ASSERT_EQ(r.assignment.paths.size(), tb.messages.size());
    for (std::size_t i = 0; i < tb.messages.size(); ++i) {
        const Message &m = g.message(tb.messages[i].msg);
        const Path &p = r.assignment.paths[i];
        EXPECT_TRUE(cube.validPath(p));
        EXPECT_EQ(p.source(), alloc.nodeOf(m.src));
        EXPECT_EQ(p.destination(), alloc.nodeOf(m.dst));
        EXPECT_EQ(static_cast<int>(p.hops()),
                  cube.distance(p.source(), p.destination()));
    }
}

/**
 * Property: across fabrics and loads, AssignPaths never ends up
 * above the LSD-to-MSD baseline.
 */
class AssignPathsProperty : public ::testing::TestWithParam<double>
{
  protected:
    engine::EngineContext root;
};

TEST_P(AssignPathsProperty, NeverWorseThanRoutingFunction)
{
    const double factor = GetParam();
    const TaskFlowGraph g = buildDvbTfg({});
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();

    const auto cube = GeneralizedHypercube::binaryCube(6);
    const Torus torus({8, 8});
    for (const Topology *topo :
         std::initializer_list<const Topology *>{&cube, &torus}) {
        for (double bw : {64.0, 128.0}) {
            tm.bandwidth = bw;
            const TaskAllocation alloc =
                alloc::roundRobin(g, *topo, 13);
            const TimeBounds tb = computeTimeBounds(
                g, alloc, tm, factor * tm.tauC(g));
            const IntervalSet ivs(tb);
            UtilizationAnalyzer ua(tb, ivs, *topo);
            const double lsd =
                ua.analyze(lsdToMsdAssignment(g, *topo, alloc, tb))
                    .peak;
            const double ap = assignPaths(g, *topo, alloc, tb, ivs,
                                          defaultsUnder(root))
                                  .report.peak;
            EXPECT_LE(ap, lsd + 1e-9)
                << topo->name() << " bw=" << bw
                << " factor=" << factor;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(LoadFactors, AssignPathsProperty,
                         ::testing::Values(1.0, 1.8, 2.7, 5.0));

/**
 * Determinism regression: the parallel restart scheme seeds every
 * restart from its index, so assignPaths must produce the identical
 * PathAssignment and peak U for any thread count. Pins the contract
 * the parallel compiler relies on (DVB on the binary 6-cube and the
 * 8x8 torus).
 */
TEST_F(AssignPathsTest, DeterministicAcrossThreadCounts)
{
    const TaskFlowGraph g = buildDvbTfg({});
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;

    const auto cube = GeneralizedHypercube::binaryCube(6);
    const Torus torus({8, 8});
    AssignPathsOptions opts{.ctx = &root};
    opts.maxRestarts = 4;
    opts.seed = 987654321;

    for (const Topology *topo :
         std::initializer_list<const Topology *>{&cube, &torus}) {
        const TaskAllocation alloc = alloc::roundRobin(g, *topo, 13);
        const TimeBounds tb =
            computeTimeBounds(g, alloc, tm, 2.0 * tm.tauC(g));
        const IntervalSet ivs(tb);

        ThreadPool::setGlobalSize(1);
        const AssignPathsResult serial =
            assignPaths(g, *topo, alloc, tb, ivs, opts);

        for (std::size_t threads : {2u, 8u}) {
            ThreadPool::setGlobalSize(threads);
            const AssignPathsResult par =
                assignPaths(g, *topo, alloc, tb, ivs, opts);
            EXPECT_DOUBLE_EQ(par.report.peak, serial.report.peak)
                << topo->name() << " threads=" << threads;
            EXPECT_EQ(par.report.position == serial.report.position,
                      true)
                << topo->name() << " threads=" << threads;
            EXPECT_EQ(par.restarts, serial.restarts);
            EXPECT_EQ(par.reroutes, serial.reroutes);
            ASSERT_EQ(par.assignment.paths.size(),
                      serial.assignment.paths.size());
            for (std::size_t i = 0;
                 i < serial.assignment.paths.size(); ++i) {
                EXPECT_EQ(par.assignment.paths[i],
                          serial.assignment.paths[i])
                    << topo->name() << " threads=" << threads
                    << " message " << i;
            }
        }
        ThreadPool::setGlobalSize(1);
    }
}

/** Re-running with the same seed is reproducible (same process). */
TEST_F(AssignPathsTest, SameSeedSameResult)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    AssignPathsOptions opts{.ctx = &root};
    opts.seed = 2024;
    const AssignPathsResult a =
        assignPaths(f.g, f.cube, f.alloc, tb, ivs, opts);
    const AssignPathsResult b =
        assignPaths(f.g, f.cube, f.alloc, tb, ivs, opts);
    EXPECT_DOUBLE_EQ(a.report.peak, b.report.peak);
    EXPECT_EQ(a.assignment.paths.size(), b.assignment.paths.size());
    for (std::size_t i = 0; i < a.assignment.paths.size(); ++i)
        EXPECT_EQ(a.assignment.paths[i], b.assignment.paths[i]);
}

TEST_F(SubsetsTest, SharedLinkAndIntervalRelatesMessages)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    PathAssignment pa;
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    const auto subsets = computeMaximalSubsets(tb, ivs, pa);
    ASSERT_EQ(subsets.size(), 1u);
    EXPECT_EQ(subsets[0].members.size(), 2u);
    EXPECT_EQ(subsets[0].links.size(), 2u);
}

TEST_F(SubsetsTest, DisjointPathsSeparateSubsets)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    PathAssignment pa;
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    pa.paths.push_back(f.cube.makePath({0, 2, 3}));
    const auto subsets = computeMaximalSubsets(tb, ivs, pa);
    EXPECT_EQ(subsets.size(), 2u);
}

TEST_F(SubsetsTest, SharedLinkDifferentIntervalsUnrelated)
{
    // Chain A -> B -> C mapped so both messages use link 0-1 but in
    // different windows: they are NOT related.
    TaskFlowGraph g;
    const TaskId a = g.addTask("A", 100.0);
    const TaskId b = g.addTask("B", 100.0);
    const TaskId c = g.addTask("C", 100.0);
    g.addMessage("m1", a, b, 640.0);
    g.addMessage("m2", b, c, 640.0);
    TimingModel tm;
    tm.apSpeed = 10.0;
    tm.bandwidth = 64.0;
    const Torus ring({4});
    TaskAllocation alloc(3, 4);
    alloc.assign(0, 0);
    alloc.assign(1, 1);
    alloc.assign(2, 0);
    const TimeBounds tb = computeTimeBounds(g, alloc, tm, 40.0);
    const IntervalSet ivs(tb);
    PathAssignment pa;
    pa.paths.push_back(ring.makePath({0, 1})); // [10,20)
    pa.paths.push_back(ring.makePath({1, 0})); // [30,40)
    const auto subsets = computeMaximalSubsets(tb, ivs, pa);
    EXPECT_EQ(subsets.size(), 2u);
}

TEST_F(SubsetsTest, TransitivityMergesChains)
{
    // m1 shares with m2, m2 shares with m3 => all three together,
    // even if m1 and m3 share nothing.
    TaskFlowGraph g;
    std::vector<TaskId> src, dst;
    for (int i = 0; i < 3; ++i) {
        src.push_back(g.addTask("s" + std::to_string(i), 100.0));
        dst.push_back(g.addTask("d" + std::to_string(i), 100.0));
        g.addMessage("m" + std::to_string(i), src[i], dst[i],
                     320.0);
    }
    TimingModel tm;
    tm.apSpeed = 10.0;
    tm.bandwidth = 64.0;
    const Torus ring({8});
    TaskAllocation alloc(6, 8);
    // m0: 0->2, m1: 1->3, m2: 2->4; consecutive routes overlap.
    alloc.assign(src[0], 0);
    alloc.assign(dst[0], 2);
    alloc.assign(src[1], 1);
    alloc.assign(dst[1], 3);
    alloc.assign(src[2], 2);
    alloc.assign(dst[2], 4);
    const TimeBounds tb = computeTimeBounds(g, alloc, tm, 60.0);
    const IntervalSet ivs(tb);
    PathAssignment pa;
    pa.paths.push_back(ring.makePath({0, 1, 2}));
    pa.paths.push_back(ring.makePath({1, 2, 3}));
    pa.paths.push_back(ring.makePath({2, 3, 4}));
    const auto subsets = computeMaximalSubsets(tb, ivs, pa);
    ASSERT_EQ(subsets.size(), 1u);
    EXPECT_EQ(subsets[0].members.size(), 3u);
}

TEST_F(SubsetsTest, SubsetsPartitionAllMessages)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const Torus torus({4, 4, 4});
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, torus, 13);
    const TimeBounds tb =
        computeTimeBounds(g, alloc, tm, 2.0 * tm.tauC(g));
    const IntervalSet ivs(tb);
    const AssignPathsResult r =
        assignPaths(g, torus, alloc, tb, ivs, defaultsUnder(root));
    const auto subsets =
        computeMaximalSubsets(tb, ivs, r.assignment);
    std::vector<int> seen(tb.messages.size(), 0);
    for (const MessageSubset &s : subsets)
        for (std::size_t i : s.members)
            ++seen[i];
    for (int c : seen)
        EXPECT_EQ(c, 1);
}

} // namespace
} // namespace srsim
