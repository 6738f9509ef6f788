/**
 * @file
 * Cross-cutting invariant suites that exercise the whole stack on
 * randomized workloads: wormhole conservation, schedule/printing
 * round trips, determinism of the seeded heuristics, and agreement
 * between the three schedule checkers (static verifier, analytic
 * executor, CP-level simulator).
 */

#include <sstream>

#include <gtest/gtest.h>

#include "core/coupled_allocation.hh"
#include "core/sr_compiler.hh"
#include "core/sr_executor.hh"
#include "cpsim/cp_simulator.hh"
#include "engine_fixture.hh"
#include "mapping/allocation.hh"
#include "tfg/random_tfg.hh"
#include "tfg/timing.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"
#include "wormhole/wormhole.hh"

namespace srsim {
namespace {

using DeterminismTest = EngineTest;
using PrintingTest = EngineTest;

/** Random mapped workload with tau_m <= tau_c guaranteed. */
struct RandomWorkload
{
    TaskFlowGraph g;
    TimingModel tm;
    TaskAllocation alloc{1, 1};

    RandomWorkload(Rng &rng, const Topology &topo)
    {
        RandomTfgParams rp;
        rp.layers = rng.uniformInt(2, 4);
        rp.maxWidth = rng.uniformInt(1, 4);
        rp.minOps = 400.0;
        rp.maxOps = 1600.0;
        rp.minBytes = 64.0;
        rp.maxBytes = 2048.0;
        g = buildRandomTfg(rp, rng);
        tm.apSpeed = 12.5;   // min task 32 us >= max message 32 us
        tm.bandwidth = 64.0;
        alloc = alloc::random(g, topo, rng);
    }
};

class WormholeInvariants : public ::testing::TestWithParam<int>
{
  protected:
    engine::EngineContext root;
};

TEST_P(WormholeInvariants, EveryInvocationCompletesUnlessDeadlock)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const Torus topo({4, 4});
    RandomWorkload w(rng, topo);

    WormholeSimulator sim(w.g, topo, w.alloc, w.tm);
    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod =
        w.tm.tauC(w.g) * rng.uniformReal(1.0, 3.0);
    cfg.invocations = 30;
    cfg.warmup = 5;
    const WormholeResult r = sim.run(cfg);

    if (r.deadlocked) {
        EXPECT_LT(r.completedInvocations, cfg.invocations);
        return;
    }
    // Conservation: every invocation produced exactly one record,
    // in order, with monotone completion times.
    ASSERT_EQ(r.records.size(),
              static_cast<std::size_t>(cfg.invocations));
    for (std::size_t j = 0; j < r.records.size(); ++j) {
        EXPECT_EQ(r.records[j].index, static_cast<int>(j));
        EXPECT_GE(r.records[j].latency(), 0.0);
        if (j > 0)
            EXPECT_GT(r.records[j].complete,
                      r.records[j - 1].complete);
    }
    // Throughput conservation: the mean output interval cannot
    // exceed... equal the input period over a long run unless work
    // queues unboundedly; allow a generous margin.
    const SeriesStats s = r.outputIntervals(cfg.warmup);
    EXPECT_NEAR(s.mean(), cfg.inputPeriod,
                0.25 * cfg.inputPeriod);
}

TEST_P(WormholeInvariants, VirtualChannelRunsAlsoConserve)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
    const GeneralizedHypercube topo =
        GeneralizedHypercube::binaryCube(4);
    RandomWorkload w(rng, topo);

    WormholeSimulator sim(w.g, topo, w.alloc, w.tm);
    WormholeConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2.5 * w.tm.tauC(w.g);
    cfg.invocations = 20;
    cfg.warmup = 4;
    cfg.virtualChannels = 2;
    const WormholeResult r = sim.run(cfg);
    ASSERT_FALSE(r.deadlocked);
    EXPECT_EQ(r.records.size(),
              static_cast<std::size_t>(cfg.invocations));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WormholeInvariants,
                         ::testing::Range(1, 11));

class CheckerAgreement : public ::testing::TestWithParam<int>
{
  protected:
    engine::EngineContext root;
};

TEST_P(CheckerAgreement, VerifierExecutorAndCpSimAgree)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 31);
    const GeneralizedHypercube topo =
        GeneralizedHypercube::binaryCube(4);
    RandomWorkload w(rng, topo);

    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod =
        w.tm.tauC(w.g) * rng.uniformReal(1.2, 3.0);
    cfg.feedbackRounds = 1;
    const SrCompileResult r =
        compileScheduledRouting(w.g, topo, w.alloc, w.tm, cfg);
    if (!r.feasible)
        return; // nothing to cross-check

    // 1. Static verifier already ran inside the compiler.
    EXPECT_TRUE(r.verification.ok);

    // 2. Analytic executor.
    const SrExecutionResult ana = executeSchedule(
        w.g, w.alloc, w.tm, r.bounds, r.omega, 20, root);
    EXPECT_TRUE(ana.consistent(4));

    // 3. CP-hardware simulator, invocation-by-invocation equal to
    //    the analytic executor.
    CpSimConfig ccfg{.ctx = &root};
    ccfg.invocations = 20;
    ccfg.warmup = 4;
    const CpSimResult dyn = simulateCps(
        w.g, topo, w.alloc, w.tm, r.bounds, r.omega, ccfg);
    EXPECT_TRUE(dyn.ok()) << (dyn.violations.empty()
                                  ? ""
                                  : dyn.violations.front());
    ASSERT_EQ(dyn.completions.size(), ana.completions.size());
    for (std::size_t j = 0; j < dyn.completions.size(); ++j)
        EXPECT_NEAR(dyn.completions[j], ana.completions[j], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerAgreement,
                         ::testing::Range(1, 13));

TEST_F(DeterminismTest, CompilerIsDeterministicGivenSeed)
{
    Rng rng(5);
    const Torus topo({4, 4});
    RandomWorkload w(rng, topo);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2.0 * w.tm.tauC(w.g);
    cfg.assign.seed = 777;

    const SrCompileResult a =
        compileScheduledRouting(w.g, topo, w.alloc, w.tm, cfg);
    const SrCompileResult b =
        compileScheduledRouting(w.g, topo, w.alloc, w.tm, cfg);
    ASSERT_EQ(a.feasible, b.feasible);
    if (!a.feasible)
        return;
    ASSERT_EQ(a.omega.segments.size(), b.omega.segments.size());
    for (std::size_t i = 0; i < a.omega.segments.size(); ++i) {
        EXPECT_EQ(a.omega.paths.pathFor(i),
                  b.omega.paths.pathFor(i));
        ASSERT_EQ(a.omega.segments[i].size(),
                  b.omega.segments[i].size());
        for (std::size_t s = 0; s < a.omega.segments[i].size();
             ++s)
            EXPECT_TRUE(a.omega.segments[i][s] ==
                        b.omega.segments[i][s]);
    }
}

TEST_F(DeterminismTest, CoupledAllocationIsSeedDeterministic)
{
    const auto cube = GeneralizedHypercube::binaryCube(5);
    Rng mk(2);
    RandomWorkload w(mk, cube);
    const TaskAllocation seed = alloc::greedy(w.g, cube);
    const Time period = 2.0 * w.tm.tauC(w.g);

    Rng r1(42), r2(42);
    const auto a = coupleAllocationWithPaths(w.g, cube, w.tm,
                                             period, seed, r1, root);
    const auto b = coupleAllocationWithPaths(w.g, cube, w.tm,
                                             period, seed, r2, root);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_DOUBLE_EQ(a.peakUtilization, b.peakUtilization);
    for (TaskId t = 0; t < w.g.numTasks(); ++t)
        EXPECT_EQ(a.allocation.nodeOf(t), b.allocation.nodeOf(t));
}

TEST_F(PrintingTest, NodeSchedulePrintMentionsPortsAndMessages)
{
    Rng rng(9);
    const auto cube = GeneralizedHypercube::binaryCube(4);
    RandomWorkload w(rng, cube);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2.5 * w.tm.tauC(w.g);
    cfg.feedbackRounds = 2;
    const SrCompileResult r =
        compileScheduledRouting(w.g, cube, w.alloc, w.tm, cfg);
    if (!r.feasible)
        GTEST_SKIP() << "workload infeasible for this seed";

    const auto nodes = deriveNodeSchedules(w.g, cube, w.alloc,
                                           r.bounds, r.omega);
    std::size_t printed = 0;
    for (const NodeSchedule &ns : nodes) {
        if (ns.commands.empty())
            continue;
        std::ostringstream os;
        printNodeSchedule(os, ns, w.g);
        const std::string out = os.str();
        EXPECT_NE(out.find("switching schedule"),
                  std::string::npos);
        EXPECT_NE(out.find("->"), std::string::npos);
        ++printed;
    }
    EXPECT_GT(printed, 0u);
}

} // namespace
} // namespace srsim
