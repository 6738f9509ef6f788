/**
 * @file
 * End-to-end tests of the scheduled-routing compiler and executor:
 * the Fig. 3 pipeline, feasibility gating, and the constant-
 * throughput guarantee, across fabrics, bandwidths, and loads.
 */

#include <memory>

#include <gtest/gtest.h>

#include "core/sr_compiler.hh"
#include "core/sr_executor.hh"
#include "engine_fixture.hh"
#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "tfg/random_tfg.hh"
#include "tfg/timing.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"
#include "wormhole/wormhole.hh"

namespace srsim {
namespace {

using SrCompilerTest = EngineTest;

TEST_F(SrCompilerTest, AllCoLocatedIsTriviallyFeasible)
{
    TaskFlowGraph g;
    const TaskId a = g.addTask("A", 100.0);
    const TaskId b = g.addTask("B", 100.0);
    g.addMessage("ab", a, b, 640.0);
    TimingModel tm;
    tm.apSpeed = 10.0;
    tm.bandwidth = 64.0;
    const auto cube = GeneralizedHypercube::binaryCube(3);
    TaskAllocation alloc(2, 8);
    alloc.assign(0, 4);
    alloc.assign(1, 4);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 20.0;
    const SrCompileResult r =
        compileScheduledRouting(g, cube, alloc, tm, cfg);
    EXPECT_TRUE(r.feasible);
    EXPECT_TRUE(r.bounds.messages.empty());
}

TEST_F(SrCompilerTest, PeriodBelowTauCIsInvalidInput)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 64.0;
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 13);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 0.5 * tm.tauC(g);
    const SrCompileResult r =
        compileScheduledRouting(g, cube, alloc, tm, cfg);
    EXPECT_FALSE(r.feasible);
    EXPECT_EQ(r.stage, SrFailureStage::InvalidInput);
    EXPECT_EQ(r.error.stage, SrFailureStage::InvalidInput);
    EXPECT_FALSE(r.detail.empty());
}

TEST_F(SrCompilerTest, UtilizationGateReportsStage)
{
    // DVB on the 6-cube at B = 64 and maximum load: U > 1.
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 64.0;
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 13);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = tm.tauC(g);
    const SrCompileResult r =
        compileScheduledRouting(g, cube, alloc, tm, cfg);
    EXPECT_FALSE(r.feasible);
    EXPECT_EQ(r.stage, SrFailureStage::Utilization);
    EXPECT_GT(r.utilization.peak, 1.0);
    EXPECT_FALSE(r.detail.empty());
}

TEST_F(SrCompilerTest, FeasibleScheduleIsVerifiedAndExecutes)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 13);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = tm.tauC(g); // maximum load
    const SrCompileResult r =
        compileScheduledRouting(g, cube, alloc, tm, cfg);
    ASSERT_TRUE(r.feasible) << r.detail;
    EXPECT_TRUE(r.verification.ok);
    EXPECT_LE(r.utilization.peak, 1.0 + 1e-9);

    const SrExecutionResult ex =
        executeSchedule(g, alloc, tm, r.bounds, r.omega, 50, root);
    EXPECT_TRUE(ex.consistent(10));
    const SeriesStats s = ex.outputIntervals(10);
    EXPECT_NEAR(s.mean(), cfg.inputPeriod, 1e-6);
    EXPECT_NEAR(s.spread(), 0.0, 1e-6);
}

TEST_F(SrCompilerTest, ExecutorLatencyMatchesWindowSchedule)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const Torus torus({4, 4, 4});
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, torus, 13);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2.0 * tm.tauC(g);
    const SrCompileResult r =
        compileScheduledRouting(g, torus, alloc, tm, cfg);
    ASSERT_TRUE(r.feasible) << r.detail;
    const SrExecutionResult ex =
        executeSchedule(g, alloc, tm, r.bounds, r.omega, 30, root);
    const SeriesStats lat = ex.latencies(5);
    // Latency is at least the critical path and at most the
    // canonical tau_c-window latency.
    EXPECT_GE(lat.min() + 1e-6, r.bounds.criticalPath);
    EXPECT_LE(lat.max(), r.bounds.windowLatency + 1e-6);
}

TEST_F(SrCompilerTest, LsdBaselinePathsAlsoCompile)
{
    // With the deterministic routing-function paths, feasibility is
    // rarer, but whenever the compiler says feasible the verifier
    // must agree.
    const TaskFlowGraph g = buildDvbTfg({});
    const auto ghc = GeneralizedHypercube({4, 4, 4});
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, ghc, 13);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 4.0 * tm.tauC(g);
    cfg.useAssignPaths = false;
    const SrCompileResult r =
        compileScheduledRouting(g, ghc, alloc, tm, cfg);
    if (r.feasible) {
        EXPECT_TRUE(r.verification.ok);
    } else {
        EXPECT_NE(r.stage, SrFailureStage::None);
    }
}

TEST_F(SrCompilerTest, GreedyMethodsCompileToo)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 13);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2.5 * tm.tauC(g);
    cfg.allocMethod = AllocationMethod::Greedy;
    cfg.scheduling.method = SchedulingMethod::ListScheduling;
    const SrCompileResult r =
        compileScheduledRouting(g, cube, alloc, tm, cfg);
    if (r.feasible) {
        EXPECT_TRUE(r.verification.ok);
        const SrExecutionResult ex =
            executeSchedule(g, alloc, tm, r.bounds, r.omega, 30, root);
        EXPECT_TRUE(ex.consistent(5));
    }
}

TEST_F(SrCompilerTest, SrRemovesWormholeInconsistency)
{
    // The headline comparison at one load point: DVB on a 4x4x4
    // torus at B = 128 and maximum load. WR is inconsistent (or
    // deadlocked); SR is feasible and constant.
    const TaskFlowGraph g = buildDvbTfg({});
    const Torus torus({4, 4, 4});
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, torus, 13);
    const Time period = tm.tauC(g);

    WormholeSimulator wsim(g, torus, alloc, tm);
    WormholeConfig wcfg{.ctx = &root};
    wcfg.inputPeriod = period;
    const WormholeResult wr = wsim.run(wcfg);
    EXPECT_TRUE(wr.outputInconsistent(wcfg.warmup));

    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = period;
    const SrCompileResult r =
        compileScheduledRouting(g, torus, alloc, tm, cfg);
    ASSERT_TRUE(r.feasible) << r.detail;
    const SrExecutionResult ex =
        executeSchedule(g, alloc, tm, r.bounds, r.omega, 40, root);
    EXPECT_TRUE(ex.consistent(10));
}

/**
 * Property sweep: random TFGs on random fabrics at random loads.
 * Whenever the compiler reports feasible, the independent verifier
 * must accept the schedule and the executor must observe constant
 * throughput with no premise violations.
 */
struct SweepCase
{
    int seed;
    const char *fabric;
};

class SrCompilerSweep
    : public ::testing::TestWithParam<SweepCase>
{
  protected:
    engine::EngineContext root;

  protected:
    std::unique_ptr<Topology>
    makeFabric(const std::string &which) const
    {
        if (which == "cube4")
            return std::make_unique<GeneralizedHypercube>(
                GeneralizedHypercube::binaryCube(4));
        if (which == "ghc44")
            return std::make_unique<GeneralizedHypercube>(
                std::vector<int>{4, 4});
        if (which == "torus44")
            return std::make_unique<Torus>(std::vector<int>{4, 4});
        return std::make_unique<Torus>(std::vector<int>{8});
    }
};

TEST_P(SrCompilerSweep, FeasibleImpliesVerifiedAndConsistent)
{
    const SweepCase param = GetParam();
    Rng rng(static_cast<std::uint64_t>(param.seed));
    const auto topo = makeFabric(param.fabric);

    RandomTfgParams rp;
    rp.layers = rng.uniformInt(2, 4);
    rp.maxWidth = rng.uniformInt(1, 4);
    rp.minOps = 400.0;
    rp.maxOps = 2000.0;
    rp.minBytes = 64.0;
    // Keep tau_m <= tau_c: max message time = 2048/64 = 32 us; at
    // speed >= 12.5 ops/us, min task time = 400/12.5 = 32 us.
    rp.maxBytes = 2048.0;
    const TaskFlowGraph g = buildRandomTfg(rp, rng);
    TimingModel tm;
    tm.apSpeed = 12.5;
    tm.bandwidth = 64.0;

    TaskAllocation alloc = alloc::random(g, *topo, rng);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod =
        tm.tauC(g) * rng.uniformReal(1.0, 4.0);
    cfg.assign.seed = static_cast<std::uint64_t>(param.seed);
    const SrCompileResult r =
        compileScheduledRouting(g, *topo, alloc, tm, cfg);

    if (!r.feasible) {
        EXPECT_NE(r.stage, SrFailureStage::None);
        // The verifier stage must never be the failure reason: the
        // compiler must only emit schedules that verify.
        EXPECT_NE(r.stage, SrFailureStage::Verification)
            << r.detail;
        return;
    }
    EXPECT_TRUE(r.verification.ok);
    const SrExecutionResult ex =
        executeSchedule(g, alloc, tm, r.bounds, r.omega, 30, root);
    EXPECT_TRUE(ex.consistent(5))
        << (ex.notes.empty() ? "" : ex.notes.front());
    EXPECT_NEAR(ex.outputIntervals(5).mean(), cfg.inputPeriod,
                1e-6);
}

std::vector<SweepCase>
sweepCases()
{
    std::vector<SweepCase> out;
    const char *fabrics[] = {"cube4", "ghc44", "torus44", "ring8"};
    for (int seed = 1; seed <= 10; ++seed)
        for (const char *f : fabrics)
            out.push_back(SweepCase{seed, f});
    return out;
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, SrCompilerSweep,
                         ::testing::ValuesIn(sweepCases()));

} // namespace
} // namespace srsim
