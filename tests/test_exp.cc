/**
 * @file
 * Tests for the experiment harness (src/exp): the load sweep, the
 * utilization experiment, and the throughput experiment, run on a
 * small fabric so the suite stays fast.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "engine/context.hh"
#include "exp/experiment.hh"
#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "topology/generalized_hypercube.hh"

namespace srsim {
namespace {

TEST(LoadSweepTest, TwelvePeriodsBetweenTauCAndFiveTauC)
{
    ExperimentConfig cfg;
    const auto periods = loadSweepPeriods(50.0, cfg);
    ASSERT_EQ(periods.size(), 12u);
    EXPECT_DOUBLE_EQ(periods.front(), 50.0);
    EXPECT_DOUBLE_EQ(periods.back(), 250.0);
    for (std::size_t i = 1; i < periods.size(); ++i)
        EXPECT_GT(periods[i], periods[i - 1]);
}

TEST(LoadSweepTest, ConfigurablePointCountAndRange)
{
    ExperimentConfig cfg;
    cfg.numLoadPoints = 5;
    cfg.maxPeriodFactor = 3.0;
    const auto periods = loadSweepPeriods(10.0, cfg);
    ASSERT_EQ(periods.size(), 5u);
    EXPECT_DOUBLE_EQ(periods.front(), 10.0);
    EXPECT_DOUBLE_EQ(periods.back(), 30.0);
}

struct SmallExperiment
{
    engine::EngineContext root;
    DvbParams dp;
    TaskFlowGraph g;
    GeneralizedHypercube cube = GeneralizedHypercube::binaryCube(4);
    TimingModel tm;
    TaskAllocation alloc;
    ExperimentConfig cfg;

    SmallExperiment()
        : g((dp.numModels = 4, buildDvbTfg(dp))),
          alloc(alloc::roundRobin(g, cube, 3))
    {
        tm.apSpeed = dp.matchedApSpeed();
        tm.bandwidth = 128.0;
        cfg.sr.ctx = &root;
        cfg.numLoadPoints = 5;
        cfg.invocations = 25;
        cfg.warmup = 5;
    }
};

TEST(ExperimentTest, UtilizationSeriesInvariants)
{
    SmallExperiment e;
    const auto pts =
        runUtilizationExperiment(e.g, e.cube, e.alloc, e.tm, e.cfg);
    ASSERT_EQ(pts.size(), 5u);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        // Ascending load.
        if (i > 0) {
            EXPECT_GT(pts[i].load, pts[i - 1].load);
        }
        EXPECT_GT(pts[i].uLsdToMsd, 0.0);
        // AssignPaths never above the routing-function baseline.
        EXPECT_LE(pts[i].uAssignPaths, pts[i].uLsdToMsd + 1e-9);
    }
    EXPECT_NEAR(pts.back().load, 1.0, 1e-9);
    EXPECT_NEAR(pts.front().load, 0.2, 1e-9);
}

TEST(ExperimentTest, ThroughputSeriesInvariants)
{
    SmallExperiment e;
    const auto pts =
        runThroughputExperiment(e.g, e.cube, e.alloc, e.tm, e.cfg);
    ASSERT_EQ(pts.size(), 5u);
    for (const LoadPoint &p : pts) {
        if (p.srFeasible) {
            // The executor-verified guarantee.
            EXPECT_NEAR(p.srThroughput, 1.0, 1e-6);
            EXPECT_GE(p.srLatency, 1.0 - 1e-9);
        } else {
            EXPECT_NE(p.srStage, SrFailureStage::None);
        }
        if (!p.wrDeadlocked) {
            // Spike ordering.
            EXPECT_LE(p.wrThrMin, p.wrThrAvg + 1e-9);
            EXPECT_LE(p.wrThrAvg, p.wrThrMax + 1e-9);
            EXPECT_LE(p.wrLatMin, p.wrLatAvg + 1e-9);
            EXPECT_LE(p.wrLatAvg, p.wrLatMax + 1e-9);
            // Normalized latency is at least 1 (Delta is minimal).
            EXPECT_GE(p.wrLatMin, 1.0 - 1e-6);
        }
        // Consistency of the OI verdict with the spikes.
        if (!p.wrDeadlocked && !p.wrInconsistent) {
            EXPECT_NEAR(p.wrThrMin, p.wrThrMax, 2e-3);
        }
    }
}

TEST(ExperimentTest, PrintersProduceOneRowPerPoint)
{
    SmallExperiment e;
    const auto upts =
        runUtilizationExperiment(e.g, e.cube, e.alloc, e.tm, e.cfg);
    std::ostringstream os;
    printUtilizationSeries(os, "title", upts);
    // Header + rule + one row per point.
    std::size_t lines = 0;
    for (char c : os.str())
        lines += c == '\n';
    EXPECT_EQ(lines, 2 + upts.size() + 2); // title + blank too
}

} // namespace
} // namespace srsim
