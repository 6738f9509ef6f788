/**
 * @file
 * Tests for the TFG pattern builders and for packet-granularity
 * scheduling (Sec. 4.1's packet time base).
 */

#include <gtest/gtest.h>

#include "core/sr_compiler.hh"
#include "core/sr_executor.hh"
#include "engine_fixture.hh"
#include "mapping/allocation.hh"
#include "tfg/patterns.hh"
#include "tfg/timing.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"

namespace srsim {
namespace {

using PacketTest = EngineTest;
using PatternsTest = EngineTest;

TEST_F(PatternsTest, ChainShape)
{
    const TaskFlowGraph g = patterns::chain(5, 100.0, 64.0);
    EXPECT_EQ(g.numTasks(), 5);
    EXPECT_EQ(g.numMessages(), 4);
    EXPECT_EQ(g.inputTasks().size(), 1u);
    EXPECT_EQ(g.outputTasks().size(), 1u);
    EXPECT_TRUE(g.isAcyclic());
    EXPECT_THROW(patterns::chain(0, 1.0, 1.0), FatalError);
}

TEST_F(PatternsTest, ForkJoinShape)
{
    const TaskFlowGraph g =
        patterns::forkJoin(6, 100.0, 80.0, 120.0, 64.0);
    EXPECT_EQ(g.numTasks(), 8);
    EXPECT_EQ(g.numMessages(), 12);
    EXPECT_EQ(g.inputTasks().size(), 1u);
    EXPECT_EQ(g.outputTasks().size(), 1u);
    EXPECT_TRUE(g.isAcyclic());
}

TEST_F(PatternsTest, ButterflyShape)
{
    const TaskFlowGraph g =
        patterns::butterfly(3, 4, 100.0, 64.0);
    // 1 source + 3 layers x 4.
    EXPECT_EQ(g.numTasks(), 13);
    EXPECT_TRUE(g.isAcyclic());
    EXPECT_EQ(g.inputTasks().size(), 1u);
    // Each non-final layer task sends 2 messages (i != twiddle
    // for width 4 at stages 0 and 1).
    EXPECT_EQ(g.numMessages(), 4 + 2 * 4 + 2 * 4);
}

TEST_F(PatternsTest, ReductionShape)
{
    const TaskFlowGraph g = patterns::reduction(8, 100.0, 64.0);
    // scatter + 8 leaves + 4 + 2 + 1 reducers.
    EXPECT_EQ(g.numTasks(), 1 + 8 + 7);
    EXPECT_EQ(g.outputTasks().size(), 1u);
    EXPECT_TRUE(g.isAcyclic());
}

TEST_F(PatternsTest, ReductionHandlesOddLeafCounts)
{
    const TaskFlowGraph g = patterns::reduction(5, 100.0, 64.0);
    EXPECT_EQ(g.outputTasks().size(), 1u);
    EXPECT_TRUE(g.isAcyclic());
}

TEST_F(PatternsTest, PatternsCompileEndToEnd)
{
    // Every pattern should be schedulable on a roomy fabric at a
    // relaxed period.
    const auto cube = GeneralizedHypercube::binaryCube(4);
    TimingModel tm;
    tm.apSpeed = 10.0;
    tm.bandwidth = 64.0;
    const std::vector<TaskFlowGraph> graphs = {
        patterns::chain(6, 200.0, 512.0),
        patterns::forkJoin(5, 300.0, 200.0, 300.0, 512.0),
        patterns::butterfly(2, 4, 250.0, 512.0),
        patterns::reduction(6, 250.0, 512.0),
    };
    for (const TaskFlowGraph &g : graphs) {
        const TaskAllocation alloc = alloc::greedy(g, cube);
        SrCompilerConfig cfg{.ctx = &root};
        cfg.inputPeriod = 2.0 * tm.tauC(g);
        cfg.feedbackRounds = 1;
        const SrCompileResult r =
            compileScheduledRouting(g, cube, alloc, tm, cfg);
        ASSERT_TRUE(r.feasible) << r.detail;
        EXPECT_TRUE(r.verification.ok);
    }
}

/**
 * Packet-granularity scheduling: with task times, message times,
 * and the period all integer microseconds and a 1 us packet time
 * (64-byte packets at 64 bytes/us), every segment boundary must
 * land on the packet grid and the schedule must still verify and
 * execute with constant throughput.
 */
TEST_F(PacketTest, AlignedWorkloadProducesGridSchedule)
{
    // All ops multiples of 25 -> task times integer at speed 25;
    // all bytes multiples of 64 -> message times integer at B=64.
    TaskFlowGraph g = patterns::forkJoin(4, 1925.0, 1000.0,
                                         1925.0, 1536.0);
    TimingModel tm;
    tm.apSpeed = 25.0;   // 77 us and 40 us tasks
    tm.bandwidth = 64.0; // 24 us messages
    const auto cube = GeneralizedHypercube::binaryCube(4);
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 5);

    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2 * 77.0; // integer period
    cfg.scheduling.packetTime = 1.0;
    cfg.feedbackRounds = 1;
    const SrCompileResult r =
        compileScheduledRouting(g, cube, alloc, tm, cfg);
    ASSERT_TRUE(r.feasible) << r.detail;
    EXPECT_TRUE(r.verification.ok);
    EXPECT_TRUE(isPacketAligned(r.omega, 1.0));

    const SrExecutionResult ex =
        executeSchedule(g, alloc, tm, r.bounds, r.omega, 25, root);
    EXPECT_TRUE(ex.consistent(5));
}

TEST_F(PacketTest, ContinuousScheduleIsUsuallyOffGrid)
{
    // Same workload without quantization: the LP lands on vertex
    // solutions that are not packet multiples in general; the
    // helper must detect that (it may occasionally still align, so
    // only check the helper agrees with a manual scan).
    TaskFlowGraph g = patterns::forkJoin(4, 1925.0, 1000.0,
                                         1925.0, 1590.0);
    TimingModel tm;
    tm.apSpeed = 25.0;
    tm.bandwidth = 64.0; // 1590/64 is not an integer
    const auto cube = GeneralizedHypercube::binaryCube(4);
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 5);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2 * 77.0;
    const SrCompileResult r =
        compileScheduledRouting(g, cube, alloc, tm, cfg);
    ASSERT_TRUE(r.feasible) << r.detail;
    // 1590/64 = 24.84 us durations cannot sit on a 1 us grid.
    EXPECT_FALSE(isPacketAligned(r.omega, 1.0));
}

TEST_F(PacketTest, PacketBytesRoundMessageTimesUp)
{
    TaskFlowGraph g = patterns::chain(2, 100.0, 1111.0);
    TimingModel tm;
    tm.apSpeed = 1.0;
    tm.bandwidth = 64.0;
    // Continuous: 1111/64 us.
    EXPECT_NEAR(tm.messageTime(g, 0), 1111.0 / 64.0, 1e-9);
    // 64-byte packets: 18 packets = 1152 bytes of link time.
    tm.packetBytes = 64.0;
    EXPECT_NEAR(tm.messageTime(g, 0), 1152.0 / 64.0, 1e-9);
    EXPECT_NEAR(tm.packetTime(), 1.0, 1e-12);
    EXPECT_NEAR(tm.tauM(g), 18.0, 1e-9);
}

TEST_F(PacketTest, UnalignedWorkloadsCompileWithPacketBytes)
{
    // With TimingModel::packetBytes set, awkward byte counts round
    // to whole packets and quantized compilation goes through; the
    // schedule lands on the grid whenever releases do.
    TaskFlowGraph g = patterns::butterfly(2, 4, 997.0, 1111.0);
    TimingModel tm;
    tm.apSpeed = 13.0;
    tm.bandwidth = 64.0;
    tm.packetBytes = 64.0; // compiler derives packetTime = 1 us
    const Torus torus({4, 4});
    const TaskAllocation alloc = alloc::greedy(g, torus);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 3.0 * tm.tauC(g);
    cfg.feedbackRounds = 1;
    const SrCompileResult r =
        compileScheduledRouting(g, torus, alloc, tm, cfg);
    ASSERT_TRUE(r.feasible) << r.detail;
    EXPECT_TRUE(r.verification.ok);
    const SrExecutionResult ex =
        executeSchedule(g, alloc, tm, r.bounds, r.omega, 20, root);
    EXPECT_TRUE(ex.consistent(4));
}

TEST_F(PacketTest, NonPacketDurationsAreRejected)
{
    // Asking for a packet grid without rounding message times must
    // be refused as invalid input, not produce a broken schedule.
    TaskFlowGraph g = patterns::chain(3, 100.0, 400.0);
    TimingModel tm;
    tm.apSpeed = 10.0;
    tm.bandwidth = 64.0; // 6.25 us messages, not packet-aligned
    const Torus torus({4, 4});
    const TaskAllocation alloc = alloc::greedy(g, torus);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 4.0 * tm.tauC(g);
    cfg.scheduling.packetTime = 1.0;
    const SrCompileResult r =
        compileScheduledRouting(g, torus, alloc, tm, cfg);
    EXPECT_FALSE(r.feasible);
    EXPECT_EQ(r.stage, SrFailureStage::InvalidInput);
    EXPECT_NE(r.error.message, kInvalidMessage);
    EXPECT_NE(r.detail.find("whole number of packets"),
              std::string::npos);
}

} // namespace
} // namespace srsim
