/**
 * @file
 * Tests for the independent schedule verifier: it must accept every
 * compiler-produced schedule and reject each specific corruption.
 */

#include <gtest/gtest.h>

#include "core/sr_compiler.hh"
#include "core/verifier.hh"
#include "engine_fixture.hh"
#include "fuzz/differential.hh"
#include "fuzz/generator.hh"
#include "mapping/allocation.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/generalized_hypercube.hh"

namespace srsim {
namespace {

/** Compile a small feasible schedule to corrupt. */
struct VerifierFixture : public EngineTest
{
    TaskFlowGraph g;
    GeneralizedHypercube cube = GeneralizedHypercube::binaryCube(3);
    TimingModel tm;
    TaskAllocation alloc{4, 8};
    SrCompileResult sr;

    void
    SetUp() override
    {
        const TaskId a = g.addTask("A", 100.0);
        const TaskId b = g.addTask("B", 100.0);
        const TaskId c = g.addTask("C", 100.0);
        const TaskId d = g.addTask("D", 100.0);
        g.addMessage("ab", a, b, 384.0);
        g.addMessage("ac", a, c, 384.0);
        g.addMessage("bd", b, d, 384.0);
        g.addMessage("cd", c, d, 384.0);
        tm.apSpeed = 10.0;
        tm.bandwidth = 64.0;
        alloc.assign(0, 0);
        alloc.assign(1, 3);
        alloc.assign(2, 5);
        alloc.assign(3, 6);
        SrCompilerConfig cfg{.ctx = &root};
        cfg.inputPeriod = 50.0;
        sr = compileScheduledRouting(g, cube, alloc, tm, cfg);
        ASSERT_TRUE(sr.feasible) << sr.detail;
    }
};

TEST_F(VerifierFixture, AcceptsCompiledSchedule)
{
    const VerifyResult v =
        verifySchedule(g, cube, alloc, sr.bounds, sr.omega);
    EXPECT_TRUE(v.ok);
    EXPECT_TRUE(v.violations.empty());
}

TEST_F(VerifierFixture, RejectsShortDuration)
{
    GlobalSchedule bad = sr.omega;
    bad.segments[0].back().end -= 1.0;
    const VerifyResult v =
        verifySchedule(g, cube, alloc, sr.bounds, bad);
    EXPECT_FALSE(v.ok);
}

TEST_F(VerifierFixture, RejectsSegmentOutsideWindow)
{
    GlobalSchedule bad = sr.omega;
    // Move the first segment of message 0 well before its release.
    const MessageBounds &b = sr.bounds.messages[0];
    const Time len = bad.segments[0].front().length();
    (void)b;
    bad.segments[0].front().start = 0.0;
    bad.segments[0].front().end = len;
    const VerifyResult v =
        verifySchedule(g, cube, alloc, sr.bounds, bad);
    // Either a bounds violation or (if release is 0) a duration
    // mismatch must surface; for this fixture release > 0.
    EXPECT_FALSE(v.ok);
}

TEST_F(VerifierFixture, RejectsLinkContention)
{
    // Force both of A's outgoing messages onto the same path AND
    // the same time: contention on every shared link.
    GlobalSchedule bad = sr.omega;
    bad.paths.paths[1] = bad.paths.paths[0];
    bad.segments[1] = bad.segments[0];
    const VerifyResult v =
        verifySchedule(g, cube, alloc, sr.bounds, bad);
    EXPECT_FALSE(v.ok);
    bool contention = false;
    for (const std::string &s : v.violations)
        contention = contention ||
                     s.find("overlap") != std::string::npos;
    EXPECT_TRUE(contention);
}

TEST_F(VerifierFixture, RejectsWrongEndpoints)
{
    GlobalSchedule bad = sr.omega;
    // Path that ends at the wrong node.
    bad.paths.paths[0] = cube.routeLsdToMsd(0, 7);
    const VerifyResult v =
        verifySchedule(g, cube, alloc, sr.bounds, bad);
    EXPECT_FALSE(v.ok);
}

TEST_F(VerifierFixture, RejectsOverlappingSegmentsOfOneMessage)
{
    GlobalSchedule bad = sr.omega;
    const TimeWindow w = bad.segments[0].front();
    bad.segments[0].push_back(w); // duplicate -> self-overlap
    const VerifyResult v =
        verifySchedule(g, cube, alloc, sr.bounds, bad);
    EXPECT_FALSE(v.ok);
}

TEST_F(VerifierFixture, RejectsWrongPeriod)
{
    GlobalSchedule bad = sr.omega;
    bad.period += 5.0;
    const VerifyResult v =
        verifySchedule(g, cube, alloc, sr.bounds, bad);
    EXPECT_FALSE(v.ok);
}

TEST_F(VerifierFixture, RejectsEmptySegment)
{
    GlobalSchedule bad = sr.omega;
    const Time t = bad.segments[0].front().start;
    bad.segments[0].front().end = t; // zero-length
    const VerifyResult v =
        verifySchedule(g, cube, alloc, sr.bounds, bad);
    EXPECT_FALSE(v.ok);
}

// ---------------------------------------------------------------
// Seed-pinned mini fuzz: a fixed slice of the differential fuzzer's
// seed space runs on every test invocation, cross-checking the
// verifier against the CP-level simulation and the analytic
// executor. Divergences found by the long-running `srfuzz` tool
// land here (or in tests/corpus/) as pinned seeds once fixed.
// ---------------------------------------------------------------

class VerifierMiniFuzz : public ::testing::TestWithParam<int>
{
  protected:
    engine::EngineContext root;
};

TEST_P(VerifierMiniFuzz, OraclesAgreeOnSeed)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    const fuzz::FuzzCase c = fuzz::generateCase(seed);
    fuzz::RunOptions opts;
    opts.invocations = 12; // keep the per-seed cost test-sized
    opts.warmup = 3;
    const fuzz::RunResult r = fuzz::runCase(c, root, opts);
    EXPECT_FALSE(r.failed())
        << "seed " << seed << ": " << r.report;
}

INSTANTIATE_TEST_SUITE_P(PinnedSeeds, VerifierMiniFuzz,
                         ::testing::Range(0, 20));

} // namespace
} // namespace srsim
