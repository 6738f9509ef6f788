/**
 * @file
 * Tests for the differential fuzz harness itself: case
 * serialization, deterministic generation, the shrinker, and replay
 * of the checked-in regression corpus (tests/corpus/*.srfuzz).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "engine_fixture.hh"
#include "fuzz/differential.hh"
#include "fuzz/fuzz_case.hh"
#include "fuzz/generator.hh"
#include "fuzz/shrink.hh"
#include "topology/factory.hh"

namespace srsim {
namespace {

using FuzzCaseTest = EngineTest;
using FuzzChurnTest = EngineTest;
using FuzzCorpusTest = EngineTest;
using FuzzMultiTest = EngineTest;

TEST_F(FuzzCaseTest, RoundTripsThroughText)
{
    const fuzz::FuzzCase c = fuzz::generateCase(42);
    std::ostringstream os;
    fuzz::writeFuzzCase(os, c);
    std::istringstream is(os.str());
    const fuzz::FuzzCase d = fuzz::readFuzzCase(is);

    EXPECT_EQ(d.seed, c.seed);
    EXPECT_EQ(d.topoSpec, c.topoSpec);
    EXPECT_EQ(d.g.numTasks(), c.g.numTasks());
    EXPECT_EQ(d.g.numMessages(), c.g.numMessages());
    EXPECT_EQ(d.taskNode, c.taskNode);
    EXPECT_DOUBLE_EQ(d.tm.apSpeed, c.tm.apSpeed);
    EXPECT_DOUBLE_EQ(d.tm.bandwidth, c.tm.bandwidth);
    EXPECT_DOUBLE_EQ(d.tm.packetBytes, c.tm.packetBytes);
    EXPECT_DOUBLE_EQ(d.inputPeriod, c.inputPeriod);
    EXPECT_DOUBLE_EQ(d.guardTime, c.guardTime);
    EXPECT_EQ(d.allocMethod, c.allocMethod);
    EXPECT_EQ(d.schedMethod, c.schedMethod);
    EXPECT_EQ(d.exactPacketMip, c.exactPacketMip);
    EXPECT_EQ(d.useAssignPaths, c.useAssignPaths);
    EXPECT_EQ(d.assignSeed, c.assignSeed);
    EXPECT_EQ(d.maxRestarts, c.maxRestarts);
    EXPECT_EQ(d.feedbackRounds, c.feedbackRounds);
    EXPECT_EQ(d.faultSpec, c.faultSpec);

    // The round-tripped case must run to the same verdict.
    fuzz::RunOptions opts;
    opts.invocations = 8;
    opts.warmup = 2;
    EXPECT_EQ(fuzz::runCase(c, root, opts).verdict,
              fuzz::runCase(d, root, opts).verdict);
}

TEST_F(FuzzCaseTest, MalformedDocumentIsFatal)
{
    std::istringstream is("not-a-fuzz-case\n");
    EXPECT_THROW(fuzz::readFuzzCase(is), FatalError);
}

TEST(FuzzGeneratorTest, SameSeedSameCase)
{
    const fuzz::FuzzCase a = fuzz::generateCase(7);
    const fuzz::FuzzCase b = fuzz::generateCase(7);
    std::ostringstream oa, ob;
    fuzz::writeFuzzCase(oa, a);
    fuzz::writeFuzzCase(ob, b);
    EXPECT_EQ(oa.str(), ob.str());
}

TEST(FuzzGeneratorTest, PlacementIsInjective)
{
    // The differential oracles only agree under the dedicated-AP
    // premise, so the generator must never co-locate two tasks.
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        const fuzz::FuzzCase c = fuzz::generateCase(seed);
        std::vector<NodeId> nodes = c.taskNode;
        std::sort(nodes.begin(), nodes.end());
        EXPECT_TRUE(std::adjacent_find(nodes.begin(), nodes.end()) ==
                    nodes.end())
            << "seed " << seed << " co-locates tasks";
        const auto topo = makeTopology(c.topoSpec);
        for (NodeId n : nodes) {
            EXPECT_GE(n, 0);
            EXPECT_LT(n, topo->numNodes());
        }
    }
}

TEST(FuzzShrinkTest, RemovesIrrelevantStructure)
{
    // Predicate: "fails" whenever message 'keep' is present. The
    // shrinker must strip everything else and keep its endpoints.
    fuzz::FuzzCase c = fuzz::generateCase(3);
    const TaskId a = c.g.addTask("sentinel-a", 100.0);
    const TaskId b = c.g.addTask("sentinel-b", 100.0);
    c.g.addMessage("keep", a, b, 64.0);
    c.taskNode.push_back(0);
    c.taskNode.push_back(1);

    const auto stillFails = [](const fuzz::FuzzCase &cand) {
        for (MessageId m = 0; m < cand.g.numMessages(); ++m)
            if (cand.g.message(m).name == "keep")
                return true;
        return false;
    };
    fuzz::ShrinkStats st;
    const fuzz::FuzzCase min =
        fuzz::shrinkCase(c, stillFails, 400, &st);
    EXPECT_EQ(min.g.numMessages(), 1);
    EXPECT_EQ(min.g.numTasks(), 2);
    EXPECT_TRUE(stillFails(min));
    EXPECT_GT(st.evaluations, 0u);
    EXPECT_EQ(min.taskNode.size(),
              static_cast<std::size_t>(min.g.numTasks()));
}

TEST(FuzzShrinkTest, ClearsFaultSpecWhenFaultsAreIrrelevant)
{
    // Predicate ignores the fault spec entirely, so the shrinker's
    // fault pass must strip it from the minimized case.
    fuzz::FuzzCase c = fuzz::generateCase(3);
    c.faultSpec = "link:#0;derate:#1=0.5";
    const fuzz::FuzzCase min = fuzz::shrinkCase(
        c, [](const fuzz::FuzzCase &) { return true; }, 400);
    EXPECT_TRUE(min.faultSpec.empty())
        << "kept fault spec: " << min.faultSpec;
}

TEST(FuzzGeneratorTest, SomeSeedsCarryFaultSpecs)
{
    // The fault dimension must actually be exercised: over a window
    // of seeds, some cases inject faults and some stay healthy.
    std::size_t faulty = 0, healthy = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        if (fuzz::generateCase(seed).faultSpec.empty())
            ++healthy;
        else
            ++faulty;
    }
    EXPECT_GT(faulty, 0u);
    EXPECT_GT(healthy, 0u);
}

TEST(FuzzShrinkTest, ReturnsOriginalWhenNothingRemovable)
{
    const fuzz::FuzzCase c = fuzz::generateCase(5);
    // Nothing "fails": the shrinker must hand back the case as-is.
    const fuzz::FuzzCase min = fuzz::shrinkCase(
        c, [](const fuzz::FuzzCase &) { return false; }, 50);
    EXPECT_EQ(min.g.numTasks(), c.g.numTasks());
    EXPECT_EQ(min.g.numMessages(), c.g.numMessages());
}

TEST(FuzzGeneratorTest, SomeSeedsCarryChurnOps)
{
    // The churn dimension must actually be exercised: over a window
    // of seeds, some cases carry admit/remove sequences and the ops
    // are well-formed request lines.
    std::size_t churny = 0, batch = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const fuzz::FuzzCase c = fuzz::generateCase(seed);
        if (c.churnOps.empty()) {
            ++batch;
            continue;
        }
        ++churny;
        for (const std::string &op : c.churnOps)
            EXPECT_TRUE(op.rfind("admit ", 0) == 0 ||
                        op.rfind("remove ", 0) == 0)
                << "seed " << seed << ": odd churn op '" << op
                << "'";
    }
    EXPECT_GT(churny, 0u);
    EXPECT_GT(batch, 0u);
}

TEST_F(FuzzCaseTest, ChurnOpsRoundTripThroughText)
{
    // Find a seed whose case carries churn ops and round-trip it.
    fuzz::FuzzCase c;
    for (std::uint64_t seed = 0;; ++seed) {
        ASSERT_LT(seed, 200u) << "no churny seed in range";
        c = fuzz::generateCase(seed);
        if (!c.churnOps.empty())
            break;
    }
    std::ostringstream os;
    fuzz::writeFuzzCase(os, c);
    std::istringstream is(os.str());
    const fuzz::FuzzCase d = fuzz::readFuzzCase(is);
    EXPECT_EQ(d.churnOps, c.churnOps);
}

TEST_F(FuzzChurnTest, ChurnSeedsReplayClean)
{
    // A window of churny seeds through the online-vs-oracle
    // differential runner: zero disagreements. (CI's srfuzz_smoke
    // and the acceptance sweep run far more seeds; this is the
    // always-on regression floor.)
    fuzz::RunOptions opts;
    opts.invocations = 8;
    opts.warmup = 2;
    std::size_t ran = 0;
    for (std::uint64_t seed = 0; seed < 60 && ran < 12; ++seed) {
        const fuzz::FuzzCase c = fuzz::generateCase(seed);
        if (c.churnOps.empty())
            continue;
        ++ran;
        const fuzz::RunResult r = fuzz::runCase(c, root, opts);
        EXPECT_FALSE(r.failed())
            << "seed " << seed << ": " << r.report;
    }
    EXPECT_GE(ran, 5u) << "churn dimension under-exercised";
}

TEST(FuzzShrinkTest, DropsIrrelevantChurnOps)
{
    // Predicate: "fails" whenever the op admitting 'zkeep' is
    // present. The shrinker's churn pass must drop every other op.
    fuzz::FuzzCase c = fuzz::generateCase(3);
    c.churnOps = {"admit zdrop1 t0 t1 64",
                  "admit zkeep t0 t1 64", "remove zdrop1",
                  "admit zdrop2 t0 t1 64"};
    const auto stillFails = [](const fuzz::FuzzCase &cand) {
        for (const std::string &op : cand.churnOps)
            if (op.find("zkeep") != std::string::npos)
                return true;
        return false;
    };
    fuzz::ShrinkStats st;
    const fuzz::FuzzCase min =
        fuzz::shrinkCase(c, stillFails, 400, &st);
    ASSERT_EQ(min.churnOps.size(), 1u);
    EXPECT_EQ(min.churnOps[0], "admit zkeep t0 t1 64");
    EXPECT_GT(st.churnOpsRemoved, 0);
}

TEST(FuzzShrinkTest, ClearsChurnWhenChurnIsIrrelevant)
{
    // Predicate ignores churn entirely: the whole-sequence drop
    // must fire, degrading the case to a batch run.
    fuzz::FuzzCase c = fuzz::generateCase(3);
    c.churnOps = {"admit z0 t0 t1 64", "remove z0"};
    const fuzz::FuzzCase min = fuzz::shrinkCase(
        c, [](const fuzz::FuzzCase &) { return true; }, 400);
    EXPECT_TRUE(min.churnOps.empty());
}

TEST(FuzzGeneratorTest, MultiCasesAreWellFormed)
{
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        const fuzz::FuzzCase c = fuzz::generateMultiCase(seed);
        EXPECT_GE(c.numSessions, 2) << "seed " << seed;
        EXPECT_LE(c.numSessions, 4) << "seed " << seed;
        // The daemon lines run on the healthy fabric with no
        // packet grid (see fuzz/multi.hh).
        EXPECT_TRUE(c.faultSpec.empty()) << "seed " << seed;
        EXPECT_TRUE(c.churnOps.empty()) << "seed " << seed;
        EXPECT_EQ(c.tm.packetBytes, 0.0) << "seed " << seed;
        EXPECT_FALSE(c.multiOps.empty()) << "seed " << seed;
        for (const auto &[k, op] : c.multiOps) {
            EXPECT_GE(k, 0) << "seed " << seed;
            EXPECT_LT(k, c.numSessions) << "seed " << seed;
            EXPECT_TRUE(op.rfind("admit ", 0) == 0 ||
                        op.rfind("remove ", 0) == 0)
                << "seed " << seed << ": odd multi op '" << op
                << "'";
        }
    }
}

TEST_F(FuzzCaseTest, MultiOpsRoundTripThroughText)
{
    const fuzz::FuzzCase c = fuzz::generateMultiCase(1);
    std::ostringstream os;
    fuzz::writeFuzzCase(os, c);
    std::istringstream is(os.str());
    const fuzz::FuzzCase d = fuzz::readFuzzCase(is);
    EXPECT_EQ(d.numSessions, c.numSessions);
    EXPECT_EQ(d.multiOps, c.multiOps);
}

TEST_F(FuzzMultiTest, MultiSeedsReplayClean)
{
    // A few seeds through the daemon crash-recovery oracle: zero
    // divergences. (CI's srfuzz_smoke --multi runs far more.)
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const fuzz::RunResult r =
            fuzz::runCase(fuzz::generateMultiCase(seed), root);
        EXPECT_FALSE(r.failed())
            << "multi seed " << seed << ": " << r.report;
    }
}

TEST(FuzzShrinkTest, DropsIrrelevantMultiOps)
{
    // Predicate: "fails" whenever the op admitting 'zkeep' is
    // present. The multi pass must drop every other op and shed
    // the sessions nothing references.
    fuzz::FuzzCase c = fuzz::generateCase(3);
    c.numSessions = 3;
    c.multiOps = {{1, "admit zdrop1 t0 t1 64"},
                  {0, "admit zkeep t0 t1 64"},
                  {2, "remove zdrop1"},
                  {0, "admit zdrop2 t0 t1 64"}};
    const auto stillFails = [](const fuzz::FuzzCase &cand) {
        for (const auto &[k, op] : cand.multiOps)
            if (op.find("zkeep") != std::string::npos)
                return true;
        return false;
    };
    fuzz::ShrinkStats st;
    const fuzz::FuzzCase min =
        fuzz::shrinkCase(c, stillFails, 400, &st);
    ASSERT_EQ(min.multiOps.size(), 1u);
    EXPECT_EQ(min.multiOps[0].second, "admit zkeep t0 t1 64");
    EXPECT_EQ(min.numSessions, 1);
    EXPECT_GT(st.multiOpsRemoved, 0);
}

TEST(FuzzShrinkTest, ClearsMultiWhenTheDaemonIsIrrelevant)
{
    // Predicate ignores the daemon dimension entirely: the
    // whole-dimension drop must fire, degrading the case to a
    // batch run.
    fuzz::FuzzCase c = fuzz::generateMultiCase(3);
    const fuzz::FuzzCase min = fuzz::shrinkCase(
        c, [](const fuzz::FuzzCase &) { return true; }, 400);
    EXPECT_EQ(min.numSessions, 0);
    EXPECT_TRUE(min.multiOps.empty());
}

TEST_F(FuzzCorpusTest, EveryCorpusCaseReplaysClean)
{
    const std::filesystem::path dir(SRSIM_CORPUS_DIR);
    ASSERT_TRUE(std::filesystem::is_directory(dir))
        << "corpus directory missing: " << dir;
    std::size_t replayed = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() != ".srfuzz")
            continue;
        std::ifstream in(e.path());
        ASSERT_TRUE(in.good()) << e.path();
        const fuzz::FuzzCase c = fuzz::readFuzzCase(in);
        const fuzz::RunResult r = fuzz::runCase(c, root);
        EXPECT_FALSE(r.failed())
            << e.path().filename().string() << ": " << r.report;
        ++replayed;
    }
    EXPECT_GT(replayed, 0u) << "corpus is empty";
}

} // namespace
} // namespace srsim
