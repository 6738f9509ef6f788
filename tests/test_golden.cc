/**
 * @file
 * Golden conformance suite (label: golden).
 *
 * Every case of the conformance table is recompiled from scratch and
 * byte-diffed against its checked-in tests/golden/<name>.sched file.
 * Any divergence — routing order, LP pivoting, subset merging,
 * repair decisions, serialization — fails here with a unified-style
 * context diff. After an *intentional* output change, refresh the
 * corpus with tools/regen_golden and review the diff.
 *
 * One repair-heavy case additionally recompiles at 1, 2, and 8
 * worker threads: the golden bytes must not depend on the thread
 * count (the parallel compiler merges deterministically). The four
 * healthy cases also pin their AssignPaths counts at those thread
 * counts.
 */

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "engine_fixture.hh"
#include "golden_cases.hh"
#include "metrics/metrics.hh"
#include "solver/lp.hh"
#include "util/thread_pool.hh"

namespace srsim {
namespace {

using GoldenDeterminism = EngineTest;

std::string
goldenPath(const golden::GoldenCase &gc)
{
    return std::string(SRSIM_GOLDEN_DIR) + "/" + gc.name +
           ".sched";
}

std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** First line where the two texts diverge, with context. */
std::string
firstDiff(const std::string &want, const std::string &got)
{
    std::istringstream a(want), b(got);
    std::string la, lb;
    for (std::size_t line = 1;; ++line) {
        const bool ha = static_cast<bool>(std::getline(a, la));
        const bool hb = static_cast<bool>(std::getline(b, lb));
        if (!ha && !hb)
            return "(no difference found line-wise)";
        if (!ha || !hb || la != lb) {
            std::ostringstream os;
            os << "first divergence at line " << line << ":\n"
               << "  golden: "
               << (ha ? la : std::string("<eof>")) << "\n"
               << "  actual: "
               << (hb ? lb : std::string("<eof>"));
            return os.str();
        }
    }
}

class Golden : public ::testing::TestWithParam<golden::GoldenCase>
{
  protected:
    engine::EngineContext root;
};

TEST_P(Golden, MatchesPinnedBytes)
{
    const golden::GoldenCase gc = GetParam();
    const std::string want = readFileOrEmpty(goldenPath(gc));
    ASSERT_FALSE(want.empty())
        << "missing golden file " << goldenPath(gc)
        << " — run tools/regen_golden and commit the corpus";
    const std::string got = golden::compileGoldenCase(gc, root);
    EXPECT_EQ(want, got)
        << "golden case '" << gc.name << "' diverged; "
        << firstDiff(want, got)
        << "\nIf the change is intentional, refresh with "
           "tools/regen_golden.";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Golden, ::testing::ValuesIn(golden::goldenCases()),
    [](const ::testing::TestParamInfo<golden::GoldenCase> &info) {
        std::string n = info.param.name;
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

/**
 * The pinned bytes are thread-count independent: the repair-heavy
 * mixed-fault case compiles identically at 1, 2, and 8 workers.
 */
TEST_F(GoldenDeterminism, ThreadCountInvariant)
{
    const golden::GoldenCase *mixed = nullptr;
    for (const auto &gc : golden::goldenCases())
        if (std::string(gc.name) == "fault-mixed")
            mixed = &gc;
    ASSERT_NE(mixed, nullptr);

    const std::string want =
        readFileOrEmpty(goldenPath(*mixed));
    ASSERT_FALSE(want.empty())
        << "missing golden file — run tools/regen_golden";
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalSize(threads);
        EXPECT_EQ(want, golden::compileGoldenCase(*mixed, root))
            << "fault-mixed diverged at " << threads
            << " thread(s)";
    }
    ThreadPool::setGlobalSize(ThreadPool::configuredSize());
}

/**
 * Byte-identical schedules do not show a walk that reaches the same
 * assignment by a different route, so the AssignPaths counts of the
 * four healthy cases are pinned too, at 1, 2 and 8 workers.
 */
TEST_F(GoldenDeterminism, AssignPathsCountsPinned)
{
    struct Pin
    {
        const char *name;
        int reroutes;
        double peak;
    };
    const Pin pins[] = {
        {"fig5-cube6-b128", 876, 0.72},
        {"fig5-ghc444-b128", 422, 0.5},
        {"fig9-torus88-b128", 420, 0.72},
        {"fig10-torus444-b128", 819, 0.5225298588490771},
    };
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalSize(threads);
        for (const Pin &pin : pins) {
            const golden::GoldenCase *gc = nullptr;
            for (const auto &c : golden::goldenCases())
                if (std::string(c.name) == pin.name)
                    gc = &c;
            ASSERT_NE(gc, nullptr) << pin.name;
            const SrCompileResult r =
                golden::GoldenInputs(*gc, root).compile(*gc);
            EXPECT_EQ(r.assignRestarts, 12)
                << pin.name << " at " << threads << " thread(s)";
            EXPECT_EQ(r.assignReroutes, pin.reroutes)
                << pin.name << " at " << threads << " thread(s)";
            EXPECT_EQ(r.utilization.peak, pin.peak)
                << pin.name << " at " << threads << " thread(s)";
        }
    }
    ThreadPool::setGlobalSize(ThreadPool::configuredSize());
}

/**
 * The healthy compiles are cold: no LP on that path is offered a
 * warm basis, so their bytes are the dense tableau's arithmetic
 * alone. Each of the four healthy cases runs under its own child
 * context and must leave every solver.warmstart.* counter of that
 * registry, and the process-wide warm-start tallies, at zero.
 */
TEST_F(GoldenDeterminism, HealthyCompilesNeverSeeABasis)
{
    metrics::Registry::setEnabled(true);
    for (const auto &gc : golden::goldenCases()) {
        if (gc.faultSpec[0] != '\0')
            continue;
        engine::ChildOptions co;
        co.name = std::string("golden.") + gc.name;
        const auto ctx = root.createChild(co);
        const lp::SolverStats before = lp::solverStats();
        (void)golden::GoldenInputs(gc, *ctx).compile(gc);
        const lp::SolverStats after = lp::solverStats();

        std::uint64_t solves = 0;
        for (const auto &[name, value] :
             ctx->metricsRegistry().counterSnapshot()) {
            if (name == "solver.solves")
                solves = value;
            if (name.rfind("solver.warmstart.", 0) == 0) {
                EXPECT_EQ(value, 0u) << gc.name << ": " << name;
            }
        }
        EXPECT_GT(solves, 0u) << gc.name;
        EXPECT_EQ(after.warmAttempts, before.warmAttempts) << gc.name;
        EXPECT_EQ(after.warmHits, before.warmHits) << gc.name;
        EXPECT_EQ(after.warmMisses, before.warmMisses) << gc.name;
    }
    metrics::Registry::setEnabled(false);
}

} // namespace
} // namespace srsim
