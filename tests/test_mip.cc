/**
 * @file
 * Tests for the branch-and-bound MIP layer and the exact-packet
 * interval-scheduling mode built on it.
 */

#include <gtest/gtest.h>

#include "core/sr_compiler.hh"
#include "core/sr_executor.hh"
#include "engine_fixture.hh"
#include "mapping/allocation.hh"
#include "solver/lp.hh"
#include "tfg/patterns.hh"
#include "topology/generalized_hypercube.hh"
#include "util/rng.hh"

namespace srsim {
namespace {

using MipTest = EngineTest;

using lp::Problem;
using lp::Relation;
using lp::Solution;
using lp::Status;

TEST_F(MipTest, NoIntegerVariablesDelegatesToLp)
{
    Problem p;
    const auto x = p.addVariable(-1.0);
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 2.5);
    const Solution s = lp::solveMip(p);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_NEAR(s.values[x], 2.5, 1e-6); // fractional is fine
}

TEST_F(MipTest, KnapsackLikeRounding)
{
    // max x (<= 2.5), x integer  ->  x = 2.
    Problem p;
    const auto x = p.addVariable(-1.0);
    p.markInteger(x);
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 2.5);
    const Solution s = lp::solveMip(p);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_NEAR(s.values[x], 2.0, 1e-6);
    EXPECT_NEAR(s.objective, -2.0, 1e-6);
}

TEST_F(MipTest, IntegralityChangesTheOptimum)
{
    // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6.
    // LP optimum (3, 1.5) -> 21; integer optimum (4, 0) -> 20.
    Problem p;
    const auto x = p.addVariable(-5.0, "x");
    const auto y = p.addVariable(-4.0, "y");
    p.markInteger(x);
    p.markInteger(y);
    p.addConstraint({{x, 6.0}, {y, 4.0}}, Relation::LessEq, 24.0);
    p.addConstraint({{x, 1.0}, {y, 2.0}}, Relation::LessEq, 6.0);

    const Solution relax = lp::solve(p);
    ASSERT_EQ(relax.status, Status::Optimal);
    EXPECT_NEAR(relax.objective, -21.0, 1e-6);

    const Solution mip = lp::solveMip(p);
    ASSERT_EQ(mip.status, Status::Optimal);
    EXPECT_NEAR(mip.objective, -20.0, 1e-6);
    EXPECT_NEAR(mip.values[x], 4.0, 1e-6);
    EXPECT_NEAR(mip.values[y], 0.0, 1e-6);
}

TEST_F(MipTest, InfeasibleIntegerDetected)
{
    // 0.4 <= x <= 0.6 has no integer point.
    Problem p;
    const auto x = p.addVariable(1.0);
    p.markInteger(x);
    p.addConstraint({{x, 1.0}}, Relation::GreaterEq, 0.4);
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 0.6);
    EXPECT_EQ(lp::solveMip(p).status, Status::Infeasible);
}

TEST_F(MipTest, MixedIntegerContinuous)
{
    // min x + y s.t. x + y >= 3.7, x integer, y continuous <= 0.5.
    Problem p;
    const auto x = p.addVariable(1.0, "x");
    const auto y = p.addVariable(1.0, "y");
    p.markInteger(x);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::GreaterEq,
                    3.7);
    p.addConstraint({{y, 1.0}}, Relation::LessEq, 0.5);
    const Solution s = lp::solveMip(p);
    ASSERT_EQ(s.status, Status::Optimal);
    // Best: x = 4 covers 3.7 alone (x = 3 would need y = 0.7 > 0.5),
    // so the optimum is (4, 0) with objective 4.
    EXPECT_NEAR(s.values[x], 4.0, 1e-6);
    EXPECT_NEAR(s.objective, 4.0, 1e-6);
}

TEST_F(MipTest, NodeCapReported)
{
    // A deliberately branchy instance with a tiny node budget.
    Problem p;
    Rng rng(3);
    std::vector<std::size_t> vars;
    for (int i = 0; i < 12; ++i) {
        vars.push_back(p.addVariable(-rng.uniformReal(1.0, 2.0)));
        p.markInteger(vars.back());
        p.addConstraint({{vars.back(), 1.0}}, Relation::LessEq,
                        1.0); // binary-ish
    }
    lp::Constraint budget;
    for (auto v : vars)
        budget.terms.emplace_back(v, rng.uniformReal(1.0, 3.0));
    budget.rel = Relation::LessEq;
    budget.rhs = 6.5;
    p.addConstraint(budget);

    lp::MipOptions opts;
    opts.maxNodes = 3;
    const Solution s = lp::solveMip(p, opts);
    EXPECT_EQ(s.status, Status::IterationLimit);
}

TEST_F(MipTest, RandomInstancesMatchBruteForce)
{
    // Small random 0/1 problems: compare against exhaustive
    // enumeration.
    for (int seed = 1; seed <= 8; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed));
        const int n = rng.uniformInt(3, 6);
        std::vector<double> cost(static_cast<std::size_t>(n));
        std::vector<double> weight(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            cost[static_cast<std::size_t>(i)] =
                rng.uniformReal(1.0, 5.0);
            weight[static_cast<std::size_t>(i)] =
                rng.uniformReal(1.0, 4.0);
        }
        const double cap = rng.uniformReal(3.0, 8.0);

        Problem p;
        lp::Constraint knap;
        for (int i = 0; i < n; ++i) {
            const auto v = p.addVariable(
                -cost[static_cast<std::size_t>(i)]);
            p.markInteger(v);
            p.addConstraint({{v, 1.0}}, Relation::LessEq, 1.0);
            knap.terms.emplace_back(
                v, weight[static_cast<std::size_t>(i)]);
        }
        knap.rel = Relation::LessEq;
        knap.rhs = cap;
        p.addConstraint(knap);

        const Solution s = lp::solveMip(p);
        ASSERT_EQ(s.status, Status::Optimal) << "seed " << seed;

        double best = 0.0;
        for (int mask = 0; mask < (1 << n); ++mask) {
            double w = 0.0, c = 0.0;
            for (int i = 0; i < n; ++i) {
                if (mask & (1 << i)) {
                    w += weight[static_cast<std::size_t>(i)];
                    c += cost[static_cast<std::size_t>(i)];
                }
            }
            if (w <= cap)
                best = std::max(best, c);
        }
        EXPECT_NEAR(-s.objective, best, 1e-6) << "seed " << seed;
    }
}

TEST_F(MipTest, ExactPacketSchedulingCompilesAndAligns)
{
    // The aligned fork-join workload, scheduled with slot lengths
    // solved as the paper's integer program.
    TaskFlowGraph g = patterns::forkJoin(4, 1925.0, 1000.0,
                                         1925.0, 1536.0);
    TimingModel tm;
    tm.apSpeed = 25.0;
    tm.bandwidth = 64.0;
    tm.packetBytes = 64.0;
    const auto cube = GeneralizedHypercube::binaryCube(4);
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 5);

    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2 * 77.0;
    cfg.scheduling.exactPacketMip = true;
    cfg.feedbackRounds = 1;
    const SrCompileResult r =
        compileScheduledRouting(g, cube, alloc, tm, cfg);
    ASSERT_TRUE(r.feasible) << r.detail;
    EXPECT_TRUE(r.verification.ok);
    EXPECT_TRUE(isPacketAligned(r.omega, tm.packetTime()));
    const SrExecutionResult ex =
        executeSchedule(g, alloc, tm, r.bounds, r.omega, 20, root);
    EXPECT_TRUE(ex.consistent(4));
}

} // namespace
} // namespace srsim
