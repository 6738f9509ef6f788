/**
 * @file
 * Engine-context suite: child-context overrides (thread budget,
 * seed), and the write-through metrics contract that keeps parent
 * aggregates exact while each child registry shows only its own
 * activity.
 */

#include <gtest/gtest.h>

#include "engine/context.hh"
#include "metrics/metrics.hh"
#include "solver/lp.hh"
#include "util/thread_pool.hh"

namespace srsim {
namespace {

using engine::ChildOptions;
using engine::EngineContext;

TEST(EngineContextChild, SolveOptionsCountIntoTheChildRegistry)
{
    metrics::Registry::setEnabled(true);
    EngineContext &root = EngineContext::processDefault();
    ChildOptions co;
    co.name = "solve-opts";
    const auto c = root.createChild(co);
    EXPECT_EQ(c->solveOptions().registry, &c->metricsRegistry());
    EXPECT_NE(&c->metricsRegistry(), &root.metricsRegistry());

    lp::Problem p;
    p.addVariable(1.0);
    p.addVariable(2.0);
    p.addConstraint({{0, 1.0}, {1, 1.0}}, lp::Relation::GreaterEq,
                    4.0);
    const lp::Solution s = lp::solve(p, c->solveOptions());
    ASSERT_EQ(s.status, lp::Status::Optimal);
    EXPECT_NEAR(s.objective, 4.0, 1e-9);
    EXPECT_EQ(c->metricsRegistry().counter("solver.solves").value(),
              1u);
    metrics::Registry::setEnabled(false);
}

TEST(EngineContextChild, RegistryWritesThroughAndIsolates)
{
    EngineContext &root = EngineContext::processDefault();
    ChildOptions ao, bo;
    ao.name = "a";
    bo.name = "b";
    const auto a = root.createChild(ao);
    const auto b = root.createChild(bo);

    const std::uint64_t rootBefore =
        root.metricsRegistry().counter("ctx.test.bumps").value();
    a->metricsRegistry().counter("ctx.test.bumps").add(3);
    b->metricsRegistry().counter("ctx.test.bumps").add(5);

    // Each child sees exactly its own activity...
    EXPECT_EQ(
        a->metricsRegistry().counter("ctx.test.bumps").value(), 3u);
    EXPECT_EQ(
        b->metricsRegistry().counter("ctx.test.bumps").value(), 5u);
    // ...and the parent aggregate is their exact sum.
    EXPECT_EQ(
        root.metricsRegistry().counter("ctx.test.bumps").value(),
        rootBefore + 8u);

    // Grandchildren chain the write-through to the top.
    ChildOptions go;
    go.name = "a.g";
    const auto g = a->createChild(go);
    g->metricsRegistry().counter("ctx.test.bumps").add(2);
    EXPECT_EQ(
        a->metricsRegistry().counter("ctx.test.bumps").value(), 5u);
    EXPECT_EQ(
        root.metricsRegistry().counter("ctx.test.bumps").value(),
        rootBefore + 10u);
}

TEST(EngineContextChild, PoolSharedUnlessBudgeted)
{
    EngineContext &root = EngineContext::processDefault();
    ChildOptions shared;
    shared.name = "shared";
    const auto s = root.createChild(shared);
    EXPECT_EQ(&s->pool(), &root.pool());

    ChildOptions budgeted;
    budgeted.name = "budgeted";
    budgeted.threads = 2;
    const auto b = root.createChild(budgeted);
    EXPECT_NE(&b->pool(), &root.pool());
    EXPECT_EQ(b->pool().size(), 2u);
    // A private pool is a resource budget, not a metrics boundary:
    // the child still shares the parent's tracer.
    EXPECT_EQ(&b->tracer(), &root.tracer());
}

TEST(EngineContextChild, DeriveSeedIsDeterministicAndStreamed)
{
    EngineContext &root = EngineContext::processDefault();
    ChildOptions co;
    co.name = "seeded";
    co.baseSeed = 777;
    const auto c = root.createChild(co);

    EXPECT_EQ(c->baseSeed(), 777u);
    EXPECT_EQ(c->deriveSeed(1), c->deriveSeed(1));
    EXPECT_NE(c->deriveSeed(1), c->deriveSeed(2));

    // Same base seed => same streams, regardless of context name.
    ChildOptions co2;
    co2.name = "seeded-again";
    co2.baseSeed = 777;
    const auto c2 = root.createChild(co2);
    EXPECT_EQ(c->deriveSeed(9), c2->deriveSeed(9));

    // baseSeed = 0 inherits the parent's.
    ChildOptions inh;
    inh.name = "inherit";
    const auto i = root.createChild(inh);
    EXPECT_EQ(i->baseSeed(), root.baseSeed());
    EXPECT_EQ(i->deriveSeed(4), root.deriveSeed(4));
}

} // namespace
} // namespace srsim
