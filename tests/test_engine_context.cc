/**
 * @file
 * Engine-context suite: root contexts own their services, a null
 * context at an entry point panics, child-context overrides (thread
 * budget, seed), and the write-through metrics contract that keeps
 * parent aggregates exact while each child registry shows only its
 * own activity.
 */

#include <gtest/gtest.h>

#include "core/sr_compiler.hh"
#include "engine/context.hh"
#include "engine_fixture.hh"
#include "metrics/metrics.hh"
#include "solver/lp.hh"
#include "topology/generalized_hypercube.hh"
#include "trace/trace.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace srsim {
namespace {

using engine::ChildOptions;
using engine::EngineContext;

using EngineContextChild = EngineTest;

TEST(EngineContextRoot, OwnsItsRegistryAndTracerButSharesTheCores)
{
    const EngineContext a;
    const EngineContext b;
    EXPECT_NE(&a.metricsRegistry(), &b.metricsRegistry());
    EXPECT_NE(&a.tracer(), &b.tracer());
    EXPECT_EQ(&a.pool(), &ThreadPool::global());
    EXPECT_EQ(&b.pool(), &ThreadPool::global());

    metrics::Registry::setEnabled(true);
    a.metricsRegistry().counter("ctx.test.root").add(2);
    metrics::Registry::setEnabled(false);
    EXPECT_EQ(a.metricsRegistry().counter("ctx.test.root").value(), 2u);
    EXPECT_EQ(b.metricsRegistry().counter("ctx.test.root").value(), 0u);
}

TEST(EngineContextRoot, NullContextAtAnEntryPointPanics)
{
    TaskFlowGraph g;
    const TaskId a = g.addTask("a", 10.0);
    const TaskId b = g.addTask("b", 10.0);
    g.addMessage("m", a, b, 64.0);
    const GeneralizedHypercube cube =
        GeneralizedHypercube::binaryCube(2);
    TaskAllocation alloc(2, 4);
    alloc.assign(a, 0);
    alloc.assign(b, 3);
    TimingModel tm;
    tm.apSpeed = 1.0;
    tm.bandwidth = 64.0;
    SrCompilerConfig cfg;
    cfg.inputPeriod = 20.0;
    EXPECT_THROW(compileScheduledRouting(g, cube, alloc, tm, cfg),
                 PanicError);
    EXPECT_THROW(engine::require(nullptr, "test"), PanicError);

    const EngineContext root;
    cfg.ctx = &root;
    EXPECT_TRUE(
        compileScheduledRouting(g, cube, alloc, tm, cfg).feasible);
}

TEST_F(EngineContextChild, SolveOptionsCountIntoTheChildRegistry)
{
    metrics::Registry::setEnabled(true);
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

TEST_F(EngineContextChild, RegistryWritesThroughAndIsolates)
{
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

TEST_F(EngineContextChild, PoolSharedUnlessBudgeted)
{
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

TEST_F(EngineContextChild, DeriveSeedIsDeterministicAndStreamed)
{
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
