/**
 * @file
 * Microbenchmarks (google-benchmark) of srsim's building blocks:
 * minimal-path enumeration, utilization analysis, AssignPaths, the
 * LP solver, the wormhole simulator, and a full scheduled-routing
 * compile. These quantify the compile-time cost the paper trades
 * for zero run-time flow-control overhead.
 */

#include <benchmark/benchmark.h>

#include "core/sr_compiler.hh"
#include "engine/context.hh"
#include "exp/experiment.hh"
#include "mapping/allocation.hh"
#include "solver/lp.hh"
#include "tfg/dvb.hh"
#include "tfg/timing.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"
#include "util/thread_pool.hh"
#include "wormhole/wormhole.hh"

namespace {

using namespace srsim;

struct DvbSetup
{
    /** Root engine context the benchmarked engine calls run under. */
    engine::EngineContext root;
    DvbParams dp;
    TaskFlowGraph g = buildDvbTfg(dp);
    GeneralizedHypercube cube = GeneralizedHypercube::binaryCube(6);
    TimingModel tm;
    TaskAllocation alloc;

    DvbSetup() : alloc(alloc::roundRobin(g, cube, 13))
    {
        tm.apSpeed = dp.matchedApSpeed();
        tm.bandwidth = 128.0;
    }
};

void
BM_MinimalPathEnumeration(benchmark::State &state)
{
    const auto cube = GeneralizedHypercube::binaryCube(6);
    const std::size_t cap = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(cube.minimalPaths(0, 63, cap));
    }
}
BENCHMARK(BM_MinimalPathEnumeration)->Arg(24)->Arg(256)->Arg(720);

void
BM_UtilizationAnalyze(benchmark::State &state)
{
    DvbSetup s;
    const TimeBounds tb =
        computeTimeBounds(s.g, s.alloc, s.tm, 2.0 * s.tm.tauC(s.g));
    const IntervalSet ivs(tb);
    UtilizationAnalyzer ua(tb, ivs, s.cube);
    const PathAssignment pa =
        lsdToMsdAssignment(s.g, s.cube, s.alloc, tb);
    for (auto _ : state)
        benchmark::DoNotOptimize(ua.analyze(pa));
}
BENCHMARK(BM_UtilizationAnalyze);

void
BM_AssignPaths(benchmark::State &state)
{
    DvbSetup s;
    const TimeBounds tb =
        computeTimeBounds(s.g, s.alloc, s.tm, 2.0 * s.tm.tauC(s.g));
    const IntervalSet ivs(tb);
    AssignPathsOptions opts{.ctx = &s.root};
    opts.maxRestarts = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            assignPaths(s.g, s.cube, s.alloc, tb, ivs, opts));
    }
}
BENCHMARK(BM_AssignPaths)->Arg(0)->Arg(4)->Arg(12);

void
BM_LpSolve(benchmark::State &state)
{
    // A transportation-style LP scaled by the range argument.
    const int n = static_cast<int>(state.range(0));
    lp::Problem p;
    std::vector<std::size_t> vars;
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            vars.push_back(p.addVariable((i + 1) * (j + 2) % 7 + 1));
    for (int i = 0; i < n; ++i) {
        lp::Constraint supply;
        for (int j = 0; j < n; ++j)
            supply.terms.emplace_back(
                vars[static_cast<std::size_t>(i * n + j)], 1.0);
        supply.rel = lp::Relation::LessEq;
        supply.rhs = 10.0;
        p.addConstraint(supply);
        lp::Constraint demand;
        for (int j = 0; j < n; ++j)
            demand.terms.emplace_back(
                vars[static_cast<std::size_t>(j * n + i)], 1.0);
        demand.rel = lp::Relation::GreaterEq;
        demand.rhs = 5.0;
        p.addConstraint(demand);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(lp::solve(p));
}
BENCHMARK(BM_LpSolve)->Arg(4)->Arg(8)->Arg(16);

void
BM_WormholeSimulation(benchmark::State &state)
{
    DvbSetup s;
    WormholeConfig cfg{.ctx = &s.root};
    cfg.inputPeriod = s.tm.tauC(s.g);
    cfg.invocations = static_cast<int>(state.range(0));
    cfg.warmup = 5;
    for (auto _ : state) {
        WormholeSimulator sim(s.g, s.cube, s.alloc, s.tm);
        benchmark::DoNotOptimize(sim.run(cfg));
    }
}
BENCHMARK(BM_WormholeSimulation)->Arg(20)->Arg(60);

void
BM_SrCompile(benchmark::State &state)
{
    DvbSetup s;
    SrCompilerConfig cfg{.ctx = &s.root};
    cfg.inputPeriod =
        s.tm.tauC(s.g) * (state.range(0) / 10.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(compileScheduledRouting(
            s.g, s.cube, s.alloc, s.tm, cfg));
    }
}
BENCHMARK(BM_SrCompile)->Arg(10)->Arg(20)->Arg(40);

/**
 * Full SR compile at a fixed load with the global pool pinned to
 * Arg threads: the parallel-vs-serial wall-clock comparison of the
 * compiler (AssignPaths restarts + per-subset allocation LPs +
 * per-interval scheduling LPs all fan out).
 */
void
BM_SrCompileThreads(benchmark::State &state)
{
    ThreadPool::setGlobalSize(
        static_cast<std::size_t>(state.range(0)));
    DvbSetup s;
    SrCompilerConfig cfg{.ctx = &s.root};
    cfg.inputPeriod = 2.0 * s.tm.tauC(s.g);
    for (auto _ : state) {
        benchmark::DoNotOptimize(compileScheduledRouting(
            s.g, s.cube, s.alloc, s.tm, cfg));
    }
    ThreadPool::setGlobalSize(1);
}
BENCHMARK(BM_SrCompileThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/**
 * One figure-style load sweep (12 points, WR simulation + SR
 * compile + SR execution per point) with the pool pinned to Arg
 * threads — the experiment-layer parallelism acceptance benchmark.
 */
void
BM_FigureSweepThreads(benchmark::State &state)
{
    ThreadPool::setGlobalSize(
        static_cast<std::size_t>(state.range(0)));
    DvbSetup s;
    ExperimentConfig cfg{.sr = {.ctx = &s.root}};
    cfg.invocations = 30;
    cfg.warmup = 5;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runThroughputExperiment(
            s.g, s.cube, s.alloc, s.tm, cfg));
    }
    ThreadPool::setGlobalSize(1);
}
BENCHMARK(BM_FigureSweepThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
