/**
 * @file
 * Quickstart: map a small pipeline onto a binary 3-cube, show that
 * wormhole routing produces output inconsistency while scheduled
 * routing sustains a constant throughput.
 *
 *   ./quickstart
 */

#include <iostream>

#include "core/sr_compiler.hh"
#include "core/sr_executor.hh"
#include "engine/context.hh"
#include "mapping/allocation.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/generalized_hypercube.hh"
#include "wormhole/wormhole.hh"

int
main()
{
    using namespace srsim;
    // One root context: the metrics registry, tracer and thread
    // pool every engine call below runs under.
    const engine::EngineContext root;

    // 1. Describe the application as a task-flow graph.
    TaskFlowGraph g;
    const TaskId grab = g.addTask("grab", 800.0);
    const TaskId edge = g.addTask("edges", 1000.0);
    const TaskId blob = g.addTask("blobs", 900.0);
    const TaskId fuse = g.addTask("fuse", 1000.0);
    g.addMessage("frame->edges", grab, edge, 2048.0);
    g.addMessage("frame->blobs", grab, blob, 2048.0);
    g.addMessage("edges->fuse", edge, fuse, 1024.0);
    g.addMessage("blobs->fuse", blob, fuse, 1024.0);

    // 2. Pick hardware: a binary 3-cube, 64 bytes/us links, APs at
    //    20 ops/us.
    GeneralizedHypercube cube = GeneralizedHypercube::binaryCube(3);
    TimingModel tm;
    tm.apSpeed = 20.0;
    tm.bandwidth = 64.0;

    // 3. Allocate tasks to nodes (communication-aware greedy).
    TaskAllocation alloc = alloc::greedy(g, cube);

    const Time tau_c = tm.tauC(g);
    const Time period = tau_c; // pipeline at maximum throughput
    std::cout << "tau_c = " << tau_c << " us, input period = "
              << period << " us\n\n";

    // 4. Simulate wormhole routing.
    WormholeSimulator wsim(g, cube, alloc, tm);
    WormholeConfig wcfg{.ctx = &root};
    wcfg.inputPeriod = period;
    const WormholeResult wr = wsim.run(wcfg);
    const SeriesStats wr_out = wr.outputIntervals(wcfg.warmup);
    std::cout << "wormhole routing: output interval min/avg/max = "
              << wr_out.min() << "/" << wr_out.mean() << "/"
              << wr_out.max() << " us"
              << (wr.outputInconsistent(wcfg.warmup)
                      ? "  (output inconsistency!)"
                      : "  (consistent)")
              << "\n";

    // 5. Compile a scheduled-routing Omega at the same period.
    SrCompilerConfig scfg{.ctx = &root};
    scfg.inputPeriod = period;
    const SrCompileResult sr =
        compileScheduledRouting(g, cube, alloc, tm, scfg);
    if (!sr.feasible) {
        std::cout << "scheduled routing infeasible at this period: "
                  << sr.detail << "\n";
        return 1;
    }

    // 6. Execute the schedule and confirm constant throughput.
    const SrExecutionResult ex =
        executeSchedule(g, alloc, tm, sr.bounds, sr.omega, 40, root);
    const SeriesStats sr_out = ex.outputIntervals(10);
    std::cout << "scheduled routing: output interval min/avg/max = "
              << sr_out.min() << "/" << sr_out.mean() << "/"
              << sr_out.max() << " us"
              << (ex.consistent(10) ? "  (constant throughput)"
                                    : "  (inconsistent?)")
              << "\n";
    std::cout << "peak utilization U = " << sr.utilization.peak
              << ", verified contention-free: "
              << (sr.verification.ok ? "yes" : "no") << "\n";
    return 0;
}
