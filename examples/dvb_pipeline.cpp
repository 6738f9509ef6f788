/**
 * @file
 * The paper's flagship workload end to end: the DARPA Vision
 * Benchmark TFG (Fig. 1) pipelined on a binary 6-cube.
 *
 * Prints the TFG (and its Graphviz form on request), compiles a
 * scheduled-routing Omega at a chosen load, shows one node's
 * switching schedule omega_i, and compares wormhole and scheduled
 * routing at that load.
 *
 *   ./dvb_pipeline [normalized_load] [--dot]   (default load 0.5)
 */

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "core/sr_compiler.hh"
#include "core/sr_executor.hh"
#include "engine/context.hh"
#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "tfg/timing.hh"
#include "topology/generalized_hypercube.hh"
#include "wormhole/wormhole.hh"

int
main(int argc, char **argv)
{
    using namespace srsim;
    // One root context: the metrics registry, tracer and thread
    // pool every engine call below runs under.
    const engine::EngineContext root;
    double load = 0.5;
    bool dot = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--dot") == 0)
            dot = true;
        else
            load = std::atof(argv[i]);
    }
    if (load <= 0.0 || load > 1.0) {
        std::cerr << "normalized load must be in (0, 1]\n";
        return 1;
    }

    DvbParams dp;
    const TaskFlowGraph g = buildDvbTfg(dp);
    if (dot) {
        g.writeDot(std::cout);
        return 0;
    }

    std::cout << "DARPA Vision Benchmark TFG: " << g.numTasks()
              << " tasks, " << g.numMessages() << " messages ("
              << dp.numModels << " object models)\n";

    const GeneralizedHypercube cube =
        GeneralizedHypercube::binaryCube(6);
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 13);

    const Time tau_c = tm.tauC(g);
    const Time period = tau_c / load;
    std::cout << "fabric: " << cube.name() << ", B = "
              << tm.bandwidth << " bytes/us, tau_c = " << tau_c
              << " us, tau_in = " << period << " us (load " << load
              << ")\n\n";

    // Wormhole routing at this load.
    WormholeSimulator wsim(g, cube, alloc, tm);
    WormholeConfig wcfg{.ctx = &root};
    wcfg.inputPeriod = period;
    const WormholeResult wr = wsim.run(wcfg);
    if (wr.deadlocked) {
        std::cout << "wormhole: DEADLOCK (" << wr.deadlockInfo
                  << ")\n";
    } else {
        const SeriesStats s = wr.outputIntervals(wcfg.warmup);
        std::cout << "wormhole:  output interval min/avg/max = "
                  << s.min() << "/" << s.mean() << "/" << s.max()
                  << " us"
                  << (wr.outputInconsistent(wcfg.warmup)
                          ? "  (output inconsistency)"
                          : "  (consistent)")
                  << "\n";
    }

    // Scheduled routing at the same load.
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = period;
    const SrCompileResult sr =
        compileScheduledRouting(g, cube, alloc, tm, cfg);
    if (!sr.feasible) {
        std::cout << "scheduled: infeasible at this load -- "
                  << sr.detail << " (stage "
                  << srFailureStageName(sr.stage) << ")\n";
        return 0;
    }
    const SrExecutionResult ex =
        executeSchedule(g, alloc, tm, sr.bounds, sr.omega, 40, root);
    const SeriesStats s = ex.outputIntervals(8);
    std::cout << "scheduled: output interval min/avg/max = "
              << s.min() << "/" << s.mean() << "/" << s.max()
              << " us  (constant, verified contention-free)\n";
    std::cout << "           peak utilization U = "
              << sr.utilization.peak << ", " << sr.numSubsets
              << " maximal subsets, "
              << sr.intervals->size() << " frame intervals\n\n";

    // Show the switching schedule of the input task's node.
    const auto node_scheds = deriveNodeSchedules(
        g, cube, alloc, sr.bounds, sr.omega);
    const NodeId input_node = alloc.nodeOf(0);
    std::cout << "switching schedule of the input task's CP:\n";
    printNodeSchedule(std::cout,
                      node_scheds[static_cast<std::size_t>(
                          input_node)],
                      g);
    return 0;
}
