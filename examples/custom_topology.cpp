/**
 * @file
 * Using srsim beyond the paper's fabrics: a random layered TFG on a
 * 4x4 mesh (a topology the paper did not evaluate), swept across
 * loads to find the highest input rate each routing technique
 * sustains.
 *
 *   ./custom_topology [seed]   (default 7)
 */

#include <cstdlib>
#include <iostream>

#include "core/sr_compiler.hh"
#include "core/sr_executor.hh"
#include "engine/context.hh"
#include "mapping/allocation.hh"
#include "tfg/random_tfg.hh"
#include "tfg/timing.hh"
#include "topology/mesh.hh"
#include "util/table.hh"
#include "wormhole/wormhole.hh"

int
main(int argc, char **argv)
{
    using namespace srsim;
    // One root context: the metrics registry, tracer and thread
    // pool every engine call below runs under.
    const engine::EngineContext root;
    const std::uint64_t seed =
        argc > 1 ? static_cast<std::uint64_t>(std::atoll(argv[1]))
                 : 7;

    Rng rng(seed);
    RandomTfgParams rp;
    rp.layers = 5;
    rp.minWidth = 2;
    rp.maxWidth = 4;
    rp.minOps = 500.0;
    rp.maxOps = 2000.0;
    rp.minBytes = 128.0;
    rp.maxBytes = 2000.0; // tau_m <= tau_c at the speeds below
    const TaskFlowGraph g = buildRandomTfg(rp, rng);

    const Mesh mesh({4, 4});
    TimingModel tm;
    tm.apSpeed = 16.0;
    tm.bandwidth = 64.0;
    const TaskAllocation alloc = alloc::greedy(g, mesh);

    std::cout << "random TFG (seed " << seed << "): "
              << g.numTasks() << " tasks, " << g.numMessages()
              << " messages on a " << mesh.name() << "\n";
    const Time tau_c = tm.tauC(g);
    std::cout << "tau_c = " << tau_c << " us, tau_m = "
              << tm.tauM(g) << " us\n\n";

    Table t({"load", "tau_in (us)", "wormhole", "scheduled"});
    for (double load : {0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                        1.0}) {
        const Time period = tau_c / load;

        WormholeSimulator wsim(g, mesh, alloc, tm);
        WormholeConfig wcfg{.ctx = &root};
        wcfg.inputPeriod = period;
        const WormholeResult wr = wsim.run(wcfg);
        std::string wh;
        if (wr.deadlocked)
            wh = "deadlock";
        else if (wr.outputInconsistent(wcfg.warmup))
            wh = "inconsistent";
        else
            wh = "consistent";

        SrCompilerConfig cfg{.ctx = &root};
        cfg.inputPeriod = period;
        cfg.assign.seed = seed;
        const SrCompileResult sr =
            compileScheduledRouting(g, mesh, alloc, tm, cfg);
        std::string sch;
        if (sr.feasible) {
            const SrExecutionResult ex = executeSchedule(
                g, alloc, tm, sr.bounds, sr.omega, 30, root);
            sch = ex.consistent(5) ? "constant" : "violated?";
        } else {
            sch = std::string("fail:") +
                  srFailureStageName(sr.stage);
        }
        t.addRow({Table::num(load, 2), Table::num(period, 1), wh,
                  sch});
    }
    t.print(std::cout);
    std::cout << "\n'constant' = compiled, verified contention-"
                 "free, and executed with equal output intervals\n";
    return 0;
}
