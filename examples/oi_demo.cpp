/**
 * @file
 * Output-inconsistency demo: the two-message scenario of Sec. 3 of
 * the paper, reproduced on a 4-node ring.
 *
 * A@0 --M1--> B@1 --M2--> C@0. M1 and M2 cross the same physical
 * half-duplex link. Pipelined with a period slightly above the
 * shared link's total demand, wormhole routing's FCFS capture
 * delays M1 in some invocations and not others: successive outputs
 * appear at visibly unequal intervals, while the mean interval
 * still tracks the input period. Scheduled routing at the same
 * period is compiled, verified, and executed: every interval equals
 * the period exactly.
 *
 *   ./oi_demo [input_period_us]   (default 80)
 */

#include <cstdlib>
#include <iostream>

#include "core/sr_compiler.hh"
#include "core/sr_executor.hh"
#include "engine/context.hh"
#include "mapping/allocation.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/torus.hh"
#include "util/table.hh"
#include "wormhole/wormhole.hh"

int
main(int argc, char **argv)
{
    using namespace srsim;
    // One root context: the metrics registry, tracer and thread
    // pool every engine call below runs under.
    const engine::EngineContext root;
    const double period = argc > 1 ? std::atof(argv[1]) : 80.0;

    TaskFlowGraph g;
    const TaskId a = g.addTask("A", 500.0);
    const TaskId b = g.addTask("B", 500.0);
    const TaskId c = g.addTask("C", 500.0);
    g.addMessage("M1", a, b, 3200.0); // 25 us at 128 bytes/us
    g.addMessage("M2", b, c, 3200.0);
    TimingModel tm;
    tm.apSpeed = 10.0;    // 50 us tasks (tau_c = 50)
    tm.bandwidth = 128.0;

    const Torus ring({4});
    TaskAllocation alloc(3, 4);
    alloc.assign(a, 0);
    alloc.assign(b, 1);
    alloc.assign(c, 0);

    std::cout << "Sec. 3 scenario: A@0 -M1-> B@1 -M2-> C@0 on a "
                 "4-ring, tau_in = "
              << period << " us\n";
    std::cout << "M1 and M2 share the half-duplex link 0-1 (25 us "
                 "each, 50 us total demand per period)\n\n";

    WormholeSimulator wsim(g, ring, alloc, tm);
    WormholeConfig wcfg{.ctx = &root};
    wcfg.inputPeriod = period;
    wcfg.invocations = 28;
    wcfg.warmup = 4;
    const WormholeResult wr = wsim.run(wcfg);
    if (wr.deadlocked) {
        std::cout << "wormhole routing deadlocked: "
                  << wr.deadlockInfo << "\n";
    } else {
        Table t({"invocation", "output interval (us)",
                 "latency (us)"});
        for (std::size_t j = 1; j < wr.records.size(); ++j) {
            t.addRow({std::to_string(wr.records[j].index),
                      Table::num(wr.records[j].complete -
                                     wr.records[j - 1].complete,
                                 1),
                      Table::num(wr.records[j].latency(), 1)});
        }
        std::cout << "wormhole routing, per-invocation:\n";
        t.print(std::cout);
        const SeriesStats s = wr.outputIntervals(wcfg.warmup);
        std::cout << "\noutput interval min/avg/max = " << s.min()
                  << "/" << s.mean() << "/" << s.max() << " us -> "
                  << (wr.outputInconsistent(wcfg.warmup)
                          ? "OUTPUT INCONSISTENCY"
                          : "consistent")
                  << "\n\n";
    }

    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = period;
    const SrCompileResult sr =
        compileScheduledRouting(g, ring, alloc, tm, cfg);
    if (!sr.feasible) {
        std::cout << "scheduled routing infeasible at this period ("
                  << sr.detail << ")\n";
        return 1;
    }
    const SrExecutionResult ex =
        executeSchedule(g, alloc, tm, sr.bounds, sr.omega, 28, root);
    const SeriesStats s = ex.outputIntervals(4);
    std::cout << "scheduled routing: output interval min/avg/max = "
              << s.min() << "/" << s.mean() << "/" << s.max()
              << " us -> "
              << (ex.consistent(4) ? "constant throughput"
                                   : "inconsistent?")
              << "\n";
    return 0;
}
