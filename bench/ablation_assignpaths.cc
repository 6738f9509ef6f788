/**
 * @file
 * Ablation of the path-assignment stage (Sec. 5.1): how much of
 * scheduled routing's feasibility comes from AssignPaths?
 *
 * Compares, per fabric at B = 64 bytes/us across the load sweep:
 *   - the LSD-to-MSD routing-function assignment,
 *   - a random minimal-path assignment (AssignPaths' starting
 *     point, no improvement),
 *   - AssignPaths without random restarts (pure hill-climb),
 *   - full AssignPaths (Fig. 4, with restarts).
 */

#include <iostream>

#include "core/intervals.hh"
#include "core/path_assignment.hh"
#include "core/time_bounds.hh"
#include "exp/experiment.hh"
#include "fig_common.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace {

void
runPanel(const srsim::Topology &topo)
{
    using namespace srsim;
    bench::FigureSetup setup;
    const TaskFlowGraph g = buildDvbTfg(setup.dvb);
    const TimingModel tm = setup.timing(64.0);
    const TaskAllocation alloc = setup.allocate(g, topo);
    const Time tau_c = tm.tauC(g);

    std::cout << "AssignPaths ablation: DVB on " << topo.name()
              << ", B = 64 bytes/us\n";
    Table t({"load", "U lsd-to-msd", "U random", "U no-restart",
             "U full", "reroutes", "restarts"});
    for (Time period : loadSweepPeriods(tau_c, setup.cfg)) {
        const TimeBounds tb = computeTimeBounds(g, alloc, tm,
                                                period);
        const IntervalSet ivs(tb);
        UtilizationAnalyzer ua(tb, ivs, topo);

        const double lsd =
            ua.analyze(lsdToMsdAssignment(g, topo, alloc, tb)).peak;

        // Random assignment: the heuristic's starting point.
        Rng rng(12345);
        PathAssignment rnd;
        for (const MessageBounds &b : tb.messages) {
            const Message &m = g.message(b.msg);
            auto cands = topo.minimalPaths(alloc.nodeOf(m.src),
                                           alloc.nodeOf(m.dst),
                                           256);
            rnd.paths.push_back(cands[rng.index(cands.size())]);
        }
        const double random_u = ua.analyze(rnd).peak;

        AssignPathsOptions defaults{.ctx = &setup.root};
        AssignPathsOptions no_restart = defaults;
        no_restart.maxRestarts = 0;
        const double hill =
            assignPaths(g, topo, alloc, tb, ivs, no_restart)
                .report.peak;

        const AssignPathsResult full =
            assignPaths(g, topo, alloc, tb, ivs, defaults);

        t.addRow({Table::num(tau_c / period, 4), Table::num(lsd),
                  Table::num(random_u), Table::num(hill),
                  Table::num(full.report.peak),
                  std::to_string(full.reroutes),
                  std::to_string(full.restarts)});
    }
    t.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    using namespace srsim;
    const GeneralizedHypercube cube =
        GeneralizedHypercube::binaryCube(6);
    const Torus torus({8, 8});
    runPanel(cube);
    runPanel(torus);
    return 0;
}
