/**
 * @file
 * Ablation of the math-programming stages (Secs. 5.2/5.3): the
 * paper formulates message-interval allocation and interval
 * scheduling as mathematical programs; srsim solves them with an
 * LP. How much feasibility is lost by replacing either stage with
 * its cheap greedy counterpart?
 *
 * For each load point: compile with (LP, LP), (greedy, LP),
 * (LP, list-scheduling), (greedy, list-scheduling) and report
 * which combinations find a feasible, verified Omega.
 */

#include <iostream>

#include "core/sr_compiler.hh"
#include "exp/experiment.hh"
#include "fig_common.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"
#include "util/table.hh"

namespace {

void
runPanel(const srsim::Topology &topo, double bandwidth)
{
    using namespace srsim;
    bench::FigureSetup setup;
    const TaskFlowGraph g = buildDvbTfg(setup.dvb);
    const TimingModel tm = setup.timing(bandwidth);
    const TaskAllocation alloc = setup.allocate(g, topo);
    const Time tau_c = tm.tauC(g);

    std::cout << "solver ablation: DVB on " << topo.name()
              << ", B = " << bandwidth << " bytes/us\n";
    Table t({"load", "lp+lp", "greedy+lp", "lp+list",
             "greedy+list"});

    auto status = [&](Time period, AllocationMethod am,
                      SchedulingMethod sm) -> std::string {
        SrCompilerConfig cfg{.ctx = &setup.root};
        cfg.inputPeriod = period;
        cfg.allocMethod = am;
        cfg.scheduling.method = sm;
        const SrCompileResult r =
            compileScheduledRouting(g, topo, alloc, tm, cfg);
        if (r.feasible)
            return "feasible";
        return srFailureStageName(r.stage);
    };

    for (Time period : loadSweepPeriods(tau_c, setup.cfg)) {
        t.addRow({Table::num(tau_c / period, 4),
                  status(period, AllocationMethod::Lp,
                         SchedulingMethod::LpFeasibleSets),
                  status(period, AllocationMethod::Greedy,
                         SchedulingMethod::LpFeasibleSets),
                  status(period, AllocationMethod::Lp,
                         SchedulingMethod::ListScheduling),
                  status(period, AllocationMethod::Greedy,
                         SchedulingMethod::ListScheduling)});
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
    const Torus torus({4, 4, 4});
    runPanel(cube, 128.0);
    runPanel(torus, 128.0);
    return 0;
}
