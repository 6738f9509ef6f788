/**
 * @file
 * "SR enables pipelining at higher input arrival rates" (abstract),
 * quantified: for each fabric and bandwidth, binary-search the
 * smallest input period (highest normalized load) at which
 *   - wormhole routing still produces consistent output intervals,
 *   - scheduled routing still compiles a feasible, verified Omega,
 * and report both together with SR's advantage factor.
 */

#include <functional>
#include <iostream>

#include "core/sr_compiler.hh"
#include "fig_common.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"
#include "util/table.hh"
#include "wormhole/wormhole.hh"

namespace {

using namespace srsim;

/** Highest load in [lo, hi] passing `ok`, by bisection on period. */
double
maxLoad(double lo_load, double hi_load, Time tau_c,
        const std::function<bool(Time)> &ok)
{
    // Loads below lo_load are assumed passing; returns 0 when even
    // lo_load fails.
    if (!ok(tau_c / lo_load))
        return 0.0;
    if (ok(tau_c / hi_load))
        return hi_load;
    for (int it = 0; it < 20; ++it) {
        const double mid = 0.5 * (lo_load + hi_load);
        if (ok(tau_c / mid))
            lo_load = mid;
        else
            hi_load = mid;
    }
    return lo_load;
}

void
runPanel(const Topology &topo, double bandwidth)
{
    bench::FigureSetup setup;
    const TaskFlowGraph g = buildDvbTfg(setup.dvb);
    const TimingModel tm = setup.timing(bandwidth);
    const TaskAllocation alloc = setup.allocate(g, topo);
    const Time tau_c = tm.tauC(g);

    auto wr_ok = [&](Time period) {
        WormholeSimulator sim(g, topo, alloc, tm);
        WormholeConfig cfg{.ctx = &setup.root};
        cfg.inputPeriod = period;
        const WormholeResult r = sim.run(cfg);
        return !r.deadlocked && !r.outputInconsistent(cfg.warmup);
    };
    auto sr_ok = [&](Time period) {
        SrCompilerConfig cfg{.ctx = &setup.root};
        cfg.inputPeriod = period;
        cfg.feedbackRounds = 1;
        return compileScheduledRouting(g, topo, alloc, tm, cfg)
            .feasible;
    };

    const double wr = maxLoad(0.05, 1.0, tau_c, wr_ok);
    const double sr = maxLoad(0.05, 1.0, tau_c, sr_ok);

    std::cout << topo.name() << ", B = " << bandwidth
              << " bytes/us:\n"
              << "  max consistent load, wormhole : "
              << Table::num(wr, 3) << "\n"
              << "  max feasible load, scheduled  : "
              << Table::num(sr, 3);
    if (wr > 0.0 && sr > 0.0)
        std::cout << "   (SR sustains " << Table::num(sr / wr, 2)
                  << "x the input rate)";
    std::cout << "\n\n";
}

} // namespace

int
main()
{
    const GeneralizedHypercube cube =
        GeneralizedHypercube::binaryCube(6);
    const GeneralizedHypercube ghc({4, 4, 4});
    const Torus t88({8, 8});
    const Torus t444({4, 4, 4});
    for (double bw : {64.0, 128.0}) {
        runPanel(cube, bw);
        runPanel(ghc, bw);
        runPanel(t88, bw);
        runPanel(t444, bw);
    }
    return 0;
}
