/**
 * @file
 * Ablation of the Sec. 7 extensions implemented by srsim:
 *
 *  1. feedback between the Fig. 3 steps — extra feasible load
 *     points rescued by re-seeded path assignment;
 *  2. allocation-path coupling — peak utilization and feasibility
 *     when the task allocation itself is optimized for SR;
 *  3. CP-synchronization guards — how feasibility degrades as the
 *     per-slot margin grows;
 *  4. the stricter virtual-channel wormhole model — OI instances
 *     with 1 VC, static 2-VC (bandwidth halved unconditionally),
 *     and progressive-filling 2-VC (bandwidth split among actual
 *     sharers). The paper conjectures "the instances of OI are
 *     likely to increase"; the fair-share model bears that out
 *     while the static one trades blocking for uniform slowdown
 *     (see EXPERIMENTS.md).
 */

#include <iostream>

#include "core/coupled_allocation.hh"
#include "core/sr_compiler.hh"
#include "exp/experiment.hh"
#include "fig_common.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"
#include "util/table.hh"
#include "wormhole/wormhole.hh"

namespace {

using namespace srsim;

void
feedbackPanel(const Topology &topo, double bandwidth)
{
    bench::FigureSetup setup;
    const TaskFlowGraph g = buildDvbTfg(setup.dvb);
    const TimingModel tm = setup.timing(bandwidth);
    const TaskAllocation alloc = setup.allocate(g, topo);
    const Time tau_c = tm.tauC(g);

    std::cout << "feedback ablation: DVB on " << topo.name()
              << ", B = " << bandwidth << " bytes/us\n";
    Table t({"load", "no feedback", "2 rounds", "rounds used"});
    for (Time period : loadSweepPeriods(tau_c, setup.cfg)) {
        SrCompilerConfig base{.ctx = &setup.root};
        base.inputPeriod = period;
        const SrCompileResult r0 =
            compileScheduledRouting(g, topo, alloc, tm, base);
        SrCompilerConfig fb = base;
        fb.feedbackRounds = 2;
        const SrCompileResult r2 =
            compileScheduledRouting(g, topo, alloc, tm, fb);
        t.addRow({Table::num(tau_c / period, 4),
                  r0.feasible ? "feasible"
                              : srFailureStageName(r0.stage),
                  r2.feasible ? "feasible"
                              : srFailureStageName(r2.stage),
                  std::to_string(r2.feedbackRoundsUsed)});
    }
    t.print(std::cout);
    std::cout << "\n";
}

void
couplingPanel(const Topology &topo, double bandwidth)
{
    bench::FigureSetup setup;
    const TaskFlowGraph g = buildDvbTfg(setup.dvb);
    const TimingModel tm = setup.timing(bandwidth);
    const Time tau_c = tm.tauC(g);

    std::cout << "allocation-coupling ablation: DVB on "
              << topo.name() << ", B = " << bandwidth
              << " bytes/us (coupled search seeded from the greedy "
                 "allocation)\n";
    Table t({"load", "greedy alloc", "coupled alloc",
             "coupled U"});
    for (Time period : loadSweepPeriods(tau_c, setup.cfg)) {
        const TaskAllocation greedy = alloc::greedy(g, topo);
        SrCompilerConfig cfg{.ctx = &setup.root};
        cfg.inputPeriod = period;
        cfg.feedbackRounds = 2; // same effort for both allocations
        const SrCompileResult g_res =
            compileScheduledRouting(g, topo, greedy, tm, cfg);

        Rng rng(99);
        const CoupledAllocationResult coupled =
            coupleAllocationWithPaths(g, topo, tm, period, greedy,
                                      rng, setup.root);
        const SrCompileResult c_res = compileScheduledRouting(
            g, topo, coupled.allocation, tm, cfg);

        t.addRow({Table::num(tau_c / period, 4),
                  g_res.feasible ? "feasible"
                                 : srFailureStageName(g_res.stage),
                  c_res.feasible ? "feasible"
                                 : srFailureStageName(c_res.stage),
                  Table::num(coupled.peakUtilization, 3)});
    }
    t.print(std::cout);
    std::cout << "\n";
}

void
guardPanel(const Topology &topo, double bandwidth)
{
    bench::FigureSetup setup;
    const TaskFlowGraph g = buildDvbTfg(setup.dvb);
    const TimingModel tm = setup.timing(bandwidth);
    const TaskAllocation alloc = setup.allocate(g, topo);
    const Time tau_c = tm.tauC(g);

    std::cout << "guard-margin ablation: DVB on " << topo.name()
              << ", B = " << bandwidth
              << " bytes/us (CP clock-sync margin per slot)\n";
    Table t({"load", "guard 0", "guard 0.1us", "guard 0.5us",
             "guard 2us"});
    for (Time period : loadSweepPeriods(tau_c, setup.cfg)) {
        std::vector<std::string> row{
            Table::num(tau_c / period, 4)};
        for (double guard : {0.0, 0.1, 0.5, 2.0}) {
            SrCompilerConfig cfg{.ctx = &setup.root};
            cfg.inputPeriod = period;
            cfg.scheduling.guardTime = guard;
            cfg.feedbackRounds = 1;
            const SrCompileResult r =
                compileScheduledRouting(g, topo, alloc, tm, cfg);
            row.push_back(r.feasible
                              ? "feasible"
                              : srFailureStageName(r.stage));
        }
        t.addRow(row);
    }
    t.print(std::cout);
    std::cout << "\n";
}

void
virtualChannelPanel(const Topology &topo, double bandwidth)
{
    bench::FigureSetup setup;
    const TaskFlowGraph g = buildDvbTfg(setup.dvb);
    const TimingModel tm = setup.timing(bandwidth);
    const TaskAllocation alloc = setup.allocate(g, topo);
    const Time tau_c = tm.tauC(g);

    std::cout << "virtual-channel wormhole model: DVB on "
              << topo.name() << ", B = " << bandwidth
              << " bytes/us\n(Sec. 6 conjectured more OI from the "
                 "halved per-message bandwidth; measured: doubled "
                 "link concurrency also removes blocking, so OI "
                 "can go either way)\n";
    Table t({"load", "1 VC (paper model)", "2 VCs (static)",
             "2 VCs (fair share)"});
    int oi[3] = {0, 0, 0};
    for (Time period : loadSweepPeriods(tau_c, setup.cfg)) {
        std::vector<std::string> row{
            Table::num(tau_c / period, 4)};
        const struct
        {
            int vc;
            bool fair;
        } modes[3] = {{1, false}, {2, false}, {2, true}};
        for (int m = 0; m < 3; ++m) {
            WormholeConfig cfg{.ctx = &setup.root};
            cfg.inputPeriod = period;
            cfg.virtualChannels = modes[m].vc;
            cfg.fairShare = modes[m].fair;
            WormholeSimulator sim(g, topo, alloc, tm);
            const WormholeResult r = sim.run(cfg);
            std::string cell;
            if (r.deadlocked)
                cell = "deadlock";
            else if (r.outputInconsistent(cfg.warmup))
                cell = "OI";
            else
                cell = "consistent";
            if (cell != "consistent")
                ++oi[m];
            row.push_back(cell);
        }
        t.addRow(row);
    }
    t.print(std::cout);
    std::cout << "inconsistent/deadlocked load points: " << oi[0]
              << " with 1 VC, " << oi[1] << " static 2 VC, "
              << oi[2] << " fair-share 2 VC\n\n";
}

void
packetPanel(const Topology &topo, double bandwidth)
{
    bench::FigureSetup setup;
    const TaskFlowGraph g = buildDvbTfg(setup.dvb);
    const TaskAllocation alloc = setup.allocate(g, topo);

    std::cout << "packet-granularity ablation: DVB on "
              << topo.name() << ", B = " << bandwidth
              << " bytes/us (Sec. 4.1 packet time base; larger "
                 "packets round more capacity away)\n";
    Table t({"load", "continuous", "64 B packets",
             "256 B packets", "1024 B packets"});
    TimingModel tm = setup.timing(bandwidth);
    const Time tau_c = tm.tauC(g);
    for (Time period : loadSweepPeriods(tau_c, setup.cfg)) {
        std::vector<std::string> row{
            Table::num(tau_c / period, 4)};
        for (double pkt : {0.0, 64.0, 256.0, 1024.0}) {
            TimingModel ptm = tm;
            ptm.packetBytes = pkt;
            SrCompilerConfig cfg{.ctx = &setup.root};
            cfg.inputPeriod = period;
            cfg.feedbackRounds = 1;
            const SrCompileResult r =
                compileScheduledRouting(g, topo, alloc, ptm, cfg);
            row.push_back(r.feasible
                              ? "feasible"
                              : srFailureStageName(r.stage));
        }
        t.addRow(row);
    }
    t.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    const GeneralizedHypercube cube =
        GeneralizedHypercube::binaryCube(6);
    const Torus t88({8, 8});
    feedbackPanel(t88, 128.0);
    couplingPanel(cube, 64.0);
    guardPanel(cube, 128.0);
    virtualChannelPanel(cube, 128.0);
    packetPanel(cube, 128.0);
    return 0;
}
