/**
 * @file
 * Degraded-mode sweep: how much schedulable load survives link
 * failures, and how fast the repair pipeline restores a verified
 * schedule.
 *
 * Runs the DVB pipeline on a 4x4x4 torus at B = 128 bytes/us, then
 * for each fault count k = 1..3 injects `rand:k:<seed>` link
 * failures (plus one capacity-derating scenario) and repairs the
 * healthy schedule against the surviving fabric. The table reports
 * the before/after peak utilization, the repair mode (incremental
 * vs. full recompile, subsets re-solved), the degraded period, and
 * the per-message fates. Wall-clock repair latency goes to stderr so
 * stdout stays byte-stable across runs; the JSON twin (written when
 * SRSIM_JSON_DIR is set) carries the latency too.
 */

#include <chrono>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "core/sr_compiler.hh"
#include "fault/fault.hh"
#include "fault/repair.hh"
#include "fig_common.hh"
#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "topology/factory.hh"

namespace srsim {
namespace {

struct Scenario
{
    const char *name;
    const char *faultSpec; ///< empty = healthy baseline
};

int
run()
{
    const char *kTopo = "torus:4,4,4";
    const double kBandwidth = 128.0;
    const double kPeriodFactor = 2.4;

    const TaskFlowGraph g = buildDvbTfg({});
    const auto topo = makeTopology(kTopo);
    TimingModel tm;
    tm.apSpeed = DvbParams{}.matchedApSpeed();
    tm.bandwidth = kBandwidth;
    const TaskAllocation alloc = alloc::roundRobin(g, *topo, 13);
    const engine::EngineContext root;
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = kPeriodFactor * tm.tauC(g);

    const SrCompileResult healthy =
        compileScheduledRouting(g, *topo, alloc, tm, cfg);
    if (!healthy.feasible) {
        std::cerr << "fault_sweep: healthy baseline infeasible\n";
        return 1;
    }

    const std::vector<Scenario> scenarios = {
        {"healthy", ""},
        {"1-link", "rand:1:2"},
        {"2-link", "rand:2:9"},
        {"3-link", "rand:3:4"},
        {"node-down", "node:13"},
        {"derate-0.5", "derate:#40=0.5"},
    };

    std::cout << "fault sweep: DVB on " << topo->name()
              << ", B = " << static_cast<int>(kBandwidth)
              << " bytes/us, period = " << cfg.inputPeriod
              << " us (" << kPeriodFactor << " x tau_c)\n\n"
              << std::left << std::setw(12) << "scenario"
              << std::setw(10) << "peak U" << std::setw(14)
              << "mode" << std::setw(10) << "subsets"
              << std::setw(12) << "period us" << "fates\n";

    std::ofstream json = bench::jsonSink("fault sweep torus444");
    if (json.is_open())
        json << "{\n  \"scenarios\": [\n";
    bool firstJson = true;

    for (const Scenario &sc : scenarios) {
        topo->clearFaults();
        double peak = healthy.utilization.peak;
        std::string mode = "baseline";
        std::string subsets = "-";
        Time period = healthy.omega.period;
        std::string fates = "all survived";
        double repairMs = 0.0;

        if (*sc.faultSpec) {
            fault::applyFaultSpec(sc.faultSpec, *topo);
            fault::RepairOptions ropts;
            ropts.faultSpec = sc.faultSpec;
            const auto t0 = std::chrono::steady_clock::now();
            const fault::RepairResult rep = fault::repairSchedule(
                g, *topo, alloc, tm, cfg, healthy, ropts);
            repairMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (!rep.feasible) {
                std::cout << std::setw(12) << sc.name
                          << "repair FAILED: " << rep.detail
                          << "\n";
                continue;
            }
            if (rep.usedFullRecompile) {
                // The recompiled schedule indexes the (possibly
                // reduced) problem; its own gate has the right peak.
                peak = rep.compile.utilization.peak;
            } else {
                const UtilizationAnalyzer ua(
                    healthy.bounds, *healthy.intervals, *topo);
                peak = ua.analyze(rep.omega.paths).peak;
            }
            mode = rep.usedIncremental ? "incremental" : "full";
            subsets = std::to_string(rep.subsetsResolved) + "/" +
                      std::to_string(rep.subsetsTotal);
            period = rep.degradedPeriod;
            int nSurvived = 0, nRerouted = 0, nDegraded = 0,
                nShed = 0;
            for (fault::MessageFate f : rep.fates) {
                switch (f) {
                case fault::MessageFate::Survived: ++nSurvived; break;
                case fault::MessageFate::Rerouted: ++nRerouted; break;
                case fault::MessageFate::Degraded: ++nDegraded; break;
                case fault::MessageFate::Shed: ++nShed; break;
                }
            }
            std::ostringstream fs;
            fs << nSurvived << " survived, " << nRerouted
               << " rerouted, " << nDegraded << " degraded, "
               << nShed << " shed";
            fates = fs.str();
            std::cerr << "# " << sc.name << ": repair took "
                      << repairMs << " ms ("
                      << topo->numLiveLinks() << "/"
                      << topo->numLinks() << " links live)\n";
        }

        std::ostringstream u;
        u << std::fixed << std::setprecision(4) << peak;
        std::cout << std::setw(12) << sc.name << std::setw(10)
                  << u.str() << std::setw(14) << mode
                  << std::setw(10) << subsets << std::setw(12)
                  << period << fates << "\n";

        if (json.is_open()) {
            if (!firstJson)
                json << ",\n";
            firstJson = false;
            json << "    {\"name\": \"" << sc.name
                 << "\", \"fault_spec\": \"" << sc.faultSpec
                 << "\", \"peak_utilization\": " << peak
                 << ", \"mode\": \"" << mode
                 << "\", \"subsets\": \"" << subsets
                 << "\", \"period_us\": " << period
                 << ", \"repair_ms\": " << repairMs
                 << ", \"fates\": \"" << fates << "\"}";
        }
    }
    if (json.is_open())
        json << "\n  ]\n}\n";
    return 0;
}

} // namespace
} // namespace srsim

int
main()
{
    try {
        return srsim::run();
    } catch (const srsim::FatalError &e) {
        std::cerr << "fault_sweep: " << e.what() << "\n";
        return 1;
    }
}
