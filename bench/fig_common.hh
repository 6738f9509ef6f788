/**
 * @file
 * Shared driver for the figure-reproduction benches.
 *
 * Each fig* binary reproduces one figure of the paper's evaluation:
 * it builds the DVB TFG, allocates it on the target fabric, sweeps
 * the twelve input periods, and prints the same series the paper
 * plots. The absolute numbers come from srsim's simulator rather
 * than the authors' testbed; the qualitative shape (where OI
 * appears, where SR is feasible, who sustains constant throughput)
 * is the reproduction target.
 */

#ifndef SRSIM_BENCH_FIG_COMMON_HH_
#define SRSIM_BENCH_FIG_COMMON_HH_

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "engine/context.hh"
#include "exp/experiment.hh"
#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "tfg/timing.hh"
#include "topology/topology.hh"
#include "util/thread_pool.hh"

namespace srsim {
namespace bench {

/**
 * Wall-clock + thread-count note for one sweep, on stderr so the
 * deterministic table output on stdout stays byte-stable across
 * runs and thread counts (set SRSIM_THREADS to change the pool).
 */
class SweepTimer
{
  public:
    explicit SweepTimer(const std::string &what)
        : what_(what), start_(std::chrono::steady_clock::now())
    {}

    ~SweepTimer()
    {
        const auto dt =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start_);
        std::cerr << "# " << what_ << ": "
                  << (dt.count() / 1000.0) << " s with "
                  << ThreadPool::global().size() << " thread(s)\n";
    }

  private:
    std::string what_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * When SRSIM_JSON_DIR is set, open `<dir>/<slug(name)>.json` for
 * the machine-readable twin of a panel's table; otherwise return an
 * unopened stream (callers test is_open()). The slug keeps
 * [A-Za-z0-9]; every other run of characters becomes one '_'.
 */
inline std::ofstream
jsonSink(const std::string &name)
{
    std::ofstream out;
    const char *dir = std::getenv("SRSIM_JSON_DIR");
    if (!dir || !*dir)
        return out;
    std::string slug;
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            slug += c;
        else if (!slug.empty() && slug.back() != '_')
            slug += '_';
    }
    while (!slug.empty() && slug.back() == '_')
        slug.pop_back();
    out.open(std::string(dir) + "/" + slug + ".json");
    if (!out)
        std::cerr << "# warning: cannot write JSON for '" << name
                  << "' under " << dir << "\n";
    return out;
}

/** Default DVB experiment setup for one fabric at one bandwidth. */
struct FigureSetup
{
    /** Root engine context every sweep of the setup runs under. */
    engine::EngineContext root;
    DvbParams dvb;
    ExperimentConfig cfg;
    /**
     * Task allocation: round-robin with a stride that spreads the
     * pipeline across the whole 64-node machine (the paper's
     * hand-made allocation from [Shu90] is not available; a spread
     * placement exercises multi-hop paths and cross-invocation link
     * sharing the way the paper's curves indicate).
     */
    int allocStride = 13;

    FigureSetup() { cfg.sr.ctx = &root; }

    TimingModel
    timing(double bandwidth) const
    {
        TimingModel tm;
        tm.apSpeed = dvb.matchedApSpeed();
        tm.bandwidth = bandwidth;
        return tm;
    }

    TaskAllocation
    allocate(const TaskFlowGraph &g, const Topology &topo) const
    {
        return alloc::roundRobin(g, topo, allocStride);
    }
};

/** Run + print a Fig. 7-10 style panel (one fabric, one bandwidth). */
inline void
runThroughputPanel(const std::string &figure, const Topology &topo,
                   double bandwidth, const FigureSetup &setup = {})
{
    const TaskFlowGraph g = buildDvbTfg(setup.dvb);
    const TimingModel tm = setup.timing(bandwidth);
    const TaskAllocation alloc = setup.allocate(g, topo);
    SweepTimer timer(figure + " throughput sweep on " + topo.name());
    const auto points =
        runThroughputExperiment(g, topo, alloc, tm, setup.cfg);

    const std::string title =
        figure + ": DVB on " + topo.name() + ", B = " +
        std::to_string(static_cast<int>(bandwidth)) + " bytes/us" +
        "  (tau_m/tau_c = " +
        std::to_string(tm.tauM(g) / tm.tauC(g)) + ")";
    printThroughputSeries(std::cout, title, points);
    std::ofstream json = jsonSink(figure + " " + topo.name());
    if (json.is_open())
        writeThroughputJson(json, title, points);
}

/** Run + print a Fig. 5/6 style panel (utilization only). */
inline void
runUtilizationPanel(const std::string &figure, const Topology &topo,
                    double bandwidth, const FigureSetup &setup = {})
{
    const TaskFlowGraph g = buildDvbTfg(setup.dvb);
    const TimingModel tm = setup.timing(bandwidth);
    const TaskAllocation alloc = setup.allocate(g, topo);
    SweepTimer timer(figure + " utilization sweep on " +
                     topo.name());
    const auto points =
        runUtilizationExperiment(g, topo, alloc, tm, setup.cfg);

    const std::string title =
        figure + ": peak utilization, DVB on " + topo.name() +
        ", B = " + std::to_string(static_cast<int>(bandwidth)) +
        " bytes/us";
    printUtilizationSeries(std::cout, title, points);
    std::ofstream json = jsonSink(figure + " " + topo.name());
    if (json.is_open())
        writeUtilizationJson(json, title, points);
}

} // namespace bench
} // namespace srsim

#endif // SRSIM_BENCH_FIG_COMMON_HH_
