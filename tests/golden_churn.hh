/**
 * @file
 * Golden churn scenarios: pinned end states of the online
 * scheduling service on the paper's 4x4x4 torus figure
 * configuration (DVB TFG, bandwidth 128, round-robin stride 13,
 * period 2.4 * tau_c — the same recipe as the fig10 golden case).
 *
 * Each scenario feeds a request script to a freshly started
 * OnlineScheduler and pins the bytes of the final published
 * schedule in tests/golden/<name>.sched. Shared by
 * tests/test_online.cc (byte-diff + behavioral assertions) and
 * tools/regen_golden.cc (refresh after intentional changes).
 */

#ifndef SRSIM_TESTS_GOLDEN_CHURN_HH_
#define SRSIM_TESTS_GOLDEN_CHURN_HH_

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/schedule_io.hh"
#include "engine/context.hh"
#include "mapping/allocation.hh"
#include "online/script.hh"
#include "online/service.hh"
#include "tfg/dvb.hh"
#include "tfg/timing.hh"
#include "topology/factory.hh"
#include "util/logging.hh"

namespace srsim {
namespace golden {

/** One pinned churn scenario. */
struct ChurnCase
{
    const char *name;    ///< file stem under tests/golden/
    const char *script;  ///< request script (online/script.hh)
    bool scheduleCache = true; ///< see makeChurnService()
};

/** The churn table (order is the regeneration order). */
inline const std::vector<ChurnCase> &
churnCases()
{
    // The admitted edges skip one stage of the DVB recognition
    // chain, whose per-stage operations are strictly descending:
    // a skip message's window nests inside the chain's existing
    // precedence, so admitting one moves no other message's
    // bounds and only its own subsets re-solve.
    static const std::vector<ChurnCase> cases = {
        {"churn-admit",
         "admit x0 probe verify 256\n"},
        {"churn-remove",
         "admit x0 probe verify 256\n"
         "remove x0\n"},
        {"churn-readmit",
         "admit x0 probe verify 256\n"
         "remove x0\n"
         "admit x0 probe verify 256\n"},
        {"churn-batch5",
         "batch 5\n"
         "admit y0 match probe 256\n"
         "admit y1 hough extend 256\n"
         "admit y2 probe verify 256\n"
         "admit y3 extend filter 256\n"
         "admit y4 verify score 256\n"},
        // Cache off, so each re-admit re-solves its subsets warm
        // from the bases the previous admit stored; a new size moves
        // the RHS off the stored vertex, and the warm re-solves pivot.
        {"churn-resize",
         "admit x0 probe verify 256\n"
         "remove x0\n"
         "admit x0 probe verify 448\n"
         "remove x0\n"
         "admit x0 probe verify 64\n",
         false},
    };
    return cases;
}

/**
 * A fresh service on the fig10 figure configuration. With
 * `scheduleCache` off, a request that returns to an earlier state
 * re-solves instead of reusing that state's schedule.
 */
inline std::unique_ptr<online::OnlineScheduler>
makeChurnService(const engine::EngineContext &ctx,
                 bool scheduleCache = true)
{
    const DvbParams dvb;
    TaskFlowGraph g = buildDvbTfg(dvb);
    auto topo = makeTopology("torus:4,4,4");
    TimingModel tm;
    tm.apSpeed = dvb.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, *topo, 13);
    online::OnlineSchedulerConfig cfg{.compiler = {.ctx = &ctx}};
    cfg.compiler.inputPeriod = 2.4 * tm.tauC(g);
    if (!scheduleCache)
        cfg.cacheCapacity = 0;
    return std::make_unique<online::OnlineScheduler>(
        std::move(g), std::move(topo), alloc, tm, cfg);
}

/** Everything one scenario run produced. */
struct ChurnRun
{
    online::RequestResult start;
    std::vector<online::RequestResult> results;
    /** Serialized final published schedule — the pinned bytes. */
    std::string scheduleText;
    std::shared_ptr<const online::PublishedState> final;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};

/**
 * Run one scenario on a fresh service, with the schedule cache on or
 * off. Every request must be accepted (the table pins success
 * paths); FatalError otherwise.
 */
inline ChurnRun
runChurnCase(const ChurnCase &cc, const engine::EngineContext &ctx,
             bool scheduleCache)
{
    ChurnRun run;
    const auto svc = makeChurnService(ctx, scheduleCache);
    run.start = svc->start();
    if (!run.start.accepted)
        fatal("churn case '", cc.name,
              "': initial compile rejected: ", run.start.detail);

    std::istringstream is(cc.script);
    const online::ScriptParseResult script =
        online::parseRequestScript(is);
    if (!script.ok)
        fatal("churn case '", cc.name, "': bad script line ",
              script.errorLine, ": ", script.error);
    for (const online::Request &r : script.requests) {
        run.results.push_back(svc->process(r));
        if (!run.results.back().accepted)
            fatal("churn case '", cc.name, "': request ",
                  online::requestKindName(r.kind), " rejected: ",
                  run.results.back().detail);
    }

    run.final = svc->published();
    std::ostringstream os;
    writeSchedule(os, run.final->omega);
    run.scheduleText = os.str();
    run.cacheHits = svc->cache().hits();
    run.cacheMisses = svc->cache().misses();
    return run;
}

/** Run one scenario as the table pins it. */
inline ChurnRun
runChurnCase(const ChurnCase &cc, const engine::EngineContext &ctx)
{
    return runChurnCase(cc, ctx, cc.scheduleCache);
}

} // namespace golden
} // namespace srsim

#endif // SRSIM_TESTS_GOLDEN_CHURN_HH_
