/**
 * @file
 * Online scheduling service suite (label: online).
 *
 * Pins the golden churn scenarios byte-for-byte against
 * tests/golden/churn-*.sched, then asserts the *mechanics* the
 * bytes cannot show: single admissions re-solve only the touched
 * maximal related subsets (>= 80% copied verbatim on the 4x4x4
 * torus figure config), re-admissions hit the schedule cache,
 * removals round-trip to the original schedule, every published
 * schedule is verifier-certified at the original period, the
 * online.* / repair.* counters account for the work, rejections
 * carry structured reasons, and the whole request pipeline is
 * deterministic.
 */

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "engine_fixture.hh"
#include "golden_churn.hh"
#include "metrics/metrics.hh"
#include "solver/lp.hh"

namespace srsim {
namespace golden {

/** Name a churn case in test output (its padding is not a value). */
void
PrintTo(const ChurnCase &cc, std::ostream *os)
{
    *os << cc.name;
}

} // namespace golden

namespace {

using OnlineAdmission = EngineTest;
using OnlineMetrics = EngineTest;
using OnlinePeriod = EngineTest;
using OnlineRejection = EngineTest;
using OnlineCache = EngineTest;

using online::AdmitSpec;
using online::RejectReason;
using online::Request;
using online::RequestKind;
using online::RequestResult;

std::string
goldenPath(const golden::ChurnCase &cc)
{
    return std::string(SRSIM_GOLDEN_DIR) + "/" + cc.name +
           ".sched";
}

std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

const golden::ChurnCase &
churnCase(const std::string &name)
{
    for (const auto &cc : golden::churnCases())
        if (name == cc.name)
            return cc;
    ADD_FAILURE() << "no churn case named " << name;
    static const golden::ChurnCase none{"", ""};
    return none;
}

class GoldenChurn
    : public ::testing::TestWithParam<golden::ChurnCase>
{
  protected:
    engine::EngineContext root;
};

TEST_P(GoldenChurn, MatchesPinnedBytes)
{
    const golden::ChurnCase cc = GetParam();
    const std::string want = readFileOrEmpty(goldenPath(cc));
    ASSERT_FALSE(want.empty())
        << "missing golden file " << goldenPath(cc)
        << " — run tools/regen_golden and commit the corpus";
    const golden::ChurnRun run = golden::runChurnCase(cc, root);
    EXPECT_EQ(want, run.scheduleText)
        << "churn case '" << cc.name
        << "' diverged; if intentional, refresh with "
           "tools/regen_golden.";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenChurn,
    ::testing::ValuesIn(golden::churnCases()),
    [](const ::testing::TestParamInfo<golden::ChurnCase> &info) {
        std::string n = info.param.name;
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

/**
 * The tentpole claim: one admission on the figure config re-solves
 * only the subsets the new message lands in — at least 80% of the
 * maximal related subsets are copied verbatim — and the published
 * schedule is verifier-certified at the original period.
 */
TEST_F(OnlineAdmission, SingleAdmitResolvesOnlyTouchedSubsets)
{
    const golden::ChurnRun run =
        golden::runChurnCase(churnCase("churn-admit"), root);
    ASSERT_EQ(run.results.size(), 1u);
    const RequestResult &r = run.results[0];
    EXPECT_TRUE(r.usedIncremental);
    EXPECT_FALSE(r.usedFullCompile);
    ASSERT_GT(r.subsetsTotal, 0u);
    EXPECT_GE(r.subsetsResolved, 1u);
    EXPECT_EQ(r.subsetsCopied + r.subsetsResolved,
              r.subsetsTotal);
    // >= 80% copied verbatim.
    EXPECT_GE(r.subsetsCopied * 5, r.subsetsTotal * 4)
        << "copied " << r.subsetsCopied << "/" << r.subsetsTotal;
    // Published at the original period, certified.
    EXPECT_EQ(run.final->omega.period, run.start.period);
    EXPECT_TRUE(run.final->verification.ok);
    EXPECT_EQ(run.final->version, 2u);
}

/** Admit + remove round-trips to the original schedule, by cache. */
TEST_F(OnlineAdmission, RemoveRoundTripsViaCache)
{
    const golden::ChurnRun run =
        golden::runChurnCase(churnCase("churn-remove"), root);
    ASSERT_EQ(run.results.size(), 2u);
    EXPECT_TRUE(run.results[1].usedCache);
    // The end state is byte-identical to the healthy fig10 golden.
    const std::string fig10 = readFileOrEmpty(
        std::string(SRSIM_GOLDEN_DIR) +
        "/fig10-torus444-b128.sched");
    ASSERT_FALSE(fig10.empty());
    EXPECT_EQ(run.scheduleText, fig10);
}

/** Re-admitting a removed message is a cache hit, not a re-solve. */
TEST_F(OnlineAdmission, ReadmitHitsCache)
{
    const golden::ChurnRun run =
        golden::runChurnCase(churnCase("churn-readmit"), root);
    ASSERT_EQ(run.results.size(), 3u);
    EXPECT_TRUE(run.results[2].usedCache);
    EXPECT_EQ(run.results[2].subsetsResolved, 0u);
    EXPECT_GE(run.cacheHits, 2u); // remove + readmit
    // Same end state as admitting once.
    const golden::ChurnRun once =
        golden::runChurnCase(churnCase("churn-admit"), root);
    EXPECT_EQ(run.scheduleText, once.scheduleText);
}

/** A batch is one coalesced re-solve, not five. */
TEST_F(OnlineAdmission, BatchCoalescesIntoOneResolve)
{
    const golden::ChurnRun run =
        golden::runChurnCase(churnCase("churn-batch5"), root);
    ASSERT_EQ(run.results.size(), 1u);
    const RequestResult &r = run.results[0];
    EXPECT_TRUE(r.usedIncremental || r.usedFullCompile);
    EXPECT_TRUE(run.final->verification.ok);
    EXPECT_EQ(run.final->omega.period, run.start.period);
    EXPECT_EQ(run.final->bounds.messages.size(),
              golden::runChurnCase(churnCase("churn-admit"), root)
                      .final->bounds.messages.size() +
                  4);
}

/** The whole request pipeline is a deterministic function. */
TEST_F(OnlineAdmission, Deterministic)
{
    const golden::ChurnRun a =
        golden::runChurnCase(churnCase("churn-batch5"), root);
    const golden::ChurnRun b =
        golden::runChurnCase(churnCase("churn-batch5"), root);
    EXPECT_EQ(a.scheduleText, b.scheduleText);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].subsetsResolved,
                  b.results[i].subsetsResolved);
        EXPECT_EQ(a.results[i].subsetsCopied,
                  b.results[i].subsetsCopied);
    }
}

/**
 * Byte-identical schedules do not show a warm re-solve that took a
 * different pivot path to the same vertex, so each churn scenario's
 * warm-start attempts, hits and total pivots are pinned too. With
 * the schedule cache on, the scenarios reach no warm start: the
 * opening compile stores no basis, so a first admit solves cold,
 * and every return to an earlier state is a cache hit. With it off,
 * the readmit re-solves its subsets from the bases the first admit
 * stored, and churn-resize's re-admits at new sizes pivot from them.
 */
TEST_F(OnlineAdmission, WarmStartCountsPinned)
{
    struct Pin
    {
        const char *name;
        bool scheduleCache;
        std::uint64_t attempts, hits, pivots;
    };
    const Pin pins[] = {
        {"churn-admit", true, 0, 0, 446},
        {"churn-remove", true, 0, 0, 446},
        {"churn-readmit", true, 0, 0, 446},
        {"churn-batch5", true, 0, 0, 650},
        {"churn-admit", false, 0, 0, 446},
        {"churn-remove", false, 0, 0, 446},
        {"churn-readmit", false, 12, 12, 446},
        {"churn-batch5", false, 0, 0, 650},
        // Two re-admits warm-start 11 and 10 subsets; 1 and 3 of
        // those warm re-solves pivot.
        {"churn-resize", false, 21, 21, 462},
    };
    for (const Pin &pin : pins) {
        const lp::SolverStats before = lp::solverStats();
        (void)golden::runChurnCase(churnCase(pin.name), root,
                                   pin.scheduleCache);
        const lp::SolverStats after = lp::solverStats();
        EXPECT_EQ(after.warmAttempts - before.warmAttempts,
                  pin.attempts)
            << pin.name << " cache " << pin.scheduleCache;
        EXPECT_EQ(after.warmHits - before.warmHits, pin.hits)
            << pin.name << " cache " << pin.scheduleCache;
        EXPECT_EQ(after.pivots - before.pivots, pin.pivots)
            << pin.name << " cache " << pin.scheduleCache;
    }
}

/** online.* counters account for the churn work. */
TEST_F(OnlineMetrics, CountersAccountForChurn)
{
    metrics::Registry::setEnabled(true);
    const golden::ChurnRun run =
        golden::runChurnCase(churnCase("churn-readmit"), root);
    metrics::Registry::setEnabled(false);

    std::map<std::string, std::uint64_t> c;
    for (const auto &[name, value] :
         root.metricsRegistry().counterSnapshot())
        c[name] = value;

    EXPECT_EQ(c["online.requests"], 4u); // start + 3 requests
    EXPECT_EQ(c["online.admitted"], 2u);
    EXPECT_EQ(c["online.removed"], 1u);
    EXPECT_EQ(c["online.rejected"], 0u);
    EXPECT_GE(c["online.incremental"], 1u);
    EXPECT_GE(c["online.cache_hits"], 2u);
    EXPECT_GE(c["online.subsets_copied"],
              c["online.subsets_resolved"]);
    (void)run;
}

/** InjectFault drives fault::repairSchedule: repair.* counters. */
TEST_F(OnlineMetrics, FaultRequestBumpsRepairCounters)
{
    const auto svc = golden::makeChurnService(root);
    ASSERT_TRUE(svc->start().accepted);

    metrics::Registry::setEnabled(true);
    const RequestResult r = svc->injectFault("link:0-1");
    metrics::Registry::setEnabled(false);

    std::map<std::string, std::uint64_t> c;
    for (const auto &[name, value] :
         root.metricsRegistry().counterSnapshot())
        c[name] = value;

    ASSERT_TRUE(r.accepted) << r.detail;
    EXPECT_EQ(c["online.faults_injected"], 1u);
    if (r.usedIncremental) {
        EXPECT_EQ(c["repair.incremental"], 1u);
        EXPECT_EQ(c["repair.subsets_resolved"],
                  r.subsetsResolved);
        EXPECT_EQ(c["repair.subsets_reused"], r.subsetsCopied);
    } else {
        EXPECT_GE(c["repair.full_recompiles"], 1u);
    }
    EXPECT_TRUE(svc->published()->verification.ok);
}

/** Rejections carry structured reasons, and reject atomically. */
TEST_F(OnlineRejection, StructuredReasons)
{
    const auto svc = golden::makeChurnService(root);
    AdmitSpec spec{"x0", "probe", "verify", 256.0};

    // Not started yet.
    EXPECT_EQ(svc->admit(spec).reason,
              RejectReason::InvalidRequest);

    ASSERT_TRUE(svc->start().accepted);
    const std::uint64_t v0 = svc->published()->version;

    // Unknown task.
    AdmitSpec bad = spec;
    bad.dst = "nonesuch";
    RequestResult r = svc->admit(bad);
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.reason, RejectReason::InvalidRequest);
    EXPECT_NE(r.detail.find("nonesuch"), std::string::npos);

    // Duplicate of an existing message.
    bad = spec;
    bad.name = "c"; // DVB chain message
    EXPECT_EQ(svc->admit(bad).reason,
              RejectReason::InvalidRequest);

    // Duplicate within one batch: all-or-nothing.
    EXPECT_EQ(svc->admitBatch({spec, spec}).reason,
              RejectReason::InvalidRequest);

    // Nonpositive size.
    bad = spec;
    bad.bytes = 0.0;
    EXPECT_EQ(svc->admit(bad).reason,
              RejectReason::InvalidRequest);

    // Remove of an unknown message.
    EXPECT_EQ(svc->remove("nonesuch").reason,
              RejectReason::InvalidRequest);

    // Bad period.
    EXPECT_EQ(svc->updatePeriod(-1.0).reason,
              RejectReason::InvalidRequest);

    // Malformed and timed fault specs.
    EXPECT_EQ(svc->injectFault("garbage!").reason,
              RejectReason::InvalidRequest);
    EXPECT_EQ(svc->injectFault("link:0-1@5").reason,
              RejectReason::InvalidRequest);

    // None of the rejections published anything.
    EXPECT_EQ(svc->published()->version, v0);
}

/**
 * An infeasible admission is classified, and when a stretched
 * period would fit, the caller learns the period.
 */
TEST_F(OnlineRejection, InfeasibleAdmissionIsClassified)
{
    const auto svc = golden::makeChurnService(root);
    ASSERT_TRUE(svc->start().accepted);
    const std::uint64_t v0 = svc->published()->version;

    // A message three orders of magnitude above the whole DVB
    // budget cannot fit at the current period.
    const RequestResult r =
        svc->admit({"huge", "input", "result", 5.0e6});
    ASSERT_FALSE(r.accepted);
    EXPECT_TRUE(r.reason == RejectReason::UtilizationCeiling ||
                r.reason == RejectReason::InfeasibleSubset ||
                r.reason == RejectReason::PeriodStretchRequired ||
                r.reason == RejectReason::InvalidRequest)
        << online::rejectReasonName(r.reason);
    if (r.reason == RejectReason::PeriodStretchRequired) {
        EXPECT_GT(r.requiredPeriod, r.period);
    }
    EXPECT_FALSE(r.detail.empty());
    EXPECT_EQ(svc->published()->version, v0);
    EXPECT_TRUE(svc->published()->verification.ok);
}

/** The script parser: structured errors, line numbers, batching. */
TEST(OnlineScript, ParsesAndRejectsStructurally)
{
    {
        std::istringstream is("# comment\n"
                              "admit a t1 t2 64\n"
                              "\n"
                              "batch 2\n"
                              "admit b t1 t2 64\n"
                              "admit c t2 t3 64\n"
                              "remove a\n"
                              "period 123.5\n"
                              "fault link:0-1;derate:#3=0.5\n");
        const online::ScriptParseResult r =
            online::parseRequestScript(is);
        ASSERT_TRUE(r.ok) << r.error;
        ASSERT_EQ(r.requests.size(), 5u);
        EXPECT_EQ(r.requests[0].kind, RequestKind::AdmitMessage);
        EXPECT_EQ(r.requests[1].admits.size(), 2u);
        EXPECT_EQ(r.requests[2].name, "a");
        EXPECT_EQ(r.requests[3].period, 123.5);
        EXPECT_EQ(r.requests[4].faultSpec,
                  "link:0-1;derate:#3=0.5");
    }
    {
        std::istringstream is("admit a t1 t2\n");
        const online::ScriptParseResult r =
            online::parseRequestScript(is);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.errorLine, 1);
    }
    {
        std::istringstream is("admit a t1 t2 64\nfrobnicate\n");
        const online::ScriptParseResult r =
            online::parseRequestScript(is);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.errorLine, 2);
    }
    {
        std::istringstream is("batch 3\nadmit a t1 t2 64\n");
        const online::ScriptParseResult r =
            online::parseRequestScript(is);
        EXPECT_FALSE(r.ok); // truncated batch group
    }
    {
        std::istringstream is("batch 2\nremove a\n");
        const online::ScriptParseResult r =
            online::parseRequestScript(is);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.errorLine, 2);
    }
    // Numbers are checked where they are parsed, not later by the
    // service: bytes and periods are positive and finite, a batch
    // count is a whole number in [1, kMaxBatch].
    for (const char *line :
         {"admit a t1 t2 -5\n", "admit a t1 t2 0\n",
          "admit a t1 t2 nan\n", "admit a t1 t2 64x\n",
          "period -1\n", "period inf\n", "batch 0\n", "batch 1.5\n",
          "batch 100001\n", "batch -2\n"}) {
        std::istringstream is(line);
        const online::ScriptParseResult r =
            online::parseRequestScript(is);
        EXPECT_FALSE(r.ok) << line;
        EXPECT_EQ(r.errorLine, 1) << line;
    }
    int n = 0;
    EXPECT_TRUE(online::parseBatchCount("100000", &n));
    EXPECT_EQ(n, online::kMaxBatch);
}

/** The canonical key identifies workloads, not construction order. */
TEST_F(OnlineCache, CanonicalKeyAndLru)
{
    const auto svc = golden::makeChurnService(root);
    ASSERT_TRUE(svc->start().accepted);
    // Admit/remove three distinct messages: six states, all cached.
    for (const char *n : {"k0", "k1", "k2"}) {
        ASSERT_TRUE(svc->admit({n, "probe", "verify", 256.0})
                        .accepted);
        ASSERT_TRUE(svc->remove(n).accepted);
    }
    // Every removal returns to the base workload: cache hits.
    EXPECT_GE(svc->cache().hits(), 3u);

    // LRU bound: capacity 1 keeps exactly one entry.
    online::ScheduleCache tiny(1);
    online::ScheduleCache::Entry e;
    tiny.insert("a", e);
    tiny.insert("b", e);
    EXPECT_EQ(tiny.size(), 1u);
    EXPECT_EQ(tiny.evictions(), 1u);
    EXPECT_EQ(tiny.lookup("a"), nullptr);
    EXPECT_NE(tiny.lookup("b"), nullptr);

    // The key covers the fault mask: degrading a link changes it.
    const DvbParams dvb;
    const TaskFlowGraph g = buildDvbTfg(dvb);
    const auto topo = makeTopology("torus:4,4,4");
    TimingModel tm;
    tm.apSpeed = dvb.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, *topo, 13);
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2.4 * tm.tauC(g);
    const std::string k1 =
        online::canonicalWorkloadKey(g, *topo, alloc, tm, cfg);
    topo->failLink(0);
    const std::string k2 =
        online::canonicalWorkloadKey(g, *topo, alloc, tm, cfg);
    EXPECT_NE(k1, k2);
    EXPECT_NE(online::fnv1a64(k1), online::fnv1a64(k2));
}

/**
 * The key covers the fabric wiring, not just its name: two fabrics
 * that share a name but wire their nodes differently route (and so
 * schedule) differently, and must not collide in the cache.
 */
TEST_F(OnlineCache, KeyCoversFabricWiring)
{
    class TwinFabric : public Topology
    {
      public:
        explicit TwinFabric(bool ring)
        {
            setNumNodes(4);
            if (ring) {
                addLink(0, 1);
                addLink(1, 2);
                addLink(2, 3);
                addLink(3, 0);
            } else {
                addLink(0, 1);
                addLink(0, 2);
                addLink(0, 3);
                addLink(1, 2);
            }
        }
        std::string name() const override { return "twin"; }

      protected:
        std::vector<Path>
        minimalPathsImpl(NodeId, NodeId, std::size_t) const override
        {
            return {};
        }
        Path
        routeLsdToMsdImpl(NodeId, NodeId) const override
        {
            return {};
        }
    };

    const DvbParams dvb;
    const TaskFlowGraph g = buildDvbTfg(dvb);
    TimingModel tm;
    tm.apSpeed = dvb.matchedApSpeed();
    tm.bandwidth = 128.0;
    SrCompilerConfig cfg{.ctx = &root};
    cfg.inputPeriod = 2.4 * tm.tauC(g);

    const TwinFabric ring(true);
    const TwinFabric star(false);
    ASSERT_EQ(ring.name(), star.name());
    ASSERT_EQ(ring.numNodes(), star.numNodes());
    ASSERT_EQ(ring.numLinks(), star.numLinks());

    const TaskAllocation alloc = alloc::roundRobin(g, ring, 13);
    const std::string kr =
        online::canonicalWorkloadKey(g, ring, alloc, tm, cfg);
    const std::string ks =
        online::canonicalWorkloadKey(g, star, alloc, tm, cfg);
    EXPECT_NE(kr, ks);
    EXPECT_NE(online::fnv1a64(kr), online::fnv1a64(ks));
}

/** UpdatePeriod republishes at the new period, certified. */
TEST_F(OnlinePeriod, UpdatePeriodRepublishes)
{
    const auto svc = golden::makeChurnService(root);
    ASSERT_TRUE(svc->start().accepted);
    const Time p0 = svc->currentPeriod();
    const RequestResult r = svc->updatePeriod(p0 * 1.5);
    ASSERT_TRUE(r.accepted) << r.detail;
    EXPECT_EQ(svc->published()->omega.period, p0 * 1.5);
    EXPECT_TRUE(svc->published()->verification.ok);
    // And back — this state was cached by start().
    const RequestResult back = svc->updatePeriod(p0);
    ASSERT_TRUE(back.accepted) << back.detail;
    EXPECT_TRUE(back.usedCache);
}

} // namespace
} // namespace srsim
