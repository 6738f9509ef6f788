/**
 * @file
 * Property/fuzz suite for the full SR compiler: seeded random
 * layered TFGs on random fabrics from the topology factory, compiled
 * end to end. Properties pinned:
 *
 *  - every schedule the compiler reports feasible passes the
 *    *independent* verifier (the compiler's own gate is disabled so
 *    it cannot vouch for itself);
 *  - every infeasible report names the failing stage and carries a
 *    human-readable detail;
 *  - compilation is deterministic: serial (1 thread) and parallel
 *    (2, 8 threads) compiles of the same instance serialize to
 *    byte-identical schedules.
 */

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/schedule_io.hh"
#include "core/sr_compiler.hh"
#include "core/verifier.hh"
#include "engine_fixture.hh"
#include "mapping/allocation.hh"
#include "metrics/metrics.hh"
#include "tfg/random_tfg.hh"
#include "tfg/timing.hh"
#include "topology/factory.hh"
#include "trace/trace.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace srsim {
namespace {

using PropertyCompileTest = EngineTest;

/** One randomized compile instance, fully determined by its seed. */
struct Instance
{
    TaskFlowGraph g;
    std::unique_ptr<Topology> topo;
    TaskAllocation alloc{1, 1}; // placeholder until allocated
    TimingModel tm;
    SrCompilerConfig cfg;
};

/** The instance for `seed`, compiling under `ctx`. */
Instance
makeInstance(std::uint64_t seed, const engine::EngineContext &ctx)
{
    Rng rng(deriveSeed(0xF00D, seed));

    RandomTfgParams p;
    p.layers = rng.uniformInt(3, 5);
    p.minWidth = 1;
    p.maxWidth = rng.uniformInt(2, 3);
    p.edgeProbability = rng.uniformReal(0.4, 0.9);
    p.skipProbability = rng.uniformReal(0.0, 0.2);
    p.minOps = 100.0;
    p.maxOps = 1500.0;
    p.minBytes = 64.0;
    p.maxBytes = 2048.0;

    Instance in;
    in.g = buildRandomTfg(p, rng);

    static const char *kSpecs[] = {
        "cube:3",    "cube:4",   "torus:4,4", "torus:8",
        "mesh:3,3",  "ghc:2,4",  "ghc:3,3",   "torus:2,2,2",
    };
    in.topo = makeTopology(
        kSpecs[rng.index(sizeof(kSpecs) / sizeof(kSpecs[0]))]);

    // The timing model requires tau_m <= tau_c (communication fits
    // inside one pipeline stage). Pick the bandwidth, then derive an
    // AP speed from the graph actually drawn so the largest message
    // never outlasts the largest task: with
    //   apSpeed = f * maxOps * bandwidth / maxBytes,  f <= 1,
    // tau_c = maxOps / apSpeed = maxBytes / (f * bandwidth) >= tau_m.
    in.tm.bandwidth = rng.chance(0.5) ? 64.0 : 128.0;
    double maxOps = 0.0, maxBytes = 0.0;
    for (TaskId t = 0; t < in.g.numTasks(); ++t)
        maxOps = std::max(maxOps, in.g.task(t).operations);
    for (MessageId m = 0; m < in.g.numMessages(); ++m)
        maxBytes = std::max(maxBytes, in.g.message(m).bytes);
    in.tm.apSpeed = rng.uniformReal(0.3, 1.0) * maxOps *
                    in.tm.bandwidth / maxBytes;

    in.alloc = rng.chance(0.5)
                   ? alloc::roundRobin(in.g, *in.topo,
                                       rng.uniformInt(1, 13))
                   : alloc::random(in.g, *in.topo, rng);

    in.cfg.ctx = &ctx;
    in.cfg.inputPeriod =
        rng.uniformReal(1.0, 3.0) * in.tm.tauC(in.g);
    // The property below re-verifies independently; the compiler
    // must not get credit for its internal gate.
    in.cfg.verify = false;
    in.cfg.assign.maxRestarts = 2;
    in.cfg.assign.seed = deriveSeed(seed, 1);
    return in;
}

TEST_F(PropertyCompileTest, FeasibleImpliesVerifiedInfeasibleNamesStage)
{
    ThreadPool::setGlobalSize(ThreadPool::configuredSize());
    int feasible = 0, infeasible = 0;
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const Instance in = makeInstance(seed, root);
        const SrCompileResult r = compileScheduledRouting(
            in.g, *in.topo, in.alloc, in.tm, in.cfg);

        if (r.feasible) {
            ++feasible;
            const VerifyResult v =
                verifySchedule(in.g, *in.topo, in.alloc, r.bounds,
                               r.omega);
            EXPECT_TRUE(v.ok)
                << "seed " << seed << " on " << in.topo->name()
                << ": "
                << (v.violations.empty() ? "?"
                                         : v.violations.front());
        } else {
            ++infeasible;
            EXPECT_NE(r.stage, SrFailureStage::None)
                << "seed " << seed;
            EXPECT_FALSE(r.detail.empty()) << "seed " << seed;
            const std::string name = srFailureStageName(r.stage);
            EXPECT_TRUE(name == "utilization" ||
                        name == "allocation" ||
                        name == "scheduling" ||
                        name == "verification")
                << "seed " << seed << " stage " << name;
        }
    }
    // The generator must exercise both outcomes, or the properties
    // above are vacuous.
    EXPECT_GT(feasible, 0);
    EXPECT_GT(infeasible, 0);
    ThreadPool::setGlobalSize(1);
}

/** Serialized schedule text, or the failure stage on infeasibility. */
std::string
compileFingerprint(const Instance &in)
{
    const SrCompileResult r = compileScheduledRouting(
        in.g, *in.topo, in.alloc, in.tm, in.cfg);
    if (!r.feasible)
        return std::string("infeasible:") +
               srFailureStageName(r.stage) + ":" + r.detail;
    std::ostringstream oss;
    writeSchedule(oss, r.omega);
    return oss.str();
}

TEST_F(PropertyCompileTest, SerialAndParallelCompilesAreByteIdentical)
{
    for (std::uint64_t seed : {3ull, 11ull, 27ull, 42ull}) {
        const Instance in = makeInstance(seed, root);

        ThreadPool::setGlobalSize(1);
        const std::string serial = compileFingerprint(in);
        for (std::size_t threads : {2u, 8u}) {
            ThreadPool::setGlobalSize(threads);
            EXPECT_EQ(compileFingerprint(in), serial)
                << "seed " << seed << " threads " << threads;
        }
        ThreadPool::setGlobalSize(1);
    }
}

/**
 * Observability must be pure observation: with tracing and metrics
 * switched on, every compile still serializes byte-identically to
 * the untraced serial baseline, at 1, 2, and 8 threads.
 */
TEST_F(PropertyCompileTest, ObservabilityDoesNotPerturbCompiles)
{
    for (std::uint64_t seed : {3ull, 27ull}) {
        const Instance in = makeInstance(seed, root);

        ThreadPool::setGlobalSize(1);
        const std::string baseline = compileFingerprint(in);

        trace::Tracer::setEnabled(true);
        metrics::Registry::setEnabled(true);
        for (std::size_t threads : {1u, 2u, 8u}) {
            ThreadPool::setGlobalSize(threads);
            root.tracer().clear();
            EXPECT_EQ(compileFingerprint(in), baseline)
                << "seed " << seed << " threads " << threads;
            EXPECT_GT(root.tracer().size(), 0u)
                << "tracing was supposed to be on";
        }
        trace::Tracer::setEnabled(false);
        metrics::Registry::setEnabled(false);
        ThreadPool::setGlobalSize(1);
    }
}

} // namespace
} // namespace srsim
