/**
 * @file
 * Shared pieces of the srsim benchmark driver: arguments, the run
 * outcome every workload fills in, sample statistics, and host
 * metadata. See srbench/README.md for what each workload measures.
 */

#ifndef SRBENCH_COMMON_HH_
#define SRBENCH_COMMON_HH_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sr_compiler.hh"
#include "util/json.hh"

namespace srbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed from `a` to `b`. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * CPU time this thread has consumed (ms). Unlike wall time, it does
 * not grow while the thread waits for a core, for instance while a
 * hypervisor runs another guest. It still grows when neighbours
 * slow the core down (shared caches, memory bandwidth).
 */
double threadCpuMs();

/** CPU time all threads of this process have consumed (ms). */
double processCpuMs();

/** Command-line arguments of one benchmark run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory holding the golden <case>.sched files. */
    std::string goldenDir;
    /** Scratch directory for daemon state (created, then removed). */
    std::string stateDir;
    /** Source revision the binary was built from ("unknown" when
        the checkout carries no git metadata). */
    std::string gitSha = "unknown";
    /**
     * Self-test hook: invert the expected verdict of the first
     * replayed request, so the verdict check must report failure.
     */
    bool flipExpectedVerdict = false;
};

/** Parse argv; @return false with *err set on a bad command line. */
bool parseArgs(int argc, char **argv, Args &args, std::string *err);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run produced. */
struct Outcome
{
    /** Operations the run attempted and how many of them failed
        (refused, rejected, or with a wrong output). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Output-check failures, human-readable (empty = correct). */
    std::vector<std::string> problems;
    /** Run-quality warnings that do not make the output wrong. */
    std::vector<std::string> flags;
    /** The metrics of this mode (end-to-end or per-layer). */
    std::vector<Metric> metrics;

    void
    problem(std::string what)
    {
        problems.push_back(std::move(what));
    }
    void
    metric(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Linear-interpolated percentile (p in [0, 100]); 0 when empty. */
double percentile(std::vector<double> v, double p);

inline double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &v);

/** Geometric mean of positive values. */
double geomean(const std::vector<double> &v);

/**
 * Set-up time samples. A workload sets up several times, spread over
 * the run, so that the median follows the host's speed over the
 * whole run rather than over its first seconds.
 */
struct SetupTimes
{
    std::vector<double> cpuS, wallS;

    /** Run `fn()` and record its time: CPU of this thread, and wall. */
    template <typename F>
    void
    time(F &&fn)
    {
        const auto t0 = Clock::now();
        const double c0 = threadCpuMs();
        fn();
        cpuS.push_back((threadCpuMs() - c0) / 1000.0);
        wallS.push_back(msBetween(t0, Clock::now()) / 1000.0);
    }

    /** The reported set-up time: median CPU seconds. */
    double
    medianS() const
    {
        return median(cpuS);
    }
};

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Write host and build metadata as fields of the open object. */
void writeHostMetadata(srsim::JsonWriter &w, const Args &args);

/** Read a whole file; @return false when it cannot be read. */
bool readFile(const std::string &path, std::string *out);

/** Samples as a JSON object {n, mean, p50, p90, p99, min, max}. */
void writeSummary(srsim::JsonWriter &w, const std::string &key,
                  const std::vector<double> &v);

/** Set-up times: the reported CPU median and every sample. */
void writeSetup(srsim::JsonWriter &w, const SetupTimes &setups);

/** splitmix64: the benchmark's seeded input generator. */
class SeededStream
{
  public:
    explicit SeededStream(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    /** Uniform integer in [0, n). */
    std::size_t
    below(std::size_t n)
    {
        return static_cast<std::size_t>(next() % n);
    }

  private:
    std::uint64_t s_;
};

/** Serialized schedule: the bytes a golden .sched file holds. */
std::string scheduleBytes(const srsim::GlobalSchedule &omega);

/** The compile pipeline's stages (Fig. 3), in order. */
constexpr int kStages = 7;
extern const char *const kStageNames[kStages];

/** One compile replayed stage by stage through core's functions. */
struct StageReplay
{
    bool ok = false;
    /** Why the replay produced no schedule (when !ok). */
    std::string why;
    /** Time inside each stage's call (ms). */
    double stageMs[kStages] = {};
    /** Time from the first stage's start to the last one's end. */
    double wallMs = 0.0;
    srsim::GlobalSchedule omega;
    int restarts = 0;
    int reroutes = 0;
    std::size_t subsets = 0;
    double peakU = 0.0;
    /** LP solves and pivots (counted only while metrics are on). */
    std::uint64_t solves = 0;
    std::uint64_t pivots = 0;
};

/**
 * Replay compileScheduledRouting() for a feasible problem as its
 * separate stage calls (time bounds, intervals, AssignPaths,
 * subsets, allocation LP, interval scheduling, verifier), timing
 * each from outside. `cfg.ctx` must be set.
 */
StageReplay replayCompileByStage(const srsim::TaskFlowGraph &g,
                                 const srsim::Topology &topo,
                                 const srsim::TaskAllocation &alloc,
                                 const srsim::TimingModel &tm,
                                 const srsim::SrCompilerConfig &cfg);

/** The workloads; each fills `out` and writes its detail fields. */
void runCompileWorkload(const Args &args, Outcome &out,
                        srsim::JsonWriter &detail);
void runChurnWorkload(const Args &args, Outcome &out,
                      srsim::JsonWriter &detail);

} // namespace srbench

#endif // SRBENCH_COMMON_HH_
