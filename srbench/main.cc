/**
 * @file
 * Entry point of the srsim benchmark.
 *
 *   srbench --workload compile|churn --seed N --seconds S
 *           --trace 0|1 --golden-dir DIR --state-dir DIR
 *           [--git-sha SHA] [--flip-expected-verdict]
 *
 * Prints a human summary on stderr, one JSON detail record on
 * stdout (seed, host and build metadata, per-case numbers, counts,
 * run-quality flags), and, as the last stdout line, the result:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones, with --trace 1 the per-layer
 * ones; both lists are fixed below and match BENCHMARK.json. A
 * failed output check makes the result say "correct": false. Exits
 * 0 whenever a result is printed, 2 on a bad command line, and 3
 * when the run itself broke.
 */

#include <algorithm>
#include <exception>
#include <iostream>
#include <sstream>

#include "common.hh"

namespace {

/**
 * A second seed, never used while the benchmark or a change is
 * being tuned: a claimed gain is re-checked on it.
 */
constexpr std::uint64_t kHeldOutSeed = 7919;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics: every workload measures all of them. */
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"latency_ms_mean", "ms"},
    {"latency_ms_p90", "ms"},  {"capacity_rps", "1/s"},
    {"peak_rss_mb", "MiB"},
};

/**
 * Per-layer metrics of the traced run. A workload reports those of
 * the layers on its path; the rest print as 0 and are listed under
 * "not_on_path" in the detail record.
 */
const MetricSpec kPerLayer[] = {
    {"core.time_bounds.ms", "ms"},
    {"core.intervals.ms", "ms"},
    {"core.path_assignment.ms", "ms"},
    {"core.subsets.ms", "ms"},
    {"core.interval_allocation.ms", "ms"},
    {"core.interval_scheduling.ms", "ms"},
    {"core.verifier.ms", "ms"},
    {"core.stage_coverage", "frac"},
    {"core.path_assignment.restarts", "count"},
    {"core.path_assignment.reroutes", "count"},
    {"core.path_assignment.peak_u", "frac"},
    {"core.subsets.count", "count"},
    {"solver.solves", "count"},
    {"solver.pivots", "count"},
    {"solver.warmstart.hit_frac", "frac"},
    {"solver.warmstart.hits", "count"},
    {"solver.warmstart.attempts", "count"},
    {"online.process_ms.p50", "ms"},
    {"online.process_ms.p99", "ms"},
    {"online.subsets_copied_frac", "frac"},
    {"online.subsets_copied", "count"},
    {"online.subsets_touched", "count"},
    {"server.queue_ms.p50", "ms"},
    {"server.queue_ms.p99", "ms"},
    {"server.wal.append_ms", "ms"},
    {"server.wal.sync_ms", "ms"},
    {"server.wal.records_per_fsync", "ratio"},
    {"server.wal.records", "count"},
    {"server.wal.fsyncs", "count"},
    {"trace.overhead_pct", "%"},
};

/**
 * Put the workload's metrics in catalogue order, filling the layers
 * it does not use with 0. @return the names so filled.
 */
template <std::size_t N>
std::vector<std::string>
orderMetrics(srbench::Outcome &out, const MetricSpec (&specs)[N],
             bool allowMissing)
{
    std::vector<srbench::Metric> ordered;
    std::vector<std::string> missing;
    for (const MetricSpec &spec : specs) {
        const auto it = std::find_if(
            out.metrics.begin(), out.metrics.end(),
            [&](const srbench::Metric &m) { return m.name == spec.name; });
        if (it != out.metrics.end()) {
            if (it->unit != spec.unit)
                throw std::logic_error(std::string("unit of ") +
                                       spec.name + " is " + it->unit);
            ordered.push_back(*it);
            continue;
        }
        if (!allowMissing)
            throw std::logic_error(std::string("no value for ") +
                                   spec.name);
        ordered.push_back({spec.name, 0.0, spec.unit});
        missing.push_back(spec.name);
    }
    if (ordered.size() != out.metrics.size() + missing.size())
        throw std::logic_error("workload reported an unlisted metric");
    out.metrics = std::move(ordered);
    return missing;
}

void
printResult(const srbench::Outcome &out)
{
    std::ostringstream os;
    srsim::JsonWriter w(os);
    w.fullPrecision();
    w.beginObject();
    w.kv("correct", out.problems.empty() && out.failed == 0);
    w.kv("attempted", out.attempted);
    w.kv("failed", out.failed);
    w.key("metrics").beginObject();
    for (const srbench::Metric &m : out.metrics) {
        w.key(m.name).beginObject();
        w.kv("value", m.value);
        w.kv("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::cout << os.str() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    srbench::Args args;
    std::string err;
    if (!srbench::parseArgs(argc, argv, args, &err)) {
        std::cerr << "srbench: " << err << "\n";
        return 2;
    }
    if (args.workload != "compile" && args.workload != "churn") {
        std::cerr << "srbench: unknown workload '" << args.workload
                  << "' (compile or churn)\n";
        return 2;
    }

    srbench::Outcome out;
    std::ostringstream detail;
    try {
        srsim::JsonWriter w(detail);
        w.fullPrecision();
        w.beginObject();
        w.key("srbench").beginObject();
        w.kv("workload", args.workload);
        w.kv("seed", args.seed);
        w.kv("held_out_seed", kHeldOutSeed);
        w.kv("seconds", args.seconds);
        w.kv("trace", args.trace);
        w.key("host").beginObject();
        srbench::writeHostMetadata(w, args);
        w.endObject();
        if (args.workload == "compile")
            srbench::runCompileWorkload(args, out, w);
        else
            srbench::runChurnWorkload(args, out, w);
        const std::vector<std::string> notOnPath =
            args.trace ? orderMetrics(out, kPerLayer, true)
                       : orderMetrics(out, kEndToEnd, false);
        w.key("not_on_path").beginArray();
        for (const std::string &n : notOnPath)
            w.value(n);
        w.endArray();
        w.key("problems").beginArray();
        for (const std::string &p : out.problems)
            w.value(p);
        w.endArray();
        w.key("flags").beginArray();
        for (const std::string &f : out.flags)
            w.value(f);
        w.endArray();
        w.endObject();
        w.endObject();
    } catch (const std::exception &e) {
        std::cerr << "srbench: run failed: " << e.what() << "\n";
        return 3;
    }

    for (const std::string &p : out.problems)
        std::cerr << "srbench: CHECK FAILED: " << p << "\n";
    for (const std::string &f : out.flags)
        std::cerr << "srbench: flag: " << f << "\n";
    std::cout << detail.str() << "\n";
    printResult(out);
    return 0;
}
