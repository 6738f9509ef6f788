/**
 * @file
 * srfuzz — the deterministic differential fuzzer for the SR
 * compiler (compile → verify → simulate cross-check).
 *
 * Modes:
 *
 *   srfuzz --seeds N [--start S]
 *       Generate and run N seed-derived cases. Every failure is
 *       auto-shrunk and dumped as a replayable .srfuzz file.
 *
 *   srfuzz --minutes M [--start S]
 *       Time-boxed smoke run: consume seeds from S until M minutes
 *       of wall clock have elapsed.
 *
 *   srfuzz --replay FILE [--shrink]
 *       Re-run one saved case; optionally shrink it further and
 *       write FILE.min.
 *
 *   srfuzz --corpus DIR
 *       Replay every *.srfuzz under DIR (the regression corpus).
 *
 * Common flags: [--out DIR] (failure dump directory, default '.'),
 * [--invocations N], [--max-shrink-evals N], [--no-shrink].
 *
 * [--solver-diff] additionally runs every LP solve through the
 * dense tableau, the sparse revised solver (cold), and — when a
 * warm basis is offered — the warm-started revised solver, and
 * cross-checks status agreement and objective equality to 1e-6
 * relative. Any disagreement is a failure.
 *
 * Exit status: 0 when every case behaved (no aborts, no oracle
 * divergences, no solver disagreements), 1 when any failure was
 * found, 2 on usage errors.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/differential.hh"
#include "fuzz/fuzz_case.hh"
#include "fuzz/generator.hh"
#include "fuzz/shrink.hh"
#include "solver/lp.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace {

using namespace srsim;

struct Options
{
    std::map<std::string, std::string> kv;

    bool has(const std::string &k) const { return kv.count(k); }

    std::string
    str(const std::string &k, const std::string &dflt = "") const
    {
        auto it = kv.find(k);
        return it == kv.end() ? dflt : it->second;
    }

    /** A numeric flag: absent -> dflt, else one finite number. */
    double
    num(const std::string &k, double dflt) const
    {
        auto it = kv.find(k);
        if (it == kv.end())
            return dflt;
        double v = 0.0;
        if (!parseFinite(it->second, &v))
            fatal("invalid input: --", k,
                  " expects a finite number, got '", it->second, "'");
        return v;
    }
};

int
usage()
{
    std::cerr <<
        "usage:\n"
        "  srfuzz --seeds N [--start S] [--out DIR]\n"
        "  srfuzz --minutes M [--start S] [--out DIR]\n"
        "  srfuzz --replay FILE [--shrink]\n"
        "  srfuzz --emit-seed N            (print a case)\n"
        "  srfuzz --corpus DIR\n"
        "common: [--invocations N] [--max-shrink-evals N]\n"
        "        [--no-shrink] [--quiet] [--multi]\n"
        "        [--solver-diff]\n"
        "--solver-diff cross-checks every LP solve across the\n"
        "dense, sparse-cold, and warm-started solvers (status +\n"
        "objective to 1e-6); any disagreement fails the run.\n"
        "--multi draws multi-session daemon cases (crash-recovery\n"
        "oracle) instead of batch/churn cases.\n"
        "Flags also accept --key=value.\n";
    return 2;
}

/** Tally of verdicts over a run. */
struct Tally
{
    std::size_t feasible = 0, infeasible = 0, invalid = 0,
                failures = 0;

    void
    add(fuzz::Verdict v)
    {
        switch (v) {
          case fuzz::Verdict::Feasible: ++feasible; break;
          case fuzz::Verdict::Infeasible: ++infeasible; break;
          case fuzz::Verdict::InvalidCase: ++invalid; break;
          case fuzz::Verdict::Failure: ++failures; break;
        }
    }

    std::size_t
    total() const
    {
        return feasible + infeasible + invalid + failures;
    }
};

std::ostream &
operator<<(std::ostream &os, const Tally &t)
{
    return os << t.total() << " cases: " << t.feasible
              << " feasible, " << t.infeasible << " infeasible, "
              << t.invalid << " invalid-case, " << t.failures
              << " FAILURES";
}

/** Shrink (unless disabled) and dump a failing case. */
void
dumpFailure(const fuzz::FuzzCase &c, const fuzz::RunResult &r,
            const Options &opts)
{
    const fuzz::RunOptions run_opts{
        static_cast<int>(opts.num("invocations", 30)), 5, 1e-6};

    fuzz::FuzzCase final = c;
    if (!opts.has("no-shrink")) {
        fuzz::ShrinkStats st;
        final = fuzz::shrinkCase(
            c,
            [&](const fuzz::FuzzCase &cand) {
                return fuzz::runCase(cand, run_opts).failed();
            },
            static_cast<std::size_t>(
                opts.num("max-shrink-evals", 400)),
            &st);
        std::cerr << "  shrunk: -" << st.messagesRemoved
                  << " messages, -" << st.tasksRemoved
                  << " tasks, " << st.knobsSimplified
                  << " knobs simplified (" << st.evaluations
                  << " evals)\n";
    }

    const std::filesystem::path dir(opts.str("out", "."));
    std::filesystem::create_directories(dir);
    std::ostringstream name;
    name << "seed" << c.seed << ".srfuzz";
    const std::filesystem::path path = dir / name.str();
    std::ofstream out(path);
    if (!out)
        fatal("cannot write '", path.string(), "'");
    out << "# " << r.report << "\n";
    fuzz::writeFuzzCase(out, final);
    std::cerr << "  dumped to " << path.string() << "\n";
}

/** Run one generated seed; returns its verdict. */
fuzz::Verdict
runSeed(std::uint64_t seed, const Options &opts, const bool quiet)
{
    const fuzz::RunOptions run_opts{
        static_cast<int>(opts.num("invocations", 30)), 5, 1e-6};
    const fuzz::FuzzCase c = opts.has("multi")
                                 ? fuzz::generateMultiCase(seed)
                                 : fuzz::generateCase(seed);
    const fuzz::RunResult r = fuzz::runCase(c, run_opts);
    if (r.failed()) {
        std::cerr << "seed " << seed << " FAILURE: " << r.report
                  << "\n";
        dumpFailure(c, r, opts);
    } else if (!quiet) {
        std::cout << "seed " << seed << ": "
                  << fuzz::verdictName(r.verdict) << "\n";
    }
    return r.verdict;
}

int
cmdSeeds(const Options &opts)
{
    const auto start =
        static_cast<std::uint64_t>(opts.num("start", 0));
    const auto n = static_cast<std::uint64_t>(opts.num("seeds", 0));
    const bool quiet = opts.has("quiet");

    Tally tally;
    for (std::uint64_t s = start; s < start + n; ++s)
        tally.add(runSeed(s, opts, quiet));
    std::cout << "srfuzz seeds " << start << ".."
              << (start + n - 1) << ": " << tally << "\n";
    return tally.failures ? 1 : 0;
}

int
cmdMinutes(const Options &opts)
{
    const auto start =
        static_cast<std::uint64_t>(opts.num("start", 0));
    const double minutes = opts.num("minutes", 1.0);
    const bool quiet = opts.has("quiet");
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::ratio<60>>(minutes));

    Tally tally;
    std::uint64_t s = start;
    while (std::chrono::steady_clock::now() < deadline)
        tally.add(runSeed(s++, opts, quiet));
    std::cout << "srfuzz minutes " << minutes << " (seeds " << start
              << ".." << (s - 1) << "): " << tally << "\n";
    return tally.failures ? 1 : 0;
}

int
replayOne(const std::filesystem::path &path, const Options &opts,
          Tally &tally)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '", path.string(), "'");
    const fuzz::FuzzCase c = fuzz::readFuzzCase(in);
    const fuzz::RunOptions run_opts{
        static_cast<int>(opts.num("invocations", 30)), 5, 1e-6};
    const fuzz::RunResult r = fuzz::runCase(c, run_opts);
    tally.add(r.verdict);
    std::cout << path.string() << ": "
              << fuzz::verdictName(r.verdict)
              << (r.report.empty() ? "" : " — " + r.report) << "\n";

    if (r.failed() && opts.has("shrink")) {
        const fuzz::FuzzCase min = fuzz::shrinkCase(
            c,
            [&](const fuzz::FuzzCase &cand) {
                return fuzz::runCase(cand, run_opts).failed();
            },
            static_cast<std::size_t>(
                opts.num("max-shrink-evals", 400)));
        const std::filesystem::path out_path =
            path.string() + ".min";
        std::ofstream out(out_path);
        if (!out)
            fatal("cannot write '", out_path.string(), "'");
        out << "# " << r.report << "\n";
        fuzz::writeFuzzCase(out, min);
        std::cout << "shrunk case written to " << out_path.string()
                  << "\n";
    }
    return r.failed() ? 1 : 0;
}

int
cmdReplay(const Options &opts)
{
    Tally tally;
    return replayOne(opts.str("replay"), opts, tally);
}

int
cmdEmit(const Options &opts)
{
    // Corpus curation: print the generated case for a seed so it
    // can be reviewed and checked in under tests/corpus/.
    const auto seed =
        static_cast<std::uint64_t>(opts.num("emit-seed", 0));
    fuzz::writeFuzzCase(std::cout,
                        opts.has("multi")
                            ? fuzz::generateMultiCase(seed)
                            : fuzz::generateCase(seed));
    return 0;
}

int
cmdCorpus(const Options &opts)
{
    const std::filesystem::path dir(opts.str("corpus"));
    if (!std::filesystem::is_directory(dir))
        fatal("'", dir.string(), "' is not a directory");

    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".srfuzz")
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    if (files.empty())
        fatal("no .srfuzz files under '", dir.string(), "'");

    Tally tally;
    for (const auto &f : files)
        replayOne(f, opts, tally);
    std::cout << "srfuzz corpus " << dir.string() << ": " << tally
              << "\n";
    return tally.failures ? 1 : 0;
}

/**
 * Report the cross-solver tally and escalate the exit status when
 * any solve disagreed (--solver-diff runs only).
 */
int
finishSolverDiff(int rc)
{
    const srsim::lp::SolverDiffStats ds =
        srsim::lp::solverDiffStats();
    std::cout << "srfuzz solver-diff: " << ds.solves
              << " solves cross-checked, " << ds.disagreements
              << " disagreements\n";
    if (ds.disagreements != 0) {
        if (!ds.firstReport.empty())
            std::cerr << "first disagreement: " << ds.firstReport
                      << "\n";
        return rc == 0 ? 1 : rc;
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            return usage();
        arg = arg.substr(2);
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            opts.kv[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (arg == "no-shrink" || arg == "quiet" ||
                   arg == "shrink" || arg == "multi" ||
                   arg == "solver-diff") {
            opts.kv[arg] = "1";
        } else if (i + 1 < argc) {
            opts.kv[arg] = argv[++i];
        } else {
            return usage();
        }
    }

    const bool solver_diff = opts.has("solver-diff");
    if (solver_diff)
        srsim::lp::setSolverDiff(true);

    try {
        int rc;
        if (opts.has("replay"))
            rc = cmdReplay(opts);
        else if (opts.has("emit-seed"))
            rc = cmdEmit(opts);
        else if (opts.has("corpus"))
            rc = cmdCorpus(opts);
        else if (opts.has("minutes"))
            rc = cmdMinutes(opts);
        else if (opts.has("seeds"))
            rc = cmdSeeds(opts);
        else
            return usage();
        return solver_diff ? finishSolverDiff(rc) : rc;
    } catch (const srsim::FatalError &) {
        return 2;
    }
}
