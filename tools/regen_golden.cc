/**
 * @file
 * regen_golden — refresh the golden conformance corpus.
 *
 *   regen_golden [DIR]
 *
 * Recompiles every case of the conformance table (see
 * tests/golden_cases.hh) and rewrites DIR/<name>.sched (default:
 * tests/golden relative to the current directory). Run this ONLY
 * after an intentional change to compiler or repair output, then
 * review the diff like any other source change — the checked-in
 * bytes are the conformance contract that `ctest -L golden`
 * enforces.
 */

#include <fstream>
#include <iostream>
#include <string>

#include "golden_cases.hh"
#include "golden_churn.hh"

namespace {

bool
writeCase(const std::string &dir, const std::string &name,
          const std::string &text)
{
    const std::string path = dir + "/" + name + ".sched";
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write '" << path << "'\n";
        return false;
    }
    out << text;
    std::cout << path << ": " << text.size() << " bytes\n";
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : "tests/golden";
    try {
        const srsim::engine::EngineContext root;
        for (const auto &gc : srsim::golden::goldenCases())
            if (!writeCase(dir, gc.name,
                           srsim::golden::compileGoldenCase(gc, root)))
                return 1;
        for (const auto &cc : srsim::golden::churnCases())
            if (!writeCase(
                    dir, cc.name,
                    srsim::golden::runChurnCase(cc, root).scheduleText))
                return 1;
    } catch (const srsim::FatalError &e) {
        std::cerr << "regen_golden: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
