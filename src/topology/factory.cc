#include "topology/factory.hh"

#include <algorithm>

#include "topology/generalized_hypercube.hh"
#include "topology/mesh.hh"
#include "topology/mixed_radix.hh"
#include "topology/torus.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace srsim {

namespace {

/**
 * Parse "A,B,C" (MSD first) into LSD-first radices. Each extent is
 * a whole digits-only token >= 2: "4abc", "3.9", " 4" and the empty
 * item of "4,4," are refused.
 */
std::vector<int>
parseRadices(const std::string &spec, const std::string &list)
{
    std::vector<int> out;
    for (std::size_t start = 0;;) {
        const std::size_t comma = list.find(',', start);
        const std::string item = list.substr(start, comma - start);
        int v = 0;
        if (!parseStride(item, &v) || v < 2)
            fatal("invalid input: dimension extent '", item,
                  "' in topology spec '", spec,
                  "' must be an integer >= 2");
        out.push_back(v);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    std::reverse(out.begin(), out.end()); // to LSD-first
    return out;
}

[[noreturn]] void
tooLarge(const std::string &spec)
{
    fatal("invalid input: topology '", spec, "' has more than ",
          MixedRadix::kMaxSize, " nodes");
}

/** Fatal unless the extents' product fits MixedRadix's addresses. */
std::vector<int>
checkedSize(const std::string &spec, std::vector<int> radices)
{
    long n = 1;
    for (int m : radices) {
        n *= m; // n <= kMaxSize before the multiply: cannot overflow
        if (n > MixedRadix::kMaxSize)
            tooLarge(spec);
    }
    return radices;
}

} // namespace

std::unique_ptr<Topology>
makeTopology(const std::string &spec)
{
    const auto colon = spec.find(':');
    if (colon == std::string::npos)
        fatal("invalid input: topology spec '", spec,
              "' must look like kind:dims (e.g. torus:8,8)");
    const std::string kind = spec.substr(0, colon);
    const std::string dims = spec.substr(colon + 1);

    if (kind == "cube") {
        int n = 0;
        if (!parseStride(dims, &n))
            fatal("invalid input: cube dimension '", dims,
                  "' must be an integer >= 1");
        if (n > 30 || (1L << n) > MixedRadix::kMaxSize) // 2^n nodes
            tooLarge(spec);
        return std::make_unique<GeneralizedHypercube>(
            GeneralizedHypercube::binaryCube(n));
    }
    if (kind == "ghc")
        return std::make_unique<GeneralizedHypercube>(
            checkedSize(spec, parseRadices(spec, dims)));
    if (kind == "torus")
        return std::make_unique<Torus>(
            checkedSize(spec, parseRadices(spec, dims)));
    if (kind == "mesh")
        return std::make_unique<Mesh>(
            checkedSize(spec, parseRadices(spec, dims)));
    fatal("invalid input: unknown topology kind '", kind,
          "' (use cube, ghc, torus, or mesh)");
}

} // namespace srsim
