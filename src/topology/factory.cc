#include "topology/factory.hh"

#include <algorithm>
#include <sstream>

#include "topology/generalized_hypercube.hh"
#include "topology/mesh.hh"
#include "topology/mixed_radix.hh"
#include "topology/torus.hh"
#include "util/logging.hh"

namespace srsim {

namespace {

/** Parse "A,B,C" (MSD first) into LSD-first radices. */
std::vector<int>
parseRadices(const std::string &list)
{
    std::vector<int> out;
    std::istringstream ls(list);
    std::string item;
    while (std::getline(ls, item, ',')) {
        if (item.empty())
            fatal("empty dimension in topology spec '", list, "'");
        int v = 0;
        try {
            v = std::stoi(item);
        } catch (const std::exception &) {
            fatal("bad dimension '", item, "' in topology spec");
        }
        if (v < 2)
            fatal("dimension extents must be >= 2, got ", v);
        out.push_back(v);
    }
    if (out.empty())
        fatal("topology spec lists no dimensions");
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
        fatal("topology spec '", spec,
              "' must look like kind:dims (e.g. torus:8,8)");
    const std::string kind = spec.substr(0, colon);
    const std::string dims = spec.substr(colon + 1);

    if (kind == "cube") {
        int n = 0;
        try {
            n = std::stoi(dims);
        } catch (const std::exception &) {
            fatal("bad cube dimension '", dims, "'");
        }
        if (n < 1)
            fatal("cube dimension must be >= 1");
        if (n > 30 || (1L << n) > MixedRadix::kMaxSize) // 2^n nodes
            tooLarge(spec);
        return std::make_unique<GeneralizedHypercube>(
            GeneralizedHypercube::binaryCube(n));
    }
    if (kind == "ghc")
        return std::make_unique<GeneralizedHypercube>(
            checkedSize(spec, parseRadices(dims)));
    if (kind == "torus")
        return std::make_unique<Torus>(
            checkedSize(spec, parseRadices(dims)));
    if (kind == "mesh")
        return std::make_unique<Mesh>(
            checkedSize(spec, parseRadices(dims)));
    fatal("unknown topology kind '", kind,
          "' (use cube, ghc, torus, or mesh)");
}

} // namespace srsim
