/**
 * @file
 * Topology factory: build a fabric from a compact spec string.
 *
 * Specs (dimension extents MSD-first, as printed by name()):
 *   cube:N        binary N-cube
 *   ghc:A,B,...   generalized hypercube GHC(A,B,...)
 *   torus:A,B,... torus
 *   mesh:A,B,...  mesh
 *
 * Used by the srsimc command-line tool and by parameterized tests.
 */

#ifndef SRSIM_TOPOLOGY_FACTORY_HH_
#define SRSIM_TOPOLOGY_FACTORY_HH_

#include <memory>
#include <string>

#include "topology/topology.hh"

namespace srsim {

/**
 * Build a topology from a spec string.
 * Fatal ("invalid input") on malformed specs, on extents that are
 * not whole digits-only tokens >= 2 (cube: >= 1), and on fabrics
 * with more nodes than MixedRadix can address.
 */
std::unique_ptr<Topology> makeTopology(const std::string &spec);

} // namespace srsim

#endif // SRSIM_TOPOLOGY_FACTORY_HH_
