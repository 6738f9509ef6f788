/**
 * @file
 * Internal to the solver layer: the basis factorization behind the
 * revised simplex (solver/revised.cc). Exposed in its own header so
 * that tests can hold it against a dense Gauss-Jordan oracle; no
 * other code should call it.
 */

#ifndef SRSIM_SOLVER_FACTOR_HH_
#define SRSIM_SOLVER_FACTOR_HH_

#include <cstddef>
#include <utility>
#include <vector>

namespace srsim {
namespace lp {
namespace detail {

/** One standard-form column: (row, coefficient), rows ascending. */
using SparseColumn = std::vector<std::pair<std::size_t, double>>;

/**
 * Invert the basis B whose k-th column is cols[basis[k]] and set
 * x_B = B^-1 b.
 *
 * The result is bit for bit what Gauss-Jordan with partial pivoting
 * over a dense [B | I] gives (largest |pivot| among the uneliminated
 * rows, ties to the lowest row, fail at <= 1e-12 * max(1, max|B|)),
 * except that a zero may carry the other sign. The elimination runs
 * column by column and visits only nonzeros, so it costs the fill-in
 * it creates rather than O(m^2) per column; the one O(m^2) pass left
 * is zero-filling the dense B^-1.
 *
 * @param binv out: B^-1 column-major, binv[k*m + i] = B^-1(i, k)
 * @param xB out: x_B, summed over k ascending
 * @return false on a (numerically) singular basis or a non-finite
 *         B^-1 or x_B; the outputs are then unspecified.
 */
bool factorizeBasis(const std::vector<SparseColumn> &cols,
                    const std::vector<std::size_t> &basis,
                    const std::vector<double> &b,
                    std::vector<double> &binv,
                    std::vector<double> &xB);

} // namespace detail
} // namespace lp
} // namespace srsim

#endif // SRSIM_SOLVER_FACTOR_HH_
