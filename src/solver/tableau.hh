/**
 * @file
 * Internal to the solver layer: the Gauss-Jordan pivot of the dense
 * simplex tableau (solver/lp.cc). Exposed in its own header so that
 * tests can hold it against the dense oracle it replaces; no other
 * code should call it.
 */

#ifndef SRSIM_SOLVER_TABLEAU_HH_
#define SRSIM_SOLVER_TABLEAU_HH_

#include <cstddef>
#include <vector>

#include "util/matrix.hh"

namespace srsim {
namespace lp {
namespace detail {

/**
 * Pivot the tableau `t` on (row, col): scale the pivot row by the
 * pivot element's inverse, then eliminate `col` from every other
 * row. The last column is the RHS; the last row is the objective.
 *
 * The pivot element must be finite and exceed `tol` in magnitude, or
 * the pivot is refused and `t` left untouched.
 *
 * The other rows are eliminated over the pivot row's nonzero columns
 * and the RHS column only. While the row's multiplier f is finite,
 * skipping a column where the pivot row holds a zero changes at most
 * the sign of a zero (x - f*(+-0) == x unless x is itself a zero),
 * so the result is bit for bit the dense elimination's except that a
 * zero may carry the other sign; the RHS column is bit-identical.
 * A non-finite f is eliminated over every column, as densely.
 *
 * @param nz scratch for the nonzero column list (its content on
 *        return is unspecified)
 * @return true if the pivot was applied
 */
bool pivotTableau(Matrix<double> &t, std::size_t row, std::size_t col,
                  double tol, std::vector<std::size_t> &nz);

} // namespace detail
} // namespace lp
} // namespace srsim

#endif // SRSIM_SOLVER_TABLEAU_HH_
