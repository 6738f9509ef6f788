/**
 * @file
 * Sparse Gauss-Jordan basis factorization. See factor.hh.
 *
 * The dense routine eliminates [B | I] row by row. Every column of
 * [B | I] evolves on its own under that elimination: step k scales
 * the pivot row by 1/pivot, then subtracts f_r times it from every
 * other row r, where the multipliers f_r are column k's entries at
 * step k. So the same arithmetic can run column by column, left to
 * right: column k of B is brought to step k by replaying steps
 * 0..k-1 on it, which yields step k's pivot and multipliers; each
 * column of I is then brought through all m steps, which yields the
 * matching column of B^-1.
 *
 * A replay visits only the steps whose pivot row holds a nonzero in
 * that column, and only the rows that step touches, so a column
 * costs its own fill-in rather than O(m).
 *
 * Why the result matches the dense routine bit for bit: every entry
 * undergoes the same multiply-subtracts in the same step order. Left
 * out are only
 *  - updates by a zero (a zero pivot-row entry or multiplier):
 *    subtracting f*0 from a nonzero leaves it unchanged, so skipping
 *    one can change only the sign of a zero, and a zero's sign
 *    reaches no later sum (every sum starts at +0), comparison or
 *    output;
 *  - columns of B after their own step: the dense routine keeps
 *    updating them, but never reads them again.
 * Row swaps exchange row indices instead of row data. A non-finite
 * multiplier turns the whole dense row into NaN (f * 0 is NaN), so
 * that basis can only end in a non-finite B^-1 and fail; the sparse
 * routine fails at once instead.
 */

#include "solver/factor.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

namespace srsim {
namespace lp {
namespace detail {

bool
factorizeBasis(const std::vector<SparseColumn> &cols,
               const std::vector<std::size_t> &basis,
               const std::vector<double> &b, std::vector<double> &binv,
               std::vector<double> &xB)
{
    const std::size_t m = basis.size();

    double scale = 0.0;
    for (std::size_t k = 0; k < m; ++k)
        for (const auto &[r, v] : cols[basis[k]])
            scale = std::max(scale, std::abs(v));
    const double tiny = 1e-12 * std::max(1.0, scale);

    // The dense routine's row order: perm[i] is the row now at
    // position i, pos[r] its inverse. Row perm[k] is step k's pivot
    // row once step k is done.
    std::vector<std::size_t> perm(m), pos(m);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::iota(pos.begin(), pos.end(), std::size_t{0});

    // The elimination so far: step k multiplied row perm[k] by
    // pivInv[k], then subtracted f times it from each (row, f) in
    // ops[opStart[k], opStart[k + 1]).
    std::vector<double> pivInv(m);
    std::vector<std::size_t> opStart(m + 1, 0);
    std::vector<std::pair<std::size_t, double>> ops;

    // One column at a time: its values by row (x), the rows it holds
    // (held, with inCol[r] == col marking them), and the steps still
    // due to touch it, as a bitmap over step numbers.
    std::vector<double> x(m, 0.0);
    std::vector<std::size_t> held;
    std::vector<std::uint32_t> inCol(m, 0);
    std::uint32_t col = 0;
    const std::size_t words = (m + 63) / 64;
    std::vector<std::uint64_t> due(words, 0);
    const auto markDue = [&](std::size_t step) {
        due[step / 64] |= std::uint64_t{1} << (step % 64);
    };
    // Start a new column with the entries `init`; the steps among
    // 0..steps-1 whose pivot row it holds fall due.
    const auto load = [&](const SparseColumn &init, std::size_t steps) {
        ++col;
        held.clear();
        for (const auto &[r, v] : init) {
            inCol[r] = col;
            held.push_back(r);
            x[r] = v;
            if (pos[r] < steps)
                markDue(pos[r]);
        }
    };
    // Apply steps 0..steps-1 to the loaded column, in step order.
    // A step is due when its pivot row is held; rows it reaches are
    // held from then on, and their own steps fall due if still
    // ahead.
    const auto replay = [&](std::size_t steps) {
        for (std::size_t w = 0; w < words; ++w) {
            while (due[w] != 0) {
                const std::size_t j =
                    w * 64 + static_cast<std::size_t>(
                                 std::countr_zero(due[w]));
                due[w] &= due[w] - 1;
                const std::size_t pr = perm[j];
                x[pr] *= pivInv[j];
                const double v = x[pr];
                if (v == 0.0)
                    continue;
                for (std::size_t o = opStart[j]; o < opStart[j + 1];
                     ++o) {
                    const auto [r, f] = ops[o];
                    if (inCol[r] != col) {
                        inCol[r] = col;
                        held.push_back(r);
                        if (pos[r] > j && pos[r] < steps)
                            markDue(pos[r]);
                    }
                    x[r] -= f * v;
                }
            }
        }
    };
    const auto clearColumn = [&]() {
        for (std::size_t r : held)
            x[r] = 0.0;
    };

    for (std::size_t k = 0; k < m; ++k) {
        load(cols[basis[k]], k);
        replay(k);

        // Pivot: the dense scan starts at position k and moves on
        // only to a strictly larger |value|, so it takes the lowest
        // position among the largest and never leaves a NaN at k.
        std::size_t piv = k;
        double pv = x[perm[k]];
        double best = std::abs(pv);
        for (std::size_t r : held) {
            const std::size_t p = pos[r];
            const double a = std::abs(x[r]);
            if (p > k && (a > best || (a == best && p < piv))) {
                piv = p;
                pv = x[r];
                best = a;
            }
        }
        if (!std::isfinite(pv) || std::abs(pv) <= tiny)
            return false;
        const std::size_t prow = perm[piv];
        std::swap(perm[k], perm[piv]);
        pos[perm[k]] = k;
        pos[perm[piv]] = piv;

        pivInv[k] = 1.0 / pv;
        for (std::size_t r : held) {
            const double f = x[r];
            if (r == prow || f == 0.0)
                continue;
            if (!std::isfinite(f))
                return false;
            ops.emplace_back(r, f);
        }
        opStart[k + 1] = ops.size();
        clearColumn();
    }

    // Every dense x_B term with b_k non-finite is non-finite (a zero
    // B^-1 entry gives NaN), so such a basis never factorizes.
    for (double v : b)
        if (!std::isfinite(v))
            return false;
    // Column k of I becomes column k of B^-1, at the final row
    // positions. Going by ascending k, each x_B_i sums its terms in
    // the dense routine's order.
    binv.assign(m * m, 0.0);
    xB.assign(m, 0.0);
    SparseColumn unit(1);
    for (std::size_t k = 0; k < m; ++k) {
        unit[0] = {k, 1.0};
        load(unit, m);
        replay(m);
        for (std::size_t r : held) {
            const std::size_t i = pos[r];
            binv[k * m + i] = x[r];
            xB[i] += x[r] * b[k];
        }
        clearColumn();
    }
    for (double s : xB)
        if (!std::isfinite(s))
            return false;
    return true;
}

} // namespace detail
} // namespace lp
} // namespace srsim
