/**
 * @file
 * Unit and property tests for the two-phase simplex LP solver.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "solver/lp.hh"
#include "solver/tableau.hh"
#include "util/matrix.hh"
#include "util/rng.hh"

namespace srsim {
namespace {

using lp::Problem;
using lp::Relation;
using lp::Solution;
using lp::Status;

TEST(LpTest, TrivialUnconstrainedMinimumIsZero)
{
    Problem p;
    p.addVariable(1.0);
    const Solution s = lp::solve(p);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_NEAR(s.objective, 0.0, 1e-9);
    EXPECT_NEAR(s.values[0], 0.0, 1e-9);
}

TEST(LpTest, SimpleMaximizationViaNegatedCosts)
{
    // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6  ->  min -3x - 2y.
    Problem p;
    const auto x = p.addVariable(-3.0, "x");
    const auto y = p.addVariable(-2.0, "y");
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 4.0);
    p.addConstraint({{x, 1.0}, {y, 3.0}}, Relation::LessEq, 6.0);
    const Solution s = lp::solve(p);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_NEAR(s.objective, -12.0, 1e-6); // x=4, y=0
    EXPECT_NEAR(s.values[x], 4.0, 1e-6);
    EXPECT_NEAR(s.values[y], 0.0, 1e-6);
}

TEST(LpTest, EqualityConstraintRespected)
{
    // min x + 2y s.t. x + y = 3, y >= 1.
    Problem p;
    const auto x = p.addVariable(1.0, "x");
    const auto y = p.addVariable(2.0, "y");
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 3.0);
    p.addConstraint({{y, 1.0}}, Relation::GreaterEq, 1.0);
    const Solution s = lp::solve(p);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_NEAR(s.values[x] + s.values[y], 3.0, 1e-6);
    EXPECT_NEAR(s.values[y], 1.0, 1e-6);
    EXPECT_NEAR(s.objective, 4.0, 1e-6);
}

TEST(LpTest, InfeasibleDetected)
{
    // x <= 1 and x >= 2 cannot both hold.
    Problem p;
    const auto x = p.addVariable(1.0, "x");
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 1.0);
    p.addConstraint({{x, 1.0}}, Relation::GreaterEq, 2.0);
    EXPECT_EQ(lp::solve(p).status, Status::Infeasible);
}

TEST(LpTest, InfeasibleEqualitySystemDetected)
{
    // x + y = 1 and x + y = 2.
    Problem p;
    const auto x = p.addVariable(0.0);
    const auto y = p.addVariable(0.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 2.0);
    EXPECT_EQ(lp::solve(p).status, Status::Infeasible);
}

TEST(LpTest, UnboundedDetected)
{
    // min -x with only x >= 1: x can grow without bound.
    Problem p;
    const auto x = p.addVariable(-1.0);
    p.addConstraint({{x, 1.0}}, Relation::GreaterEq, 1.0);
    EXPECT_EQ(lp::solve(p).status, Status::Unbounded);
}

TEST(LpTest, NegativeRhsNormalized)
{
    // -x <= -2  <=>  x >= 2; min x -> 2.
    Problem p;
    const auto x = p.addVariable(1.0);
    p.addConstraint({{x, -1.0}}, Relation::LessEq, -2.0);
    const Solution s = lp::solve(p);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_NEAR(s.values[x], 2.0, 1e-6);
}

TEST(LpTest, RedundantConstraintsHandled)
{
    Problem p;
    const auto x = p.addVariable(1.0);
    p.addConstraint({{x, 1.0}}, Relation::GreaterEq, 1.0);
    p.addConstraint({{x, 2.0}}, Relation::GreaterEq, 2.0); // same
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 5.0);
    const Solution s = lp::solve(p);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_NEAR(s.values[x], 1.0, 1e-6);
}

TEST(LpTest, DegenerateVertexTerminates)
{
    // Classic degeneracy: multiple constraints meet at the optimum.
    Problem p;
    const auto x = p.addVariable(-1.0);
    const auto y = p.addVariable(-1.0);
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 1.0);
    p.addConstraint({{y, 1.0}}, Relation::LessEq, 1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 2.0);
    p.addConstraint({{x, 1.0}, {y, 2.0}}, Relation::LessEq, 3.0);
    const Solution s = lp::solve(p);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_NEAR(s.objective, -2.0, 1e-6);
}

TEST(LpTest, TransportationLikeProblem)
{
    // Two suppliers (cap 10, 20), two demands (8, 12); minimize
    // transport cost; classic LP with known optimum.
    Problem p;
    const auto x11 = p.addVariable(1.0);
    const auto x12 = p.addVariable(4.0);
    const auto x21 = p.addVariable(2.0);
    const auto x22 = p.addVariable(1.0);
    p.addConstraint({{x11, 1.0}, {x12, 1.0}}, Relation::LessEq, 10.0);
    p.addConstraint({{x21, 1.0}, {x22, 1.0}}, Relation::LessEq, 20.0);
    p.addConstraint({{x11, 1.0}, {x21, 1.0}}, Relation::Equal, 8.0);
    p.addConstraint({{x12, 1.0}, {x22, 1.0}}, Relation::Equal, 12.0);
    const Solution s = lp::solve(p);
    ASSERT_EQ(s.status, Status::Optimal);
    // Optimal: x11=8 (cost 8), x22=12 (cost 12) -> 20.
    EXPECT_NEAR(s.objective, 20.0, 1e-6);
}

TEST(LpTest, SolutionValuesNonNegative)
{
    Problem p;
    const auto x = p.addVariable(-1.0);
    const auto y = p.addVariable(1.0);
    p.addConstraint({{x, 1.0}, {y, -1.0}}, Relation::LessEq, 2.0);
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 3.0);
    const Solution s = lp::solve(p);
    ASSERT_EQ(s.status, Status::Optimal);
    for (double v : s.values)
        EXPECT_GE(v, -1e-9);
}

TEST(LpTest, ConstraintWithUnknownVariablePanics)
{
    Problem p;
    p.addVariable(1.0);
    lp::Constraint c;
    c.terms.emplace_back(5, 1.0);
    EXPECT_THROW(p.addConstraint(std::move(c)), PanicError);
}

/**
 * Property suite: random feasibility problems built from a known
 * feasible point must be reported feasible, and the returned
 * solution must satisfy every constraint.
 */
class LpRandomFeasible : public ::testing::TestWithParam<int>
{};

TEST_P(LpRandomFeasible, SolutionSatisfiesAllConstraints)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const int nvar = rng.uniformInt(3, 10);
    const int ncon = rng.uniformInt(2, 12);

    Problem p;
    std::vector<double> feas;
    for (int i = 0; i < nvar; ++i) {
        p.addVariable(rng.uniformReal(-2.0, 2.0));
        feas.push_back(rng.uniformReal(0.0, 5.0));
    }
    std::vector<lp::Constraint> cons;
    for (int c = 0; c < ncon; ++c) {
        lp::Constraint con;
        double lhs = 0.0;
        for (int i = 0; i < nvar; ++i) {
            if (rng.chance(0.6)) {
                const double a = rng.uniformReal(-3.0, 3.0);
                con.terms.emplace_back(static_cast<std::size_t>(i),
                                       a);
                lhs += a * feas[static_cast<std::size_t>(i)];
            }
        }
        if (con.terms.empty())
            continue;
        // Make the constraint hold at the feasible point.
        if (rng.chance(0.5)) {
            con.rel = Relation::LessEq;
            con.rhs = lhs + rng.uniformReal(0.0, 4.0);
        } else {
            con.rel = Relation::GreaterEq;
            con.rhs = lhs - rng.uniformReal(0.0, 4.0);
        }
        cons.push_back(con);
        p.addConstraint(con);
    }
    // Bound every variable so the LP cannot be unbounded.
    for (int i = 0; i < nvar; ++i) {
        lp::Constraint bound;
        bound.terms.emplace_back(static_cast<std::size_t>(i), 1.0);
        bound.rel = Relation::LessEq;
        bound.rhs = 50.0;
        cons.push_back(bound);
        p.addConstraint(bound);
    }

    const Solution s = lp::solve(p);
    ASSERT_EQ(s.status, Status::Optimal) << "seed " << GetParam();
    for (const auto &con : cons) {
        double lhs = 0.0;
        for (const auto &[idx, a] : con.terms)
            lhs += a * s.values[idx];
        if (con.rel == Relation::LessEq)
            EXPECT_LE(lhs, con.rhs + 1e-6);
        else if (con.rel == Relation::GreaterEq)
            EXPECT_GE(lhs, con.rhs - 1e-6);
        else
            EXPECT_NEAR(lhs, con.rhs, 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRandomFeasible,
                         ::testing::Range(1, 26));

// ---------------------------------------------------------------
// Numerical-hardening regressions. Each of these failed before the
// solver moved to scale-relative tolerances and the sticky Bland
// switch: the first was silently accepted, the second aborted the
// process, the third hit the iteration limit by cycling.
// ---------------------------------------------------------------

TEST(LpNumericsTest, TinyInfeasiblePairIsNotSwallowed)
{
    // x = 1e-7 and x = 2e-7 differ by less than the old *absolute*
    // phase-1 threshold (1e-6), which accepted this system as
    // feasible. The relative test must reject it.
    Problem p;
    const auto x = p.addVariable(1.0, "x");
    p.addConstraint({{x, 1.0}}, Relation::Equal, 1e-7);
    p.addConstraint({{x, 1.0}}, Relation::Equal, 2e-7);
    EXPECT_EQ(lp::solve(p).status, Status::Infeasible);
}

TEST(LpNumericsTest, DegeneratePivotReturnsStatusNotAbort)
{
    // A pivot column of magnitude 1e-13 under eps = 1e-15 used to
    // trip the absolute degenerate-pivot assertion and abort. Any
    // status is acceptable; escaping exceptions are not.
    Problem p;
    const auto x = p.addVariable(-1.0, "x");
    p.addConstraint({{x, 1e-13}}, Relation::LessEq, 1.0);
    lp::SolveOptions opts;
    opts.eps = 1e-15;
    Solution s;
    EXPECT_NO_THROW(s = lp::solve(p, opts));
    EXPECT_TRUE(s.status == Status::Optimal ||
                s.status == Status::Unbounded ||
                s.status == Status::NumericalFailure)
        << lp::statusName(s.status);
}

TEST(LpNumericsTest, BealeCycleSolvesUnderTightPivotBudget)
{
    // Beale's classic cycling instance. Dantzig pricing alone
    // cycles forever; a Bland switch that is not sticky re-enters
    // the cycle. With the sticky switch the optimum (-1/20) is
    // reached well within 16 pivots.
    Problem p;
    const auto x1 = p.addVariable(-0.75, "x1");
    const auto x2 = p.addVariable(150.0, "x2");
    const auto x3 = p.addVariable(-0.02, "x3");
    const auto x4 = p.addVariable(6.0, "x4");
    p.addConstraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                    Relation::LessEq, 0.0);
    p.addConstraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                    Relation::LessEq, 0.0);
    p.addConstraint({{x3, 1.0}}, Relation::LessEq, 1.0);
    lp::SolveOptions opts;
    opts.maxIterations = 16;
    const Solution s = lp::solve(p, opts);
    ASSERT_EQ(s.status, Status::Optimal) << lp::statusName(s.status);
    EXPECT_NEAR(s.objective, -0.05, 1e-9);
}

TEST(LpNumericsTest, LargeScaleFeasibleSystemNotMisclassified)
{
    // At rhs scale 1e12 the phase-1 residual after elimination is
    // far above the old absolute 1e-6 threshold even for a clean
    // feasible system; the relative test must accept it.
    Problem p;
    const auto x = p.addVariable(1.0, "x");
    const auto y = p.addVariable(1.0, "y");
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 1e12);
    p.addConstraint({{x, 1.0}, {y, -1.0}}, Relation::Equal, 2e8);
    const Solution s = lp::solve(p);
    ASSERT_EQ(s.status, Status::Optimal) << lp::statusName(s.status);
    EXPECT_NEAR(s.values[x] + s.values[y], 1e12, 1.0);
}

TEST(LpNumericsTest, MixedScaleCoefficientsStayOptimal)
{
    // Columns spanning ~1e8 in magnitude: per-column relative
    // tolerances must neither reject the pivot nor misprice.
    Problem p;
    const auto x = p.addVariable(1.0, "x");
    const auto y = p.addVariable(1e-4, "y");
    p.addConstraint({{x, 1e8}, {y, 1.0}}, Relation::GreaterEq, 1e8);
    p.addConstraint({{x, 1.0}, {y, 1e-8}}, Relation::LessEq, 10.0);
    const Solution s = lp::solve(p);
    ASSERT_EQ(s.status, Status::Optimal) << lp::statusName(s.status);
}

TEST(LpNumericsTest, MipOnIllScaledRelaxationSurvives)
{
    // Branch and bound over a large-scale relaxation: the solver
    // must neither abort nor return a fractional incumbent.
    Problem p;
    const auto x = p.addVariable(-1.0, "x");
    const auto y = p.addVariable(-1.0, "y");
    p.markInteger(x);
    p.markInteger(y);
    p.addConstraint({{x, 1e6}, {y, 1e6}}, Relation::LessEq, 7.5e6);
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 5.0);
    const Solution s = lp::solveMip(p);
    ASSERT_EQ(s.status, Status::Optimal) << lp::statusName(s.status);
    EXPECT_NEAR(s.values[x] + s.values[y], 7.0, 1e-6);
}


// ---------------------------------------------------------------
// The tableau pivot eliminates over the pivot row's nonzero columns
// only. Oracle: the dense pivot it replaced, kept here verbatim.
// ---------------------------------------------------------------

bool
densePivot(Matrix<double> &t_, std::size_t row, std::size_t col,
           double tol)
{
    const std::size_t m_ = t_.rows() - 1, n_ = t_.cols() - 1;
    const double pv = t_(row, col);
    if (!std::isfinite(pv) || !(std::abs(pv) > tol))
        return false;
    const double inv = 1.0 / pv;
    for (std::size_t c = 0; c <= n_; ++c)
        t_(row, c) *= inv;
    t_(row, col) = 1.0;
    for (std::size_t r = 0; r <= m_; ++r) {
        if (r == row)
            continue;
        const double f = t_(r, col);
        if (f == 0.0)
            continue;
        for (std::size_t c = 0; c <= n_; ++c)
            t_(r, c) -= f * t_(row, c);
        t_(r, col) = 0.0;
    }
    return true;
}

/** Pivots both tableaus and holds the fast one to the oracle. */
class PivotPair
{
  public:
    explicit PivotPair(Matrix<double> t) : oracle_(t), fast_(std::move(t))
    {}

    const Matrix<double> &tableau() const { return fast_; }
    std::size_t zeroSignFlips() const { return flips_; }
    std::size_t pivots() const { return pivots_; }

    /**
     * Pivot on (row, col): both must agree on refusal; the RHS
     * column must be bit-equal and every other cell bit-equal or a
     * zero in both (+0 == -0).
     */
    ::testing::AssertionResult
    pivot(std::size_t row, std::size_t col)
    {
        const bool want = densePivot(oracle_, row, col, 1e-9);
        const bool got =
            lp::detail::pivotTableau(fast_, row, col, 1e-9, nz_);
        if (want != got)
            return ::testing::AssertionFailure()
                   << "refusal differs at (" << row << ", " << col
                   << ")";
        pivots_ += got;
        const std::size_t rhs = fast_.cols() - 1;
        for (std::size_t r = 0; r < fast_.rows(); ++r) {
            for (std::size_t c = 0; c <= rhs; ++c) {
                const double a = oracle_(r, c), b = fast_(r, c);
                if (std::bit_cast<std::uint64_t>(a) ==
                    std::bit_cast<std::uint64_t>(b))
                    continue;
                if (c != rhs && a == 0.0 && b == 0.0) {
                    ++flips_;
                    continue;
                }
                return ::testing::AssertionFailure()
                       << "cell (" << r << ", " << c << ") after pivot "
                       << pivots_ << ": dense " << a << " vs " << b;
            }
        }
        return ::testing::AssertionSuccess();
    }

  private:
    Matrix<double> oracle_;
    Matrix<double> fast_;
    std::vector<std::size_t> nz_;
    std::size_t flips_ = 0;
    std::size_t pivots_ = 0;
};

/** A nonzero column of constraint row r, or n when there is none. */
std::size_t
randomNonzero(const Matrix<double> &t, std::size_t r, Rng &rng,
              bool negativeOnly)
{
    std::vector<std::size_t> cols;
    for (std::size_t c = 0; c + 1 < t.cols(); ++c)
        if (t(r, c) != 0.0 && (!negativeOnly || t(r, c) < 0.0))
            cols.push_back(c);
    return cols.empty() ? t.cols() - 1 : cols[rng.index(cols.size())];
}

TEST(TableauPivotOracle, RandomSparseTableausMatchDense)
{
    std::size_t flips = 0, pivots = 0, negative = 0;
    for (int seed = 1; seed <= 200; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed));
        const std::size_t m = static_cast<std::size_t>(
            rng.uniformInt(1, 12));
        const std::size_t n = static_cast<std::size_t>(
            rng.uniformInt(2, 24));
        Matrix<double> t(m + 1, n + 1, 0.0);
        for (std::size_t r = 0; r <= m; ++r) {
            for (std::size_t c = 0; c <= n; ++c) {
                if (rng.chance(0.3))
                    t(r, c) = rng.chance(0.5)
                                  ? rng.uniformInt(-4, 4)
                                  : rng.uniformReal(-5.0, 5.0);
                else if (rng.chance(0.2))
                    t(r, c) = -0.0;
            }
        }
        PivotPair pair(std::move(t));
        for (int step = 0; step < 40; ++step) {
            const std::size_t r = rng.index(m);
            const std::size_t c =
                randomNonzero(pair.tableau(), r, rng, false);
            if (c == n)
                continue;
            negative += pair.tableau()(r, c) < 0.0;
            ASSERT_TRUE(pair.pivot(r, c)) << "seed " << seed;
        }
        flips += pair.zeroSignFlips();
        pivots += pair.pivots();
    }
    // Not vacuous: negative pivots ran and zeros did change sign.
    EXPECT_GT(pivots, 2000u);
    EXPECT_GT(negative, 500u);
    EXPECT_GT(flips, 0u);
}

/**
 * The tableau of one interval-allocation LP (see
 * core/interval_allocation.cc): per message h, sum_k X_hk = d_h
 * (artificial) and X_hk <= len_k (slack); per link and interval,
 * sum_h X_hk - cap * Z <= 0 (slack). Row m is the phase-1 objective.
 */
struct AllocationTableau
{
    Matrix<double> t;
    std::vector<std::size_t> basis;
    std::vector<bool> artificial;
};

AllocationTableau
allocationTableau(Rng &rng)
{
    const auto draw = [&](int lo, int hi) {
        return static_cast<std::size_t>(rng.uniformInt(lo, hi));
    };
    const std::size_t msgs = draw(2, 6), ivs = draw(2, 5),
                      links = draw(2, 5);
    // Each message is active in a run of intervals and crosses a
    // random set of links.
    std::vector<std::vector<std::size_t>> active(msgs);
    std::vector<std::vector<bool>> on(msgs);
    std::size_t nx = 0;
    for (std::size_t h = 0; h < msgs; ++h) {
        const std::size_t lo = draw(0, static_cast<int>(ivs) - 1);
        const std::size_t hi =
            draw(static_cast<int>(lo), static_cast<int>(ivs) - 1);
        for (std::size_t k = lo; k <= hi; ++k, ++nx)
            active[h].push_back(k);
        for (std::size_t l = 0; l < links; ++l)
            on[h].push_back(rng.chance(0.5));
    }
    // Columns: X, Z, slacks, artificials. Rows: msgs equalities, nx
    // bounds, links*ivs capacities.
    const std::size_t z = nx;
    const std::size_t m = msgs + nx + links * ivs;
    const std::size_t nslack = m - msgs;
    const std::size_t n = nx + 1 + nslack + msgs;
    AllocationTableau a{Matrix<double>(m + 1, n + 1, 0.0),
                        std::vector<std::size_t>(m, 0),
                        std::vector<bool>(n, false)};
    std::vector<double> len(ivs);
    for (double &v : len)
        v = rng.uniformInt(2, 9) * 2.5;
    std::size_t row = 0, x = 0, slack = nx + 1, art = nx + 1 + nslack;
    for (std::size_t h = 0; h < msgs; ++h) {
        for (std::size_t j = 0; j < active[h].size(); ++j)
            a.t(row, x + j) = 1.0;
        a.t(row, n) = rng.uniformInt(1, 8) * 1.25;
        a.t(row, art) = 1.0;
        a.artificial[art] = true;
        a.basis[row++] = art++;
        for (std::size_t k : active[h]) {
            a.t(row, x++) = 1.0;
            a.t(row, n) = len[k] - 0.5;
            a.t(row, slack) = 1.0;
            a.basis[row++] = slack++;
        }
    }
    for (std::size_t l = 0; l < links; ++l) {
        for (std::size_t k = 0; k < ivs; ++k) {
            std::size_t xv = 0;
            for (std::size_t h = 0; h < msgs; ++h) {
                for (std::size_t kk : active[h]) {
                    if (kk == k && on[h][l])
                        a.t(row, xv) = 1.0;
                    ++xv;
                }
            }
            a.t(row, z) = -len[k] * rng.uniformInt(1, 2);
            a.t(row, slack) = 1.0;
            a.basis[row++] = slack++;
        }
    }
    // Phase-1 objective: sum of artificials, priced out.
    for (std::size_t c = 0; c < n; ++c)
        a.t(m, c) = a.artificial[c] ? 1.0 : 0.0;
    for (std::size_t r = 0; r < m; ++r)
        if (a.artificial[a.basis[r]])
            for (std::size_t c = 0; c <= n; ++c)
                a.t(m, c) -= a.t(r, c);
    return a;
}

TEST(TableauPivotOracle, AllocationShapedTableausMatchDense)
{
    std::size_t flips = 0, pivots = 0, negative = 0;
    for (int seed = 1; seed <= 150; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed) * 7919);
        AllocationTableau a = allocationTableau(rng);
        const std::size_t m = a.t.rows() - 1, n = a.t.cols() - 1;
        PivotPair pair(a.t);
        for (int step = 0; step < 3 * static_cast<int>(m); ++step) {
            const Matrix<double> &t = pair.tableau();
            std::size_t row = m, col = n;
            if (rng.chance(0.25)) {
                // A negative pivot, as no simplex step would take.
                row = rng.index(m);
                col = randomNonzero(t, row, rng, true);
                negative += col != n;
            } else {
                // Dantzig entering column, minimum-ratio row.
                double best = -1e-9;
                for (std::size_t c = 0; c < n; ++c)
                    if (!a.artificial[c] && t(m, c) < best) {
                        best = t(m, c);
                        col = c;
                    }
                double ratio = std::numeric_limits<double>::infinity();
                for (std::size_t r = 0; col != n && r < m; ++r)
                    if (t(r, col) > 1e-9 && t(r, n) / t(r, col) < ratio) {
                        ratio = t(r, n) / t(r, col);
                        row = r;
                    }
            }
            if (col == n || row == m)
                continue;
            ASSERT_TRUE(pair.pivot(row, col)) << "seed " << seed;
        }
        flips += pair.zeroSignFlips();
        pivots += pair.pivots();
    }
    EXPECT_GT(pivots, 1000u);
    EXPECT_GT(negative, 200u);
    EXPECT_GT(flips, 0u);
}

TEST(TableauPivotOracle, NonFiniteMultiplierMatchesDense)
{
    // A non-finite multiplier turns x - f*(+-0) into NaN; the pivot
    // must then eliminate every column, as the dense one did.
    for (double bad : {std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
        Matrix<double> t(3, 4, 0.0);
        t(0, 0) = 2.0;
        t(0, 3) = 4.0;
        t(1, 0) = bad;
        t(1, 1) = 1.0;
        t(2, 0) = -1.0;
        t(2, 2) = 3.0;
        PivotPair pair(std::move(t));
        ASSERT_TRUE(pair.pivot(0, 0)) << bad;
        EXPECT_TRUE(std::isnan(pair.tableau()(1, 1))) << bad;
    }
}

} // namespace
} // namespace srsim
