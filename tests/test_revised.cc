/**
 * @file
 * Sparse revised simplex + warm-start suite (label: solver).
 *
 * Covers the two roles of src/solver/revised.cc:
 *
 *  - as the independent differential oracle: solveRevised must agree
 *    with the dense tableau on status and objective (alternate
 *    optimal vertices allowed) across random feasible, infeasible,
 *    and unbounded instances;
 *  - as the production warm-start path: a re-solve from a cached
 *    basis finishes in a handful of pivots, survives branch-row
 *    churn via dual-simplex steps, and falls back to the
 *    deterministic cold tableau (bit-identical values) whenever the
 *    basis is stale, foreign, or the instance turned infeasible.
 *
 * The basis factorization (solver/factor.hh) is held bit for bit
 * against the dense [B | I] Gauss-Jordan it replaced, kept here as
 * the oracle.
 *
 * Plus the bookkeeping the bench and service summaries rely on:
 * cumulative Solution::pivots across phases and branch-and-bound
 * nodes, SolverStats warm-start accounting, and the single-working-
 * instance guarantee of solveMip (mipProblemCopies == 1).
 */

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "solver/factor.hh"
#include "solver/lp.hh"
#include "solver/revised.hh"
#include "util/rng.hh"

namespace srsim {
namespace {

using lp::Basis;
using lp::Problem;
using lp::Relation;
using lp::Solution;
using lp::SolveOptions;
using lp::Status;

/** A small non-degenerate LP with a unique bounded optimum. */
Problem
sampleLp()
{
    // min -3x - 2y  s.t.  x + y <= 4, x + 3y <= 6.
    Problem p;
    const auto x = p.addVariable(-3.0, "x");
    const auto y = p.addVariable(-2.0, "y");
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 4.0);
    p.addConstraint({{x, 1.0}, {y, 3.0}}, Relation::LessEq, 6.0);
    return p;
}

/** Random bounded-feasible LP (mirrors the test_solver generator). */
Problem
randomFeasibleLp(Rng &rng)
{
    const int nvar = rng.uniformInt(3, 10);
    const int ncon = rng.uniformInt(2, 12);
    Problem p;
    std::vector<double> feas;
    for (int i = 0; i < nvar; ++i) {
        p.addVariable(rng.uniformReal(-2.0, 2.0));
        feas.push_back(rng.uniformReal(0.0, 5.0));
    }
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
        if (rng.chance(0.5)) {
            con.rel = Relation::LessEq;
            con.rhs = lhs + rng.uniformReal(0.0, 4.0);
        } else {
            con.rel = Relation::GreaterEq;
            con.rhs = lhs - rng.uniformReal(0.0, 4.0);
        }
        p.addConstraint(con);
    }
    for (int i = 0; i < nvar; ++i)
        p.addConstraint({{static_cast<std::size_t>(i), 1.0}},
                        Relation::LessEq, 50.0);
    return p;
}

/** Status + objective agreement (the --solver-diff contract). */
void
expectAgrees(const Solution &dense, const Solution &sparse,
             const char *what)
{
    ASSERT_EQ(dense.status, sparse.status) << what;
    if (dense.status == Status::Optimal) {
        const double scale =
            std::max({1.0, std::abs(dense.objective),
                      std::abs(sparse.objective)});
        EXPECT_NEAR(dense.objective, sparse.objective,
                    1e-6 * scale)
            << what;
    }
}

class RevisedRandomParity : public ::testing::TestWithParam<int>
{};

TEST_P(RevisedRandomParity, ColdAgreesWithDense)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const Problem p = randomFeasibleLp(rng);
    const Solution dense = lp::solveDense(p);
    const Solution sparse = lp::solveRevised(p);
    expectAgrees(dense, sparse, "random feasible");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevisedRandomParity,
                         ::testing::Range(1, 41));

TEST(RevisedCold, InfeasibleAgreement)
{
    Problem p;
    const auto x = p.addVariable(1.0, "x");
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 1.0);
    p.addConstraint({{x, 1.0}}, Relation::GreaterEq, 2.0);
    const Solution dense = lp::solveDense(p);
    const Solution sparse = lp::solveRevised(p);
    ASSERT_EQ(dense.status, Status::Infeasible);
    EXPECT_EQ(sparse.status, Status::Infeasible);
}

TEST(RevisedCold, UnboundedAgreement)
{
    Problem p;
    const auto x = p.addVariable(-1.0, "x");
    const auto y = p.addVariable(0.0, "y");
    p.addConstraint({{y, 1.0}}, Relation::LessEq, 1.0);
    (void)x;
    const Solution dense = lp::solveDense(p);
    const Solution sparse = lp::solveRevised(p);
    ASSERT_EQ(dense.status, Status::Unbounded);
    EXPECT_EQ(sparse.status, Status::Unbounded);
}

TEST(RevisedCold, ExportsBasisOnOptimal)
{
    const Problem p = sampleLp();
    const Solution dense = lp::solveDense(p);
    ASSERT_EQ(dense.status, Status::Optimal);
    EXPECT_EQ(dense.basis.rows.size(), p.numConstraints());
    EXPECT_EQ(dense.basis.structurals, p.numVariables());
    const Solution sparse = lp::solveRevised(p);
    ASSERT_EQ(sparse.status, Status::Optimal);
    EXPECT_EQ(sparse.basis.rows.size(), p.numConstraints());
}

/** Re-solving the identical problem from its own basis: 0 pivots. */
TEST(RevisedWarm, IdenticalResolveTakesNoPivots)
{
    const Problem p = sampleLp();
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);
    ASSERT_GT(cold.pivots, 0u);

    SolveOptions opts;
    opts.warmStart = &cold.basis;
    Solution warm;
    ASSERT_TRUE(lp::solveRevisedWarm(p, opts, warm));
    EXPECT_EQ(warm.status, Status::Optimal);
    EXPECT_EQ(warm.pivots, 0u);
    EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
}

/** RHS drift keeps the basis optimal: still 0 pivots, new values. */
TEST(RevisedWarm, RhsDriftReusesBasis)
{
    Problem p = sampleLp();
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);

    // Same structure, slightly relaxed capacities.
    Problem p2;
    const auto x = p2.addVariable(-3.0, "x");
    const auto y = p2.addVariable(-2.0, "y");
    p2.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 4.5);
    p2.addConstraint({{x, 1.0}, {y, 3.0}}, Relation::LessEq, 6.5);
    ASSERT_EQ(lp::structureSignature(p),
              lp::structureSignature(p2));

    SolveOptions opts;
    opts.warmStart = &cold.basis;
    Solution warm;
    ASSERT_TRUE(lp::solveRevisedWarm(p2, opts, warm));
    ASSERT_EQ(warm.status, Status::Optimal);
    expectAgrees(lp::solveDense(p2), warm, "rhs drift");
    EXPECT_LT(warm.pivots, lp::solveDense(p2).pivots);
}

/**
 * The branch-and-bound child case: one appended bound row cuts off
 * the cached optimum. Dual-simplex steps must restore feasibility
 * without a cold restart.
 */
TEST(RevisedWarm, StaleBasisAfterConstraintAddUsesDualSteps)
{
    Problem p = sampleLp();
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);
    // Optimum is x=4, y=0; force x <= 2.
    p.addConstraint({{0, 1.0}}, Relation::LessEq, 2.0);

    SolveOptions opts;
    opts.warmStart = &cold.basis;
    Solution warm;
    ASSERT_TRUE(lp::solveRevisedWarm(p, opts, warm));
    ASSERT_EQ(warm.status, Status::Optimal);
    const Solution fresh = lp::solveDense(p);
    expectAgrees(fresh, warm, "appended branch row");
    EXPECT_LE(warm.values[0], 2.0 + 1e-6);
    // On this tiny LP the dual repair cannot beat a 2-pivot cold
    // solve outright; the bound that matters is "no worse".
    EXPECT_LE(warm.pivots, fresh.pivots);
}

/**
 * A basis from a problem with more rows than the target does not
 * fit: the warm attempt must fail and the dispatcher's fallback must
 * return the cold tableau result bit-for-bit.
 */
TEST(RevisedWarm, RemovedConstraintFallsBackCold)
{
    Problem big = sampleLp();
    big.addConstraint({{0, 1.0}}, Relation::LessEq, 3.0);
    const Solution cold = lp::solveDense(big);
    ASSERT_EQ(cold.status, Status::Optimal);
    ASSERT_EQ(cold.basis.rows.size(), 3u);

    const Problem small = sampleLp(); // 2 rows: dimension mismatch
    SolveOptions opts;
    opts.warmStart = &cold.basis;
    Solution warm;
    EXPECT_FALSE(lp::solveRevisedWarm(small, opts, warm));

    // Through the dispatcher: identical to a cold dense solve.
    const Solution viaDispatch = lp::solve(small, opts);
    const Solution dense = lp::solveDense(small);
    ASSERT_EQ(viaDispatch.status, dense.status);
    EXPECT_EQ(viaDispatch.objective, dense.objective);
    ASSERT_EQ(viaDispatch.values.size(), dense.values.size());
    for (std::size_t i = 0; i < dense.values.size(); ++i)
        EXPECT_EQ(viaDispatch.values[i], dense.values[i])
            << "value " << i << " not bit-identical to cold";
}

/** A warm basis on a now-infeasible instance: verdict Infeasible. */
TEST(RevisedWarm, InfeasibleAfterTighteningIsDetected)
{
    Problem p = sampleLp();
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);
    // x + y <= 4 together with x + y >= 9: empty.
    p.addConstraint({{0, 1.0}, {1, 1.0}}, Relation::GreaterEq, 9.0);

    SolveOptions opts;
    opts.warmStart = &cold.basis;
    const Solution s = lp::solve(p, opts);
    EXPECT_EQ(s.status, Status::Infeasible);
    EXPECT_EQ(s.status, lp::solveDense(p).status);
}

/** Garbage bases (duplicates, bad dims) never poison the solve. */
TEST(RevisedWarm, GarbageBasisFallsBackCold)
{
    const Problem p = sampleLp();
    Basis junk;
    junk.structurals = p.numVariables();
    junk.rows.assign(p.numConstraints(),
                     {Basis::Kind::Structural, 0}); // duplicate var
    SolveOptions opts;
    opts.warmStart = &junk;
    Solution warm;
    EXPECT_FALSE(lp::solveRevisedWarm(p, opts, warm));
    const Solution s = lp::solve(p, opts);
    const Solution dense = lp::solveDense(p);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_EQ(s.objective, dense.objective);
}

/** Degenerate/hostile data under a warm basis stays a verdict. */
TEST(RevisedWarm, DegenerateResolveStaysSane)
{
    // Degenerate: several constraints active at the optimum.
    Problem p;
    const auto x = p.addVariable(-1.0, "x");
    const auto y = p.addVariable(-1.0, "y");
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 1.0);
    p.addConstraint({{y, 1.0}}, Relation::LessEq, 1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 2.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::GreaterEq, 2.0);
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);

    SolveOptions opts;
    opts.warmStart = &cold.basis;
    const Solution s = lp::solve(p, opts);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_NEAR(s.objective, cold.objective, 1e-9);
}

/** Warm chains across RHS churn agree with dense on every step. */
TEST(RevisedWarm, ChurnChainAgreesWithDense)
{
    Rng rng(7);
    for (int seed = 1; seed <= 10; ++seed) {
        Rng gen(static_cast<std::uint64_t>(seed) * 977u);
        Problem p = randomFeasibleLp(gen);
        Solution prev = lp::solveDense(p);
        if (prev.status != Status::Optimal)
            continue;
        for (int step = 0; step < 4; ++step) {
            // Drift every RHS a little; structure unchanged.
            Problem q;
            for (std::size_t i = 0; i < p.numVariables(); ++i)
                q.addVariable(p.costs()[i]);
            for (const lp::Constraint &c : p.constraints()) {
                lp::Constraint c2 = c;
                c2.rhs += rng.uniformReal(0.0, 0.5);
                q.addConstraint(c2);
            }
            SolveOptions opts;
            opts.warmStart = &prev.basis;
            const Solution warm = lp::solve(q, opts);
            const Solution dense = lp::solveDense(q);
            expectAgrees(dense, warm, "churn step");
            p = q;
            if (warm.status == Status::Optimal &&
                !warm.basis.empty())
                prev = warm;
        }
    }
}

/** solveMip: cumulative pivots, one working copy, counted nodes. */
TEST(RevisedMip, CumulativePivotsSingleWorkingCopy)
{
    // max x + y over a fractional-vertex polytope (relaxation
    // optimum x = y = 11/6); integrality forces branching.
    Problem p;
    const auto x = p.addVariable(-1.0, "x");
    const auto y = p.addVariable(-1.0, "y");
    p.addConstraint({{x, 4.0}, {y, 2.0}}, Relation::LessEq, 11.0);
    p.addConstraint({{x, 2.0}, {y, 4.0}}, Relation::LessEq, 11.0);
    p.markInteger(x);
    p.markInteger(y);

    lp::resetSolverStats();
    const Solution root = lp::solveDense(p);
    ASSERT_EQ(root.status, Status::Optimal);
    const std::size_t rootPivots = root.pivots;

    lp::resetSolverStats();
    const Solution mip = lp::solveMip(p);
    ASSERT_EQ(mip.status, Status::Optimal);
    EXPECT_NEAR(mip.values[x] - std::round(mip.values[x]), 0.0,
                1e-6);
    EXPECT_NEAR(mip.values[y] - std::round(mip.values[y]), 0.0,
                1e-6);

    const lp::SolverStats st = lp::solverStats();
    EXPECT_GT(st.mipNodes, 1u) << "expected actual branching";
    EXPECT_EQ(st.mipProblemCopies, 1u)
        << "B&B must reuse one working instance";
    // Pivots accumulate across every explored node.
    EXPECT_GE(mip.pivots, rootPivots);
    EXPECT_EQ(st.pivots, mip.pivots);
}

TEST(RevisedSignature, CoversStructureNotData)
{
    const Problem a = sampleLp();
    Problem b = sampleLp();
    // Numeric drift only: same signature.
    {
        Problem c;
        const auto x = c.addVariable(-5.0, "x");
        const auto y = c.addVariable(-1.0, "y");
        c.addConstraint({{x, 2.0}, {y, 1.5}}, Relation::LessEq,
                        9.0);
        c.addConstraint({{x, 1.0}, {y, 4.0}}, Relation::LessEq,
                        7.0);
        EXPECT_EQ(lp::structureSignature(a),
                  lp::structureSignature(c));
    }
    // Extra row: different signature.
    b.addConstraint({{0, 1.0}}, Relation::LessEq, 2.0);
    EXPECT_NE(lp::structureSignature(a),
              lp::structureSignature(b));
    // Different relation: different signature.
    {
        Problem d;
        const auto x = d.addVariable(-3.0, "x");
        const auto y = d.addVariable(-2.0, "y");
        d.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::GreaterEq,
                        4.0);
        d.addConstraint({{x, 1.0}, {y, 3.0}}, Relation::LessEq,
                        6.0);
        EXPECT_NE(lp::structureSignature(a),
                  lp::structureSignature(d));
    }
    // Different sparsity pattern: different signature.
    {
        Problem e;
        const auto x = e.addVariable(-3.0, "x");
        const auto y = e.addVariable(-2.0, "y");
        e.addConstraint({{x, 1.0}}, Relation::LessEq, 4.0);
        e.addConstraint({{x, 1.0}, {y, 3.0}}, Relation::LessEq,
                        6.0);
        EXPECT_NE(lp::structureSignature(a),
                  lp::structureSignature(e));
    }
}

TEST(RevisedCache, StoreLookupAndSignatureGate)
{
    const Problem p = sampleLp();
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);
    const std::uint64_t sig = lp::structureSignature(p);

    lp::BasisCache cache;
    EXPECT_EQ(cache.size(), 0u);
    Basis out;
    EXPECT_FALSE(cache.lookup("k", sig, out));
    cache.store("k", sig, cold.basis);
    EXPECT_EQ(cache.size(), 1u);
    ASSERT_TRUE(cache.lookup("k", sig, out));
    EXPECT_EQ(out.rows.size(), cold.basis.rows.size());
    // A structural change gates the entry off.
    EXPECT_FALSE(cache.lookup("k", sig + 1, out));
    // Overwrite keeps one entry per key.
    cache.store("k", sig + 1, cold.basis);
    EXPECT_EQ(cache.size(), 1u);
    ASSERT_TRUE(cache.lookup("k", sig + 1, out));
}

TEST(RevisedStats, WarmAccounting)
{
    const Problem p = sampleLp();
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);

    lp::resetSolverStats();
    SolveOptions opts;
    opts.warmStart = &cold.basis;
    const Solution hit = lp::solve(p, opts);
    ASSERT_EQ(hit.status, Status::Optimal);

    Basis junk;
    junk.structurals = p.numVariables();
    junk.rows.assign(p.numConstraints(),
                     {Basis::Kind::Structural, 0});
    SolveOptions bad;
    bad.warmStart = &junk;
    const Solution miss = lp::solve(p, bad);
    ASSERT_EQ(miss.status, Status::Optimal);

    const lp::SolverStats st = lp::solverStats();
    EXPECT_EQ(st.solves, 2u);
    EXPECT_EQ(st.warmAttempts, 2u);
    EXPECT_EQ(st.warmHits, 1u);
    EXPECT_EQ(st.warmMisses, 1u);
    EXPECT_GT(st.pivots, 0u);
}

TEST(RevisedDiff, OracleSeesNoDisagreements)
{
    lp::resetSolverDiffStats();
    lp::setSolverDiff(true);
    Rng rng(42);
    for (int seed = 0; seed < 20; ++seed) {
        Rng gen(static_cast<std::uint64_t>(seed) * 131u + 7u);
        const Problem p = randomFeasibleLp(gen);
        const Solution cold = lp::solve(p);
        if (cold.status == Status::Optimal) {
            SolveOptions opts;
            opts.warmStart = &cold.basis;
            (void)lp::solve(p, opts); // warm leg cross-checked too
        }
    }
    lp::setSolverDiff(false);
    const lp::SolverDiffStats ds = lp::solverDiffStats();
    EXPECT_GT(ds.solves, 0u);
    EXPECT_EQ(ds.disagreements, 0u) << ds.firstReport;
}

using lp::detail::SparseColumn;

/**
 * The dense factorization the revised simplex used before its sparse
 * one: Gauss-Jordan with partial pivoting over a row-major [B | I],
 * then x_B = B^-1 b. Kept verbatim as the oracle.
 */
bool
denseFactorize(const std::vector<SparseColumn> &cols,
               const std::vector<std::size_t> &basis,
               const std::vector<double> &b, std::vector<double> &binv,
               std::vector<double> &xB)
{
    const std::size_t m_ = basis.size();
    const std::size_t w = 2 * m_;
    std::vector<double> aug(m_ * w, 0.0);
    for (std::size_t r = 0; r < m_; ++r)
        aug[r * w + m_ + r] = 1.0;
    for (std::size_t k = 0; k < m_; ++k)
        for (const auto &[r, v] : cols[basis[k]])
            aug[r * w + k] = v;

    double scale = 0.0;
    for (std::size_t i = 0; i < m_ * m_; ++i)
        scale = std::max(scale, std::abs(aug[(i / m_) * w + i % m_]));
    const double tiny = 1e-12 * std::max(1.0, scale);

    for (std::size_t k = 0; k < m_; ++k) {
        std::size_t piv = k;
        for (std::size_t r = k + 1; r < m_; ++r)
            if (std::abs(aug[r * w + k]) > std::abs(aug[piv * w + k]))
                piv = r;
        const double pv = aug[piv * w + k];
        if (!std::isfinite(pv) || std::abs(pv) <= tiny)
            return false;
        if (piv != k)
            for (std::size_t c = 0; c < w; ++c)
                std::swap(aug[k * w + c], aug[piv * w + c]);
        const double inv = 1.0 / pv;
        for (std::size_t c = 0; c < w; ++c)
            aug[k * w + c] *= inv;
        for (std::size_t r = 0; r < m_; ++r) {
            if (r == k)
                continue;
            const double f = aug[r * w + k];
            if (f == 0.0)
                continue;
            for (std::size_t c = 0; c < w; ++c)
                aug[r * w + c] -= f * aug[k * w + c];
        }
    }
    binv.assign(m_ * m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i)
        for (std::size_t k = 0; k < m_; ++k)
            binv[k * m_ + i] = aug[i * w + m_ + k];

    xB.assign(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
        double s = 0.0;
        for (std::size_t k = 0; k < m_; ++k)
            s += binv[k * m_ + i] * b[k];
        xB[i] = s;
        if (!std::isfinite(s))
            return false;
    }
    return true;
}

/** Equal bits, except that +0 and -0 count as equal. */
bool
sameBits(double a, double b)
{
    if (a == 0.0 && b == 0.0)
        return true;
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** A basis: B's k-th column is cols[basis[k]]; b is the RHS. */
struct BasisCase
{
    std::vector<SparseColumn> cols;
    std::vector<std::size_t> basis;
    std::vector<double> b;
};

/**
 * Sparse and dense factorizations agree: same verdict and, on
 * success, B^-1 and x_B equal bit for bit up to the sign of zeros.
 * @return the shared verdict
 */
bool
expectSameFactorization(const BasisCase &bc, const std::string &what)
{
    std::vector<double> dBinv, dXb, sBinv, sXb;
    const bool dense =
        denseFactorize(bc.cols, bc.basis, bc.b, dBinv, dXb);
    const bool sparse = lp::detail::factorizeBasis(bc.cols, bc.basis,
                                                   bc.b, sBinv, sXb);
    EXPECT_EQ(dense, sparse) << what;
    if (!dense || !sparse)
        return false;
    EXPECT_EQ(dBinv.size(), sBinv.size()) << what;
    EXPECT_EQ(dXb.size(), sXb.size()) << what;
    std::size_t binvDiffs = 0, xbDiffs = 0;
    for (std::size_t i = 0; i < dBinv.size() && i < sBinv.size(); ++i)
        binvDiffs += !sameBits(dBinv[i], sBinv[i]);
    for (std::size_t i = 0; i < dXb.size() && i < sXb.size(); ++i)
        xbDiffs += !sameBits(dXb[i], sXb[i]);
    EXPECT_EQ(binvDiffs, 0u) << what << ": B^-1 entries differ";
    EXPECT_EQ(xbDiffs, 0u) << what << ": x_B entries differ";
    return true;
}

/**
 * A basis shaped like the Sec. 5.2 allocation LP's: 10-60
 * structural columns of 1-3 nonzeros drawn from a few magnitudes
 * (so pivots tie), the remaining rows covered by unit slack or
 * artificial columns, in shuffled basis order.
 */
BasisCase
allocationShapedBasis(Rng &rng, std::size_t m)
{
    const double mags[] = {1.0, 2.0, 0.5, 3.0};
    const auto coeff = [&]() {
        const double v = rng.chance(0.7) ? mags[rng.index(4)]
                                         : rng.uniformReal(0.1, 4.0);
        return rng.chance(0.5) ? v : -v;
    };
    BasisCase bc;
    std::vector<std::size_t> rows(m);
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    rng.shuffle(rows);
    const std::size_t nStruct = std::min(
        m, static_cast<std::size_t>(rng.uniformInt(10, 60)));
    for (std::size_t j = 0; j < nStruct; ++j) {
        std::vector<std::size_t> at = {rows[j]};
        const int extra = rng.uniformInt(0, 2);
        for (int e = 0; e < extra; ++e)
            at.push_back(rng.index(m));
        std::sort(at.begin(), at.end());
        at.erase(std::unique(at.begin(), at.end()), at.end());
        SparseColumn col;
        for (std::size_t r : at)
            col.emplace_back(r, coeff());
        bc.basis.push_back(bc.cols.size());
        bc.cols.push_back(std::move(col));
    }
    for (std::size_t j = nStruct; j < m; ++j) {
        bc.basis.push_back(bc.cols.size());
        bc.cols.push_back({{rows[j], rng.chance(0.5) ? 1.0 : -1.0}});
    }
    rng.shuffle(bc.basis);
    for (std::size_t r = 0; r < m; ++r)
        bc.b.push_back(rng.chance(0.2) ? 0.0
                                       : rng.uniformReal(0.0, 100.0));
    return bc;
}

TEST(RevisedFactorize, AllocationShapedBasesMatchDenseOracle)
{
    Rng rng(2024);
    std::size_t factorized = 0;
    for (int c = 0; c < 48; ++c) {
        const std::size_t m =
            c < 8 ? static_cast<std::size_t>(c)
                  : static_cast<std::size_t>(rng.uniformInt(8, 500));
        const BasisCase bc = allocationShapedBasis(rng, m);
        factorized += expectSameFactorization(
            bc, "case " + std::to_string(c) + " (m = " +
                    std::to_string(m) + ")");
    }
    // Most random bases are regular; the check must not go vacuous.
    EXPECT_GT(factorized, 24u);
}

TEST(RevisedFactorize, DenseRandomBasesMatchDenseOracle)
{
    // Small bases with ~40% fill: long pivot searches, many row
    // swaps and heavy fill-in.
    Rng rng(77);
    const double mags[] = {1.0, 2.0, 0.5};
    std::size_t factorized = 0;
    for (int c = 0; c < 60; ++c) {
        const std::size_t m =
            static_cast<std::size_t>(rng.uniformInt(2, 40));
        BasisCase bc;
        for (std::size_t k = 0; k < m; ++k) {
            SparseColumn col;
            for (std::size_t r = 0; r < m; ++r) {
                if (!rng.chance(0.4))
                    continue;
                const double v = rng.chance(0.5)
                                     ? mags[rng.index(3)]
                                     : rng.uniformReal(-5.0, 5.0);
                col.emplace_back(r, rng.chance(0.5) ? v : -v);
            }
            bc.cols.push_back(std::move(col));
            bc.basis.push_back(k);
            bc.b.push_back(rng.uniformReal(-10.0, 10.0));
        }
        factorized += expectSameFactorization(
            bc, "case " + std::to_string(c) + " (m = " +
                    std::to_string(m) + ")");
    }
    EXPECT_GT(factorized, 30u);
}

TEST(RevisedFactorize, EqualMagnitudePivotTies)
{
    // Column 0 holds -2, 2, 2, -2: the pivot is the lowest row among
    // the ties, and the swaps it causes reorder B^-1's rows.
    BasisCase bc;
    bc.cols = {{{0, -2.0}, {1, 2.0}, {2, 2.0}, {3, -2.0}},
               {{1, 1.0}, {2, -1.0}},
               {{0, 1.0}, {2, 1.0}, {3, 1.0}},
               {{1, 3.0}, {3, -3.0}}};
    bc.basis = {0, 1, 2, 3};
    bc.b = {1.0, 2.0, 3.0, 4.0};
    EXPECT_TRUE(expectSameFactorization(bc, "ties at row 0"));
    // The largest magnitude is below row 0 and tied twice.
    bc.cols[0] = {{0, 1.0}, {1, -4.0}, {2, 4.0}, {3, 4.0}};
    EXPECT_TRUE(expectSameFactorization(bc, "ties below row 0"));
    // Every basis order of the same columns.
    std::sort(bc.basis.begin(), bc.basis.end());
    do {
        expectSameFactorization(bc, "permuted basis");
    } while (std::next_permutation(bc.basis.begin(), bc.basis.end()));
}

TEST(RevisedFactorize, SingularAndTinyPivotsFail)
{
    BasisCase dup;
    dup.cols = {{{0, 1.0}, {1, 2.0}}, {{0, 1.0}, {1, 2.0}}};
    dup.basis = {0, 1};
    dup.b = {1.0, 1.0};
    EXPECT_FALSE(expectSameFactorization(dup, "repeated column"));

    BasisCase empty = dup;
    empty.cols[1] = {};
    EXPECT_FALSE(expectSameFactorization(empty, "empty column"));

    BasisCase zero = dup;
    zero.cols[1] = {{0, 0.0}, {1, 0.0}}; // explicit zeros
    EXPECT_FALSE(expectSameFactorization(zero, "stored zeros"));

    // tiny = 1e-12 * max(1, max|B|) = 1e-12 here: a pivot equal to
    // it fails, one just above it factorizes.
    BasisCase atTiny;
    atTiny.cols = {{{0, 1.0}}, {{1, 1e-12}}};
    atTiny.basis = {0, 1};
    atTiny.b = {1.0, 1.0};
    EXPECT_FALSE(expectSameFactorization(atTiny, "pivot == tiny"));
    atTiny.cols[1] = {{1, 1.5e-12}};
    EXPECT_TRUE(expectSameFactorization(atTiny, "pivot > tiny"));
    // The threshold scales with the largest entry of B.
    atTiny.cols[0] = {{0, 1e4}};
    EXPECT_FALSE(expectSameFactorization(atTiny, "scaled tiny"));

    // Cancellation leaves a zero pivot in column 1.
    BasisCase cancel;
    cancel.cols = {{{0, 1.0}, {1, 3.0}}, {{0, 2.0}, {1, 6.0}}};
    cancel.basis = {0, 1};
    cancel.b = {1.0, 1.0};
    EXPECT_FALSE(expectSameFactorization(cancel, "cancelled pivot"));

    // Non-finite coefficients never factorize.
    BasisCase nan = cancel;
    nan.cols[0] = {{0, 1.0}, {1, std::nan("")}};
    EXPECT_FALSE(expectSameFactorization(nan, "NaN multiplier"));
    BasisCase inf = cancel;
    inf.cols[1] = {{0, 2.0}, {1, HUGE_VAL}};
    EXPECT_FALSE(expectSameFactorization(inf, "infinite entry"));
}

TEST(RevisedFactorize, OverflowingXbFails)
{
    BasisCase bc;
    bc.cols = {{{0, 0.5}}, {{0, 1.0}, {1, 1.0}}};
    bc.basis = {0, 1};
    bc.b = {DBL_MAX, 1.0};
    EXPECT_FALSE(expectSameFactorization(bc, "x_B = 2 * DBL_MAX"));
    bc.b = {1.0, HUGE_VAL};
    EXPECT_FALSE(expectSameFactorization(bc, "infinite rhs"));
    bc.b = {DBL_MAX / 4.0, 1.0};
    EXPECT_TRUE(expectSameFactorization(bc, "x_B just finite"));
}

} // namespace
} // namespace srsim
