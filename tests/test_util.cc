/**
 * @file
 * Unit tests for the util substrate: time comparisons, windows,
 * union-find, matrix, RNG, table printing, logging.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/logging.hh"
#include "util/matrix.hh"
#include "util/parse.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/time.hh"
#include "util/union_find.hh"

namespace srsim {
namespace {

TEST(ParseTest, AcceptsOnlyOneWholeFiniteNumber)
{
    double v = -1.0;
    EXPECT_TRUE(parseFinite("120", &v));
    EXPECT_EQ(v, 120.0);
    EXPECT_TRUE(parseFinite("-2.5e-3", &v));
    EXPECT_EQ(v, -2.5e-3);
    for (const char *bad :
         {"", "abc", "nan", "NaN", "inf", "-inf", "1e999", "12abc",
          "1.5 ", "--3"}) {
        v = 7.0;
        EXPECT_FALSE(parseFinite(bad, &v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7.0) << "'" << bad << "'";
    }
    EXPECT_FALSE(parseFinite(std::string("1\0" "2", 3), &v));
}

TEST(TimeTest, EqualityWithinEps)
{
    EXPECT_TRUE(timeEq(1.0, 1.0 + kTimeEps / 2));
    EXPECT_FALSE(timeEq(1.0, 1.0 + 10 * kTimeEps));
}

TEST(TimeTest, OrderingRespectsEps)
{
    EXPECT_TRUE(timeLe(1.0, 1.0));
    EXPECT_TRUE(timeLe(1.0 + kTimeEps / 2, 1.0));
    EXPECT_FALSE(timeLt(1.0, 1.0));
    EXPECT_TRUE(timeLt(1.0, 1.1));
    EXPECT_TRUE(timeGe(1.0, 1.0));
    EXPECT_TRUE(timeGt(1.1, 1.0));
}

TEST(TimeTest, ClampStaysInRange)
{
    EXPECT_DOUBLE_EQ(timeClamp(5.0, 0.0, 3.0), 3.0);
    EXPECT_DOUBLE_EQ(timeClamp(-1.0, 0.0, 3.0), 0.0);
    EXPECT_DOUBLE_EQ(timeClamp(2.0, 0.0, 3.0), 2.0);
}

TEST(TimeWindowTest, LengthAndEmptiness)
{
    TimeWindow w{2.0, 5.0};
    EXPECT_DOUBLE_EQ(w.length(), 3.0);
    EXPECT_FALSE(w.empty());
    TimeWindow e{5.0, 5.0};
    EXPECT_TRUE(e.empty());
    EXPECT_DOUBLE_EQ(e.length(), 0.0);
}

TEST(TimeWindowTest, ContainsIsHalfOpen)
{
    TimeWindow w{2.0, 5.0};
    EXPECT_TRUE(w.contains(2.0));
    EXPECT_TRUE(w.contains(4.999));
    EXPECT_FALSE(w.contains(5.0));
    EXPECT_FALSE(w.contains(1.999));
}

TEST(TimeWindowTest, CoversSubranges)
{
    TimeWindow w{2.0, 5.0};
    EXPECT_TRUE(w.covers(2.0, 5.0));
    EXPECT_TRUE(w.covers(3.0, 4.0));
    EXPECT_FALSE(w.covers(1.0, 3.0));
    EXPECT_FALSE(w.covers(4.0, 6.0));
}

TEST(TimeWindowTest, OverlapDetection)
{
    TimeWindow a{0.0, 2.0};
    TimeWindow b{2.0, 4.0};
    TimeWindow c{1.0, 3.0};
    EXPECT_FALSE(a.overlaps(b)); // half-open abutment
    EXPECT_TRUE(a.overlaps(c));
    EXPECT_TRUE(c.overlaps(b));
}

TEST(LoggingTest, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config ", 42), FatalError);
}

TEST(LoggingTest, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug ", 7), PanicError);
}

TEST(LoggingTest, AssertMacroFiresOnFalse)
{
    EXPECT_THROW(SRSIM_ASSERT(1 == 2, "oops"), PanicError);
    EXPECT_NO_THROW(SRSIM_ASSERT(1 == 1, "fine"));
}

TEST(UnionFindTest, InitiallyDisjoint)
{
    UnionFind uf(4);
    EXPECT_EQ(uf.numSets(), 4u);
    EXPECT_FALSE(uf.same(0, 1));
}

TEST(UnionFindTest, UniteAndFind)
{
    UnionFind uf(5);
    EXPECT_TRUE(uf.unite(0, 1));
    EXPECT_TRUE(uf.unite(1, 2));
    EXPECT_FALSE(uf.unite(0, 2)); // already together
    EXPECT_TRUE(uf.same(0, 2));
    EXPECT_FALSE(uf.same(0, 3));
    EXPECT_EQ(uf.numSets(), 3u);
}

TEST(UnionFindTest, GroupsPartitionElements)
{
    UnionFind uf(6);
    uf.unite(0, 2);
    uf.unite(2, 4);
    uf.unite(1, 5);
    auto groups = uf.groups();
    EXPECT_EQ(groups.size(), 3u);
    std::size_t total = 0;
    for (const auto &g : groups)
        total += g.size();
    EXPECT_EQ(total, 6u);
}

TEST(MatrixTest, FillAndSums)
{
    Matrix<double> m(2, 3, 1.0);
    EXPECT_DOUBLE_EQ(m.rowSum(0), 3.0);
    EXPECT_DOUBLE_EQ(m.colSum(2), 2.0);
    m.at(1, 2) = 5.0;
    EXPECT_DOUBLE_EQ(m.colSum(2), 6.0);
    m.fill(0.0);
    EXPECT_DOUBLE_EQ(m.rowSum(1), 0.0);
}

TEST(MatrixTest, OutOfRangePanics)
{
    Matrix<int> m(2, 2);
    EXPECT_THROW(m.at(2, 0), PanicError);
    EXPECT_THROW(m.at(0, 2), PanicError);
}

TEST(RngTest, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
}

TEST(RngTest, RangesRespected)
{
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        const int v = rng.uniformInt(3, 9);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 9);
        const double r = rng.uniformReal(0.5, 2.5);
        EXPECT_GE(r, 0.5);
        EXPECT_LT(r, 2.5);
        const std::size_t idx = rng.index(5);
        EXPECT_LT(idx, 5u);
    }
}

TEST(TableTest, AlignedAndCsvOutput)
{
    Table t({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::ostringstream human, csv;
    t.print(human);
    t.printCsv(csv);
    EXPECT_NE(human.str().find("333"), std::string::npos);
    EXPECT_EQ(csv.str(), "a,bb\n1,2\n333,4\n");
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.numCols(), 2u);
}

TEST(TableTest, RowArityChecked)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

} // namespace
} // namespace srsim
