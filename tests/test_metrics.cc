/**
 * @file
 * Tests for the metrics registry: counters, gauges, fixed-bucket
 * histogram percentiles, the per-link utilization timeline, the
 * name-sorted counter snapshot, and the JSON export (validated with
 * the same mini-parser the trace tests use).
 */

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json_mini.hh"
#include "metrics/metrics.hh"
#include "util/logging.hh"

namespace srsim {
namespace {

class MetricsTest : public ::testing::Test
{
  protected:
    void SetUp() override { metrics::Registry::setEnabled(false); }
    void TearDown() override { metrics::Registry::setEnabled(false); }

    /** Each test's own standalone registry. */
    metrics::Registry reg;
};

TEST_F(MetricsTest, DisabledByDefault)
{
    EXPECT_FALSE(SRSIM_METRICS_ENABLED());
    int ran = 0;
    SRSIM_METRICS_IF(++ran);
    EXPECT_EQ(ran, 0);
    metrics::Registry::setEnabled(true);
    SRSIM_METRICS_IF(++ran);
    EXPECT_EQ(ran, 1);
}

TEST_F(MetricsTest, CounterAccumulates)
{
    auto &c = reg.counter("test.counter");
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name resolves to the same counter.
    EXPECT_EQ(reg.counter("test.counter").value(), 42u);
}

TEST_F(MetricsTest, GaugeKeepsLastValue)
{
    auto &g = reg.gauge("test.gauge");
    g.set(1.5);
    g.set(-3.25);
    EXPECT_DOUBLE_EQ(g.value(), -3.25);
}

TEST_F(MetricsTest, HistogramStatsAndPercentiles)
{
    auto &h = reg.histogram(
        "test.hist", {1.0, 2.0, 4.0, 8.0, 16.0});
    for (int v = 1; v <= 10; ++v)
        h.add(static_cast<double>(v));
    EXPECT_EQ(h.count(), 10u);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 10.0);
    EXPECT_NEAR(h.mean(), 5.5, 1e-12);
    // Bucketed percentiles are approximate: p50 of 1..10 must land
    // in the (4, 8] bucket, p99 in the overflow-free top range.
    const double p50 = h.percentile(50.0);
    EXPECT_GE(p50, 4.0);
    EXPECT_LE(p50, 8.0);
    EXPECT_GE(h.percentile(99.0), 8.0);
    EXPECT_LE(h.percentile(99.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
}

TEST_F(MetricsTest, HistogramRejectsNanAndBadBounds)
{
    auto &h = reg.histogram(
        "test.hist2", metrics::Histogram::timeBucketsMs());
    EXPECT_THROW(h.add(std::nan("")), PanicError);
    EXPECT_THROW(metrics::Histogram({2.0, 1.0}), PanicError);
    EXPECT_THROW(metrics::Histogram({}), PanicError);
}

TEST_F(MetricsTest, TimelineUtilization)
{
    auto &tl = reg.timeline("test.links");
    tl.occupy(0, 0.0, 25.0);
    tl.occupy(0, 50.0, 75.0);
    tl.occupy(2, 0.0, 100.0);
    EXPECT_EQ(tl.numLinks(), 3u);
    EXPECT_DOUBLE_EQ(tl.horizon(), 100.0);
    const std::vector<double> u = tl.utilization();
    ASSERT_EQ(u.size(), 3u);
    EXPECT_NEAR(u[0], 0.5, 1e-12);
    EXPECT_NEAR(u[1], 0.0, 1e-12);
    EXPECT_NEAR(u[2], 1.0, 1e-12);
    // Explicit horizon overrides the observed one.
    EXPECT_NEAR(tl.utilization(200.0)[2], 0.5, 1e-12);
}

TEST_F(MetricsTest, CounterSnapshotIsNameSorted)
{
    reg.counter("zeta").add(3);
    reg.counter("alpha").add(1);
    reg.counter("mid").add(2);
    const auto snap = reg.counterSnapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].first, "alpha");
    EXPECT_EQ(snap[1].first, "mid");
    EXPECT_EQ(snap[2].first, "zeta");
    EXPECT_EQ(snap[2].second, 3u);
}

TEST_F(MetricsTest, JsonExportIsValidAndComplete)
{
    reg.counter("c.one").add(7);
    reg.gauge("g.one").set(2.5);
    auto &h = reg.histogram("h.one", {1.0, 10.0, 100.0});
    h.add(5.0);
    h.add(50.0);
    auto &tl = reg.timeline("t.one");
    tl.occupy(1, 0.0, 10.0);

    std::ostringstream oss;
    reg.exportJson(oss);
    const jsonmini::ValuePtr doc = jsonmini::parse(oss.str());

    EXPECT_EQ(doc->at("counters").at("c.one").number, 7.0);
    EXPECT_DOUBLE_EQ(doc->at("gauges").at("g.one").number, 2.5);

    const auto &hj = doc->at("histograms").at("h.one");
    EXPECT_EQ(hj.at("count").number, 2.0);
    EXPECT_DOUBLE_EQ(hj.at("min").number, 5.0);
    EXPECT_DOUBLE_EQ(hj.at("max").number, 50.0);
    EXPECT_TRUE(hj.has("p50"));
    EXPECT_TRUE(hj.has("p95"));
    EXPECT_TRUE(hj.has("p99"));

    const auto &tj = doc->at("timelines").at("t.one");
    EXPECT_DOUBLE_EQ(tj.at("horizon_us").number, 10.0);
    ASSERT_GE(tj.at("links").array.size(), 1u);
}

TEST_F(MetricsTest, ClearRemovesEverything)
{
    reg.counter("gone").add(5);
    reg.clear();
    EXPECT_EQ(reg.counter("gone").value(), 0u);
    EXPECT_EQ(reg.counterSnapshot().size(), 1u);
}

} // namespace
} // namespace srsim
