/**
 * @file
 * Tests for the SVG schedule renderer: structural validity, one
 * block per (link, segment), and escaping.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "core/schedule_render.hh"
#include "core/sr_compiler.hh"
#include "engine_fixture.hh"
#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "tfg/timing.hh"
#include "topology/generalized_hypercube.hh"

namespace srsim {
namespace {

struct RenderFixture : public EngineTest
{
    TaskFlowGraph g = buildDvbTfg({});
    GeneralizedHypercube cube = GeneralizedHypercube::binaryCube(6);
    TimingModel tm;
    TaskAllocation alloc{1, 1};
    SrCompileResult sr;

    RenderFixture() : alloc(alloc::roundRobin(g, cube, 13))
    {
        DvbParams dp;
        tm.apSpeed = dp.matchedApSpeed();
        tm.bandwidth = 128.0;
    }

    void
    SetUp() override
    {
        SrCompilerConfig cfg{.ctx = &root};
        cfg.inputPeriod = 2.0 * tm.tauC(g);
        sr = compileScheduledRouting(g, cube, alloc, tm, cfg);
        ASSERT_TRUE(sr.feasible);
    }

    static std::size_t
    count(const std::string &hay, const std::string &needle)
    {
        std::size_t n = 0;
        for (std::size_t pos = hay.find(needle);
             pos != std::string::npos;
             pos = hay.find(needle, pos + needle.size()))
            ++n;
        return n;
    }
};

TEST_F(RenderFixture, ProducesWellFormedSvgSkeleton)
{
    std::ostringstream os;
    renderScheduleSvg(os, g, cube, sr.bounds, sr.omega);
    const std::string svg = os.str();
    EXPECT_EQ(svg.rfind("<svg", 0), 0u);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    EXPECT_EQ(count(svg, "<svg"), count(svg, "</svg>"));
}

TEST_F(RenderFixture, OneTooltipPerLinkSegment)
{
    std::ostringstream os;
    renderScheduleSvg(os, g, cube, sr.bounds, sr.omega);
    const std::string svg = os.str();

    std::size_t expected = 0;
    for (std::size_t i = 0; i < sr.omega.segments.size(); ++i)
        expected += sr.omega.segments[i].size() *
                    sr.omega.paths.pathFor(i).links.size();
    EXPECT_EQ(count(svg, "<title>"), expected);
}

TEST_F(RenderFixture, LegendNamesEveryMessage)
{
    std::ostringstream os;
    renderScheduleSvg(os, g, cube, sr.bounds, sr.omega);
    const std::string svg = os.str();
    for (const MessageBounds &b : sr.bounds.messages)
        EXPECT_NE(svg.find(g.message(b.msg).name),
                  std::string::npos);
}

TEST_F(RenderFixture, CustomTitleEscaped)
{
    RenderOptions opts;
    opts.title = "a < b & c";
    std::ostringstream os;
    renderScheduleSvg(os, g, cube, sr.bounds, sr.omega, opts);
    const std::string svg = os.str();
    EXPECT_NE(svg.find("a &lt; b &amp; c"), std::string::npos);
    EXPECT_EQ(svg.find("a < b"), std::string::npos);
}

} // namespace
} // namespace srsim
