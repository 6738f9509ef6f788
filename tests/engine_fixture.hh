/**
 * @file
 * The fixture the suites share: every test owns one root engine
 * context, so its metrics and trace events start empty and stay its
 * own. A suite opts in with `using SuiteName = EngineTest;` and
 * TEST_F; configs then point at `&root`.
 */

#ifndef SRSIM_TESTS_ENGINE_FIXTURE_HH_
#define SRSIM_TESTS_ENGINE_FIXTURE_HH_

#include <gtest/gtest.h>

#include "engine/context.hh"

namespace srsim {

class EngineTest : public ::testing::Test
{
  protected:
    engine::EngineContext root;
};

} // namespace srsim

#endif // SRSIM_TESTS_ENGINE_FIXTURE_HH_
