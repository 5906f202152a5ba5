/**
 * @file
 * Crossbar golden pins.
 *
 * The interconnect's request sweep (per-partition queues, parked
 * retries, the L2 wake rule, send-ordered L2-hit responses) must stay
 * invisible in every counter. These runs cover the two paths the
 * benchmark digests do not separate: KM on the full 16-SM chip, where
 * the crossbar queues are longest, and an armed fault plan, where
 * retry-skip is off and every arrived request is attempted each tick.
 * Each pin is the CRC-32 of serializeStats() (plus the injected-fault
 * count) recorded with the single send-ordered request vector the
 * queues replaced; any change to the sweep must reproduce it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/crc32.hpp"
#include "common/stats.hpp"
#include "harness/sim_runner.hpp"
#include "resilience/faultinject.hpp"
#include "workload/suite.hpp"

namespace lbsim
{
namespace
{

/** CRC-32 of one fresh run's serialized stats and fault count. */
std::uint32_t
runCrc(std::uint32_t sms, Cycle cycles, const SchemeConfig &scheme,
       const FaultPlan &plan = {})
{
    RunnerOptions options;
    options.simSms = sms;
    options.maxCycles = cycles;
    options.useMemoCache = false;
    options.faultPlan = plan;
    SimRunner runner({}, {}, options);
    const RunMetrics m = runner.run(appById("KM"), scheme);
    return crc32(serializeStats(m.stats) + "#faults=" +
                 std::to_string(m.faultsInjected));
}

/** Response reorder and delay windows plus a DRAM refresh storm. */
FaultPlan
crossbarPlan()
{
    FaultPlan plan;
    plan.events.push_back({FaultKind::IcntReorder, 4000, 3000, 0});
    plan.events.push_back({FaultKind::IcntDelay, 9000, 2000, 60});
    plan.events.push_back({FaultKind::DramStorm, 14000, 6000, 120});
    return plan;
}

TEST(CrossbarPins, KmOnSixteenSmsBaseline)
{
    EXPECT_EQ(runCrc(16, 60000, SchemeConfig::baseline()), 2224701815u);
}

TEST(CrossbarPins, KmOnSixteenSmsLinebacker)
{
    EXPECT_EQ(runCrc(16, 120000, SchemeConfig::linebacker()), 2292173120u);
}

TEST(CrossbarPins, ArmedPlanOnTwoSms)
{
    EXPECT_EQ(
        runCrc(2, 60000, SchemeConfig::linebacker(), crossbarPlan()),
        3813186245u);
}

TEST(CrossbarPins, ArmedPlanOnSixteenSms)
{
    EXPECT_EQ(
        runCrc(16, 40000, SchemeConfig::linebacker(), crossbarPlan()),
        1200432869u);
}

} // namespace
} // namespace lbsim
