/**
 * @file
 * Tests for the harness layer: scheme factories, runner wiring, oracle
 * sweep, memo cache, reporting helpers, and a throughput smoke run of
 * every Fig-12 scheme.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness/memo_cache.hpp"
#include "harness/oracle.hpp"
#include "harness/report.hpp"
#include "harness/sim_runner.hpp"
#include "workload/suite.hpp"

namespace lbsim
{
namespace
{

TEST(SchemeFactories, ComposeExpectedFlags)
{
    EXPECT_EQ(SchemeConfig::baseline().throttle, ThrottleMode::None);

    const SchemeConfig swl = SchemeConfig::bestSwl(24);
    EXPECT_EQ(swl.throttle, ThrottleMode::StaticWarp);
    EXPECT_EQ(swl.staticWarpLimit, 24u);

    const SchemeConfig lb = SchemeConfig::linebacker();
    EXPECT_EQ(lb.throttle, ThrottleMode::DynamicCta);
    EXPECT_EQ(lb.victim, VictimMode::Selective);
    EXPECT_TRUE(lb.useDynamicUnusedRegs);
    EXPECT_TRUE(lb.backupRegisters);

    const SchemeConfig svc = SchemeConfig::selectiveVictimCaching();
    EXPECT_EQ(svc.throttle, ThrottleMode::None);
    EXPECT_FALSE(svc.useDynamicUnusedRegs);

    const SchemeConfig vc = SchemeConfig::victimCachingAll();
    EXPECT_EQ(vc.victim, VictimMode::All);

    EXPECT_TRUE(SchemeConfig::cerf().cerfUnified);
    EXPECT_TRUE(SchemeConfig::cacheExtension().cacheExt);
    EXPECT_TRUE(SchemeConfig::pcalSvc().victim == VictimMode::Selective);
    EXPECT_EQ(SchemeConfig::pcalSvc().throttle,
              ThrottleMode::PcalTokens);
    EXPECT_TRUE(SchemeConfig::pcalCerf().cerfUnified);
    EXPECT_TRUE(SchemeConfig::linebackerCacheExt().cacheExt);
}

TEST(Geomean, MatchesHandComputedValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 8.0}), 2.8284271, 1e-6);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    // Non-positive entries are skipped, not fatal.
    EXPECT_DOUBLE_EQ(geomean({0.0, 2.0, 2.0}), 2.0);
}

TEST(MemoCache, RoundTrips)
{
    const std::string path =
        ::testing::TempDir() + "/lbsim_memo_test.csv";
    std::remove(path.c_str());
    MemoCache cache(path);
    EXPECT_FALSE(cache.lookup("k1").has_value());
    cache.store("k1", "1,2,3");
    ASSERT_TRUE(cache.lookup("k1").has_value());
    EXPECT_EQ(*cache.lookup("k1"), "1,2,3");
    // Last write wins.
    cache.store("k1", "4,5,6");
    EXPECT_EQ(*cache.lookup("k1"), "4,5,6");
    std::remove(path.c_str());
}

TEST(MemoCache, Fnv1aStable)
{
    EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
    EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
}

TEST(SimRunner, MemoCacheReproducesMetrics)
{
    const std::string path =
        ::testing::TempDir() + "/lbsim_runner_cache.csv";
    std::remove(path.c_str());
    setenv("LBSIM_CACHE_PATH", path.c_str(), 1);

    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 60000;
    options.useMemoCache = true;
    SimRunner runner({}, {}, options);
    const AppProfile &app = appById("GA");
    const RunMetrics fresh = runner.run(app, SchemeConfig::baseline());
    const RunMetrics cached = runner.run(app, SchemeConfig::baseline());
    EXPECT_DOUBLE_EQ(fresh.ipc, cached.ipc);
    EXPECT_EQ(fresh.stats.l1.l1Hits, cached.stats.l1.l1Hits);
    EXPECT_EQ(fresh.stats.dramReads, cached.stats.dramReads);

    unsetenv("LBSIM_CACHE_PATH");
    std::remove(path.c_str());
}

TEST(Oracle, PicksBestAndIncludesUnlimited)
{
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 60000;
    options.useMemoCache = false;
    SimRunner runner({}, {}, options);
    const SwlOracleResult result =
        findBestSwl(runner, appById("GA"));
    EXPECT_EQ(result.sweep.size(), swlCandidateLimits().size());
    // The chosen limit's IPC is the maximum of the sweep.
    double best = 0;
    for (const auto &[limit, ipc] : result.sweep)
        best = std::max(best, ipc);
    EXPECT_DOUBLE_EQ(result.bestMetrics.ipc, best);
    // Unlimited is part of the candidates, so Best-SWL >= baseline.
    const RunMetrics baseline =
        runner.run(appById("GA"), SchemeConfig::baseline());
    EXPECT_GE(result.bestMetrics.ipc, baseline.ipc * 0.999);
}

TEST(ComparisonReport, NormalizesAndAggregates)
{
    ComparisonReport report;
    report.add("A", "base", 1.0);
    report.add("A", "lb", 2.0);
    report.add("B", "base", 2.0);
    report.add("B", "lb", 2.0);
    EXPECT_NEAR(report.geomeanVs("lb", "base"), std::sqrt(2.0), 1e-9);
    const std::string table = report.renderNormalized("base");
    EXPECT_NE(table.find("2.000"), std::string::npos);
    EXPECT_NE(table.find("GM"), std::string::npos);
}

TEST(ComparisonReport, SubsetGeomean)
{
    ComparisonReport report;
    report.add("A", "base", 1.0);
    report.add("A", "x", 4.0);
    report.add("B", "base", 1.0);
    report.add("B", "x", 1.0);
    EXPECT_DOUBLE_EQ(report.geomeanVs("x", "base", {"A"}), 4.0);
    EXPECT_DOUBLE_EQ(report.geomeanVs("x", "base", {"B"}), 1.0);
}

// A miniature sweep through SimRunner, timed the way lbbench times its
// cells: a scheme that silently stops simulating reports no cycles and
// no throughput instead of a fast-looking figure.
TEST(PerfSmoke, EverySchemeReportsPositiveThroughput)
{
    GpuConfig gpu;
    gpu.warmupCycles = 1000;
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 20000;
    options.useMemoCache = false;

    const AppProfile &app = appById("S2");
    const std::vector<SchemeConfig> schemes = {
        SchemeConfig::baseline(), SchemeConfig::bestSwl(8),
        SchemeConfig::pcal(), SchemeConfig::cerf(),
        SchemeConfig::linebacker()};

    for (const SchemeConfig &scheme : schemes) {
        const auto start = std::chrono::steady_clock::now();
        SimRunner runner(gpu, LbConfig{}, options);
        const RunMetrics metrics = runner.run(app, scheme);
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        const std::uint64_t cycles =
            gpu.warmupCycles + metrics.stats.cycles;
        const double cycles_per_sec =
            wall > 0 ? static_cast<double>(cycles) / wall : 0;
        EXPECT_GT(metrics.stats.cycles, 0u)
            << scheme.name << " simulated no cycles";
        EXPECT_GT(cycles_per_sec, 0.0)
            << scheme.name << " reported no throughput";
    }
}

} // namespace
} // namespace lbsim
