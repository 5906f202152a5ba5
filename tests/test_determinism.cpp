/**
 * @file
 * Seed-determinism regression tests.
 *
 * The memo cache, the fuzzer's replay files, and the paper's
 * methodology all assume a simulation is a pure function of
 * (config, workload, seed): the same seed must reproduce every counter
 * bit-for-bit, and the seed must actually matter for stochastic
 * workloads. serializeStats() is the byte-exact witness for both. The
 * multi-SM cases pin the serial SM loop (DESIGN.md §13) at 2/4/16 SMs,
 * under fault plans and through a watchdog trip.
 */

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "common/stats.hpp"
#include "harness/sim_runner.hpp"
#include "resilience/faultinject.hpp"
#include "workload/suite.hpp"

namespace lbsim
{
namespace
{

RunnerOptions
fastOptions()
{
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 60000;
    options.useMemoCache = false;
    return options;
}

/** Short run on a chip of @p sms SMs. */
RunnerOptions
multiSmOptions(std::uint32_t sms)
{
    RunnerOptions options;
    options.simSms = sms;
    options.maxCycles = 40000;
    options.useMemoCache = false;
    return options;
}

/** A seed-sensitive workload: irregular accesses flow from app.seed. */
AppProfile
irregularApp(std::uint64_t seed)
{
    AppProfile app;
    app.id = "det-irr";
    app.description = "determinism probe";
    app.cacheSensitive = true;
    LoadSpec load;
    load.cls = LoadClass::Irregular;
    load.lines = 512;
    load.fanout = 2;
    app.loads.push_back(load);
    app.warpsPerCta = 4;
    app.regsPerWarp = 16;
    app.iterations = 2000;
    app.ctasPerSmOfGrid = 8;
    app.seed = seed;
    return app;
}

TEST(Determinism, SameSeedIsByteIdentical)
{
    SimRunner runner({}, {}, fastOptions());
    const AppProfile app = irregularApp(1234);
    const RunMetrics a = runner.run(app, SchemeConfig::baseline());
    const RunMetrics b = runner.run(app, SchemeConfig::baseline());
    EXPECT_EQ(serializeStats(a.stats), serializeStats(b.stats))
        << "first difference: "
        << firstStatDifference(a.stats, b.stats);
}

TEST(Determinism, SameSeedIsByteIdenticalUnderLinebacker)
{
    SimRunner runner({}, {}, fastOptions());
    const AppProfile app = irregularApp(99);
    const RunMetrics a = runner.run(app, SchemeConfig::linebacker());
    const RunMetrics b = runner.run(app, SchemeConfig::linebacker());
    EXPECT_EQ(serializeStats(a.stats), serializeStats(b.stats))
        << "first difference: "
        << firstStatDifference(a.stats, b.stats);
}

TEST(Determinism, SameSeedIsByteIdenticalOnSuiteApps)
{
    SimRunner runner({}, {}, fastOptions());
    for (const char *id : {"S2", "KM", "CF"}) {
        const AppProfile &app = appById(id);
        const RunMetrics a = runner.run(app, SchemeConfig::baseline());
        const RunMetrics b = runner.run(app, SchemeConfig::baseline());
        EXPECT_EQ(serializeStats(a.stats), serializeStats(b.stats))
            << id << ": " << firstStatDifference(a.stats, b.stats);
    }
}

TEST(Determinism, DifferentSeedsDiverge)
{
    SimRunner runner({}, {}, fastOptions());
    const RunMetrics a =
        runner.run(irregularApp(1), SchemeConfig::baseline());
    const RunMetrics b =
        runner.run(irregularApp(2), SchemeConfig::baseline());
    // Different irregular address streams must leave some trace in the
    // counters; identical stats would mean the seed is ignored.
    EXPECT_NE(serializeStats(a.stats), serializeStats(b.stats));
}

TEST(Determinism, SerializeStatsCoversEveryCounter)
{
    // A change to any single counter must change the serialized form.
    SimStats stats;
    const std::string baseline_text = serializeStats(stats);
    std::size_t fields = 0;
    forEachStatField(stats, [&](const char *name, auto &field) {
        ++fields;
        const auto saved = field;
        field = saved + 1;
        EXPECT_NE(serializeStats(stats), baseline_text)
            << "counter " << name << " is not serialized";
        const std::string diff = firstStatDifference(stats, SimStats{});
        EXPECT_EQ(diff.rfind(std::string(name) + ":", 0), 0u)
            << "firstStatDifference reported '" << diff
            << "' instead of " << name;
        field = saved;
    });
    EXPECT_EQ(fields, 39u) << "counter enumeration changed; update tests";
    EXPECT_EQ(firstStatDifference(stats, SimStats{}), "");
}

// --- Multi-SM chips ---------------------------------------------------------

/** Serialized stats of one fresh run on @p sms SMs. */
std::string
runOnSms(std::uint32_t sms, const SchemeConfig &scheme,
         SimStats *stats_out = nullptr)
{
    SimRunner runner({}, {}, multiSmOptions(sms));
    const RunMetrics m = runner.run(irregularApp(7), scheme);
    if (stats_out)
        *stats_out = m.stats;
    return serializeStats(m.stats);
}

class MultiSmDeterminism : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MultiSmDeterminism, BaselineRunTwiceIsByteIdentical)
{
    const std::uint32_t sms = GetParam();
    SimStats first;
    SimStats second;
    EXPECT_EQ(runOnSms(sms, SchemeConfig::baseline(), &first),
              runOnSms(sms, SchemeConfig::baseline(), &second))
        << sms << " SMs, first diff: "
        << firstStatDifference(first, second);
}

TEST_P(MultiSmDeterminism, LinebackerRunTwiceIsByteIdentical)
{
    const std::uint32_t sms = GetParam();
    SimStats first;
    SimStats second;
    EXPECT_EQ(runOnSms(sms, SchemeConfig::linebacker(), &first),
              runOnSms(sms, SchemeConfig::linebacker(), &second))
        << sms << " SMs, first diff: "
        << firstStatDifference(first, second);
}

INSTANTIATE_TEST_SUITE_P(SmCounts, MultiSmDeterminism,
                         ::testing::Values(2u, 4u, 16u));

TEST(Determinism, FaultedRunsAreByteIdentical)
{
    // Fault hooks are queried from inside the SM loop (BackupStall,
    // LoadMonitorLie, VttRevoke targets SM 1 via magnitude); the
    // injected run must stay as replayable as a clean one.
    FaultPlan plan;
    plan.events.push_back({FaultKind::BackupStall, 5000, 2000, 0});
    plan.events.push_back({FaultKind::LoadMonitorLie, 8000, 4000, 0});
    plan.events.push_back({FaultKind::VttRevoke, 12000, 20000, 1});

    std::vector<std::string> runs;
    for (int run = 0; run < 2; ++run) {
        RunnerOptions options = multiSmOptions(4);
        options.faultPlan = plan;
        SimRunner runner({}, {}, options);
        const RunMetrics m =
            runner.run(irregularApp(7), SchemeConfig::linebacker());
        runs.push_back(serializeStats(m.stats) + "#faults=" +
                       std::to_string(m.faultsInjected));
    }
    EXPECT_EQ(runs[0], runs[1]);
}

TEST(Determinism, WedgeFiresWatchdogDeterministically)
{
    // Wedge the chip with a head-of-line-blocking response delay; the
    // watchdog must trip at the same cycle with the same diagnosis on
    // every run.
    FaultPlan wedge;
    wedge.events.push_back({FaultKind::IcntDelay, 2000, 400, 2000000});

    std::vector<std::string> reports;
    std::vector<std::string> stats;
    for (int run = 0; run < 2; ++run) {
        GpuConfig cfg;
        cfg.watchdogCycles = 3000;
        RunnerOptions options = multiSmOptions(4);
        options.faultPlan = wedge;
        SimRunner runner(cfg, {}, options);
        const RunMetrics m =
            runner.run(irregularApp(7), SchemeConfig::baseline());
        EXPECT_EQ(m.outcome, RunOutcome::Hang)
            << "run " << run << ": wedge did not trip the watchdog";
        reports.push_back(m.hangReportJson);
        stats.push_back(serializeStats(m.stats));
    }
    EXPECT_EQ(reports[0], reports[1]);
    EXPECT_EQ(stats[0], stats[1]);
}

// --- Per-SM stats shards ----------------------------------------------------

TEST(FoldShardStats, CoversEveryCounter)
{
    // foldShardStats must combine every enumerated counter: for each
    // field, a shard carrying only that field must change the aggregate
    // (sum and max folds both map 0 ⊕ 3 to 3, so one probe covers both
    // semantics).
    SimStats probe;
    forEachStatField(probe, [&](const char *name, auto & /*field*/) {
        SimStats into;
        SimStats shard;
        forEachStatField(shard, [&](const char *shard_name, auto &f) {
            if (std::string(shard_name) == name)
                f = static_cast<std::decay_t<decltype(f)>>(3);
        });
        foldShardStats(into, shard);
        const std::string diff = firstStatDifference(into, SimStats{});
        EXPECT_EQ(diff.rfind(std::string(name) + ":", 0), 0u)
            << "folding a shard with only " << name
            << " set produced aggregate diff '" << diff << "'";
    });
}

TEST(FoldShardStats, SumsAndMaxes)
{
    SimStats into;
    into.instructionsIssued = 10;
    into.monitoringPeriods = 5;
    into.selectedLoads = 7;
    SimStats shard;
    shard.instructionsIssued = 4;
    shard.monitoringPeriods = 3;   // below current max: keep 5
    shard.selectedLoads = 9;       // above current max: take 9
    foldShardStats(into, shard);
    EXPECT_EQ(into.instructionsIssued, 14u);
    EXPECT_EQ(into.monitoringPeriods, 5u);
    EXPECT_EQ(into.selectedLoads, 9u);
}

} // namespace
} // namespace lbsim
