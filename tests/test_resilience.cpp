/**
 * @file
 * Tests for the resilience subsystem: fault-plan serialization, the
 * FaultInjector's deterministic windows, the forward-progress watchdog
 * (unit and end-to-end), hang-report structure, memo-cache hygiene for
 * abnormal runs, and crash-isolated sweep execution.
 *
 * Suite names matter: the TSan CI job filters on
 * Experiment*:MemoCache*:ParallelMap*, so the fork-based sweep and
 * retry tests live under IsolatedSweep* / IsolatedRetry* (fork and
 * TSan do not mix) while the cache-hygiene tests — which never fork —
 * live under MemoCachePersist* to stay inside the TSan net.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/memo_cache.hpp"
#include "harness/report.hpp"
#include "harness/sim_runner.hpp"
#include "mem/request_ledger.hpp"
#include "resilience/faultinject.hpp"
#include "resilience/isolation.hpp"
#include "resilience/watchdog.hpp"
#include "testing/fuzz.hpp"
#include "workload/suite.hpp"

namespace lbsim
{
namespace
{

// --- Fault-plan serialization ---------------------------------------------

FaultPlan
sampleFaultPlan()
{
    FaultPlan plan;
    plan.events.push_back({FaultKind::IcntDelay, 100, 50, 2000});
    plan.events.push_back({FaultKind::IcntReorder, 400, 80, 0});
    plan.events.push_back({FaultKind::DramStorm, 500, 100, 40});
    plan.events.push_back({FaultKind::BackupStall, 600, 200, 0});
    plan.events.push_back({FaultKind::VttRevoke, 700, 300, 0});
    plan.events.push_back({FaultKind::LoadMonitorLie, 800, 400, 0});
    return plan;
}

TEST(FaultPlanTest, SerializationRoundTrips)
{
    const FaultPlan plan = sampleFaultPlan();
    const std::string text = serializeFaultPlan(plan);
    FaultPlan parsed;
    std::string error;
    ASSERT_TRUE(parseFaultPlan(text, parsed, error)) << error;
    ASSERT_EQ(parsed.events.size(), plan.events.size());
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        EXPECT_EQ(parsed.events[i].kind, plan.events[i].kind);
        EXPECT_EQ(parsed.events[i].start, plan.events[i].start);
        EXPECT_EQ(parsed.events[i].duration, plan.events[i].duration);
        EXPECT_EQ(parsed.events[i].magnitude, plan.events[i].magnitude);
    }
    EXPECT_EQ(serializeFaultPlan(parsed), text);
}

TEST(FaultPlanTest, ParseAcceptsCommentsAndBareEvents)
{
    FaultPlan parsed;
    std::string error;
    ASSERT_TRUE(parseFaultPlan("# comment\n\nfault=dram-storm,10,20,30\n",
                               parsed, error))
        << error;
    ASSERT_EQ(parsed.events.size(), 1u);
    EXPECT_EQ(parsed.events[0].kind, FaultKind::DramStorm);
    EXPECT_EQ(parsed.events[0].start, 10u);
    EXPECT_EQ(parsed.events[0].duration, 20u);
    EXPECT_EQ(parsed.events[0].magnitude, 30u);
}

TEST(FaultPlanTest, ParseRejectsMalformedEvents)
{
    FaultPlan parsed;
    std::string error;
    EXPECT_FALSE(parseFaultPlan("fault=bogus-kind,1,2,3\n", parsed, error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(parseFaultPlan("fault=icnt-delay,1,2\n", parsed, error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(parseFaultPlan("not an event line\n", parsed, error));
    EXPECT_FALSE(error.empty());
}

TEST(FaultPlanTest, DescriptionIsCompactAndStable)
{
    FaultPlan plan;
    EXPECT_TRUE(plan.description().empty());
    plan.events.push_back({FaultKind::IcntDelay, 100, 50, 2000});
    plan.events.push_back({FaultKind::DramStorm, 500, 100, 40});
    const std::string description = plan.description();
    EXPECT_NE(description.find("icnt-delay"), std::string::npos);
    EXPECT_NE(description.find("dram-storm"), std::string::npos);
    EXPECT_EQ(description, plan.description());
}

// --- FaultInjector windows -------------------------------------------------

TEST(FaultInjectorTest, WindowGatesQueriesAndCountsFirings)
{
    FaultPlan plan;
    plan.events.push_back({FaultKind::IcntDelay, 100, 10, 50});
    FaultInjector injector(plan);
    EXPECT_TRUE(injector.armed());

    EXPECT_EQ(injector.icntResponseDelay(99), 0u);
    EXPECT_EQ(injector.icntResponseDelay(100), 50u);
    EXPECT_EQ(injector.icntResponseDelay(109), 50u);
    EXPECT_EQ(injector.icntResponseDelay(110), 0u);
    EXPECT_EQ(injector.firedCount(FaultKind::IcntDelay), 2u);
    EXPECT_EQ(injector.totalFired(), 2u);
    EXPECT_NE(injector.summary().find("icnt-delay"), std::string::npos);
}

TEST(FaultInjectorTest, OverlappingWindowsSumMagnitudes)
{
    FaultPlan plan;
    plan.events.push_back({FaultKind::DramStorm, 0, 100, 30});
    plan.events.push_back({FaultKind::DramStorm, 50, 100, 70});
    FaultInjector injector(plan);
    EXPECT_EQ(injector.dramStormDelay(10), 30u);
    EXPECT_EQ(injector.dramStormDelay(60), 100u);
    EXPECT_EQ(injector.dramStormDelay(120), 70u);
    EXPECT_EQ(injector.dramStormDelay(200), 0u);
}

TEST(FaultInjectorTest, FlagKindsReportActiveWindows)
{
    FaultPlan plan;
    plan.events.push_back({FaultKind::IcntReorder, 10, 5, 0});
    plan.events.push_back({FaultKind::BackupStall, 20, 5, 0});
    plan.events.push_back({FaultKind::LoadMonitorLie, 30, 5, 0});
    FaultInjector injector(plan);
    EXPECT_FALSE(injector.icntReorderActive(9));
    EXPECT_TRUE(injector.icntReorderActive(12));
    EXPECT_TRUE(injector.backupStallActive(24));
    EXPECT_FALSE(injector.backupStallActive(25));
    EXPECT_TRUE(injector.loadMonitorLieActive(30));
    EXPECT_FALSE(injector.loadMonitorLieActive(36));
}

TEST(FaultInjectorTest, VttRevokeIsConsumedOncePerEvent)
{
    FaultPlan plan;
    plan.events.push_back({FaultKind::VttRevoke, 10, 20, 0});
    FaultInjector injector(plan);
    EXPECT_FALSE(injector.takeVttRevoke(9, 0));
    EXPECT_TRUE(injector.takeVttRevoke(15, 0));
    // Consumed: the same event never fires again inside its window.
    EXPECT_FALSE(injector.takeVttRevoke(16, 0));
    EXPECT_FALSE(injector.takeVttRevoke(29, 0));
    EXPECT_EQ(injector.firedCount(FaultKind::VttRevoke), 1u);
}

TEST(FaultInjectorTest, VttRevokeIsBoundToItsTargetSm)
{
    // magnitude names the target SM: only that SM may consume the
    // event.
    FaultPlan plan;
    plan.events.push_back({FaultKind::VttRevoke, 10, 20, 3});
    FaultInjector injector(plan);
    EXPECT_FALSE(injector.takeVttRevoke(15, 0));
    EXPECT_FALSE(injector.takeVttRevoke(15, 2));
    EXPECT_TRUE(injector.takeVttRevoke(15, 3));
    EXPECT_FALSE(injector.takeVttRevoke(16, 3));
    EXPECT_EQ(injector.firedCount(FaultKind::VttRevoke), 1u);
}

TEST(FaultInjectorTest, UnarmedInjectorIsInert)
{
    FaultInjector injector{FaultPlan{}};
    EXPECT_FALSE(injector.armed());
    EXPECT_EQ(injector.icntResponseDelay(0), 0u);
    EXPECT_EQ(injector.dramStormDelay(0), 0u);
    EXPECT_FALSE(injector.backupStallActive(0));
    EXPECT_FALSE(injector.takeVttRevoke(0, 0));
    EXPECT_EQ(injector.totalFired(), 0u);
    EXPECT_TRUE(injector.summary().empty());
}

// --- Watchdog (unit) -------------------------------------------------------

TEST(WatchdogTest, ZeroThresholdNeverTrips)
{
    Watchdog dog(0, 1);
    for (Cycle now = 0; now < 100; ++now)
        dog.observe(now, 0, {0});
    EXPECT_FALSE(dog.tripped());
}

TEST(WatchdogTest, TripsAfterFlatProgress)
{
    Watchdog dog(10, 1);
    dog.observe(0, 5, {5});
    for (Cycle now = 1; now < 10; ++now) {
        dog.observe(now, 5, {5});
        EXPECT_FALSE(dog.tripped()) << "tripped early at " << now;
    }
    dog.observe(10, 5, {5});
    EXPECT_TRUE(dog.tripped());
    EXPECT_EQ(dog.lastProgressCycle(), 0u);
}

TEST(WatchdogTest, AnyCounterChangeIsProgress)
{
    Watchdog dog(10, 1);
    dog.observe(0, 100, {100});
    // A *decrease* (the warm-up stats reset) must also count as progress.
    dog.observe(5, 0, {100});
    for (Cycle now = 6; now < 15; ++now)
        dog.observe(now, 0, {100});
    EXPECT_FALSE(dog.tripped());
    EXPECT_EQ(dog.lastProgressCycle(), 5u);
    dog.observe(15, 0, {100});
    EXPECT_TRUE(dog.tripped());
}

TEST(WatchdogTest, TracksPerSmProgressIndependently)
{
    Watchdog dog(100, 2);
    dog.observe(0, 1, {10, 20});
    dog.observe(5, 2, {11, 20});
    dog.observe(9, 3, {11, 21});
    EXPECT_EQ(dog.lastSmProgressCycle(0), 5u);
    EXPECT_EQ(dog.lastSmProgressCycle(1), 9u);
    EXPECT_EQ(dog.lastProgressCycle(), 9u);
    EXPECT_FALSE(dog.tripped());
}

// --- RequestLedger hang-diagnosis hooks ------------------------------------

TEST(RequestLedgerTest, OldestOutstandingScansAllStreams)
{
    RequestLedger ledger(2);
    EXPECT_FALSE(ledger.oldestOutstanding().valid);

    MemRequest first;
    first.lineAddr = 0x100;
    first.kind = RequestKind::DataRead;
    first.smId = 0;
    ledger.onIssue(first, 50);

    MemRequest older;
    older.lineAddr = 0x200;
    older.kind = RequestKind::RegRestore;
    older.smId = 1;
    ledger.onIssue(older, 30);

    OldestRequest oldest = ledger.oldestOutstanding();
    ASSERT_TRUE(oldest.valid);
    EXPECT_EQ(oldest.smId, 1u);
    EXPECT_EQ(oldest.kind, RequestKind::RegRestore);
    EXPECT_EQ(oldest.lineAddr, 0x200u);
    EXPECT_EQ(oldest.issued, 30u);

    ledger.onRetire(1, RequestKind::RegRestore, 60);
    oldest = ledger.oldestOutstanding();
    ASSERT_TRUE(oldest.valid);
    EXPECT_EQ(oldest.smId, 0u);
    EXPECT_EQ(oldest.issued, 50u);
    EXPECT_EQ(ledger.totalRetired(), 1u);

    ledger.onRetire(0, RequestKind::DataRead, 70);
    EXPECT_FALSE(ledger.oldestOutstanding().valid);
    EXPECT_EQ(ledger.totalRetired(), 2u);
}

// --- RunMetrics serialization ----------------------------------------------

TEST(RunMetricsSerializationTest, RoundTripsOutcomeAndStats)
{
    RunMetrics m;
    m.outcome = RunOutcome::FaultDegraded;
    m.faultsInjected = 17;
    m.ipc = 1.25;
    m.energyJ = 0.0625;
    m.stats.cycles = 12345;
    m.stats.instructionsIssued = 6789;
    m.stats.l1.l1Hits = 42;

    RunMetrics parsed;
    ASSERT_TRUE(deserializeRunMetrics(serializeRunMetrics(m), parsed));
    EXPECT_EQ(parsed.outcome, RunOutcome::FaultDegraded);
    EXPECT_EQ(parsed.faultsInjected, 17u);
    EXPECT_EQ(parsed.ipc, m.ipc);
    EXPECT_EQ(parsed.energyJ, m.energyJ);
    EXPECT_EQ(parsed.stats.cycles, m.stats.cycles);
    EXPECT_EQ(parsed.stats.instructionsIssued,
              m.stats.instructionsIssued);
    EXPECT_EQ(parsed.stats.l1.l1Hits, m.stats.l1.l1Hits);
}

TEST(RunMetricsSerializationTest, RejectsMalformedText)
{
    RunMetrics parsed;
    EXPECT_FALSE(deserializeRunMetrics("", parsed));
    EXPECT_FALSE(deserializeRunMetrics("banana", parsed));
    EXPECT_FALSE(deserializeRunMetrics("99,0,1", parsed));
}

TEST(RunMetricsSerializationTest, OutcomeNamesRoundTrip)
{
    for (const RunOutcome outcome :
         {RunOutcome::Ok, RunOutcome::Hang, RunOutcome::FaultDegraded,
          RunOutcome::Crashed}) {
        RunOutcome parsed = RunOutcome::Ok;
        ASSERT_TRUE(parseRunOutcome(runOutcomeName(outcome), parsed));
        EXPECT_EQ(parsed, outcome);
    }
    RunOutcome parsed = RunOutcome::Ok;
    EXPECT_FALSE(parseRunOutcome("exploded", parsed));
}

// --- End-to-end fault injection and hang diagnosis -------------------------

/** Small, cache-bypassing options every sim test here uses. */
RunnerOptions
resilienceOptions()
{
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 30000;
    options.useMemoCache = false;
    return options;
}

/** The demo schedule: staging-buffer stall, then a DRAM burst. */
FaultPlan
demoPlan()
{
    FaultPlan plan;
    plan.events.push_back({FaultKind::BackupStall, 8000, 6000, 0});
    plan.events.push_back({FaultKind::DramStorm, 12000, 8000, 300});
    return plan;
}

/**
 * An interconnect wedge the watchdog must catch. The window must open
 * at cycle 0: GA's read misses are all cold misses in the first few
 * thousand cycles (steady state is L1 hits plus response-less writes),
 * so a later window would never see a response to delay.
 */
FaultPlan
wedgePlan()
{
    FaultPlan plan;
    plan.events.push_back(
        {FaultKind::IcntDelay, 0, 1000000000, 1000000000});
    return plan;
}

TEST(ResilienceSimTest, DemoFaultPlanDegradesGracefully)
{
    GpuConfig cfg;
    cfg.warmupCycles = 5000;
    RunnerOptions options = resilienceOptions();
    options.faultPlan = demoPlan();

    SimRunner runner(cfg, LbConfig{}, options);
    const RunMetrics m =
        runner.run(appById("GA"), SchemeConfig::linebacker());
    EXPECT_EQ(m.outcome, RunOutcome::FaultDegraded);
    EXPECT_GT(m.faultsInjected, 0u);
    EXPECT_GT(m.ipc, 0.0);
    EXPECT_TRUE(m.hangReport.empty());

    // Fault schedules are part of the configuration: the same plan
    // perturbs exactly the same cycles on a re-run.
    SimRunner again(cfg, LbConfig{}, options);
    const RunMetrics second =
        again.run(appById("GA"), SchemeConfig::linebacker());
    EXPECT_EQ(second.faultsInjected, m.faultsInjected);
    EXPECT_EQ(second.ipc, m.ipc);
    EXPECT_EQ(second.stats.cycles, m.stats.cycles);
    EXPECT_EQ(second.stats.instructionsIssued,
              m.stats.instructionsIssued);
}

TEST(ResilienceSimTest, WedgeTripsWatchdogAndNamesStuckRequest)
{
    GpuConfig cfg;
    cfg.warmupCycles = 0;
    cfg.watchdogCycles = 8000;
    RunnerOptions options = resilienceOptions();
    options.maxCycles = 120000;
    options.faultPlan = wedgePlan();

    SimRunner runner(cfg, LbConfig{}, options);
    const RunMetrics m =
        runner.run(appById("GA"), SchemeConfig::baseline());
    ASSERT_EQ(m.outcome, RunOutcome::Hang);
    // Terminated by the watchdog, far short of the cycle budget.
    EXPECT_LT(m.stats.cycles, options.maxCycles);

    EXPECT_NE(m.hangReport.find("WATCHDOG"), std::string::npos)
        << m.hangReport;
    EXPECT_NE(m.hangReport.find("oldest in-flight request"),
              std::string::npos)
        << m.hangReport;
    EXPECT_NE(m.hangReport.find("DataRead"), std::string::npos)
        << m.hangReport;
    EXPECT_NE(m.hangReport.find("fault injection"), std::string::npos)
        << m.hangReport;

    EXPECT_NE(m.hangReportJson.find("watchdog-trip"), std::string::npos);
    EXPECT_NE(m.hangReportJson.find("oldestRequest"), std::string::npos);

    // Hang diagnosis is deterministic too.
    SimRunner again(cfg, LbConfig{}, options);
    const RunMetrics second =
        again.run(appById("GA"), SchemeConfig::baseline());
    EXPECT_EQ(second.outcome, RunOutcome::Hang);
    EXPECT_EQ(second.hangReport, m.hangReport);
}

TEST(ResilienceSimTest, WatchdogStaysQuietOnHealthyRun)
{
    GpuConfig cfg;
    cfg.warmupCycles = 5000;
    cfg.watchdogCycles = 8000;
    SimRunner runner(cfg, LbConfig{}, resilienceOptions());
    const RunMetrics m =
        runner.run(appById("GA"), SchemeConfig::linebacker());
    EXPECT_EQ(m.outcome, RunOutcome::Ok);
    EXPECT_EQ(m.faultsInjected, 0u);
    EXPECT_TRUE(m.hangReport.empty());
}

// --- Fault-mode fuzz cases -------------------------------------------------

TEST(FuzzFaultModeTest, FaultCasesSerializeDeterministically)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const FuzzCase a = generateFaultFuzzCase(seed);
        const FuzzCase b = generateFaultFuzzCase(seed);
        EXPECT_FALSE(a.faults.empty());
        EXPECT_GT(a.gpu.watchdogCycles, 0u);
        EXPECT_EQ(serializeFuzzCase(a), serializeFuzzCase(b));

        FuzzCase round_trip;
        std::string error;
        ASSERT_TRUE(
            parseFuzzCase(serializeFuzzCase(a), round_trip, error))
            << error;
        EXPECT_EQ(serializeFuzzCase(round_trip), serializeFuzzCase(a));
        EXPECT_EQ(round_trip.faults.events.size(),
                  a.faults.events.size());
    }
}

TEST(FuzzFaultModeTest, V1CasesStillParse)
{
    const std::string v1_text =
        "lbsim-fuzzcase-v1\n"
        "seed=7\n"
        "scheme=baseline\n"
        "load=reuse,16,0,0,0,0,1\n";
    FuzzCase parsed;
    std::string error;
    ASSERT_TRUE(parseFuzzCase(v1_text, parsed, error)) << error;
    EXPECT_EQ(parsed.seed, 7u);
    EXPECT_TRUE(parsed.faults.empty());
    EXPECT_EQ(parsed.gpu.watchdogCycles, 0u);
    // Re-serialization upgrades to the v2 header.
    EXPECT_EQ(serializeFuzzCase(parsed).find("lbsim-fuzzcase-v2"), 0u);
}

TEST(FuzzFaultModeTest, FaultCasePropertiesHold)
{
    const FuzzCaseResult result = runFuzzCase(generateFaultFuzzCase(1));
    EXPECT_TRUE(result.ok) << result.property << ": " << result.detail;
    EXPECT_GT(result.lockstepChecks, 0u);
    EXPECT_EQ(result.invariantFailures, 0u);
}

// --- Memo-cache hygiene for abnormal runs ----------------------------------

TEST(MemoCachePersistTest, NonPersistedResultsSkipDiskAndMemory)
{
    const std::string path =
        testing::TempDir() + "lbsim_persist_flag_cache.csv";
    std::remove(path.c_str());

    MemoCache cache(path);
    int computed = 0;
    const auto transient = [&computed] {
        ++computed;
        return MemoCache::ComputeResult{"transient-value", false};
    };
    EXPECT_EQ(cache.getOrComputeIf("key", transient), "transient-value");
    EXPECT_FALSE(cache.lookup("key").has_value());
    // Not memoized: the same key computes again.
    EXPECT_EQ(cache.getOrComputeIf("key", transient), "transient-value");
    EXPECT_EQ(computed, 2);

    // Nothing reached disk either.
    MemoCache reloaded(path);
    EXPECT_FALSE(reloaded.lookup("key").has_value());
    std::remove(path.c_str());
}

TEST(MemoCachePersistTest, PersistedResultsStillStore)
{
    const std::string path =
        testing::TempDir() + "lbsim_persist_ok_cache.csv";
    std::remove(path.c_str());
    {
        MemoCache cache(path);
        EXPECT_EQ(cache.getOrComputeIf(
                      "key",
                      [] {
                          return MemoCache::ComputeResult{"kept", true};
                      }),
                  "kept");
    }
    MemoCache reloaded(path);
    EXPECT_EQ(reloaded.lookup("key").value_or(""), "kept");
    std::remove(path.c_str());
}

TEST(MemoCachePersistTest, HangRunsNeverReachTheCache)
{
    const std::string path =
        testing::TempDir() + "lbsim_hang_cache.csv";
    std::remove(path.c_str());
    ASSERT_EQ(setenv("LBSIM_CACHE_PATH", path.c_str(), 1), 0);

    GpuConfig cfg;
    cfg.warmupCycles = 0;
    cfg.watchdogCycles = 8000;
    RunnerOptions options = resilienceOptions();
    options.maxCycles = 120000;
    options.useMemoCache = true;
    options.faultPlan = wedgePlan();

    SimRunner runner(cfg, LbConfig{}, options);
    const RunMetrics m =
        runner.run(appById("GA"), SchemeConfig::baseline());
    EXPECT_EQ(m.outcome, RunOutcome::Hang);
    unsetenv("LBSIM_CACHE_PATH");

    // The cache file must hold no entry for the hung run (typically it
    // was never created at all).
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        EXPECT_EQ(line.find('|'), std::string::npos) << line;
    std::remove(path.c_str());
}

// --- Crash-isolated sweep execution ----------------------------------------

RunnerOptions
sweepOptions()
{
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 20000;
    options.useMemoCache = false;
    return options;
}

TEST(IsolatedSweepTest, CrashingCellDoesNotPoisonSurvivors)
{
    if (!isolationSupported())
        GTEST_SKIP() << "fork() unavailable";

    GpuConfig cfg;
    cfg.warmupCycles = 5000;
    ExperimentPlan plan(cfg, LbConfig{}, sweepOptions());
    plan.add(appById("GA"), SchemeConfig::baseline());
    plan.addCustom("GA", "Crasher", {}, [](SimRunner &) -> RunMetrics {
        std::abort();
    });
    plan.add(appById("GA"), SchemeConfig::linebacker());

    EngineOptions opts;
    opts.threads = 2;
    opts.isolateCells = true;
    opts.maxRetries = 0;
    const std::vector<CellResult> results =
        ExperimentEngine(opts).run(plan);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_GT(results[0].metrics.ipc, 0.0);
    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(results[1].outcome, RunOutcome::Crashed);
    EXPECT_FALSE(results[1].error.empty());
    EXPECT_TRUE(results[2].ok);
    EXPECT_GT(results[2].metrics.ipc, 0.0);

    // The partial-result JSON still records every cell, including the
    // crashed one's outcome.
    const std::string json_path =
        testing::TempDir() + "lbsim_isolated_sweep.json";
    writeExperimentJson(json_path, "resilience-test", false, results);
    std::ifstream in(json_path);
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("crashed"), std::string::npos);
    EXPECT_NE(content.str().find("Crasher"), std::string::npos);
    EXPECT_GE(static_cast<int>(content.str().find("Linebacker")), 0);
    std::remove(json_path.c_str());
}

TEST(IsolatedSweepTest, IsolatedCellsMatchInProcessResults)
{
    if (!isolationSupported())
        GTEST_SKIP() << "fork() unavailable";

    GpuConfig cfg;
    cfg.warmupCycles = 5000;
    ExperimentPlan plan(cfg, LbConfig{}, sweepOptions());
    plan.add(appById("GA"), SchemeConfig::baseline());
    plan.add(appById("GA"), SchemeConfig::linebacker());

    EngineOptions in_process;
    in_process.threads = 1;
    const std::vector<CellResult> direct =
        ExperimentEngine(in_process).run(plan);

    EngineOptions isolated = in_process;
    isolated.isolateCells = true;
    const std::vector<CellResult> forked =
        ExperimentEngine(isolated).run(plan);

    ASSERT_EQ(direct.size(), forked.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        ASSERT_TRUE(direct[i].ok);
        ASSERT_TRUE(forked[i].ok) << forked[i].error;
        EXPECT_EQ(forked[i].metrics.appId, direct[i].metrics.appId);
        EXPECT_EQ(forked[i].metrics.ipc, direct[i].metrics.ipc);
        EXPECT_EQ(forked[i].metrics.energyJ, direct[i].metrics.energyJ);
        EXPECT_EQ(forked[i].metrics.stats.cycles,
                  direct[i].metrics.stats.cycles);
        EXPECT_EQ(forked[i].metrics.stats.instructionsIssued,
                  direct[i].metrics.stats.instructionsIssued);
        EXPECT_EQ(forked[i].outcome, RunOutcome::Ok);
    }
}

// --- Crashed-cell retry policy ---------------------------------------------

/**
 * Cross-process attempt counter: the cell body runs in a forked child,
 * so only the filesystem survives between attempts. Reading then
 * rewriting is race-free here because the engine retries one attempt
 * at a time.
 */
int
bumpAttemptCounter(const std::string &path)
{
    int attempts = 0;
    {
        std::ifstream in(path);
        in >> attempts;
    }
    std::ofstream out(path, std::ios::trunc);
    out << attempts + 1;
    return attempts;
}

/**
 * A cell that crashes its first @p crashes attempts and then succeeds,
 * memoizing its result only on the successful attempt — the same
 * store-after-success discipline SimRunner uses.
 */
ExperimentCell
flakyCell(const std::string &counter_path, const std::string &cache_path,
          int crashes)
{
    ExperimentPlan plan(GpuConfig{}, LbConfig{}, sweepOptions());
    plan.addCustom(
        "GA", "Flaky", {},
        [counter_path, cache_path, crashes](SimRunner &) -> RunMetrics {
            if (bumpAttemptCounter(counter_path) < crashes)
                std::abort();
            RunMetrics m;
            m.outcome = RunOutcome::Ok;
            m.ipc = 1.25;
            m.stats.cycles = 1000;
            m.stats.instructionsIssued = 1250;
            MemoCache(cache_path).store("flaky-cell",
                                        serializeRunMetrics(m));
            return m;
        });
    return plan.cells()[0];
}

TEST(IsolatedRetryTest, BackoffScheduleIsExponentialAndRecovers)
{
    if (!isolationSupported())
        GTEST_SKIP() << "fork() unavailable";

    const std::string counter = testing::TempDir() + "lbsim_retry_n.txt";
    const std::string cache =
        testing::TempDir() + "lbsim_retry_cache.journal";
    std::remove(counter.c_str());
    std::remove(cache.c_str());

    EngineOptions opts;
    opts.isolateCells = true;
    opts.maxRetries = 3;
    opts.retryBackoffMs = 50;
    std::vector<std::uint64_t> delays;
    opts.retrySleep = [&delays](unsigned attempt,
                                std::uint64_t delay_ms) {
        EXPECT_EQ(attempt + 1, delays.size() + 1);
        delays.push_back(delay_ms);
    };

    // Two forced crashes, then success on the third attempt.
    const CellResult result =
        runExperimentCell(flakyCell(counter, cache, 2), opts);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.outcome, RunOutcome::Ok);
    EXPECT_EQ(result.metrics.ipc, 1.25);

    // The backoff doubled per attempt: 50ms, then 100ms.
    ASSERT_EQ(delays.size(), 2u);
    EXPECT_EQ(delays[0], 50u);
    EXPECT_EQ(delays[1], 100u);
    EXPECT_EQ(bumpAttemptCounter(counter), 3);  // 2 crashes + 1 success

    // Exactly the successful attempt reached the memo journal.
    MemoCache reloaded(cache);
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_EQ(reloaded.lookup("flaky-cell").value_or(""),
              serializeRunMetrics(result.metrics));
    std::remove(counter.c_str());
    std::remove(cache.c_str());
}

TEST(IsolatedRetryTest, RetryCapGivesUpAndPersistsNothing)
{
    if (!isolationSupported())
        GTEST_SKIP() << "fork() unavailable";

    const std::string counter =
        testing::TempDir() + "lbsim_retry_cap_n.txt";
    const std::string cache =
        testing::TempDir() + "lbsim_retry_cap_cache.journal";
    std::remove(counter.c_str());
    std::remove(cache.c_str());

    EngineOptions opts;
    opts.isolateCells = true;
    opts.maxRetries = 2;
    opts.retryBackoffMs = 50;
    std::vector<std::uint64_t> delays;
    opts.retrySleep = [&delays](unsigned, std::uint64_t delay_ms) {
        delays.push_back(delay_ms);
    };

    // Crashes forever: the cap must stop the retries.
    const CellResult result =
        runExperimentCell(flakyCell(counter, cache, 1000), opts);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.outcome, RunOutcome::Crashed);
    EXPECT_FALSE(result.error.empty());

    // 1 initial + 2 retries = 3 attempts, with backoffs 50ms and 100ms.
    EXPECT_EQ(bumpAttemptCounter(counter), 3);
    ASSERT_EQ(delays.size(), 2u);
    EXPECT_EQ(delays[0], 50u);
    EXPECT_EQ(delays[1], 100u);

    // No failed attempt ever reached the memo journal.
    EXPECT_EQ(MemoCache(cache).size(), 0u);
    std::remove(counter.c_str());
    std::remove(cache.c_str());
}

TEST(IsolatedSweepTest, TimedOutCellReportsHang)
{
    if (!isolationSupported())
        GTEST_SKIP() << "fork() unavailable";

    ExperimentPlan plan(GpuConfig{}, LbConfig{}, sweepOptions());
    plan.addCustom("GA", "Sleeper", {}, [](SimRunner &) -> RunMetrics {
        std::this_thread::sleep_for(std::chrono::seconds(30));
        return {};
    });

    EngineOptions opts;
    opts.threads = 1;
    opts.isolateCells = true;
    opts.cellTimeoutSec = 1;
    opts.maxRetries = 0;
    const std::vector<CellResult> results =
        ExperimentEngine(opts).run(plan);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].outcome, RunOutcome::Hang);
    EXPECT_NE(results[0].error.find("wall-clock"), std::string::npos);
}

} // namespace
} // namespace lbsim
