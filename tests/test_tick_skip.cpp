/**
 * @file
 * Tick-skip identity tests.
 *
 * GpuConfig::tickSkip is an execution-engine knob: the event-driven
 * fast-forward must be invisible in every counter, for every scheme,
 * with warm-up and the watchdog in play. These tests run the same
 * (config, workload, seed) with skipping off and on and require the
 * serialized statistics to be byte-identical — the same witness the
 * seed-determinism suite uses. A skip that jumped a cycle any subsystem
 * would have acted on shows up as a counter mismatch here.
 */

#include <gtest/gtest.h>

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

/** Memory-heavy, seed-stochastic workload with idle-chip stretches. */
AppProfile
skipProbeApp(std::uint64_t seed)
{
    AppProfile app;
    app.id = "skip-probe";
    app.description = "tick-skip identity probe";
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

/** Run @p app under @p scheme with tick skipping forced to @p skip. */
std::string
statsWithSkip(const AppProfile &app, const SchemeConfig &scheme,
              bool skip, const GpuConfig &base = {},
              const RunnerOptions &opts = fastOptions())
{
    GpuConfig cfg = base;
    cfg.tickSkip = skip;
    SimRunner runner(cfg, {}, opts);
    return serializeStats(runner.run(app, scheme).stats);
}

TEST(TickSkip, OffMatchesOnAcrossSchemes)
{
    const AppProfile app = skipProbeApp(1234);
    const SchemeConfig schemes[] = {
        SchemeConfig::baseline(),     SchemeConfig::bestSwl(8),
        SchemeConfig::ccws(),         SchemeConfig::pcal(),
        SchemeConfig::cerf(),         SchemeConfig::linebacker(),
    };
    for (const SchemeConfig &scheme : schemes) {
        EXPECT_EQ(statsWithSkip(app, scheme, false),
                  statsWithSkip(app, scheme, true))
            << "tick-skip changed results under " << scheme.name;
    }
}

TEST(TickSkip, OffMatchesOnForSuiteApps)
{
    for (const char *id : {"S2", "KM"}) {
        const AppProfile &app = appById(id);
        EXPECT_EQ(statsWithSkip(app, SchemeConfig::linebacker(), false),
                  statsWithSkip(app, SchemeConfig::linebacker(), true))
            << "tick-skip changed results on suite app " << id;
    }
}

TEST(TickSkip, OffMatchesOnAcrossWarmupBoundary)
{
    // Warm-up splits the run into two skip-limited loops with an
    // accumulator reset between them; the boundary cycle must land
    // exactly.
    GpuConfig base;
    base.warmupCycles = 20000;
    const AppProfile app = skipProbeApp(77);
    for (const SchemeConfig &scheme :
         {SchemeConfig::baseline(), SchemeConfig::linebacker()}) {
        EXPECT_EQ(statsWithSkip(app, scheme, false, base),
                  statsWithSkip(app, scheme, true, base))
            << "tick-skip changed warmed results under " << scheme.name;
    }
}

TEST(TickSkip, OffMatchesOnUnderFaultPlan)
{
    // An armed fault injector disables the fast-forward outright (fault
    // hooks must observe every real cycle), so both runs take the naive
    // loop — but the knob must stay bit-invisible in that regime too:
    // a tickSkip=true run under faults has to equal a tickSkip=false
    // run under the same plan, for every scheme the hooks touch.
    RunnerOptions opts = fastOptions();
    opts.faultPlan.events.push_back(
        {FaultKind::IcntDelay, 5000, 2000, 40});
    opts.faultPlan.events.push_back(
        {FaultKind::DramStorm, 12000, 3000, 25});
    opts.faultPlan.events.push_back(
        {FaultKind::VttRevoke, 20000, 5000, 0});
    const AppProfile app = skipProbeApp(99);
    for (const SchemeConfig &scheme :
         {SchemeConfig::baseline(), SchemeConfig::cerf(),
          SchemeConfig::linebacker()}) {
        EXPECT_EQ(statsWithSkip(app, scheme, false, {}, opts),
                  statsWithSkip(app, scheme, true, {}, opts))
            << "tick-skip changed faulted results under " << scheme.name;
    }
}

TEST(TickSkip, OffMatchesOnAtTwoSms)
{
    // A second SM adds crossbar contention and per-SM skip bounds: the
    // naive loop and the skipping loop must still agree on 2 SMs.
    RunnerOptions opts = fastOptions();
    opts.simSms = 2;
    const AppProfile app = skipProbeApp(7);
    EXPECT_EQ(statsWithSkip(app, SchemeConfig::linebacker(), false, {},
                            opts),
              statsWithSkip(app, SchemeConfig::linebacker(), true, {},
                            opts))
        << "tick-skip diverged from the naive loop on 2 SMs";
}

TEST(TickSkip, OffMatchesOnWithWatchdogArmed)
{
    // A progressing run with the watchdog armed: skips must respect the
    // priming observe and never jump past a would-be trip cycle.
    GpuConfig base;
    base.watchdogCycles = 5000;
    const AppProfile app = skipProbeApp(42);
    for (const SchemeConfig &scheme :
         {SchemeConfig::baseline(), SchemeConfig::linebacker()}) {
        EXPECT_EQ(statsWithSkip(app, scheme, false, base),
                  statsWithSkip(app, scheme, true, base))
            << "tick-skip changed watchdogged results under "
            << scheme.name;
    }
}

} // namespace
} // namespace lbsim
