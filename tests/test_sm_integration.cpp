/**
 * @file
 * SM-level integration tests: CTA launch/occupancy, issue, retirement,
 * throttling interface, and register accounting.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/gpu.hpp"
#include "harness/sim_runner.hpp"
#include "workload/pattern.hpp"
#include "workload/suite.hpp"

namespace lbsim
{
namespace
{

KernelInfo
tinyKernel(std::uint32_t iterations, std::uint32_t warps_per_cta = 8,
           std::uint32_t regs_per_warp = 16, std::uint32_t num_ctas = 8)
{
    KernelInfo kernel;
    kernel.name = "tiny";
    kernel.warpsPerCta = warps_per_cta;
    kernel.regsPerWarp = regs_per_warp;
    kernel.iterations = iterations;
    kernel.numCtas = num_ctas;
    kernel.patterns.push_back(std::make_shared<TiledReusePattern>(
        0, 16, TileScope::PerCta, warps_per_cta));
    StaticInst load;
    load.op = Opcode::Load;
    load.pc = 0;
    kernel.body.push_back(load);
    StaticInst use;
    use.op = Opcode::Alu;
    use.pc = 4;
    use.dependsOnLoads = true;
    kernel.body.push_back(use);
    return kernel;
}

TEST(SmIntegration, LaunchRespectsWarpSlots)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    Gpu gpu(cfg);
    KernelInfo kernel = tinyKernel(100, 16, 8, 100);
    gpu.sm(0).setKernel(&kernel);
    std::uint32_t launched = 0;
    while (gpu.sm(0).launchCta(launched, 0))
        ++launched;
    EXPECT_EQ(launched, 4u); // 64 warp slots / 16 warps per CTA.
}

TEST(SmIntegration, LaunchRespectsRegisterFile)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    Gpu gpu(cfg);
    KernelInfo kernel = tinyKernel(100, 8, 64, 100); // 512 regs/CTA.
    gpu.sm(0).setKernel(&kernel);
    std::uint32_t launched = 0;
    while (gpu.sm(0).launchCta(launched, 0))
        ++launched;
    EXPECT_EQ(launched, 4u); // 2048 / 512.
}

TEST(SmIntegration, LaunchRespectsSharedMemory)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    Gpu gpu(cfg);
    KernelInfo kernel = tinyKernel(100, 4, 8, 100);
    kernel.sharedMemPerCta = 32 * 1024; // 96 KB / 32 KB = 3 CTAs.
    gpu.sm(0).setKernel(&kernel);
    std::uint32_t launched = 0;
    while (gpu.sm(0).launchCta(launched, 0))
        ++launched;
    EXPECT_EQ(launched, 3u);
}

TEST(SmIntegration, KernelRunsToCompletion)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    cfg.maxCycles = 2000000;
    Gpu gpu(cfg);
    KernelInfo kernel = tinyKernel(50, 8, 16, 12);
    const SimStats &stats = gpu.runKernel(kernel);
    EXPECT_TRUE(gpu.done());
    EXPECT_EQ(stats.ctasCompleted, 12u);
    // Every warp executed body.size() x iterations instructions.
    EXPECT_EQ(stats.instructionsIssued, 12u * 8u * 50u * 2u);
}

TEST(SmIntegration, EverySmOfAMultiSmChipRunsItsShare)
{
    // The SM loop ticks every SM each cycle: on a 4-SM chip each SM
    // issues, and the per-SM shards fold into the exact chip total.
    // Dispatch fills SMs in index order (8 resident CTAs each here), so
    // 40 CTAs reach all four SMs and spill into a second wave.
    GpuConfig cfg = GpuConfig{}.scaleTo(4);
    cfg.maxCycles = 2000000;
    Gpu gpu(cfg);
    KernelInfo kernel = tinyKernel(50, 8, 16, 40);
    const SimStats &stats = gpu.runKernel(kernel);
    EXPECT_TRUE(gpu.done());
    EXPECT_EQ(stats.ctasCompleted, 40u);
    EXPECT_EQ(stats.instructionsIssued, 40u * 8u * 50u * 2u);
    std::uint64_t per_sm_total = 0;
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
        EXPECT_GT(gpu.sm(i).instructionsIssued(), 0u) << "SM " << i;
        per_sm_total += gpu.sm(i).instructionsIssued();
    }
    EXPECT_EQ(per_sm_total, stats.instructionsIssued);
}

TEST(SmIntegration, RegistersFullyReleasedAfterCompletion)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    cfg.maxCycles = 2000000;
    Gpu gpu(cfg);
    KernelInfo kernel = tinyKernel(20, 8, 32, 10);
    gpu.runKernel(kernel);
    ASSERT_TRUE(gpu.done());
    EXPECT_EQ(gpu.sm(0).regFile().allocatedRegs(), 0u);
}

TEST(SmIntegration, ThrottledCtaStopsIssuing)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    Gpu gpu(cfg);
    KernelInfo kernel = tinyKernel(1000000, 8, 16, 4);
    gpu.sm(0).setKernel(&kernel);
    for (std::uint32_t c = 0; c < 4; ++c)
        ASSERT_TRUE(gpu.sm(0).launchCta(c, 0));

    gpu.sm(0).setCtaActive(3, false, 0);
    for (int i = 0; i < 1000; ++i)
        gpu.tick();
    // Warps of CTA 3 made no progress.
    for (const Warp &warp : gpu.sm(0).warps()) {
        if (warp.valid && warp.ctaHwId == 3) {
            EXPECT_EQ(warp.iteration, 0u);
            EXPECT_EQ(warp.pcIndex, 0u);
        }
    }
    EXPECT_EQ(gpu.sm(0).activeCtaCount(), 3u);
    EXPECT_EQ(gpu.sm(0).highestActiveCta(), 2);
    EXPECT_EQ(gpu.sm(0).lowestInactiveCta(), 3);
}

TEST(SmIntegration, ReactivatedCtaResumes)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    Gpu gpu(cfg);
    KernelInfo kernel = tinyKernel(1000000, 8, 16, 4);
    gpu.sm(0).setKernel(&kernel);
    for (std::uint32_t c = 0; c < 4; ++c)
        ASSERT_TRUE(gpu.sm(0).launchCta(c, 0));
    gpu.sm(0).setCtaActive(3, false, 0);
    for (int i = 0; i < 500; ++i)
        gpu.tick();
    gpu.sm(0).setCtaActive(3, true, gpu.now());
    for (int i = 0; i < 3000; ++i)
        gpu.tick();
    bool progressed = false;
    for (const Warp &warp : gpu.sm(0).warps()) {
        if (warp.valid && warp.ctaHwId == 3 &&
            (warp.iteration > 0 || warp.pcIndex > 0)) {
            progressed = true;
        }
    }
    EXPECT_TRUE(progressed);
}

TEST(SmIntegration, OccupancyAccountingTracksDurAndSur)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    cfg.maxCycles = 10000;
    Gpu gpu(cfg);
    KernelInfo kernel = tinyKernel(1000000, 8, 32, 4); // 1024 regs used.
    gpu.sm(0).setKernel(&kernel);
    for (std::uint32_t c = 0; c < 4; ++c)
        ASSERT_TRUE(gpu.sm(0).launchCta(c, 0));
    gpu.sm(0).setCtaActive(3, false, 0);
    for (int i = 0; i < 10000; ++i)
        gpu.tick();
    gpu.finalizeStats();
    const SimStats &stats = gpu.stats();
    EXPECT_NEAR(stats.avgDynamicallyUnusedRegisters, 256.0, 1.0);
    EXPECT_NEAR(stats.avgStaticallyUnusedRegisters, 1024.0, 1.0);
    EXPECT_NEAR(stats.avgActiveRegisters, 768.0, 1.0);
}

TEST(SmIntegration, GridDrainsAcrossMultipleWaves)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    cfg.maxCycles = 4000000;
    Gpu gpu(cfg);
    // 24 CTAs but only 8 resident at once: three waves.
    KernelInfo kernel = tinyKernel(30, 8, 32, 24);
    const SimStats &stats = gpu.runKernel(kernel);
    EXPECT_TRUE(gpu.done());
    EXPECT_EQ(stats.ctasCompleted, 24u);
}

// --- Scheduler wake bounds --------------------------------------------------
//
// Sm::tick skips a scheduler stripe while every warp in it is blocked on
// its own state. Each test below pins one event that must wake the
// stripe at once; without that event's reset the warp issues late or
// never.

/** True if every scheduler stripe of @p sm sleeps past @p now. */
bool
allStripesSleep(const Sm &sm, const GpuConfig &cfg, Cycle now)
{
    for (std::size_t s = 0; s < cfg.schedulersPerSm; ++s) {
        if (sm.issueWake(s) <= now)
            return false;
    }
    return true;
}

TEST(SmIntegration, LoadBlockedWarpIssuesOnTheCycleItsLastLoadCompletes)
{
    // A lone warp alternates a load with an ALU op that consumes it, so
    // after each load its stripe sleeps on nothing but that load.
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    Gpu gpu(cfg);
    KernelInfo kernel = tinyKernel(1000000, 1, 16, 1);
    Sm &sm = gpu.sm(0);
    sm.setKernel(&kernel);
    ASSERT_TRUE(sm.launchCta(0, 0));
    const Warp &warp = sm.warps()[0];
    const std::size_t stripe = warp.smWarpId % cfg.schedulersPerSm;

    int woken = 0;
    while (woken < 3 && gpu.now() < 50000) {
        const Cycle cycle = gpu.now();
        const std::uint32_t loads = warp.outstandingLoads;
        const std::uint32_t pc = warp.pcIndex;
        const bool asleep = sm.issueWake(stripe) > cycle;
        const bool ready = warp.readyAt <= cycle;
        gpu.tick();
        if (loads > 0 && warp.outstandingLoads == 0 && asleep && ready) {
            EXPECT_NE(warp.pcIndex, pc)
                << "warp still blocked on cycle " << cycle
                << ", when its last load completed";
            ++woken;
        }
    }
    EXPECT_EQ(woken, 3) << "the warp never slept on a load";
}

TEST(SmIntegration, ReactivatedCtaIssuesOnTheNextTick)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    Gpu gpu(cfg);
    KernelInfo kernel = tinyKernel(1000000, 4, 16, 1);
    Sm &sm = gpu.sm(0);
    sm.setKernel(&kernel);
    ASSERT_TRUE(sm.launchCta(0, 0));
    sm.setCtaActive(0, false, 0);
    for (int i = 0; i < 100; ++i)
        gpu.tick();
    ASSERT_EQ(sm.instructionsIssued(), 0u);
    ASSERT_TRUE(allStripesSleep(sm, cfg, gpu.now()));

    sm.setCtaActive(0, true, gpu.now());
    gpu.tick();
    EXPECT_EQ(sm.instructionsIssued(), 4u)
        << "every warp of the reactivated CTA is ready";
}

TEST(SmIntegration, CtaLaunchedMidRunIssuesOnItsLaunchCycle)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    Gpu gpu(cfg);
    KernelInfo kernel = tinyKernel(1000000, 4, 16, 2);
    Sm &sm = gpu.sm(0);
    sm.setKernel(&kernel);
    ASSERT_TRUE(sm.launchCta(0, 0));
    // Run until every stripe sleeps on CTA 0's loads.
    while (!allStripesSleep(sm, cfg, gpu.now()) && gpu.now() < 1000)
        gpu.tick();
    ASSERT_TRUE(allStripesSleep(sm, cfg, gpu.now()));

    const Cycle launch = gpu.now();
    ASSERT_TRUE(sm.launchCta(1, launch));
    gpu.tick();
    std::uint32_t issued = 0;
    for (const Warp &warp : sm.warps()) {
        if (warp.valid && warp.globalCtaId == 1 && warp.pcIndex != 0)
            ++issued;
    }
    EXPECT_EQ(issued, 4u) << "CTA 1's warps idled on launch cycle "
                          << launch;
}

TEST(SmIntegration, WakeBoundAuditHoldsEveryCycleUnderEveryScheme)
{
    if (!checksEnabled(CheckLevel::Full))
        GTEST_SKIP() << "periodic audits compiled out at this check level";
    std::vector<std::string> failures;
    const CheckFailureHandler previous =
        setCheckFailureHandler([&failures](const CheckFailure &failure) {
            failures.push_back(failure.message);
        });

    GpuConfig cfg;
    cfg.auditStride = 1; // Gpu::audit after every tick.
    cfg.warmupCycles = 0;
    LbConfig lb;
    lb.monitorPeriod = 4000; // Linebacker throttles and reactivates.
    RunnerOptions opts;
    opts.simSms = 1;
    opts.maxCycles = 30000;
    opts.useMemoCache = false;
    const AppProfile &app = appById("S2");
    const SchemeConfig schemes[] = {
        SchemeConfig::baseline(), SchemeConfig::bestSwl(8),
        SchemeConfig::pcal(),     SchemeConfig::cerf(),
        SchemeConfig::linebacker(), SchemeConfig::ccws(),
    };
    for (const SchemeConfig &scheme : schemes) {
        SimRunner runner(cfg, lb, opts);
        const RunMetrics metrics = runner.run(app, scheme);
        EXPECT_GT(metrics.stats.instructionsIssued, 0u) << scheme.name;
        if (scheme.name == SchemeConfig::linebacker().name) {
            EXPECT_GT(metrics.stats.ctaThrottleEvents, 0u)
                << "Linebacker never throttled, so setCtaActive went "
                   "unaudited";
        }
    }
    setCheckFailureHandler(previous);
    EXPECT_TRUE(failures.empty()) << failures.front();
}

} // namespace
} // namespace lbsim
