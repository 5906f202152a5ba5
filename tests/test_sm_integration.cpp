/**
 * @file
 * SM-level integration tests: CTA launch/occupancy, issue, retirement,
 * throttling interface, and register accounting.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/gpu.hpp"
#include "workload/pattern.hpp"

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

} // namespace
} // namespace lbsim
