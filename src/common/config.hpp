/**
 * @file
 * Simulation configuration structures.
 *
 * GpuConfig mirrors Table 1 of the paper (baseline GPU), LbConfig mirrors
 * Table 3 (Linebacker microarchitectural constants), and SchemeConfig
 * composes the architectural variants evaluated in Figures 5 and 10-18.
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace lbsim
{

/** Cache geometry (shared by L1 and L2 models). */
struct CacheGeometry
{
    std::uint32_t sizeBytes = 48 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = kLineBytes;

    /** Number of sets implied by the geometry. */
    std::uint32_t
    sets() const
    {
        return sizeBytes / (ways * lineBytes);
    }
};

/** DRAM timing parameters in DRAM-clock cycles (Table 1, bottom rows). */
struct DramTiming
{
    std::uint32_t rcd = 12;   ///< RAS-to-CAS delay.
    std::uint32_t rp = 12;    ///< Row precharge.
    std::uint32_t rc = 40;    ///< Row cycle.
    double rrd = 5.5;         ///< Row-to-row activation delay.
    std::uint32_t cl = 12;    ///< CAS latency.
    std::uint32_t wr = 12;    ///< Write recovery.
    std::uint32_t ras = 28;   ///< Row active time.
};

/**
 * Baseline GPU configuration (Table 1).
 *
 * Benches may scale numSms down (with memory bandwidth and L2 scaled
 * proportionally via scaleTo()) to bound simulation time; workloads are
 * homogeneous across SMs so relative results are preserved.
 */
struct GpuConfig
{
    std::uint32_t numSms = 16;
    double clockGhz = 1.126;
    std::uint32_t simdWidth = kWarpSize;
    std::uint32_t maxThreadsPerSm = 2048;
    std::uint32_t maxWarpsPerSm = 64;
    std::uint32_t maxCtasPerSm = 32;
    std::uint32_t schedulersPerSm = 4;
    std::uint32_t registerFileBytesPerSm = 256 * 1024;
    std::uint32_t registerFileBanks = 16;
    std::uint32_t sharedMemBytesPerSm = 96 * 1024;
    CacheGeometry l1 = {48 * 1024, 8, kLineBytes};
    std::uint32_t l1MshrEntries = 64;
    std::uint32_t l1MshrMergesPerEntry = 8;
    std::uint32_t l1HitLatency = 28;
    CacheGeometry l2 = {2048 * 1024, 8, kLineBytes};
    std::uint32_t l2Latency = 120;         ///< L2 array access latency.
    std::uint32_t icntLatency = 40;        ///< One-way interconnect hops.
    std::uint32_t numMemPartitions = 8;    ///< L2 banks / DRAM channels.
    double dramBandwidthGBs = 352.5;
    DramTiming dramTiming = {};
    std::uint32_t dramQueueDepth = 32;

    /** Extra L1 bytes granted by the ideal CacheExt configuration. */
    std::uint32_t cacheExtBytes = 0;

    /** Simulated cycles per run (relative-IPC measurement budget). */
    Cycle maxCycles = 200000;

    /**
     * Cycles simulated before statistics are reset and measurement
     * begins (standard warm-up methodology; applied identically to every
     * scheme so relative results are warm-state comparisons).
     */
    Cycle warmupCycles = 0;

    /**
     * Cycle stride between structural audits when full checks are
     * compiled in (LBSIM_CHECKS=full); 0 disables the periodic audits.
     * Purely a debugging knob — no architectural effect.
     */
    Cycle auditStride = 8192;

    /**
     * Ignored; assigned by the frozen benchmark harness. The SMs tick
     * serially (DESIGN.md §13) and no code reads this field. Excluded
     * from the memo-cache key.
     */
    std::uint32_t smThreads = 1;

    /**
     * Forward-progress watchdog: terminate the run once this many cycles
     * pass with no instruction issued and no memory request retired
     * anywhere on the chip, and emit a structured hang report. 0 (the
     * default) disables the watchdog. No architectural effect on runs
     * that make progress.
     */
    Cycle watchdogCycles = 0;

    /**
     * Event-driven tick skipping: when every subsystem can prove its
     * next effectful cycle is in the future (warps stalled on memory,
     * DRAM commands not yet serviceable, crossbar traffic in flight),
     * the engine fast-forwards to the earliest such cycle and replays
     * the per-cycle accumulators for the jumped distance. Results are
     * bit-identical with the knob on or off (the TickSkip tests enforce
     * it), so it is an execution-engine knob excluded from the
     * memo-cache key. Automatically disabled for runs with an
     * armed fault injector: fault hooks must observe every real cycle.
     */
    bool tickSkip = true;

    /** Warp registers (128 B each) in the register file. */
    std::uint32_t
    totalWarpRegisters() const
    {
        return registerFileBytesPerSm / kLineBytes;
    }

    /** DRAM bandwidth expressed in bytes per core cycle (whole GPU). */
    double
    dramBytesPerCycle() const
    {
        return dramBandwidthGBs * 1.0e9 / (clockGhz * 1.0e9);
    }

    /**
     * Scale the chip down to @p sms SMs, keeping per-SM resources fixed
     * and shrinking shared resources (L2 capacity, DRAM bandwidth,
     * partition count) proportionally.
     */
    GpuConfig scaleTo(std::uint32_t sms) const;
};

/** Linebacker microarchitectural constants (Table 3). */
struct LbConfig
{
    Cycle monitorPeriod = 50000;       ///< IPC & locality window length.
    double hitRatioThreshold = 0.20;   ///< Load-classification threshold.
    double ipcVarUpper = 0.10;         ///< Throttle another CTA above this.
    double ipcVarLower = -0.10;        ///< Re-activate a CTA below this.
    std::uint32_t vttWays = 4;         ///< Ways per VTT partition.
    std::uint32_t vttMaxPartitions = 8;
    std::uint32_t vttAccessLatency = 3;    ///< Cycles per partition probe.
    std::uint32_t loadMonitorEntries = 32;
    std::uint32_t hashedPcBits = 5;
    std::uint32_t backupBufferEntries = 6;
    RegNum victimRegOffset = 512;      ///< First RN usable as victim line.

    /** Tag entries per VTT partition (48 sets x ways by default). */
    std::uint32_t
    partitionEntries(std::uint32_t l1Sets) const
    {
        return l1Sets * vttWays;
    }
};

/** Warp-throttling flavour applied by a scheme. */
enum class ThrottleMode
{
    None,         ///< All launched warps stay active.
    StaticWarp,   ///< Best-SWL: fixed active-warp cap chosen offline.
    DynamicCta,   ///< Linebacker CTL: IPC-driven +-1 CTA per window.
    PcalTokens,   ///< PCAL: token-holder warps allocate, others bypass.
    Ccws,         ///< CCWS: lost-locality-score warp throttling.
};

/** Victim-caching flavour applied by a scheme. */
enum class VictimMode
{
    Off,        ///< No victim caching.
    All,        ///< Preserve every evicted line (Fig 11 "Victim Caching").
    Selective,  ///< Preserve lines of Load-Monitor-selected loads only.
};

/**
 * Composition of mechanisms defining one evaluated architecture.
 *
 * The paper's configurations map onto flag combinations; named factory
 * functions below build each one.
 */
struct SchemeConfig
{
    std::string name = "Baseline";
    ThrottleMode throttle = ThrottleMode::None;
    VictimMode victim = VictimMode::Off;
    bool useDynamicUnusedRegs = false;  ///< DUR usable as victim space.
    bool backupRegisters = false;       ///< Back up throttled CTA registers.
    bool cerfUnified = false;           ///< CERF unified RF/L1 structure.
    bool cacheExt = false;              ///< Ideal L1 extension by idle RF.
    std::uint32_t staticWarpLimit = 0;  ///< 0 = no limit (Best-SWL input).

    static SchemeConfig baseline();
    static SchemeConfig bestSwl(std::uint32_t warp_limit);
    /** CCWS-lite dynamic warp throttling (extension baseline). */
    static SchemeConfig ccws();
    static SchemeConfig pcal();
    static SchemeConfig cerf();
    static SchemeConfig linebacker();
    /** Fig 11 "Victim Caching": preserve all evictions, SUR only. */
    static SchemeConfig victimCachingAll();
    /** Fig 11 "Selective Victim Caching": SVC on SUR only, no throttling. */
    static SchemeConfig selectiveVictimCaching();
    /** Fig 15 PCAL+SVC. */
    static SchemeConfig pcalSvc();
    /** Fig 15 PCAL+CERF. */
    static SchemeConfig pcalCerf();
    /** Fig 5 CacheExt (ideal L1 extension, baseline scheduling). */
    static SchemeConfig cacheExtension();
    /** Fig 5 Best-SWL+CacheExt. */
    static SchemeConfig bestSwlCacheExt(std::uint32_t warp_limit);
    /** Fig 15 LB+CacheExt. */
    static SchemeConfig linebackerCacheExt();
};

/**
 * Map a user-facing scheme name (the lbsim_cli vocabulary:
 * "baseline", "best-swl", "ccws", "pcal", "cerf", "linebacker"/"lb",
 * "vc", "svc", "pcal-svc", "pcal-cerf", "cache-ext", "lb-cache-ext")
 * onto its SchemeConfig. "best-swl" with @p warp_limit 0 has no static
 * configuration — it requires the oracle sweep — so @p oracle_swl is
 * set and @p out left untouched. Returns false for an unknown name.
 */
bool schemeByName(const std::string &name, std::uint32_t warp_limit,
                  SchemeConfig &out, bool &oracle_swl);

} // namespace lbsim
