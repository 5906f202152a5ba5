#include "cells.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "baselines/cerf.hpp"
#include "baselines/pcal.hpp"
#include "baselines/static_warp_limiter.hpp"
#include "core/gpu.hpp"
#include "harness/memo_cache.hpp"
#include "lb/linebacker.hpp"
#include "power/energy_model.hpp"
#include "workload/suite.hpp"

namespace lbbench
{

using namespace lbsim;

namespace
{

/** splitmix64 finalizer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

struct Regime
{
    Cycle warmup;
    Cycle measured;
};

/** bench --smoke: 50k warm-up + 100k measured. */
constexpr Regime kSmoke{50000, 100000};
/** bench full regime: 200k warm-up + 400k measured. */
constexpr Regime kFull{200000, 400000};

struct SchemeEntry
{
    const char *key;
    SchemeConfig scheme;
};

Cell
makeCell(const std::string &app_id, const SchemeEntry &entry,
         std::uint32_t sms, Regime regime, std::uint64_t seed)
{
    Cell cell;
    cell.app = appById(app_id);
    cell.app.seed = mix64(cell.app.seed ^ mix64(seed));
    cell.schemeKey = entry.key;
    cell.scheme = entry.scheme;
    cell.id = app_id + "/" + entry.key;
    cell.base.warmupCycles = regime.warmup;
    cell.sms = sms;
    cell.maxCycles = regime.measured;
    return cell;
}

/** Config the cell runs on, derived exactly as SimRunner derives it. */
GpuConfig
cellConfig(const Cell &cell, std::uint32_t sm_threads)
{
    GpuConfig cfg = cell.base.scaleTo(cell.sms);
    cfg.maxCycles = cell.maxCycles;
    cfg.smThreads = sm_threads;
    return cfg;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"fig12-sweep",
                                                   "lb-victim", "chip16"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed,
             std::uint32_t nproc, Workload &out)
{
    const SchemeEntry baseline{"baseline", SchemeConfig::baseline()};
    const SchemeEntry linebacker{"linebacker", SchemeConfig::linebacker()};

    out = Workload{};
    out.name = name;
    if (name == "fig12-sweep") {
        // The Fig-12 scheme set over three sensitive and three
        // insensitive apps at the smoke regime, on the 2-SM slice. Each
        // side has store-heavy apps (S2 KM, GA), a load-only one and a
        // seed-dependent irregular one (PF, SP).
        const SchemeEntry schemes[] = {
            baseline,
            {"swl8", SchemeConfig::bestSwl(8)},
            {"pcal", SchemeConfig::pcal()},
            {"cerf", SchemeConfig::cerf()},
            linebacker,
        };
        for (const char *app : {"S2", "KM", "PF", "LI", "GA", "SP"}) {
            for (const SchemeEntry &scheme : schemes)
                out.cells.push_back(makeCell(app, scheme, 2, kSmoke, seed));
        }
        out.smThreads = 1;
        out.altThreads = std::min<std::uint32_t>(2, nproc);
    } else if (name == "lb-victim") {
        // Linebacker alone on the ten cache-sensitive apps at the full
        // regime: store-heavy S2 GE KM S1 MV CF beside load-only
        // BI AT BC PF.
        for (const AppProfile &app : cacheSensitiveApps()) {
            out.cells.push_back(
                makeCell(app.id, linebacker, 2, kFull, seed));
            out.referenceCells.push_back(
                makeCell(app.id, baseline, 2, kFull, seed));
        }
        out.smThreads = 1;
        out.altThreads = std::min<std::uint32_t>(2, nproc);
    } else if (name == "chip16") {
        // The full 16-SM Table-1 chip: KM and the irregular
        // cache-insensitive SP, under baseline and Linebacker.
        for (const char *app : {"KM", "SP"}) {
            for (const SchemeEntry &scheme : {baseline, linebacker})
                out.cells.push_back(
                    makeCell(app, scheme, 16, kSmoke, seed));
        }
        out.smThreads = std::min<std::uint32_t>(4, nproc);
        out.altThreads = 1;
    } else {
        return false;
    }
    return true;
}

CellResult
runCell(const Cell &cell, std::uint32_t sm_threads, CellTrace *trace)
{
    if (cell.scheme.cacheExt || cell.scheme.throttle == ThrottleMode::Ccws)
        throw std::invalid_argument("lbbench does not wire " +
                                    cell.scheme.name);

    CellResult result;
    const auto t_start = Clock::now();
    const GpuConfig cfg = cellConfig(cell, sm_threads);
    const KernelInfo kernel = cell.app.buildKernel(cfg);
    const auto t_built = Clock::now();

    GpuBuildOptions build;
    if (cell.scheme.cerfUnified) {
        build.l1ExtraWays += cerfExtraWays(cfg, kernel);
        build.cerfUnified = true;
    }
    Gpu gpu(cfg, build);
    const auto t_constructed = Clock::now();

    // The per-SM policy stack, as SimRunner::runUncached builds it.
    const LbConfig lb_cfg;
    const bool lb_active = cell.scheme.victim != VictimMode::Off;
    std::vector<std::unique_ptr<SmControllerIf>> owned;
    std::vector<SmControllerIf *> controllers(gpu.numSms(), nullptr);
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
        SmControllerIf *inner = nullptr;
        switch (cell.scheme.throttle) {
          case ThrottleMode::StaticWarp:
            owned.push_back(std::make_unique<StaticWarpLimiter>(
                cell.scheme.staticWarpLimit));
            inner = owned.back().get();
            break;
          case ThrottleMode::PcalTokens:
            owned.push_back(std::make_unique<Pcal>(gpu.config()));
            inner = owned.back().get();
            break;
          case ThrottleMode::Ccws:
          case ThrottleMode::None:
          case ThrottleMode::DynamicCta:
            break;
        }
        if (lb_active) {
            owned.push_back(std::make_unique<Linebacker>(
                gpu.config(), lb_cfg, cell.scheme, &gpu.sm(i),
                &gpu.smStats(i), inner));
            controllers[i] = owned.back().get();
        } else {
            controllers[i] = inner;
        }
    }

    // Traced wiring: decorators around every seam, one counter set per
    // SM so the parallel SM phase shares nothing.
    std::vector<HookCounters> counters;
    std::vector<std::unique_ptr<TimingController>> timing_ctrls;
    std::vector<std::unique_ptr<TimingVictim>> timing_victims;
    std::vector<std::unique_ptr<CountingL1Sink>> l1_sinks;
    std::vector<std::unique_ptr<CountingL2Sink>> l2_sinks;
    if (trace) {
        counters.resize(gpu.numSms());
        for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
            timing_ctrls.push_back(std::make_unique<TimingController>(
                controllers[i], counters[i]));
            controllers[i] = timing_ctrls.back().get();
        }
    }
    gpu.setControllers(controllers);
    if (trace) {
        for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
            L1Cache &l1 = gpu.sm(i).l1();
            if (l1.victimCache()) {
                timing_victims.push_back(std::make_unique<TimingVictim>(
                    l1.victimCache(), counters[i]));
                l1.setVictimCache(timing_victims.back().get());
            }
            l1_sinks.push_back(std::make_unique<CountingL1Sink>(counters[i]));
            l1.setEventSink(l1_sinks.back().get());
        }
        for (std::uint32_t p = 0; p < gpu.numPartitions(); ++p) {
            l2_sinks.push_back(std::make_unique<CountingL2Sink>());
            gpu.partition(p).l2().setEventSink(l2_sinks.back().get());
        }
    }
    const auto t_wired = Clock::now();

    result.stats = gpu.runKernel(kernel);
    const auto t_ran = Clock::now();

    const EnergyModel energy;
    result.energyJ = energy.compute(result.stats, gpu.config(), lb_active)
                         .total();
    const auto t_done = Clock::now();

    if (gpu.watchdogTripped())
        result.outcome = RunOutcome::Hang;
    else if (gpu.faultInjector().totalFired() > 0)
        result.outcome = RunOutcome::FaultDegraded;
    result.digest = statsDigest(result.stats);
    result.simCycles = cfg.warmupCycles + result.stats.cycles;
    result.sms = gpu.numSms();

    auto seconds = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };
    result.times.buildKernel = seconds(t_start, t_built);
    result.times.gpuCtor = seconds(t_built, t_constructed);
    result.times.wire = seconds(t_constructed, t_wired);
    result.times.runKernel = seconds(t_wired, t_ran);
    result.times.energy = seconds(t_ran, t_done);

    if (trace) {
        HookCounters &family = lb_active ? trace->linebacker
                                         : trace->baselines;
        for (const HookCounters &sm_counters : counters)
            family.add(sm_counters);
        for (const auto &sink : l2_sinks)
            trace->l2SinkEvents += sink->events;
        if (trace->spans) {
            SpanLog &log = *trace->spans;
            const std::int64_t root =
                log.add("cell", cell.id, trace->pass, -1, t_start, t_done);
            log.add("build_kernel", cell.id, trace->pass, root, t_start,
                    t_built);
            log.add("gpu_ctor", cell.id, trace->pass, root, t_built,
                    t_constructed);
            log.add("wire", cell.id, trace->pass, root, t_constructed,
                    t_wired);
            log.add("run_kernel", cell.id, trace->pass, root, t_wired,
                    t_ran);
            log.add("energy", cell.id, trace->pass, root, t_ran, t_done);
        }
    }
    return result;
}

RunMetrics
runReference(const Cell &cell, std::uint32_t sm_threads)
{
    RunnerOptions options;
    options.simSms = cell.sms;
    options.maxCycles = cell.maxCycles;
    options.smThreads = sm_threads;
    options.useMemoCache = false;
    SimRunner runner(cell.base, LbConfig{}, options);
    return runner.run(cell.app, cell.scheme);
}

std::string
statsDigest(const SimStats &stats)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(serializeStats(stats))));
    return hex;
}

} // namespace lbbench
