#include "harness/sim_runner.hpp"

#include <cmath>
#include <memory>
#include <sstream>

#include "baselines/cerf.hpp"
#include "baselines/ccws.hpp"
#include "baselines/pcal.hpp"
#include "baselines/static_warp_limiter.hpp"
#include "core/gpu.hpp"
#include "harness/memo_cache.hpp"
#include "lb/linebacker.hpp"
#include "testing/lockstep.hpp"

namespace lbsim
{

namespace
{

/** Bump when simulator/workload semantics change to invalidate caches. */
constexpr const char *kCacheVersion = "lbsim-v11";

/** DUR bytes implied by a static warp limit (Best-SWL+CacheExt sizing). */
std::uint32_t
durBytesForWarpLimit(const GpuConfig &cfg, const KernelInfo &kernel,
                     std::uint32_t warp_limit)
{
    if (warp_limit == 0)
        return 0;
    const std::uint32_t resident_warps =
        maxResidentCtas(cfg, kernel) * kernel.warpsPerCta;
    if (warp_limit >= resident_warps)
        return 0;
    return (resident_warps - warp_limit) * kernel.regsPerWarp *
        kLineBytes;
}

std::string
describeScheme(const SchemeConfig &s)
{
    std::ostringstream out;
    out << s.name << ';' << static_cast<int>(s.throttle) << ';'
        << static_cast<int>(s.victim) << ';' << s.useDynamicUnusedRegs
        << ';' << s.backupRegisters << ';' << s.cerfUnified << ';'
        << s.cacheExt << ';' << s.staticWarpLimit;
    return out.str();
}

std::string
describeApp(const AppProfile &app)
{
    std::ostringstream out;
    out << app.id << ';' << app.aluPerLoad << ';' << app.loadsBackToBack
        << ';' << app.hasStore << ';' << app.storeEveryN << ';'
        << app.warpsPerCta << ';' << app.regsPerWarp << ';'
        << app.sharedMemPerCta << ';' << app.iterations << ';'
        << app.ctasPerSmOfGrid << ';' << app.seed;
    for (const LoadSpec &load : app.loads) {
        out << ";L" << static_cast<int>(load.cls) << ',' << load.lines
            << ',' << static_cast<int>(load.scope) << ',' << load.fanout
            << ',' << load.hotLines << ',' << load.hotProbability << ','
            << load.everyN;
    }
    return out.str();
}

/**
 * Every configuration field that can change simulation results must
 * appear here: a sweep that mutates a non-keyed field would silently
 * return stale cache hits. The only deliberate exclusions are
 * GpuConfig::auditStride (debugging knob with no architectural effect),
 * GpuConfig::tickSkip (execution-engine knob — results are
 * bit-identical with skipping on or off, which the TickSkip
 * equivalence tests enforce), GpuConfig::smThreads /
 * RunnerOptions::smThreads (ignored fields no code reads) and
 * RunnerOptions::useMemoCache (meta).
 */
std::string
describeConfig(const GpuConfig &cfg, const LbConfig &lb,
               const RunnerOptions &options, const SchemeConfig &scheme)
{
    std::ostringstream out;
    out << cfg.numSms << ';' << cfg.clockGhz << ';' << cfg.simdWidth
        << ';' << cfg.maxThreadsPerSm << ';' << cfg.maxWarpsPerSm << ';'
        << cfg.maxCtasPerSm << ';' << cfg.schedulersPerSm << ';'
        << cfg.registerFileBytesPerSm << ';' << cfg.registerFileBanks
        << ';' << cfg.sharedMemBytesPerSm << ';' << cfg.l1.sizeBytes
        << ';' << cfg.l1.ways << ';' << cfg.l1.lineBytes << ';'
        << cfg.l1MshrEntries << ';' << cfg.l1MshrMergesPerEntry << ';'
        << cfg.l1HitLatency << ';' << cfg.l2.sizeBytes << ';'
        << cfg.l2.ways << ';' << cfg.l2.lineBytes << ';'
        << cfg.l2Latency << ';' << cfg.icntLatency << ';'
        << cfg.numMemPartitions << ';' << cfg.dramBandwidthGBs << ';'
        << cfg.dramTiming.rcd << ';' << cfg.dramTiming.rp << ';'
        << cfg.dramTiming.rc << ';' << cfg.dramTiming.rrd << ';'
        << cfg.dramTiming.cl << ';' << cfg.dramTiming.wr << ';'
        << cfg.dramTiming.ras << ';' << cfg.dramQueueDepth << ';'
        << cfg.cacheExtBytes << ';' << cfg.maxCycles << ';'
        << cfg.warmupCycles << ';' << cfg.watchdogCycles << ';'
        << options.simSms << ';' << options.maxCycles;
    // A fault plan perturbs timing, so faulted points must never collide
    // with clean ones (nor with differently-faulted ones).
    if (!options.faultPlan.empty())
        out << ";F" << options.faultPlan.description();
    // Linebacker constants only matter to schemes that run a victim
    // mechanism; keying them for every scheme would needlessly re-run
    // baselines across LbConfig sweeps.
    if (scheme.victim != VictimMode::Off ||
        scheme.throttle == ThrottleMode::DynamicCta) {
        out << ';' << lb.monitorPeriod << ';' << lb.hitRatioThreshold
            << ';' << lb.ipcVarUpper << ';' << lb.ipcVarLower << ';'
            << lb.vttWays << ';' << lb.vttMaxPartitions << ';'
            << lb.vttAccessLatency << ';' << lb.loadMonitorEntries << ';'
            << lb.hashedPcBits << ';' << lb.backupBufferEntries << ';'
            << lb.victimRegOffset;
    }
    return out.str();
}

/**
 * Apply @p fn to every numeric field of @p m, in a fixed order shared by
 * the serializer and the deserializer. Covering every SimStats counter
 * matters: a field missing here would silently read as zero on a cache
 * hit (this bit avgLoadLatency before loadLatencySum was serialized).
 */
template <typename Metrics, typename Fn>
void
visitMetricFields(Metrics &m, Fn &&fn)
{
    fn(m.ipc);
    fn(m.energyJ);
    fn(m.avgVictimRegs);
    fn(m.monitoringWindows);
    fn(m.victimSpaceUtilization);
    // The SimStats counters come from the shared enumeration so a new
    // counter added there is automatically serialized here (field order
    // is part of the cache format; forEachStatField's order matches the
    // historical one). Lockstep fields are deliberately absent: lockstep
    // runs bypass the cache.
    forEachStatField(m.stats,
                     [&fn](const char *, auto &field) { fn(field); });
}

} // namespace

const char *
runOutcomeName(RunOutcome outcome)
{
    switch (outcome) {
      case RunOutcome::Ok:
        return "ok";
      case RunOutcome::Hang:
        return "hang";
      case RunOutcome::FaultDegraded:
        return "fault-degraded";
      case RunOutcome::Crashed:
        return "crashed";
    }
    return "?";
}

bool
parseRunOutcome(const std::string &name, RunOutcome &out)
{
    for (int o = 0; o <= static_cast<int>(RunOutcome::Crashed); ++o) {
        if (name == runOutcomeName(static_cast<RunOutcome>(o))) {
            out = static_cast<RunOutcome>(o);
            return true;
        }
    }
    return false;
}

std::string
serializeRunMetrics(const RunMetrics &m)
{
    std::ostringstream out;
    out.precision(17);
    // Outcome and fault count lead so a reader can classify the run
    // before parsing the metric tail.
    out << static_cast<int>(m.outcome) << ',' << m.faultsInjected;
    visitMetricFields(m,
                      [&out](const auto &field) { out << ',' << field; });
    return out.str();
}

bool
deserializeRunMetrics(const std::string &text, RunMetrics &m)
{
    std::istringstream in(text);
    bool ok = true;
    char sep;
    int outcome = 0;
    in >> outcome >> sep >> m.faultsInjected >> sep;
    ok = static_cast<bool>(in) && outcome >= 0 &&
        outcome <= static_cast<int>(RunOutcome::Crashed);
    if (ok)
        m.outcome = static_cast<RunOutcome>(outcome);
    visitMetricFields(m, [&in, &ok](auto &field) {
        char field_sep;
        in >> field;
        ok = ok && (static_cast<bool>(in) || in.eof());
        in >> field_sep;
    });
    return ok;
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    std::size_t count = 0;
    for (double v : values) {
        if (v > 0.0) {
            log_sum += std::log(v);
            ++count;
        }
    }
    return count ? std::exp(log_sum / count) : 0.0;
}

SimRunner::SimRunner(GpuConfig base_cfg, LbConfig lb_cfg,
                     RunnerOptions options)
    : baseCfg_(base_cfg), lbCfg_(lb_cfg), options_(options)
{
}

RunMetrics
SimRunner::run(const AppProfile &app, const SchemeConfig &scheme)
{
    // Lockstep runs carry run-local checker counters that must never be
    // served from (or stored into) the cross-run cache.
    if (!options_.useMemoCache || options_.lockstep)
        return runUncached(app, scheme);

    // One shared, thread-safe store per process: the file is parsed
    // once, lookups are in-memory, and concurrent identical runs (e.g.
    // oracle sweeps reached from several experiment cells) are paid
    // once via the single-flight getOrCompute.
    MemoCache &cache = MemoCache::shared();
    std::ostringstream key_src;
    key_src << kCacheVersion << '#' << describeApp(app) << '#'
            << describeScheme(scheme) << '#'
            << describeConfig(baseCfg_, lbCfg_, options_, scheme);
    std::ostringstream key;
    key << app.id << ':' << scheme.name << ':' << std::hex
        << fnv1a(key_src.str());

    // Abnormally-ended runs (hang, fault-degraded) must never be
    // persisted: a cached hang would be replayed as a silent zero-IPC
    // result forever. The fresh result is returned directly so its hang
    // report survives (the cache format carries numeric fields only).
    RunMetrics fresh;
    bool computed = false;
    const std::string serialized = cache.getOrComputeIf(key.str(), [&] {
        fresh = runUncached(app, scheme);
        computed = true;
        return MemoCache::ComputeResult{
            serializeRunMetrics(fresh),
            fresh.outcome == RunOutcome::Ok};
    });
    if (computed)
        return fresh;

    RunMetrics metrics;
    metrics.appId = app.id;
    metrics.schemeName = scheme.name;
    if (deserializeRunMetrics(serialized, metrics))
        return metrics;

    // Corrupt entry (e.g. truncated by a crashed writer): recompute and
    // overwrite rather than propagating zeros.
    metrics = runUncached(app, scheme);
    if (metrics.outcome == RunOutcome::Ok)
        cache.store(key.str(), serializeRunMetrics(metrics));
    return metrics;
}

RunMetrics
SimRunner::runUncached(const AppProfile &app, const SchemeConfig &scheme)
{
    GpuConfig cfg = options_.simSms
        ? baseCfg_.scaleTo(options_.simSms)
        : baseCfg_;
    if (options_.maxCycles)
        cfg.maxCycles = options_.maxCycles;

    const KernelInfo kernel = app.buildKernel(cfg);

    GpuBuildOptions build;
    build.faultPlan = options_.faultPlan;
    if (scheme.cerfUnified) {
        build.l1ExtraWays += cerfExtraWays(cfg, kernel);
        build.cerfUnified = true;
    }
    if (scheme.cacheExt) {
        std::uint32_t idle_bytes = staticallyUnusedRegBytes(cfg, kernel);
        if (scheme.throttle == ThrottleMode::StaticWarp) {
            idle_bytes += durBytesForWarpLimit(cfg, kernel,
                                               scheme.staticWarpLimit);
        }
        // With Linebacker on top (LB+CacheExt), the dynamically unused
        // space stays with the victim cache, so only SUR extends L1.
        build.l1ExtraWays += cacheExtExtraWays(cfg, idle_bytes);
    }

    Gpu gpu(cfg, build);

    // Wire the per-SM policy stack.
    std::vector<std::unique_ptr<SmControllerIf>> owned;
    std::vector<SmControllerIf *> controllers(gpu.numSms(), nullptr);
    std::vector<Linebacker *> lbs;
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
        SmControllerIf *inner = nullptr;
        switch (scheme.throttle) {
          case ThrottleMode::StaticWarp:
            owned.push_back(std::make_unique<StaticWarpLimiter>(
                scheme.staticWarpLimit));
            inner = owned.back().get();
            break;
          case ThrottleMode::PcalTokens:
            owned.push_back(std::make_unique<Pcal>(gpu.config()));
            inner = owned.back().get();
            break;
          case ThrottleMode::Ccws:
            // CCWS attaches itself to the L1's victim hooks as an
            // observation tap; it cannot be combined with a victim
            // cache.
            owned.push_back(
                std::make_unique<Ccws>(gpu.config(), &gpu.sm(i)));
            inner = owned.back().get();
            break;
          case ThrottleMode::None:
          case ThrottleMode::DynamicCta:
            break;
        }

        if (scheme.victim != VictimMode::Off) {
            // Each Linebacker writes into its SM's private stats shard:
            // onCycle runs inside the parallel SM phase, where the
            // aggregate bag must stay untouched.
            owned.push_back(std::make_unique<Linebacker>(
                gpu.config(), lbCfg_, scheme, &gpu.sm(i), &gpu.smStats(i),
                inner));
            lbs.push_back(static_cast<Linebacker *>(owned.back().get()));
            controllers[i] = owned.back().get();
        } else {
            controllers[i] = inner;
        }
    }
    gpu.setControllers(controllers);

    // The lockstep harness must attach after the controllers so its L1
    // checkers wrap the victim mechanisms the policy stack installed.
    LockstepHarness lockstep;
    if (options_.lockstep)
        lockstep.attach(gpu);

    const SimStats &stats = gpu.runKernel(kernel);

    RunMetrics metrics;
    metrics.appId = app.id;
    metrics.schemeName = scheme.name;
    metrics.stats = stats;
    metrics.ipc = stats.ipc();
    metrics.faultsInjected = gpu.faultInjector().totalFired();
    if (gpu.watchdogTripped()) {
        metrics.outcome = RunOutcome::Hang;
        metrics.hangReport = gpu.hangReport().text();
        metrics.hangReportJson = gpu.hangReport().json();
    } else if (metrics.faultsInjected > 0) {
        metrics.outcome = RunOutcome::FaultDegraded;
    }
    if (options_.lockstep) {
        metrics.lockstepChecks = lockstep.checkCount();
        metrics.lockstepMismatches = lockstep.mismatchCount();
        metrics.lockstepFirstMismatch = lockstep.firstMismatch();
    }

    const bool lb_active = !lbs.empty();
    EnergyModel energy;
    metrics.energyJ =
        energy.compute(stats, gpu.config(), lb_active).total();

    if (lb_active) {
        double victim = 0.0;
        std::uint32_t windows = 0;
        for (Linebacker *lb : lbs) {
            victim += lb->avgVictimRegs(stats.cycles);
            windows = std::max(windows, lb->monitoringWindows());
        }
        metrics.avgVictimRegs = victim / lbs.size();
        metrics.monitoringWindows = windows;
        const double idle = stats.avgStaticallyUnusedRegisters +
            stats.avgDynamicallyUnusedRegisters;
        metrics.victimSpaceUtilization =
            idle > 0.0 ? metrics.avgVictimRegs / idle : 0.0;
    }
    return metrics;
}

} // namespace lbsim
