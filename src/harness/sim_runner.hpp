/**
 * @file
 * Simulation runner: wires an (app, scheme, config) triple into a GPU,
 * executes it, and returns the derived metrics benches consume.
 *
 * The runner owns the policy wiring the core model keeps out of scope:
 * which controller(s) to attach per SM (Linebacker, PCAL, static warp
 * limiting, chained combinations), how many extra L1 ways CERF/CacheExt
 * provision, and which register space victim caching may use.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "power/energy_model.hpp"
#include "resilience/faultinject.hpp"
#include "workload/app_profile.hpp"

namespace lbsim
{

/** How one simulation run ended. */
enum class RunOutcome : std::uint8_t
{
    Ok = 0,         ///< Ran to its budget/drain normally, no faults.
    Hang,           ///< Terminated by the forward-progress watchdog.
    FaultDegraded,  ///< Completed, but injected faults actually fired.
    Crashed,        ///< Child process died (isolated sweeps only).
};

/** Stable textual name ("ok", "hang", "fault-degraded", "crashed"). */
const char *runOutcomeName(RunOutcome outcome);

/** Inverse of runOutcomeName(). @return false on unknown name. */
bool parseRunOutcome(const std::string &name, RunOutcome &out);

/** Metrics distilled from one simulation run. */
struct RunMetrics
{
    std::string appId;
    std::string schemeName;
    SimStats stats;
    double ipc = 0.0;
    double energyJ = 0.0;
    /** Time-averaged victim-cache registers (LB schemes only). */
    double avgVictimRegs = 0.0;
    /** Load Monitor windows until selection/disable (SM 0). */
    std::uint32_t monitoringWindows = 0;
    /** Idle register-file utilization as victim space (Fig 10). */
    double victimSpaceUtilization = 0.0;

    // --- Lockstep reference-model results (RunnerOptions::lockstep) ----
    /** Cross-checks performed by the differential reference model. */
    std::uint64_t lockstepChecks = 0;
    /** Cross-checks that failed (0 on a correct simulator). */
    std::uint64_t lockstepMismatches = 0;
    /** First mismatch report; empty when the run was clean. */
    std::string lockstepFirstMismatch;

    // --- Resilience ----------------------------------------------------
    RunOutcome outcome = RunOutcome::Ok;
    /** Fault-hook observations of an active fault (injector total). */
    std::uint64_t faultsInjected = 0;
    /** Human-readable hang diagnosis; non-empty only on Hang. */
    std::string hangReport;
    /** JSON hang diagnosis; non-empty only on Hang. */
    std::string hangReportJson;
};

/**
 * Cache-format serialization of @p m (numeric fields only; hang reports
 * and lockstep state never enter the cache). Exposed so the experiment
 * engine can ship metrics across the crash-isolation pipe.
 */
std::string serializeRunMetrics(const RunMetrics &m);

/** Inverse of serializeRunMetrics(). @return false on malformed text. */
bool deserializeRunMetrics(const std::string &text, RunMetrics &m);

/** Runner options shared across a bench binary. */
struct RunnerOptions
{
    /** SMs to simulate (shared resources scaled); 0 keeps cfg.numSms. */
    std::uint32_t simSms = 2;
    /**
     * Cycle budget per run; 0 keeps cfg.maxCycles. The default is long
     * enough that Linebacker's two 50k-cycle monitoring windows amortize
     * as they do over the paper's full-application runs.
     */
    Cycle maxCycles = 1000000;
    /**
     * Ignored; assigned by the frozen benchmark harness. No code reads
     * this field, and it is not part of the memo-cache key.
     */
    std::uint32_t smThreads = 0;
    /** Memoize results in buildDir/simcache.csv. */
    bool useMemoCache = true;
    /**
     * Run the differential reference model in lockstep with the timing
     * simulator (see src/testing/lockstep.hpp) and report its check and
     * mismatch counts in RunMetrics. Lockstep runs always bypass the
     * memo cache: the check counters are run-local, not cacheable
     * metrics.
     */
    bool lockstep = false;
    /**
     * Deterministic fault schedule injected into every run (empty plan =
     * no injection). Part of the memo-cache key; fault-degraded and hung
     * runs are never persisted regardless.
     */
    FaultPlan faultPlan;
};

/** Runs one (app, scheme) pair on @p base_cfg. */
class SimRunner
{
  public:
    explicit SimRunner(GpuConfig base_cfg = {}, LbConfig lb_cfg = {},
                       RunnerOptions options = {});

    /**
     * Execute @p app under @p scheme.
     *
     * Best-SWL schemes must carry their warp limit (use the oracle to
     * find it); Linebacker/PCAL tune themselves at runtime.
     */
    RunMetrics run(const AppProfile &app, const SchemeConfig &scheme);

    const GpuConfig &baseConfig() const { return baseCfg_; }
    const LbConfig &lbConfig() const { return lbCfg_; }
    const RunnerOptions &options() const { return options_; }

    /** Mutable access for sweeps (cache sizes, VTT geometry). */
    GpuConfig &baseConfig() { return baseCfg_; }
    LbConfig &lbConfig() { return lbCfg_; }

  private:
    RunMetrics runUncached(const AppProfile &app,
                           const SchemeConfig &scheme);

    GpuConfig baseCfg_;
    LbConfig lbCfg_;
    RunnerOptions options_;
};

/** Geometric mean of @p values (ignores non-positive entries). */
double geomean(const std::vector<double> &values);

} // namespace lbsim
