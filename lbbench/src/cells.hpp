/**
 * @file
 * Benchmark workloads and the wiring that runs one cell.
 *
 * A cell is one (app, scheme, chip) simulation. runCell() drives the
 * simulator through its public functions only — AppProfile::buildKernel,
 * Gpu::Gpu, Gpu::setControllers, Gpu::runKernel, EnergyModel::compute —
 * wired the way SimRunner::runUncached wires them, and times each phase.
 * With a CellTrace it also installs the measurement decorators of
 * tracing.hpp. runReference() runs the same cell through SimRunner::run
 * with the memo cache off; the wiring-equivalence check compares the
 * three.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "harness/sim_runner.hpp"
#include "tracing.hpp"
#include "workload/app_profile.hpp"

namespace lbbench
{

/** The seed the committed digests were recorded with. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/** One simulation of a workload's fixed cell list. */
struct Cell
{
    std::string id;             ///< "<app>/<scheme key>", unique per list.
    std::string schemeKey;      ///< baseline, swl8, pcal, cerf, linebacker.
    lbsim::AppProfile app;      ///< Seed already mixed in.
    lbsim::SchemeConfig scheme;
    lbsim::GpuConfig base;      ///< Unscaled config carrying warmupCycles.
    std::uint32_t sms = 2;
    lbsim::Cycle maxCycles = 0; ///< Measured cycles after warm-up.
};

/** A named workload: its cells and the thread counts it runs at. */
struct Workload
{
    std::string name;
    std::vector<Cell> cells;
    /**
     * Baseline cells run only by the traced run, as the IPC reference of
     * model.lb_speedup on a workload whose own list has no baseline.
     */
    std::vector<Cell> referenceCells;
    /** --sm-threads of the measured cells. */
    std::uint32_t smThreads = 1;
    /** Thread count compared against smThreads for parallel.speedup. */
    std::uint32_t altThreads = 1;
};

/** Names accepted by makeWorkload(), in documentation order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name from @p seed alone (mixed into every
 * AppProfile::seed). @p nproc bounds the thread counts.
 * @return false for an unknown name.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  std::uint32_t nproc, Workload &out);

/** Per-phase host times of one cell. */
struct CellTimes
{
    double buildKernel = 0.0;
    double gpuCtor = 0.0;
    double wire = 0.0;      ///< Controller wiring (and decorators).
    double runKernel = 0.0;
    double energy = 0.0;

    double setup() const { return buildKernel + gpuCtor + wire; }
    double cell() const { return setup() + runKernel + energy; }
};

/** Result of one cell. */
struct CellResult
{
    lbsim::SimStats stats;
    lbsim::RunOutcome outcome = lbsim::RunOutcome::Ok;
    std::string digest;             ///< statsDigest(stats).
    double energyJ = 0.0;
    lbsim::Cycle simCycles = 0;     ///< Warm-up plus measured cycles.
    std::uint32_t sms = 0;
    CellTimes times;
};

/** Measurement state a traced cell adds to. */
struct CellTrace
{
    HookCounters linebacker;        ///< Hooks of Linebacker controllers.
    HookCounters baselines;         ///< Hooks of every other controller.
    std::uint64_t l2SinkEvents = 0;
    SpanLog *spans = nullptr;       ///< Cell/phase spans (may be null).
    std::uint32_t pass = 0;
};

/** Run @p cell at @p sm_threads; traced when @p trace is non-null. */
CellResult runCell(const Cell &cell, std::uint32_t sm_threads,
                   CellTrace *trace);

/** Run @p cell through SimRunner::run with the memo cache off. */
lbsim::RunMetrics runReference(const Cell &cell, std::uint32_t sm_threads);

/** 64-bit FNV-1a of serializeStats(@p stats), as 16 hex digits. */
std::string statsDigest(const lbsim::SimStats &stats);

} // namespace lbbench
