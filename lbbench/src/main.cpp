/**
 * @file
 * lbbench: the simulator's end-to-end and per-layer benchmark.
 *
 *   lbbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *           [--digests DIR] [--out DIR] [--source ID]
 *   lbbench --verify-wiring --workload <name|all> [--seed N]
 *           [--write-digests] [--digests DIR]
 *
 * A run repeats the workload's fixed cell list ("passes") while another
 * pass fits in --seconds (at least 3), checks every cell's statistics,
 * prints a table of every metric with its unit and sample count, a
 * manifest line, and finally one JSON result line. See lbbench/README.md
 * for the workloads and metrics, and lbbench/STEADINESS.md for how
 * steady they are.
 */

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cells.hpp"
#include "common/json.hpp"
#include "harness/sim_runner.hpp"
#include "tracing.hpp"

namespace
{

using namespace lbbench;
using lbsim::RunOutcome;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool verifyWiring = false;
    bool writeDigests = false;
    std::string digestsDir = "lbbench/digests";
    std::string outDir = ".bench_out";
    std::string source = "unknown";
};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "lbbench: %s\n"
                 "usage: lbbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "               [--digests DIR] [--out DIR] "
                 "[--source ID]\n"
                 "       lbbench --verify-wiring --workload <name|all> "
                 "[--seed N] [--write-digests]\n"
                 "workloads: fig12-sweep lb-victim chip16\n",
                 error.c_str());
    std::exit(2);
}

bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 19 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(text);
    return true;
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        std::uint64_t n = 0;
        if (a == "--workload") {
            opts.workload = next();
        } else if (a == "--seed") {
            if (!parseUnsigned(next(), n))
                usage("--seed takes a non-negative integer");
            opts.seed = n;
        } else if (a == "--seconds") {
            if (!parseUnsigned(next(), n) || n < 1 || n > 3600)
                usage("--seconds takes an integer in [1, 3600]");
            opts.seconds = static_cast<double>(n);
        } else if (a == "--trace") {
            const std::string v = next();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opts.trace = v == "1";
        } else if (a == "--digests") {
            opts.digestsDir = next();
        } else if (a == "--out") {
            opts.outDir = next();
        } else if (a == "--source") {
            opts.source = next();
        } else if (a == "--verify-wiring") {
            opts.verifyWiring = true;
        } else if (a == "--write-digests") {
            opts.writeDigests = true;
        } else {
            usage("unknown argument " + a);
        }
    }
    if (opts.workload.empty())
        usage("--workload is required");
    return opts;
}

std::uint32_t
processorCount()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * The process's resident-set high-water mark (VmHWM). getrusage's
 * ru_maxrss is not used: Linux carries it across exec(), so it would
 * report the launching process's peak when that was larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    return 0.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Run fn(i) for i in [0, count) on @p workers threads. */
template <typename Fn>
void
parallelFor(std::size_t count, std::uint32_t workers, Fn &&fn)
{
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mutex;
    auto body = [&] {
        for (std::size_t i = next++; i < count; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> threads;
    const std::size_t extra =
        std::min<std::size_t>(workers, count) > 0
            ? std::min<std::size_t>(workers, count) - 1
            : 0;
    for (std::size_t t = 0; t < extra; ++t)
        threads.emplace_back(body);
    body();
    for (std::thread &thread : threads)
        thread.join();
    if (error)
        std::rethrow_exception(error);
}

// --- Output check -------------------------------------------------------

std::string
digestPath(const Options &opts, const std::string &workload)
{
    return opts.digestsDir + "/" + workload + ".txt";
}

/** Committed digests: "<cell id> <digest>" lines, '#' comments. */
bool
loadDigests(const std::string &path, std::map<std::string, std::string> &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string id, digest;
        if (!(fields >> id >> digest))
            return false;
        out[id] = digest;
    }
    return true;
}

/**
 * Checks every cell a run executes. With the default seed each digest
 * must equal the committed one; with any other seed the expected digest
 * is that of the same cell run through SimRunner::run with the memo
 * cache off (the wiring-equivalence check), computed after the timed
 * passes. A cell whose outcome is not ok fails either way.
 */
class OutputCheck
{
  public:
    OutputCheck(const Options &opts, const Workload &workload)
    {
        if (opts.seed != kDefaultSeed)
            return;
        const std::string path = digestPath(opts, workload.name);
        if (!loadDigests(path, expected_)) {
            std::fprintf(stderr, "lbbench: cannot read digests %s\n",
                         path.c_str());
            std::exit(2);
        }
        haveExpected_ = true;
    }

    void
    observe(const Cell &cell, const CellResult &result)
    {
        seen_.push_back({&cell, result.digest,
                         result.outcome == RunOutcome::Ok});
    }

    /** Resolve expectations; @return the number of failed cells. */
    std::uint64_t
    finish()
    {
        if (!haveExpected_)
            computeReferences();
        std::uint64_t failed = 0;
        for (const Seen &seen : seen_) {
            const auto it = expected_.find(seen.cell->id);
            const bool match =
                it != expected_.end() && it->second == seen.digest;
            if (!seen.ok || !match) {
                ++failed;
                if (reported_.insert(seen.cell->id).second) {
                    std::fprintf(
                        stderr,
                        "lbbench: cell %s FAILED: digest %s, expected %s%s\n",
                        seen.cell->id.c_str(), seen.digest.c_str(),
                        it == expected_.end() ? "(none)"
                                              : it->second.c_str(),
                        seen.ok ? "" : ", outcome not ok");
                }
            }
        }
        return failed;
    }

    std::uint64_t attempted() const { return seen_.size(); }

  private:
    struct Seen
    {
        const Cell *cell;
        std::string digest;
        bool ok;
    };

    void
    computeReferences()
    {
        std::vector<const Cell *> cells;
        std::set<std::string> ids;
        for (const Seen &seen : seen_) {
            if (ids.insert(seen.cell->id).second)
                cells.push_back(seen.cell);
        }
        std::vector<std::string> digests(cells.size());
        // One cell per processor, each on one SM thread: results are
        // bit-identical at any thread count, so this only saves time.
        const std::uint32_t workers =
            std::min<std::uint32_t>(4, processorCount());
        parallelFor(cells.size(), workers, [&](std::size_t i) {
            const lbsim::RunMetrics ref = runReference(*cells[i], 1);
            digests[i] = ref.outcome == RunOutcome::Ok
                ? statsDigest(ref.stats)
                : "reference-not-ok";
        });
        for (std::size_t i = 0; i < cells.size(); ++i)
            expected_[cells[i]->id] = digests[i];
    }

    bool haveExpected_ = false;
    std::map<std::string, std::string> expected_;
    std::vector<Seen> seen_;
    std::set<std::string> reported_;
};

/**
 * Round-robin CPU placement for single-threaded cells. On a shared host
 * each core's speed drifts with its own neighbours' load, for tens of
 * seconds at a time; a run that stayed on one core would carry that
 * core's luck. Moving the measuring thread to the next allowed CPU
 * before every cell makes each pass sample every core. Cells with SM
 * worker threads run on the full original mask, which their workers
 * inherit.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof original_, &original_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &original_))
                cpus_.push_back(cpu);
        }
    }
    ~CpuRotation() { restore(); }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Place the calling thread for a cell run at @p sm_threads. */
    void
    next(std::uint32_t sm_threads)
    {
        if (sm_threads != 1 || cpus_.size() < 2) {
            restore();
            return;
        }
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    void
    restore()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof original_, &original_);
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

// --- Passes ---------------------------------------------------------------

/** One pass over a cell list. */
struct Pass
{
    std::uint32_t threads = 1;
    bool traced = false;
    double wall = 0.0;
    CellTimes sum;                  ///< Phase times summed over cells.
    std::uint64_t simCycles = 0;
    std::uint64_t smCycles = 0;     ///< simCycles x SMs.
    std::vector<double> cellSeconds;
    std::vector<CellResult> results;
};

Pass
runPass(const std::vector<Cell> &cells, std::uint32_t threads,
        CellTrace *trace, OutputCheck &check, CpuRotation &cpus)
{
    Pass pass;
    pass.threads = threads;
    pass.traced = trace != nullptr;
    const auto start = Clock::now();
    for (const Cell &cell : cells) {
        cpus.next(threads);
        CellResult result = runCell(cell, threads, trace);
        check.observe(cell, result);
        pass.sum.buildKernel += result.times.buildKernel;
        pass.sum.gpuCtor += result.times.gpuCtor;
        pass.sum.wire += result.times.wire;
        pass.sum.runKernel += result.times.runKernel;
        pass.sum.energy += result.times.energy;
        pass.simCycles += result.simCycles;
        pass.smCycles += result.simCycles * result.sms;
        pass.cellSeconds.push_back(result.times.cell());
        pass.results.push_back(std::move(result));
    }
    pass.wall = secondsSince(start);
    return pass;
}

// --- Reporting ------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
    std::string note;
    /** Printed in the table only, not in the JSON result. */
    bool tableOnly = false;
};

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
jsonString(const std::string &text)
{
    return "\"" + lbsim::JsonWriter::escape(text) + "\"";
}

void
printTable(const std::vector<Metric> &metrics)
{
    std::printf("%-34s %18s %-7s %8s  %s\n", "metric", "value", "unit",
                "samples", "note");
    for (const Metric &m : metrics) {
        std::printf("%-34s %18.9g %-7s %8zu  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples, m.note.c_str());
    }
}

std::string
manifestJson(const Options &opts, const Workload &workload,
             const std::vector<Metric> &metrics,
             const std::vector<Pass> &passes)
{
    std::ostringstream out;
    out << "{\"workload\":" << jsonString(workload.name)
        << ",\"seed\":" << opts.seed << ",\"seconds\":"
        << jsonNumber(opts.seconds) << ",\"trace\":" << (opts.trace ? 1 : 0)
        << ",\"compiler\":" << jsonString("g++ " __VERSION__)
        << ",\"build_type\":" << jsonString(LBBENCH_BUILD_TYPE)
        << ",\"cxx_flags\":" << jsonString(LBBENCH_CXX_FLAGS)
        << ",\"lbsim_checks\":" << jsonString(LBBENCH_CHECKS)
        << ",\"lto\":" << jsonString(LBBENCH_LTO)
        << ",\"nproc\":" << processorCount()
        << ",\"source\":" << jsonString(opts.source)
        << ",\"memo_version\":" << jsonString(LBBENCH_MEMO_VERSION)
        << ",\"cells_per_pass\":" << workload.cells.size()
        << ",\"sm_threads\":" << workload.smThreads
        << ",\"alt_threads\":" << workload.altThreads << ",\"passes\":[";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        out << (i ? "," : "") << "{\"threads\":" << passes[i].threads
            << ",\"traced\":" << (passes[i].traced ? "true" : "false")
            << ",\"wall_s\":" << jsonNumber(passes[i].wall) << "}";
    }
    out << "],\"samples\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? "," : "") << jsonString(metrics[i].name) << ":"
            << metrics[i].samples;
    }
    out << "}}";
    return out.str();
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out << "{\"correct\":" << (correct ? "true" : "false")
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"metrics\":{";
    const char *sep = "";
    for (const Metric &m : metrics) {
        if (m.tableOnly)
            continue;
        out << sep << jsonString(m.name) << ":{\"value\":"
            << jsonNumber(m.value) << ",\"unit\":" << jsonString(m.unit)
            << "}";
        sep = ",";
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
}

/** Highest integer percentile with at least 10 samples beyond it. */
bool
tailPercentile(std::vector<double> values, double &pct, double &value)
{
    const std::size_t n = values.size();
    if (n < 20)
        return false;
    std::sort(values.begin(), values.end());
    pct = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n)));
    // Nearest rank: at least n - rank >= 10 samples lie beyond.
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    value = values[std::max<std::size_t>(rank, 1) - 1];
    return true;
}

// --- Untraced run -----------------------------------------------------------

/** Passes every untraced run makes at least (for its medians). */
constexpr std::size_t kMinPasses = 3;

std::vector<Metric>
endToEndMetrics(const std::vector<Pass> &passes, double rss_mb)
{
    std::vector<double> walls, setups, cells;
    double run_s = 0.0;
    double sim_cycles = 0.0;
    for (const Pass &pass : passes) {
        walls.push_back(pass.wall);
        setups.push_back(pass.sum.setup());
        cells.insert(cells.end(), pass.cellSeconds.begin(),
                     pass.cellSeconds.end());
        run_s += pass.sum.runKernel;
        sim_cycles += static_cast<double>(pass.simCycles);
    }
    const std::size_t n = passes.size();
    return {
        {"wall_s", median(walls), "s", n, "median pass wall time"},
        {"sim_cycles_per_s", ratio(sim_cycles, run_s), "1/s", cells.size(),
         "chip cycles / host s in runKernel"},
        {"cell_s_p50", median(cells), "s", cells.size(),
         "median host s per cell"},
        {"setup_s", median(setups), "s", n,
         "median over passes of summed cell setup"},
        {"peak_rss_mb", rss_mb, "MB", 1, "process high-water mark"},
    };
}


// --- Traced run -------------------------------------------------------------

/** Per-scheme runKernel seconds and chip cycles. */
struct SchemeTimeAcc
{
    double runKernel = 0.0;
    double simCycles = 0.0;
};

/** Model statistics summed over a workload's cells. */
struct ModelTotals
{
    lbsim::SimStats all;            ///< Every cell.
    lbsim::SimStats linebacker;     ///< Linebacker cells only.
    double lbSpeedup = 0.0;         ///< Geomean LB/baseline IPC.
};

ModelTotals
modelTotals(const Workload &workload, const Pass &pass,
            const Pass *reference_pass)
{
    ModelTotals totals;
    std::map<std::string, double> lb_ipc, base_ipc;
    for (std::size_t c = 0; c < workload.cells.size(); ++c) {
        const Cell &cell = workload.cells[c];
        const lbsim::SimStats &s = pass.results[c].stats;
        lbsim::foldShardStats(totals.all, s);
        if (cell.schemeKey == "linebacker") {
            lbsim::foldShardStats(totals.linebacker, s);
            lb_ipc[cell.app.id] = s.ipc();
        } else if (cell.schemeKey == "baseline") {
            base_ipc[cell.app.id] = s.ipc();
        }
    }
    if (reference_pass) {
        for (std::size_t c = 0; c < workload.referenceCells.size(); ++c) {
            base_ipc[workload.referenceCells[c].app.id] =
                reference_pass->results[c].stats.ipc();
        }
    }
    std::vector<double> speedups;
    for (const auto &[app, ipc] : lb_ipc) {
        const auto it = base_ipc.find(app);
        if (it != base_ipc.end() && it->second > 0.0)
            speedups.push_back(ipc / it->second);
    }
    totals.lbSpeedup = lbsim::geomean(speedups);
    return totals;
}

std::vector<Metric>
perLayerMetrics(const Workload &workload, const std::vector<Pass> &passes,
                const CellTrace &trace, const Pass *reference_pass,
                const CellTrace &reference_trace)
{
    // A traced run makes cycles of three passes: untraced at smThreads,
    // traced at smThreads, untraced at altThreads.
    std::vector<const Pass *> traced;
    std::vector<double> plain_wall, main_run, alt_run;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const Pass &pass = passes[i];
        switch (i % 3) {
          case 0:
            plain_wall.push_back(pass.wall);
            main_run.push_back(pass.sum.runKernel);
            break;
          case 1:
            traced.push_back(&pass);
            break;
          case 2:
            alt_run.push_back(pass.sum.runKernel);
            break;
        }
    }
    const double nt = static_cast<double>(traced.size());
    const std::size_t ns = traced.size();
    const Pass &first = *traced.front();

    CellTimes times;
    std::vector<double> traced_wall;
    std::map<std::string, SchemeTimeAcc> by_scheme;
    for (const Pass *pass : traced) {
        traced_wall.push_back(pass->wall);
        times.buildKernel += pass->sum.buildKernel / nt;
        times.gpuCtor += pass->sum.gpuCtor / nt;
        times.runKernel += pass->sum.runKernel / nt;
        times.energy += pass->sum.energy / nt;
        for (std::size_t c = 0; c < workload.cells.size(); ++c) {
            SchemeTimeAcc &acc = by_scheme[workload.cells[c].schemeKey];
            acc.runKernel += pass->results[c].times.runKernel;
            acc.simCycles += static_cast<double>(pass->results[c].simCycles);
        }
    }
    // lb-victim has no baseline cells of its own: its baseline figures
    // come from the traced baseline reference cells.
    HookCounters base = trace.baselines;
    double base_runs = nt;
    if (reference_pass) {
        base = reference_trace.baselines;
        base_runs = 1.0;
        SchemeTimeAcc &acc = by_scheme["baseline"];
        for (const CellResult &r : reference_pass->results) {
            acc.runKernel += r.times.runKernel;
            acc.simCycles += static_cast<double>(r.simCycles);
        }
    }
    const HookCounters &lb = trace.linebacker;
    const double hook_self =
        (trace.linebacker.selfSeconds() + trace.baselines.selfSeconds()) /
        nt;
    const double sim_cycles = static_cast<double>(first.simCycles);
    const double sm_cycles = static_cast<double>(first.smCycles);
    const ModelTotals model = modelTotals(workload, first, reference_pass);
    const lbsim::SimStats &all = model.all;
    const lbsim::SimStats &lbs = model.linebacker;
    auto ns_per_cycle = [&](const std::string &scheme) {
        const SchemeTimeAcc &acc = by_scheme[scheme];
        return ratio(acc.runKernel * 1e9, acc.simCycles);
    };
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    const double speedup = workload.smThreads >= workload.altThreads
        ? ratio(median(alt_run), median(main_run))
        : ratio(median(main_run), median(alt_run));
    const std::size_t nb = reference_pass ? 1 : ns;

    std::vector<Metric> m = {
        {"workload.build_kernel_s", times.buildKernel, "s", ns,
         "AppProfile::buildKernel, summed per pass"},
        {"core.gpu_ctor_s", times.gpuCtor, "s", ns, "Gpu::Gpu, summed per pass"},
        {"core.run_kernel_s", times.runKernel, "s", ns,
         "Gpu::runKernel, summed per pass"},
        {"core.ns_per_cycle", ratio(times.runKernel * 1e9, sim_cycles), "ns",
         ns, "runKernel ns per chip cycle"},
        {"core.ns_per_cycle.baseline", ns_per_cycle("baseline"), "ns", nb,
         reference_pass ? "from the baseline reference cells" : ""},
        {"core.ns_per_cycle.linebacker", ns_per_cycle("linebacker"), "ns", ns,
         ""},
        {"core.ticked_fraction",
         ratio(count(lb.onCycle.calls) / nt +
                   count(trace.baselines.onCycle.calls) / nt,
               sm_cycles),
         "ratio", ns, "onCycle calls per SM-cycle"},
        {"core.skipped_cycles",
         (count(lb.skippedCycles) + count(trace.baselines.skippedCycles)) /
             nt,
         "count", ns, "SM-cycles replayed by onCyclesSkipped"},
        {"core.tick_residual_s", times.runKernel - hook_self, "s", ns,
         "runKernel minus hook self time"},
        {"core.instructions", count(all.instructionsIssued), "count", 1,
         "measured window"},
        {"core.sim_cycles", sim_cycles, "count", 1, "warm-up + measured"},
        {"lb.on_cycle_calls", count(lb.onCycle.calls) / nt, "count", ns, ""},
        {"lb.on_cycle_s", lb.onCycle.seconds / nt, "s", ns, ""},
        {"lb.sched_opportunity_calls", count(lb.schedOpportunity.calls) / nt,
         "count", ns, ""},
        {"lb.sched_opportunity_s", lb.schedOpportunity.seconds / nt, "s", ns,
         ""},
        {"lb.vtt_probe_calls", count(lb.probe.calls) / nt, "count", ns, ""},
        {"lb.vtt_probe_s", lb.probe.seconds / nt, "s", ns, ""},
        {"lb.notify_access_calls", count(lb.notifyAccess.calls) / nt, "count",
         ns, ""},
        {"lb.notify_access_s", lb.notifyAccess.seconds / nt, "s", ns, ""},
        {"lb.notify_eviction_calls", count(lb.notifyEviction.calls) / nt,
         "count", ns, ""},
        {"lb.notify_eviction_s", lb.notifyEviction.seconds / nt, "s", ns, ""},
        {"lb.notify_store_calls", count(lb.notifyStore.calls) / nt, "count",
         ns, ""},
        {"lb.notify_store_s", lb.notifyStore.seconds / nt, "s", ns, ""},
        {"lb.victim_hit_ratio", ratio(count(lbs.l1.regHits),
                                      count(lbs.vttProbes)),
         "ratio", 1, "regHits / vttProbes, measured window"},
        {"lb.victim_lines_stored", count(lbs.victimLinesStored), "count", 1,
         ""},
        {"lb.victim_store_rejected", count(lbs.victimStoreRejected), "count",
         1, ""},
        {"lb.backup_lines", count(lbs.dramBackupWrites), "count", 1, ""},
        {"lb.throttle_events", count(lbs.ctaThrottleEvents), "count", 1, ""},
        {"baselines.on_cycle_calls", count(base.onCycle.calls) / base_runs,
         "count", nb, reference_pass ? "baseline reference cells" : ""},
        {"baselines.on_cycle_s", base.onCycle.seconds / base_runs, "s", nb,
         reference_pass ? "baseline reference cells" : ""},
        {"baselines.warp_may_issue_calls",
         count(base.warpMayIssue) / base_runs, "count", nb,
         reference_pass ? "baseline reference cells" : ""},
        {"mem.l1_accesses", count(all.l1.total()), "count", 1, ""},
        {"mem.l1_hit_ratio", ratio(count(all.l1.l1Hits), count(all.l1.total())),
         "ratio", 1, ""},
        {"mem.l1_sink_events",
         (count(lb.l1SinkEvents) + count(trace.baselines.l1SinkEvents)) / nt,
         "count", ns, "whole run incl. warm-up"},
        {"mem.l2_accesses", count(all.l2Accesses), "count", 1, ""},
        {"mem.l2_hit_ratio", ratio(count(all.l2Hits), count(all.l2Accesses)),
         "ratio", 1, ""},
        {"mem.dram_lines", count(all.dramLineTransfers()), "count", 1, ""},
        {"mem.dram_row_hit_ratio",
         ratio(count(all.dramRowHits),
               count(all.dramRowHits + all.dramRowMisses)),
         "ratio", 1, ""},
        {"power.energy_s", times.energy, "s", ns,
         "EnergyModel::compute, summed per pass"},
        {"parallel.speedup", speedup, "ratio", alt_run.size(),
         "runKernel at fewer / at more SM threads"},
        {"model.lb_speedup", model.lbSpeedup, "ratio", 1,
         "geomean Linebacker / baseline IPC"},
        {"trace.overhead_ratio", ratio(median(traced_wall), median(plain_wall)),
         "ratio", ns, "traced / untraced pass wall"},
    };
    for (const char *scheme : {"swl8", "pcal", "cerf"}) {
        if (by_scheme.count(scheme)) {
            m.push_back({std::string("core.ns_per_cycle.") + scheme,
                         ns_per_cycle(scheme), "ns", ns, "table only", true});
        }
    }
    return m;
}

/** Every cell of every pass with its phase times, one row each. */
bool
writeCellTimes(const std::string &path, const Workload &workload,
               const std::vector<Pass> &passes)
{
    std::ofstream out(path);
    out.precision(9);
    out << "pass\tthreads\ttraced\tcell\tbuild_kernel_s\tgpu_ctor_s\t"
           "wire_s\trun_kernel_s\tenergy_s\tsim_cycles\tdigest\n";
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const Pass &pass = passes[p];
        for (std::size_t c = 0; c < pass.results.size(); ++c) {
            const CellResult &r = pass.results[c];
            out << p << '\t' << pass.threads << '\t' << pass.traced << '\t'
                << workload.cells[c].id << '\t' << r.times.buildKernel
                << '\t' << r.times.gpuCtor << '\t' << r.times.wire << '\t'
                << r.times.runKernel << '\t' << r.times.energy << '\t'
                << r.simCycles << '\t' << r.digest << '\n';
        }
    }
    return static_cast<bool>(out);
}

// --- Modes ------------------------------------------------------------------

int
runBenchmark(const Options &opts)
{
    Workload workload;
    if (!makeWorkload(opts.workload, opts.seed, processorCount(), workload))
        usage("unknown workload " + opts.workload);
    OutputCheck check(opts, workload);

    std::vector<Pass> passes;
    CellTrace trace, reference_trace;
    SpanLog spans;
    trace.spans = &spans;
    reference_trace.spans = &spans;
    std::vector<Metric> metrics;
    Pass reference_pass;

    // Whole passes (whole three-pass cycles when traced) while the next
    // one is expected to fit in --seconds, and at least kMinPasses (one
    // cycle): every run measures the same cell mix.
    CpuRotation cpus;
    const auto start = Clock::now();
    auto another_fits = [&](std::size_t done) {
        const double elapsed = secondsSince(start);
        return elapsed + elapsed / static_cast<double>(done) <= opts.seconds;
    };
    if (!opts.trace) {
        while (passes.size() < kMinPasses || another_fits(passes.size())) {
            passes.push_back(runPass(workload.cells, workload.smThreads,
                                     nullptr, check, cpus));
        }
        metrics = endToEndMetrics(passes, peakRssMb());
    } else {
        // Cycles of: untraced, traced, untraced at the other thread
        // count (parallel.speedup).
        std::uint32_t cycles = 0;
        do {
            passes.push_back(runPass(workload.cells, workload.smThreads,
                                     nullptr, check, cpus));
            trace.pass = cycles++;
            passes.push_back(runPass(workload.cells, workload.smThreads,
                                     &trace, check, cpus));
            passes.push_back(runPass(workload.cells, workload.altThreads,
                                     nullptr, check, cpus));
        } while (another_fits(cycles));
        if (!workload.referenceCells.empty()) {
            reference_trace.pass = cycles;
            reference_pass = runPass(workload.referenceCells,
                                     workload.smThreads, &reference_trace,
                                     check, cpus);
        }
        metrics = perLayerMetrics(
            workload, passes, trace,
            workload.referenceCells.empty() ? nullptr : &reference_pass,
            reference_trace);
    }

    cpus.restore();
    const std::uint64_t failed = check.finish();
    const std::uint64_t attempted = check.attempted();

    const std::string cells_path = opts.outDir + "/cells-" +
        workload.name + "-seed" + std::to_string(opts.seed) + "-trace" +
        (opts.trace ? "1" : "0") + ".tsv";
    if (!writeCellTimes(cells_path, workload, passes))
        std::fprintf(stderr, "lbbench: cannot write %s\n",
                     cells_path.c_str());
    if (opts.trace) {
        const std::string path = opts.outDir + "/spans-" + workload.name +
            "-seed" + std::to_string(opts.seed) + ".jsonl";
        if (!spans.write(path))
            std::fprintf(stderr, "lbbench: cannot write %s\n", path.c_str());
        else
            std::printf("spans: %zu written to %s\n", spans.size(),
                        path.c_str());
    }
    if (!opts.trace) {
        // The tail needs at least ten cells beyond it; report it only in
        // the table, where the percentile and sample count go with it.
        std::vector<double> cells;
        for (const Pass &pass : passes)
            cells.insert(cells.end(), pass.cellSeconds.begin(),
                         pass.cellSeconds.end());
        double pct = 0.0, tail = 0.0;
        if (tailPercentile(cells, pct, tail)) {
            char note[64];
            std::snprintf(note, sizeof note, "p%.0f of cell host s, table only",
                          pct);
            metrics.push_back(
                {"cell_s_tail", tail, "s", cells.size(), note, true});
        }
    }
    printTable(metrics);
    std::printf("attempted %llu cells, failed %llu\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::printf("MANIFEST %s\n",
                manifestJson(opts, workload, metrics, passes).c_str());
    std::fflush(stdout);
    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}

/**
 * For every cell of the selected workloads (reference cells included),
 * compare serializeStats of the benchmark's untraced wiring, its traced
 * wiring, and SimRunner::run with the memo cache off.
 */
int
verifyWiring(const Options &opts)
{
    std::vector<std::string> names;
    if (opts.workload == "all")
        names = workloadNames();
    else
        names.push_back(opts.workload);
    if (opts.writeDigests && opts.seed != kDefaultSeed)
        usage("--write-digests records the default seed only");

    const std::uint32_t nproc = processorCount();
    bool all_ok = true;
    for (const std::string &name : names) {
        Workload workload;
        if (!makeWorkload(name, opts.seed, nproc, workload))
            usage("unknown workload " + name);
        std::vector<Cell> cells = workload.cells;
        cells.insert(cells.end(), workload.referenceCells.begin(),
                     workload.referenceCells.end());

        std::vector<std::string> digests(cells.size());
        std::vector<std::string> errors(cells.size());
        const std::uint32_t workers = workload.smThreads == 1
            ? std::min<std::uint32_t>(4, nproc)
            : 1;
        parallelFor(cells.size(), workers, [&](std::size_t i) {
            const Cell &cell = cells[i];
            const CellResult plain = runCell(cell, workload.smThreads,
                                             nullptr);
            CellTrace trace;
            const CellResult traced = runCell(cell, workload.smThreads,
                                              &trace);
            const lbsim::RunMetrics ref =
                runReference(cell, workload.smThreads);
            const std::string a = lbsim::serializeStats(plain.stats);
            if (plain.outcome != RunOutcome::Ok)
                errors[i] = "untraced outcome not ok";
            else if (traced.outcome != RunOutcome::Ok)
                errors[i] = "traced outcome not ok";
            else if (ref.outcome != RunOutcome::Ok)
                errors[i] = "SimRunner outcome not ok";
            else if (a != lbsim::serializeStats(traced.stats))
                errors[i] = "traced differs: " +
                    lbsim::firstStatDifference(plain.stats, traced.stats);
            else if (a != lbsim::serializeStats(ref.stats))
                errors[i] = "SimRunner differs: " +
                    lbsim::firstStatDifference(plain.stats, ref.stats);
            digests[i] = plain.digest;
        });

        bool ok = true;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            std::printf("%-12s %-16s %s %s\n", name.c_str(),
                        cells[i].id.c_str(), digests[i].c_str(),
                        errors[i].empty() ? "identical"
                                          : ("MISMATCH " + errors[i]).c_str());
            ok = ok && errors[i].empty();
        }
        all_ok = all_ok && ok;
        if (opts.writeDigests && ok) {
            const std::string path = digestPath(opts, name);
            std::ofstream out(path);
            out << "# lbbench expected serializeStats digests (FNV-1a 64)\n"
                << "# workload " << name << ", seed " << opts.seed
                << ", memo " << LBBENCH_MEMO_VERSION << "\n";
            for (std::size_t i = 0; i < cells.size(); ++i)
                out << cells[i].id << ' ' << digests[i] << '\n';
            if (!out) {
                std::fprintf(stderr, "lbbench: cannot write %s\n",
                             path.c_str());
                return 2;
            }
            std::printf("wrote %s\n", path.c_str());
        }
    }
    std::printf("wiring equivalence: %s\n", all_ok ? "PASS" : "FAIL");
    return all_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    try {
        return opts.verifyWiring ? verifyWiring(opts) : runBenchmark(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lbbench: %s\n", e.what());
        return 2;
    }
}
