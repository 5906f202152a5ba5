#include "testing/fuzz.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "harness/sim_runner.hpp"

namespace lbsim
{

namespace
{

/** Uniform draw from an inclusive integer range. */
std::uint64_t
range(Rng &rng, std::uint64_t lo, std::uint64_t hi)
{
    return lo + rng.below(hi - lo + 1);
}

/** Uniform pick from a short list. */
template <typename T, std::size_t N>
const T &
pick(Rng &rng, const T (&options)[N])
{
    return options[rng.below(N)];
}

/**
 * Stats fields a zero-capacity victim scheme may legitimately differ from
 * the baseline in: the Linebacker bookkeeping machinery still observes the
 * run even when it can preserve nothing. Everything architectural (cycles,
 * instructions, cache/DRAM traffic, latencies) must match exactly.
 */
bool
lbBookkeepingField(const std::string &name)
{
    static const std::set<std::string> kFields = {
        "vttProbes",         "vttProbeCycles",   "monitoringPeriods",
        "selectedLoads",     "victimLinesStored", "victimStoreRejected",
        "victimInvalidations", "avgVictimRegisters",
    };
    return kFields.count(name) != 0;
}

/** Full-precision textual form of one stat field. */
template <typename T>
std::string
statText(const T &value)
{
    if constexpr (std::is_floating_point_v<T>) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return buf;
    } else {
        return std::to_string(value);
    }
}

/** First architectural (non-bookkeeping) stat difference, or empty. */
std::string
firstArchitecturalDifference(const SimStats &a, const SimStats &b)
{
    std::vector<std::pair<std::string, std::string>> a_fields;
    std::vector<std::pair<std::string, std::string>> b_fields;
    forEachStatField(a, [&a_fields](const char *name, const auto &field) {
        a_fields.emplace_back(name, statText(field));
    });
    forEachStatField(b, [&b_fields](const char *name, const auto &field) {
        b_fields.emplace_back(name, statText(field));
    });
    for (std::size_t i = 0; i < a_fields.size(); ++i) {
        if (lbBookkeepingField(a_fields[i].first))
            continue;
        if (a_fields[i].second != b_fields[i].second) {
            return a_fields[i].first + ": " + a_fields[i].second +
                   " vs " + b_fields[i].second;
        }
    }
    return {};
}

/** L1 hit ratio (register-file victim hits count as hits). */
double
l1HitRatio(const SimStats &stats)
{
    const double hits =
        static_cast<double>(stats.l1.l1Hits + stats.l1.regHits);
    const double total = hits + static_cast<double>(stats.l1.misses);
    return total > 0.0 ? hits / total : 0.0;
}

/** RAII capture of invariant-layer failures during the fuzz runs. */
class FailureCapture
{
  public:
    FailureCapture()
    {
        previous_ = setCheckFailureHandler(
            [this](const CheckFailure &failure) {
                ++count_;
                if (first_.empty())
                    first_ = formatCheckReport(failure);
            });
    }

    ~FailureCapture() { setCheckFailureHandler(std::move(previous_)); }

    FailureCapture(const FailureCapture &) = delete;
    FailureCapture &operator=(const FailureCapture &) = delete;

    std::uint64_t count() const { return count_; }
    const std::string &first() const { return first_; }

  private:
    CheckFailureHandler previous_;
    std::uint64_t count_ = 0;
    std::string first_;
};

/** Runner options every fuzz simulation uses. */
RunnerOptions
fuzzRunnerOptions()
{
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 0;   // the case's GpuConfig carries the budget
    options.useMemoCache = false;
    options.lockstep = true;
    return options;
}

std::string
formatDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

const char *
loadClassName(LoadClass cls)
{
    switch (cls) {
      case LoadClass::Reuse: return "reuse";
      case LoadClass::Streaming: return "streaming";
      case LoadClass::Irregular: return "irregular";
    }
    return "?";
}

bool
parseLoadClass(const std::string &text, LoadClass &out)
{
    if (text == "reuse")
        out = LoadClass::Reuse;
    else if (text == "streaming")
        out = LoadClass::Streaming;
    else if (text == "irregular")
        out = LoadClass::Irregular;
    else
        return false;
    return true;
}

} // namespace

// --- Scheme registry -------------------------------------------------------

const std::vector<std::string> &
fuzzSchemeNames()
{
    static const std::vector<std::string> kNames = {
        "baseline", "swl4", "ccws",  "pcal",
        "cerf",     "lb",   "vcall", "svc",
    };
    return kNames;
}

SchemeConfig
fuzzScheme(const std::string &name)
{
    if (name == "baseline")
        return SchemeConfig::baseline();
    if (name == "swl4")
        return SchemeConfig::bestSwl(4);
    if (name == "ccws")
        return SchemeConfig::ccws();
    if (name == "pcal")
        return SchemeConfig::pcal();
    if (name == "cerf")
        return SchemeConfig::cerf();
    if (name == "lb")
        return SchemeConfig::linebacker();
    if (name == "vcall")
        return SchemeConfig::victimCachingAll();
    if (name == "svc")
        return SchemeConfig::selectiveVictimCaching();
    throw std::runtime_error("unknown fuzz scheme: " + name);
}

// --- Case generation -------------------------------------------------------

FuzzCase
generateFuzzCase(std::uint64_t seed)
{
    Rng rng(hashCombine(0x11bebacce5ull, seed));
    FuzzCase fuzz_case;
    fuzz_case.seed = seed;

    // GPU: small-but-valid geometries so short runs still exercise
    // capacity pressure, MSHR churn, and DRAM contention.
    GpuConfig &gpu = fuzz_case.gpu;
    static const std::uint32_t kL1SizesKb[] = {8, 16, 32, 48, 64};
    static const std::uint32_t kWays[] = {2, 4, 8};
    gpu.l1.ways = pick(rng, kWays);
    gpu.l1.sizeBytes = pick(rng, kL1SizesKb) * 1024;
    static const std::uint32_t kMshrs[] = {4, 8, 16, 32, 64};
    gpu.l1MshrEntries = pick(rng, kMshrs);
    static const std::uint32_t kMerges[] = {2, 4, 8};
    gpu.l1MshrMergesPerEntry = pick(rng, kMerges);
    gpu.l1HitLatency =
        static_cast<std::uint32_t>(range(rng, 1, 32));
    static const std::uint32_t kL2SizesKb[] = {256, 512, 1024, 2048};
    gpu.l2.sizeBytes = pick(rng, kL2SizesKb) * 1024;
    gpu.l2Latency = static_cast<std::uint32_t>(range(rng, 20, 160));
    gpu.icntLatency = static_cast<std::uint32_t>(range(rng, 4, 48));
    gpu.dramQueueDepth = static_cast<std::uint32_t>(range(rng, 4, 32));
    gpu.dramBandwidthGBs = static_cast<double>(range(rng, 100, 400));
    gpu.maxCycles = range(rng, 20000, 50000);
    gpu.warmupCycles = rng.chance(0.3) ? gpu.maxCycles / 5 : 0;

    // Linebacker constants: windows short enough that selection and the
    // victim-caching phases actually trigger inside the cycle budget.
    LbConfig &lb = fuzz_case.lb;
    lb.monitorPeriod = range(rng, 2000, 8000);
    lb.hitRatioThreshold = 0.05 + 0.45 * rng.unit();
    static const std::uint32_t kVttWays[] = {2, 4};
    lb.vttWays = pick(rng, kVttWays);
    lb.vttMaxPartitions =
        static_cast<std::uint32_t>(range(rng, 1, 8));
    lb.vttAccessLatency =
        static_cast<std::uint32_t>(range(rng, 1, 5));
    static const std::uint32_t kMonitorEntries[] = {8, 16, 32};
    lb.loadMonitorEntries = pick(rng, kMonitorEntries);
    static const std::uint32_t kBackupEntries[] = {2, 6};
    lb.backupBufferEntries = pick(rng, kBackupEntries);
    static const RegNum kVictimOffsets[] = {256, 512, 1024};
    lb.victimRegOffset = pick(rng, kVictimOffsets);

    // Workload: 1-3 static loads with mixed locality classes.
    AppProfile &app = fuzz_case.app;
    char id[32];
    std::snprintf(id, sizeof(id), "fuzz-%" PRIu64, seed);
    app.id = id;
    app.description = "fuzzer-generated synthetic workload";
    app.cacheSensitive = true;
    const std::uint32_t num_loads =
        static_cast<std::uint32_t>(range(rng, 1, 3));
    for (std::uint32_t i = 0; i < num_loads; ++i) {
        LoadSpec load;
        const std::uint64_t cls_draw = rng.below(3);
        if (cls_draw == 0) {
            load.cls = LoadClass::Reuse;
            load.lines = range(rng, 8, 256);
            load.scope = static_cast<TileScope>(rng.below(4));
        } else if (cls_draw == 1) {
            load.cls = LoadClass::Streaming;
            load.lines = range(rng, 1, 16);
            load.everyN =
                static_cast<std::uint32_t>(range(rng, 1, 4));
        } else {
            load.cls = LoadClass::Irregular;
            load.lines = range(rng, 32, 1024);
            load.fanout =
                static_cast<std::uint32_t>(range(rng, 1, 4));
            if (rng.chance(0.5)) {
                load.hotLines = range(rng, 1, 64);
                load.hotProbability = 0.9 * rng.unit();
            }
        }
        app.loads.push_back(load);
    }
    app.aluPerLoad = static_cast<std::uint32_t>(range(rng, 0, 8));
    app.loadsBackToBack = rng.chance(0.5);
    app.hasStore = rng.chance(0.5);
    app.storeEveryN = static_cast<std::uint32_t>(range(rng, 1, 4));
    app.warpsPerCta = static_cast<std::uint32_t>(range(rng, 2, 8));
    app.regsPerWarp = static_cast<std::uint32_t>(range(rng, 8, 32));
    app.iterations = static_cast<std::uint32_t>(range(rng, 100, 400));
    app.ctasPerSmOfGrid =
        static_cast<std::uint32_t>(range(rng, 2, 8));
    app.seed = rng.next();

    // Weight towards the victim-caching schemes under test.
    static const char *kSchemeDraw[] = {
        "baseline", "baseline", "swl4", "ccws", "pcal", "cerf",
        "lb",       "lb",       "vcall", "svc", "svc",
    };
    fuzz_case.scheme = pick(rng, kSchemeDraw);
    return fuzz_case;
}

FuzzCase
generateFaultFuzzCase(std::uint64_t seed)
{
    FuzzCase fuzz_case = generateFuzzCase(seed);
    // Separate stream so the fault schedule perturbs nothing about the
    // underlying scenario: fault seed N is scenario seed N plus faults.
    Rng rng(hashCombine(0xfa017ull, seed));

    // Guard every fault run: trips well inside the cycle budget, but
    // above the worst-case legitimate stall the generated magnitudes can
    // cause (three overlapping icnt-delay windows sum to < 7.5k cycles).
    fuzz_case.gpu.watchdogCycles = 12000;

    const std::uint64_t num_events = range(rng, 1, 3);
    for (std::uint64_t i = 0; i < num_events; ++i) {
        FaultEvent event;
        event.kind =
            static_cast<FaultKind>(rng.below(kFaultKindCount));
        event.start = range(rng, 0, fuzz_case.gpu.maxCycles * 3 / 4);
        event.duration =
            range(rng, 500, fuzz_case.gpu.maxCycles / 2);
        switch (event.kind) {
          case FaultKind::IcntDelay:
            event.magnitude = range(rng, 200, 2500);
            break;
          case FaultKind::DramStorm:
            event.magnitude = range(rng, 100, 1500);
            break;
          case FaultKind::VttRevoke:
            // Magnitude is the target SM id; spread revocations
            // across the chip instead of always hitting SM 0.
            event.magnitude = rng.below(fuzz_case.gpu.numSms);
            break;
          case FaultKind::IcntReorder:
          case FaultKind::BackupStall:
          case FaultKind::LoadMonitorLie:
            event.magnitude = 0;
            break;
        }
        fuzz_case.faults.events.push_back(event);
    }
    return fuzz_case;
}

// --- Property checks -------------------------------------------------------

FuzzCaseResult
runFuzzCase(const FuzzCase &fuzz_case)
{
    FuzzCaseResult result;
    FailureCapture failures;
    const bool fault_mode = !fuzz_case.faults.empty();
    RunnerOptions options = fuzzRunnerOptions();
    options.faultPlan = fuzz_case.faults;
    const SchemeConfig scheme = fuzzScheme(fuzz_case.scheme);

    const auto fail = [&result](const char *property,
                                std::string detail) {
        if (!result.ok)
            return;
        result.ok = false;
        result.property = property;
        result.detail = std::move(detail);
    };

    // Property 1: the lockstep reference model agrees on every access
    // (faults are legal delays/reorders, so this must hold under
    // injection too).
    SimRunner runner(fuzz_case.gpu, fuzz_case.lb, options);
    const RunMetrics first = runner.run(fuzz_case.app, scheme);
    ++result.runsExecuted;
    result.lockstepChecks = first.lockstepChecks;
    if (first.lockstepMismatches != 0)
        fail("lockstep", first.lockstepFirstMismatch);
    if (result.ok && first.lockstepChecks == 0)
        fail("coverage", "run performed no lockstep checks");

    // Fault-mode property: graceful degradation, not deadlock. The
    // generated magnitudes stall progress for less than the watchdog
    // threshold, so a trip means the fault wedged the simulator.
    if (result.ok && fault_mode && first.outcome == RunOutcome::Hang)
        fail("no-deadlock",
             "watchdog tripped under fault injection:\n" +
                 first.hangReport);

    // Property 2: same case again is bit-identical (determinism; fault
    // schedules are part of the case, so faulted runs replay exactly).
    if (result.ok) {
        SimRunner again(fuzz_case.gpu, fuzz_case.lb, options);
        const RunMetrics second = again.run(fuzz_case.app, scheme);
        ++result.runsExecuted;
        const std::string diff =
            firstStatDifference(first.stats, second.stats);
        if (!diff.empty())
            fail("determinism", "stats differ between identical runs: " +
                                    diff);
        if (result.ok && (second.outcome != first.outcome ||
                          second.faultsInjected != first.faultsInjected)) {
            fail("determinism",
                 std::string("outcome differs between identical runs: ") +
                     runOutcomeName(first.outcome) + "/" +
                     std::to_string(first.faultsInjected) + " vs " +
                     runOutcomeName(second.outcome) + "/" +
                     std::to_string(second.faultsInjected));
        }
    }

    // Property 3: a victim scheme with zero victim capacity must be
    // architecturally indistinguishable from the baseline. Only sound
    // for schemes whose *only* mechanism is victim caching (no warp
    // throttling, register backup, or cache restructuring).
    if (result.ok && !fault_mode && scheme.victim != VictimMode::Off &&
        scheme.throttle == ThrottleMode::None &&
        !scheme.backupRegisters && !scheme.cerfUnified &&
        !scheme.cacheExt) {
        LbConfig empty_lb = fuzz_case.lb;
        empty_lb.victimRegOffset = fuzz_case.gpu.totalWarpRegisters();
        SimRunner empty_runner(fuzz_case.gpu, empty_lb, options);
        const RunMetrics empty =
            empty_runner.run(fuzz_case.app, scheme);
        ++result.runsExecuted;
        SimRunner base_runner(fuzz_case.gpu, fuzz_case.lb, options);
        const RunMetrics base =
            base_runner.run(fuzz_case.app, SchemeConfig::baseline());
        ++result.runsExecuted;
        const std::string diff =
            firstArchitecturalDifference(empty.stats, base.stats);
        if (!diff.empty())
            fail("null-victim-equivalence",
                 "zero-capacity " + fuzz_case.scheme +
                     " diverges from baseline: " + diff);
        if (result.ok && empty.stats.victimLinesStored != 0)
            fail("null-victim-equivalence",
                 "zero-capacity scheme stored " +
                     std::to_string(empty.stats.victimLinesStored) +
                     " victim lines");
    }

    // Property 4: doubling the L1 must not materially lower its hit
    // ratio. Baseline only: adaptive schemes may legitimately respond to
    // the larger cache with different throttling decisions.
    if (result.ok && !fault_mode && fuzz_case.scheme == "baseline") {
        GpuConfig bigger = fuzz_case.gpu;
        bigger.l1.sizeBytes *= 2;
        SimRunner big_runner(bigger, fuzz_case.lb, options);
        const RunMetrics big = big_runner.run(fuzz_case.app, scheme);
        ++result.runsExecuted;
        const double small_ratio = l1HitRatio(first.stats);
        const double big_ratio = l1HitRatio(big.stats);
        // Tolerance: timing feedback (MSHR pressure, DRAM contention)
        // can shift the measured-window access mix slightly.
        if (big_ratio + 0.05 < small_ratio)
            fail("l1-monotone",
                 "hit ratio fell from " + formatDouble(small_ratio) +
                     " to " + formatDouble(big_ratio) +
                     " when the L1 doubled");
    }

    result.invariantFailures = failures.count();
    if (result.ok && failures.count() != 0)
        fail("invariant", failures.first());
    return result;
}

// --- Serialization ---------------------------------------------------------

namespace
{
// v2 added gpu.watchdogCycles and fault= lines; v1 files (no faults, no
// watchdog) still parse so checked-in repro cases keep replaying.
constexpr const char *kFuzzCaseMagic = "lbsim-fuzzcase-v2";
constexpr const char *kFuzzCaseMagicV1 = "lbsim-fuzzcase-v1";
}

std::string
serializeFuzzCase(const FuzzCase &fuzz_case)
{
    std::ostringstream out;
    out << kFuzzCaseMagic << '\n';
    out << "seed=" << fuzz_case.seed << '\n';
    out << "scheme=" << fuzz_case.scheme << '\n';

    const GpuConfig &gpu = fuzz_case.gpu;
    out << "gpu.l1SizeBytes=" << gpu.l1.sizeBytes << '\n';
    out << "gpu.l1Ways=" << gpu.l1.ways << '\n';
    out << "gpu.l1MshrEntries=" << gpu.l1MshrEntries << '\n';
    out << "gpu.l1MshrMergesPerEntry=" << gpu.l1MshrMergesPerEntry
        << '\n';
    out << "gpu.l1HitLatency=" << gpu.l1HitLatency << '\n';
    out << "gpu.l2SizeBytes=" << gpu.l2.sizeBytes << '\n';
    out << "gpu.l2Latency=" << gpu.l2Latency << '\n';
    out << "gpu.icntLatency=" << gpu.icntLatency << '\n';
    out << "gpu.dramQueueDepth=" << gpu.dramQueueDepth << '\n';
    out << "gpu.dramBandwidthGBs=" << formatDouble(gpu.dramBandwidthGBs)
        << '\n';
    out << "gpu.maxCycles=" << gpu.maxCycles << '\n';
    out << "gpu.warmupCycles=" << gpu.warmupCycles << '\n';
    out << "gpu.watchdogCycles=" << gpu.watchdogCycles << '\n';

    const LbConfig &lb = fuzz_case.lb;
    out << "lb.monitorPeriod=" << lb.monitorPeriod << '\n';
    out << "lb.hitRatioThreshold=" << formatDouble(lb.hitRatioThreshold)
        << '\n';
    out << "lb.vttWays=" << lb.vttWays << '\n';
    out << "lb.vttMaxPartitions=" << lb.vttMaxPartitions << '\n';
    out << "lb.vttAccessLatency=" << lb.vttAccessLatency << '\n';
    out << "lb.loadMonitorEntries=" << lb.loadMonitorEntries << '\n';
    out << "lb.backupBufferEntries=" << lb.backupBufferEntries << '\n';
    out << "lb.victimRegOffset=" << lb.victimRegOffset << '\n';

    const AppProfile &app = fuzz_case.app;
    out << "app.id=" << app.id << '\n';
    out << "app.aluPerLoad=" << app.aluPerLoad << '\n';
    out << "app.loadsBackToBack=" << (app.loadsBackToBack ? 1 : 0)
        << '\n';
    out << "app.hasStore=" << (app.hasStore ? 1 : 0) << '\n';
    out << "app.storeEveryN=" << app.storeEveryN << '\n';
    out << "app.warpsPerCta=" << app.warpsPerCta << '\n';
    out << "app.regsPerWarp=" << app.regsPerWarp << '\n';
    out << "app.iterations=" << app.iterations << '\n';
    out << "app.ctasPerSmOfGrid=" << app.ctasPerSmOfGrid << '\n';
    out << "app.seed=" << app.seed << '\n';
    for (const LoadSpec &load : app.loads) {
        out << "load=" << loadClassName(load.cls) << ',' << load.lines
            << ',' << static_cast<int>(load.scope) << ',' << load.fanout
            << ',' << load.hotLines << ','
            << formatDouble(load.hotProbability) << ',' << load.everyN
            << '\n';
    }
    for (const FaultEvent &event : fuzz_case.faults.events)
        out << "fault=" << serializeFaultEvent(event) << '\n';
    return out.str();
}

bool
parseFuzzCase(const std::string &text, FuzzCase &out,
              std::string &error_out)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) ||
        (line != kFuzzCaseMagic && line != kFuzzCaseMagicV1)) {
        error_out = "missing fuzzcase header";
        return false;
    }

    FuzzCase parsed;
    parsed.app.loads.clear();
    parsed.app.cacheSensitive = true;
    parsed.app.description = "replayed fuzz case";

    const auto parseU64 = [](const std::string &value,
                             std::uint64_t &field) {
        char *end = nullptr;
        field = std::strtoull(value.c_str(), &end, 10);
        return end && *end == '\0';
    };
    const auto parseU32 = [&parseU64](const std::string &value,
                                      std::uint32_t &field) {
        std::uint64_t wide = 0;
        if (!parseU64(value, wide) || wide > 0xffffffffull)
            return false;
        field = static_cast<std::uint32_t>(wide);
        return true;
    };
    const auto parseF64 = [](const std::string &value, double &field) {
        char *end = nullptr;
        field = std::strtod(value.c_str(), &end);
        return end && *end == '\0';
    };

    int line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            error_out = "line " + std::to_string(line_no) +
                        ": expected key=value";
            return false;
        }
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        bool ok = true;
        if (key == "seed") {
            ok = parseU64(value, parsed.seed);
        } else if (key == "scheme") {
            parsed.scheme = value;
        } else if (key == "gpu.l1SizeBytes") {
            ok = parseU32(value, parsed.gpu.l1.sizeBytes);
        } else if (key == "gpu.l1Ways") {
            ok = parseU32(value, parsed.gpu.l1.ways);
        } else if (key == "gpu.l1MshrEntries") {
            ok = parseU32(value, parsed.gpu.l1MshrEntries);
        } else if (key == "gpu.l1MshrMergesPerEntry") {
            ok = parseU32(value, parsed.gpu.l1MshrMergesPerEntry);
        } else if (key == "gpu.l1HitLatency") {
            ok = parseU32(value, parsed.gpu.l1HitLatency);
        } else if (key == "gpu.l2SizeBytes") {
            ok = parseU32(value, parsed.gpu.l2.sizeBytes);
        } else if (key == "gpu.l2Latency") {
            ok = parseU32(value, parsed.gpu.l2Latency);
        } else if (key == "gpu.icntLatency") {
            ok = parseU32(value, parsed.gpu.icntLatency);
        } else if (key == "gpu.dramQueueDepth") {
            ok = parseU32(value, parsed.gpu.dramQueueDepth);
        } else if (key == "gpu.dramBandwidthGBs") {
            ok = parseF64(value, parsed.gpu.dramBandwidthGBs);
        } else if (key == "gpu.maxCycles") {
            ok = parseU64(value, parsed.gpu.maxCycles);
        } else if (key == "gpu.warmupCycles") {
            ok = parseU64(value, parsed.gpu.warmupCycles);
        } else if (key == "gpu.watchdogCycles") {
            ok = parseU64(value, parsed.gpu.watchdogCycles);
        } else if (key == "lb.monitorPeriod") {
            ok = parseU64(value, parsed.lb.monitorPeriod);
        } else if (key == "lb.hitRatioThreshold") {
            ok = parseF64(value, parsed.lb.hitRatioThreshold);
        } else if (key == "lb.vttWays") {
            ok = parseU32(value, parsed.lb.vttWays);
        } else if (key == "lb.vttMaxPartitions") {
            ok = parseU32(value, parsed.lb.vttMaxPartitions);
        } else if (key == "lb.vttAccessLatency") {
            ok = parseU32(value, parsed.lb.vttAccessLatency);
        } else if (key == "lb.loadMonitorEntries") {
            ok = parseU32(value, parsed.lb.loadMonitorEntries);
        } else if (key == "lb.backupBufferEntries") {
            ok = parseU32(value, parsed.lb.backupBufferEntries);
        } else if (key == "lb.victimRegOffset") {
            ok = parseU32(value, parsed.lb.victimRegOffset);
        } else if (key == "app.id") {
            parsed.app.id = value;
        } else if (key == "app.aluPerLoad") {
            ok = parseU32(value, parsed.app.aluPerLoad);
        } else if (key == "app.loadsBackToBack") {
            parsed.app.loadsBackToBack = value == "1";
            ok = value == "0" || value == "1";
        } else if (key == "app.hasStore") {
            parsed.app.hasStore = value == "1";
            ok = value == "0" || value == "1";
        } else if (key == "app.storeEveryN") {
            ok = parseU32(value, parsed.app.storeEveryN);
        } else if (key == "app.warpsPerCta") {
            ok = parseU32(value, parsed.app.warpsPerCta);
        } else if (key == "app.regsPerWarp") {
            ok = parseU32(value, parsed.app.regsPerWarp);
        } else if (key == "app.iterations") {
            ok = parseU32(value, parsed.app.iterations);
        } else if (key == "app.ctasPerSmOfGrid") {
            ok = parseU32(value, parsed.app.ctasPerSmOfGrid);
        } else if (key == "app.seed") {
            ok = parseU64(value, parsed.app.seed);
        } else if (key == "load") {
            LoadSpec load;
            std::istringstream fields(value);
            std::string field;
            std::vector<std::string> parts;
            while (std::getline(fields, field, ','))
                parts.push_back(field);
            std::uint32_t scope_raw = 0;
            ok = parts.size() == 7 &&
                 parseLoadClass(parts[0], load.cls) &&
                 parseU64(parts[1], load.lines) &&
                 parseU32(parts[2], scope_raw) && scope_raw <= 3 &&
                 parseU32(parts[3], load.fanout) &&
                 parseU64(parts[4], load.hotLines) &&
                 parseF64(parts[5], load.hotProbability) &&
                 parseU32(parts[6], load.everyN);
            load.scope = static_cast<TileScope>(scope_raw);
            if (ok)
                parsed.app.loads.push_back(load);
        } else if (key == "fault") {
            FaultEvent event;
            ok = parseFaultEvent(value, event);
            if (ok)
                parsed.faults.events.push_back(event);
        } else {
            error_out = "line " + std::to_string(line_no) +
                        ": unknown key '" + key + "'";
            return false;
        }
        if (!ok) {
            error_out = "line " + std::to_string(line_no) +
                        ": bad value for '" + key + "'";
            return false;
        }
    }

    if (parsed.app.loads.empty()) {
        error_out = "case has no loads";
        return false;
    }
    try {
        fuzzScheme(parsed.scheme);
    } catch (const std::exception &e) {
        error_out = e.what();
        return false;
    }
    out = std::move(parsed);
    return true;
}

} // namespace lbsim
