/**
 * @file
 * Measurement decorators for the simulator's public seams.
 *
 * The traced run wraps each SM's SmControllerIf and VictimCacheIf and
 * attaches counting L1/L2 event sinks. Every decorator forwards each
 * call unchanged, so simulated results stay bit-identical (the wiring
 * equivalence check proves it). The per-call seams see millions of
 * calls, so they keep count and total-time accumulators rather than
 * individual spans; spans are kept only at cell and phase boundaries
 * (SpanLog).
 *
 * One HookCounters instance belongs to one SM. The SM phase of the tick
 * engine runs an SM's hooks on one thread at a time, and the serial
 * phase (dispatcher, memory side) is separated from it by the engine's
 * barrier, so the accumulators need no locking.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sm.hpp"
#include "mem/l1_cache.hpp"
#include "mem/l2_cache.hpp"
#include "mem/victim_if.hpp"

namespace lbbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Call count and total host time of one seam. */
struct SeamCounter
{
    std::uint64_t calls = 0;
    double seconds = 0.0;

    void
    add(const SeamCounter &other)
    {
        calls += other.calls;
        seconds += other.seconds;
    }
};

/** Everything the decorators of one SM accumulate. */
struct HookCounters
{
    // SmControllerIf (timing decorator around the SM's controller).
    SeamCounter onCycle;
    SeamCounter schedOpportunity;
    std::uint64_t warpMayIssue = 0;
    std::uint64_t skippedCycles = 0;
    // VictimCacheIf (timing decorator around the L1's victim cache).
    SeamCounter probe;
    SeamCounter notifyAccess;
    SeamCounter notifyEviction;
    SeamCounter notifyStore;
    // L1EventSinkIf.
    std::uint64_t l1SinkEvents = 0;

    void add(const HookCounters &other);

    /** Host time spent inside the timed hooks. */
    double selfSeconds() const;
};

/**
 * Timing SmControllerIf. With a null inner controller it is a
 * pass-through with exactly the semantics the core gives a null
 * controller: it never gates issue or bypass, never consumes a
 * scheduling opportunity, never bounds a tick skip and never wants an
 * opportunity.
 */
class TimingController final : public lbsim::SmControllerIf
{
  public:
    TimingController(lbsim::SmControllerIf *inner, HookCounters &counters)
        : inner_(inner), counters_(counters)
    {
    }

    void onCycle(lbsim::Sm &sm, lbsim::Cycle now) override;
    bool warpMayIssue(const lbsim::Sm &sm,
                      const lbsim::Warp &warp) const override;
    bool warpBypassesL1(const lbsim::Sm &sm,
                        const lbsim::Warp &warp) const override;
    void onCtaLaunched(lbsim::Sm &sm, lbsim::Cta &cta,
                       lbsim::Cycle now) override;
    void onCtaCompleted(lbsim::Sm &sm, lbsim::Cta &cta,
                        lbsim::Cycle now) override;
    bool onSchedulingOpportunity(lbsim::Sm &sm, lbsim::Cycle now) override;
    void onMeasurementReset(lbsim::Sm &sm, lbsim::Cycle now) override;
    lbsim::Cycle nextEventCycle(const lbsim::Sm &sm,
                                lbsim::Cycle now) const override;
    void onCyclesSkipped(lbsim::Sm &sm, lbsim::Cycle cycles) override;
    bool wantsSchedulingOpportunity(const lbsim::Sm &sm) const override;
    std::string statusString() const override;

  private:
    lbsim::SmControllerIf *inner_;
    HookCounters &counters_;
};

/** Timing VictimCacheIf installed in front of the L1's victim cache. */
class TimingVictim final : public lbsim::VictimCacheIf
{
  public:
    TimingVictim(lbsim::VictimCacheIf *inner, HookCounters &counters)
        : inner_(inner), counters_(counters)
    {
    }

    lbsim::VictimProbeResult probeVictim(lbsim::Addr line_addr,
                                         lbsim::Cycle now) override;
    void notifyEviction(lbsim::Addr line_addr, std::uint8_t hpc,
                        std::uint8_t owner_warp, lbsim::Cycle now) override;
    void notifyAccess(lbsim::Addr line_addr, lbsim::Pc pc, std::uint8_t hpc,
                      std::uint8_t warp_slot, bool hit,
                      lbsim::Cycle now) override;
    void notifyStore(lbsim::Addr line_addr, lbsim::Cycle now) override;

  private:
    lbsim::VictimCacheIf *inner_;
    HookCounters &counters_;
};

/** Counts every L1 event-sink callback. */
class CountingL1Sink final : public lbsim::L1EventSinkIf
{
  public:
    explicit CountingL1Sink(HookCounters &counters) : counters_(counters) {}

    void onAccessOutcome(const lbsim::L1Access &, lbsim::L1Outcome,
                         lbsim::Cycle) override
    {
        ++counters_.l1SinkEvents;
    }
    void onFill(lbsim::Addr, bool, const std::optional<lbsim::Eviction> &,
                lbsim::Cycle) override
    {
        ++counters_.l1SinkEvents;
    }
    void onFlush() override { ++counters_.l1SinkEvents; }

  private:
    HookCounters &counters_;
};

/** Counts every L2 event-sink callback of one slice. */
class CountingL2Sink final : public lbsim::L2EventSinkIf
{
  public:
    void onRead(lbsim::Addr, lbsim::L2Outcome, lbsim::Cycle) override
    {
        ++events;
    }
    void onWrite(lbsim::Addr, bool, lbsim::Cycle) override { ++events; }
    void onFill(lbsim::Addr, const std::optional<lbsim::Eviction> &,
                lbsim::Cycle) override
    {
        ++events;
    }

    std::uint64_t events = 0;
};

/** One span at a cell or phase boundary. */
struct Span
{
    std::string name;
    std::string cell;       ///< Cell id the span belongs to.
    std::uint32_t pass = 0;
    std::int64_t id = 0;
    std::int64_t parent = -1; ///< Enclosing span id, -1 at the root.
    double start = 0.0;     ///< Seconds since the log's epoch.
    double end = 0.0;
};

/** In-memory span log, written out once when the benchmark ends. */
class SpanLog
{
  public:
    SpanLog() : epoch_(Clock::now()) {}

    /** Record a finished span; @return its id for children. */
    std::int64_t add(const std::string &name, const std::string &cell,
                     std::uint32_t pass, std::int64_t parent,
                     Clock::time_point start, Clock::time_point end);

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

    std::size_t size() const { return spans_.size(); }

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

} // namespace lbbench
