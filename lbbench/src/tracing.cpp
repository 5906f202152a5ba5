#include "tracing.hpp"

#include <fstream>

#include "common/json.hpp"

namespace lbbench
{

using lbsim::Addr;
using lbsim::Cycle;

namespace
{

/** Adds the scope's duration and one call to a SeamCounter. */
class ScopedSeam
{
  public:
    explicit ScopedSeam(SeamCounter &seam)
        : seam_(seam), start_(Clock::now())
    {
    }
    ~ScopedSeam()
    {
        ++seam_.calls;
        seam_.seconds += secondsSince(start_);
    }
    ScopedSeam(const ScopedSeam &) = delete;
    ScopedSeam &operator=(const ScopedSeam &) = delete;

  private:
    SeamCounter &seam_;
    Clock::time_point start_;
};

} // namespace

void
HookCounters::add(const HookCounters &other)
{
    onCycle.add(other.onCycle);
    schedOpportunity.add(other.schedOpportunity);
    warpMayIssue += other.warpMayIssue;
    skippedCycles += other.skippedCycles;
    probe.add(other.probe);
    notifyAccess.add(other.notifyAccess);
    notifyEviction.add(other.notifyEviction);
    notifyStore.add(other.notifyStore);
    l1SinkEvents += other.l1SinkEvents;
}

double
HookCounters::selfSeconds() const
{
    return onCycle.seconds + schedOpportunity.seconds + probe.seconds +
        notifyAccess.seconds + notifyEviction.seconds +
        notifyStore.seconds;
}

// --- TimingController -------------------------------------------------------

void
TimingController::onCycle(lbsim::Sm &sm, Cycle now)
{
    ScopedSeam seam(counters_.onCycle);
    if (inner_)
        inner_->onCycle(sm, now);
}

bool
TimingController::warpMayIssue(const lbsim::Sm &sm,
                               const lbsim::Warp &warp) const
{
    ++counters_.warpMayIssue;
    return inner_ ? inner_->warpMayIssue(sm, warp) : true;
}

bool
TimingController::warpBypassesL1(const lbsim::Sm &sm,
                                 const lbsim::Warp &warp) const
{
    return inner_ ? inner_->warpBypassesL1(sm, warp) : false;
}

void
TimingController::onCtaLaunched(lbsim::Sm &sm, lbsim::Cta &cta, Cycle now)
{
    if (inner_)
        inner_->onCtaLaunched(sm, cta, now);
}

void
TimingController::onCtaCompleted(lbsim::Sm &sm, lbsim::Cta &cta, Cycle now)
{
    if (inner_)
        inner_->onCtaCompleted(sm, cta, now);
}

bool
TimingController::onSchedulingOpportunity(lbsim::Sm &sm, Cycle now)
{
    ScopedSeam seam(counters_.schedOpportunity);
    return inner_ ? inner_->onSchedulingOpportunity(sm, now) : false;
}

void
TimingController::onMeasurementReset(lbsim::Sm &sm, Cycle now)
{
    if (inner_)
        inner_->onMeasurementReset(sm, now);
}

Cycle
TimingController::nextEventCycle(const lbsim::Sm &sm, Cycle now) const
{
    // A null controller imposes no bound on a skip.
    return inner_ ? inner_->nextEventCycle(sm, now) : lbsim::kNoCycle;
}

void
TimingController::onCyclesSkipped(lbsim::Sm &sm, Cycle cycles)
{
    counters_.skippedCycles += cycles;
    if (inner_)
        inner_->onCyclesSkipped(sm, cycles);
}

bool
TimingController::wantsSchedulingOpportunity(const lbsim::Sm &sm) const
{
    return inner_ ? inner_->wantsSchedulingOpportunity(sm) : false;
}

std::string
TimingController::statusString() const
{
    return inner_ ? inner_->statusString() : std::string();
}

// --- TimingVictim -------------------------------------------------------------

lbsim::VictimProbeResult
TimingVictim::probeVictim(Addr line_addr, Cycle now)
{
    ScopedSeam seam(counters_.probe);
    return inner_->probeVictim(line_addr, now);
}

void
TimingVictim::notifyEviction(Addr line_addr, std::uint8_t hpc,
                             std::uint8_t owner_warp, Cycle now)
{
    ScopedSeam seam(counters_.notifyEviction);
    inner_->notifyEviction(line_addr, hpc, owner_warp, now);
}

void
TimingVictim::notifyAccess(Addr line_addr, lbsim::Pc pc, std::uint8_t hpc,
                           std::uint8_t warp_slot, bool hit, Cycle now)
{
    ScopedSeam seam(counters_.notifyAccess);
    inner_->notifyAccess(line_addr, pc, hpc, warp_slot, hit, now);
}

void
TimingVictim::notifyStore(Addr line_addr, Cycle now)
{
    ScopedSeam seam(counters_.notifyStore);
    inner_->notifyStore(line_addr, now);
}

// --- SpanLog --------------------------------------------------------------------

std::int64_t
SpanLog::add(const std::string &name, const std::string &cell,
             std::uint32_t pass, std::int64_t parent,
             Clock::time_point start, Clock::time_point end)
{
    Span span;
    span.name = name;
    span.cell = cell;
    span.pass = pass;
    span.id = static_cast<std::int64_t>(spans_.size());
    span.parent = parent;
    span.start = std::chrono::duration<double>(start - epoch_).count();
    span.end = std::chrono::duration<double>(end - epoch_).count();
    spans_.push_back(span);
    return span.id;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out.precision(17);
    for (const Span &span : spans_) {
        out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
            << ",\"name\":\"" << lbsim::JsonWriter::escape(span.name)
            << "\",\"cell\":\"" << lbsim::JsonWriter::escape(span.cell)
            << "\",\"pass\":" << span.pass << ",\"start_s\":"
            << span.start << ",\"end_s\":" << span.end << "}\n";
    }
    return static_cast<bool>(out);
}

} // namespace lbbench
