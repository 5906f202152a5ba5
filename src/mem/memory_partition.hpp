/**
 * @file
 * One memory partition: an L2 slice plus its DRAM channel.
 *
 * Requests arrive from the interconnect; read hits answer after the L2
 * latency, misses go to DRAM and answer when the fill returns. Register
 * backup/restore traffic (Linebacker) bypasses the L2 slice and works
 * directly against the DRAM channel, consuming real bandwidth (Fig 17
 * overhead accounting).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/flat_map.hpp"
#include "common/stats.hpp"
#include "mem/dram.hpp"
#include "mem/l2_cache.hpp"
#include "mem/request.hpp"

namespace lbsim
{

class Interconnect;
class FaultInjector;

/**
 * Outcome of presenting one request to a partition. The two blocked
 * flavors matter to the interconnect's retry loop: a request bounced
 * off a full DRAM queue left no trace at all, while a read stalled on
 * the L2 MSHRs consumed an access (and a read id) before bouncing.
 * The retry-skip cache replays exactly those effects per skipped
 * attempt, so skipping is invisible in every counter.
 */
enum class DeliverResult : std::uint8_t
{
    Accepted,    ///< Request consumed; any response comes later.
    BlockedDram, ///< DRAM queue full; attempt had zero side effects.
    BlockedL2,   ///< Read stalled on L2 MSHRs after charging an access.
};

/** L2 slice + DRAM channel behind one interconnect port. */
class MemoryPartition
{
  public:
    /**
     * @param fi Optional fault injector; an active dram-storm window
     *     pushes each command's earliest service cycle out by the storm
     *     magnitude (modelling a refresh storm). Null disables.
     */
    MemoryPartition(const GpuConfig &cfg, std::uint32_t partition_id,
                    Interconnect *icnt, SimStats *stats,
                    FaultInjector *fi = nullptr);

    /**
     * Accept @p req from the interconnect.
     * @return the blocked flavor if the partition is full (the request
     *     stays queued at the interconnect and retries).
     */
    DeliverResult deliver(const MemRequest &req, Cycle now);

    /** Advance DRAM and emit finished responses. */
    void tick(Cycle now);

    /**
     * Epoch of the L2 slice's fill state. Bumped whenever a DRAM fill
     * completes into the slice (the only event that frees L2 MSHR
     * entries or inserts lines). While it is unchanged and the DRAM
     * queue still has room, a read that stalled on the L2 MSHRs would
     * stall again with identical effects.
     */
    std::uint64_t
    l2Epoch() const
    {
        return l2Epoch_;
    }

    /** Forward of DramChannel::freeEpoch() for the retry-skip cache. */
    std::uint64_t dramFreeEpoch() const { return dram_.freeEpoch(); }

    /** Live DRAM backpressure (cheap; see Interconnect::tick). */
    bool dramCanAccept() const { return dram_.canAccept(); }

    /**
     * Replay the side effects of one skipped L2-stalled read retry.
     * A real retry runs deliver()'s DataRead path up to the MSHR stall:
     * it consumes a read id and charges one L2 access (the transient
     * pending-read entry is inserted and erased again, net zero). The
     * interconnect calls this instead of deliver() while l2Epoch() is
     * unchanged, keeping every counter and the id sequence bit-exact.
     */
    void chargeSkippedReadRetry();

    /** Bulk form of chargeSkippedReadRetry() for @p count retries. */
    void chargeSkippedReadRetries(std::uint64_t count);

    /**
     * Earliest future cycle at which ticking this partition could have
     * an effect, or kNoCycle when idle. The partition's tick is entirely
     * DRAM-driven (advance the channel, drain its completions), so the
     * bound is the channel's. Used by the tick-skip engine.
     */
    Cycle nextEventCycle(Cycle now) const
    {
        return dram_.nextEventCycle(now);
    }

    /**
     * Consistency auditor: every pending read belongs to this partition,
     * is of a kind that produces a response, and is addressed to a real
     * line.
     */
    void audit(Cycle now) const;

    /** Pending-read summary for failure reports. */
    std::string debugString() const;

    const L2Slice &l2() const { return l2_; }
    L2Slice &l2() { return l2_; }
    const DramChannel &dram() const { return dram_; }

  private:
    /** A read waiting for data (either L2 latency or a DRAM fill). */
    struct PendingRead
    {
        Addr lineAddr;
        std::uint32_t smId;
        RequestKind kind;
    };

    void respond(const PendingRead &read, Cycle ready);

    const GpuConfig &cfg_;
    std::uint32_t id_;
    Interconnect *icnt_;
    SimStats *stats_;
    FaultInjector *fi_;
    L2Slice l2_;
    DramChannel dram_;
    std::uint64_t nextReadId_ = 1;
    /** Bumped per tick that completed at least one L2 fill. */
    std::uint64_t l2Epoch_ = 0;
    FlatMap<std::uint64_t, PendingRead> pendingReads_;
    /** Reused per-tick buffers; tick() is hot and must not allocate. */
    std::vector<DramCompletion> doneScratch_;
    std::vector<std::uint64_t> waiterScratch_;
};

} // namespace lbsim
