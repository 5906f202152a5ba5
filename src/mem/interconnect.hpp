/**
 * @file
 * SM <-> memory-partition interconnect.
 *
 * A latency/bandwidth-modelled crossbar: requests and responses cross in a
 * fixed number of cycles (Table 1 interconnect hop), with bounded per-
 * partition request queues providing backpressure toward the SMs.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "mem/request.hpp"
#include "mem/request_ledger.hpp"

namespace lbsim
{

class MemoryPartition;
class L1Cache;
class FaultInjector;

/** Callback sink for responses delivered to an SM. */
class ResponseSinkIf
{
  public:
    virtual ~ResponseSinkIf() = default;

    /** A response arrived at the SM at cycle @p now. */
    virtual void onResponse(const MemResponse &response, Cycle now) = 0;
};

/** Crossbar between @c numSms SMs and @c numMemPartitions partitions. */
class Interconnect
{
  public:
    /**
     * @param fi Optional fault injector consulted on the response path
     *     (icnt-delay adds hop latency, icnt-reorder flips delivery
     *     order); null disables injection with zero overhead.
     */
    Interconnect(const GpuConfig &cfg, SimStats *stats,
                 FaultInjector *fi = nullptr);

    /** Register partition @p index (must be called for every partition). */
    void attachPartition(std::uint32_t index, MemoryPartition *partition);

    /** Register the response sink for @p sm_id. */
    void attachSm(std::uint32_t sm_id, ResponseSinkIf *sink);

    /** Backpressure check before sendRequest(). */
    bool canAcceptRequest(std::uint32_t sm_id) const;

    /** Send @p req toward its partition; arrives after the hop latency. */
    void sendRequest(const MemRequest &req, Cycle now);

    /** Send @p resp back to its SM; arrives after the hop latency. */
    void sendResponse(const MemResponse &resp, Cycle now);

    /** Deliver all traffic whose hop latency has elapsed by @p now. */
    void tick(Cycle now);

    /** Partition index serving @p line_addr. */
    std::uint32_t
    partitionOf(Addr line_addr) const
    {
        return static_cast<std::uint32_t>(lineIndex(line_addr) %
                                          partitions_.size());
    }

    /**
     * True when no traffic is queued in either direction. Compute
     * draining does not imply this: posted writes carry no response and
     * may still be crossing the crossbar after the last warp retires.
     */
    bool
    quiescent() const
    {
        return requests_.empty() && responses_.empty();
    }

    /**
     * Earliest future cycle at which ticking the crossbar could have an
     * effect, or kNoCycle when nothing is in flight. Traffic still
     * crossing bounds at its arrival cycle; an already-arrived request
     * that has not been attempted (block == None) bounds at @p now; a
     * blocked retry has no intrinsic bound — it only moves when its
     * partition does, which the partition's own bound covers. Responses
     * bound at the front's arrival: only the front is ever popped, so
     * later (possibly earlier-stamped) entries cannot act before it.
     * Returns @p now (no skip) when retry-skip is disabled, because the
     * armed fault injector must observe every real delivery attempt.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Replay the per-cycle side effects of @p cycles skipped crossbar
     * ticks. The only per-cycle effect while every bound is in the
     * future is the L2-blocked read retry charge (one read id + one L2
     * access per cycle, per blocked entry whose DRAM queue has room —
     * exactly what a real retry loop would have charged; when the DRAM
     * queue is full the real engine flips the entry to BlockedDram at
     * the next attempt and charges nothing, and the two states converge
     * at the partition's wake cycle).
     */
    void applySkippedCycles(std::uint64_t cycles);

    /** Request-lifetime ledger (fed at every check level). */
    RequestLedger &ledger() { return ledger_; }
    const RequestLedger &ledger() const { return ledger_; }

    /**
     * Structural auditor: per-SM in-flight counters match the queued
     * requests exactly, queued traffic is addressed to attached
     * endpoints, and the ledger counters are consistent.
     */
    void audit(Cycle now) const;

    /**
     * End-of-run auditor (call only once the grid drained): no queued
     * traffic remains and every request retired exactly once.
     */
    void auditDrained() const;

    /** Queue/counter summary for failure reports. */
    std::string debugString() const;

  private:
    /** Why a queued request last bounced off its partition. */
    enum class RetryBlock : std::uint8_t
    {
        None, ///< Never attempted (or retry-skip disabled).
        Dram, ///< Bounced off a full DRAM queue (zero side effects).
        L2,   ///< Read stalled on L2 MSHRs (charged an access + id).
    };

    struct InFlightRequest
    {
        Cycle arrival;
        MemRequest req;
        /**
         * Retry-skip cache: the blocked flavor of the last delivery
         * attempt plus the partition epoch observed then. While the
         * epoch is unchanged a real retry would bounce identically, so
         * tick() skips the partition walk and just replays the
         * attempt's (possibly empty) counter effects. Never populated
         * when an armed fault injector is attached: the injector
         * observes every real delivery attempt (storm-delay probes),
         * and skipping would change what it sees.
         */
        RetryBlock block = RetryBlock::None;
        std::uint64_t blockEpoch = 0;
    };
    struct InFlightResponse
    {
        Cycle arrival;
        MemResponse resp;
    };

    const GpuConfig &cfg_;
    SimStats *stats_;
    FaultInjector *fi_;
    std::vector<MemoryPartition *> partitions_;
    std::vector<ResponseSinkIf *> sinks_;
    /**
     * FIFO of undelivered requests. A vector compacted in place per
     * tick (not a deque rotated entry by entry): tick() walks every
     * entry each cycle, and under memory-bound phases the queue holds
     * hundreds of stalled retries, so the walk is the hot loop.
     */
    std::vector<InFlightRequest> requests_;
    std::deque<InFlightResponse> responses_;
    std::uint32_t maxInFlightPerSm_;
    std::vector<std::uint32_t> inFlightPerSm_;
    /** False when an armed fault injector is attached (see
     *  InFlightRequest): fault hooks must see every real attempt. */
    bool retrySkip_;
    /**
     * Fast-path state for tick()'s request sweep: true while any
     * retained request has arrived without being parked in the
     * retry-skip cache (block == None) — only possible when retry-skip
     * is disabled, where every arrived entry must re-present to the
     * armed fault injector each tick. When false, the sweep runs only
     * at reqNextArrival_ (the exact min arrival over the in-flight
     * set) or when a park summary says a partition moved. Recomputed
     * by every sweep; enqueues lower the arrival bound (and raise
     * attention on a same-cycle hop).
     */
    bool reqAttention_ = false;
    Cycle reqNextArrival_ = kNoCycle;
    /**
     * Per-partition summary of the parked (retry-skip cached) entries.
     * Sweep invariant: immediately after a sweep, every parked entry's
     * blockEpoch equals its partition's current epoch of the matching
     * flavor — an unchanged-epoch entry passed an equality check and a
     * freshly parked one recorded the current value — and epochs only
     * move inside MemoryPartition::tick, never during the sweep
     * itself. tick() therefore needs just this O(partitions) summary,
     * not an O(queue) walk, to decide whether any parked entry could
     * act: a flavor's count is nonzero and its partition's epoch
     * moved (or, for L2 parks, the DRAM queue filled, which a real
     * retry would observe by reclassifying). While no partition moved,
     * the only per-cycle effect is the L2-blocked retry charge,
     * replayed per partition straight from the counts.
     */
    struct PartitionPark
    {
        std::uint32_t dram = 0; ///< Entries blocked on a full DRAM queue.
        std::uint32_t l2 = 0;   ///< Reads stalled on L2 MSHRs.
        std::uint64_t dramEpoch = 0;
        std::uint64_t l2Epoch = 0;
    };
    std::vector<PartitionPark> parks_;
    /** Total parked entries across parks_ (0 short-circuits the scan). */
    std::uint32_t parkedTotal_ = 0;
    RequestLedger ledger_;
};

} // namespace lbsim
