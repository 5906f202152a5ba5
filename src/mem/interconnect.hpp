/**
 * @file
 * SM <-> memory-partition interconnect.
 *
 * A latency-modelled crossbar: requests and responses cross in a fixed
 * number of cycles (Table 1 interconnect hop). Requests wait in one
 * send-ordered queue per memory partition until the partition takes
 * them; a per-SM in-flight cap provides backpressure toward the SMs.
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
        return queuedRequests() == 0 && responses_.empty();
    }

    /**
     * Earliest future cycle at which ticking the crossbar could have an
     * effect, or kNoCycle when nothing is in flight. Traffic still
     * crossing bounds at its arrival cycle (the first entry behind each
     * partition's parked prefix); a parked retry has no intrinsic bound
     * — it only moves when its partition does, which the partition's
     * own bound covers. Responses bound at the front's arrival: only
     * the front is ever popped, so later (possibly earlier-stamped)
     * entries cannot act before it. Returns @p now (no skip) when
     * retry-skip is disabled, because the armed fault injector must
     * observe every real delivery attempt.
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
     * Structural auditor: each partition queue holds only its own
     * lines in strictly increasing send order, its parked entries form
     * a prefix whose counts match the cached ones, per-SM in-flight
     * counters match the queued requests exactly, queued traffic is
     * addressed to attached endpoints, and the ledger counters are
     * consistent.
     */
    void audit(Cycle now) const;

    /**
     * End-of-run auditor (call only once the grid drained): no queued
     * traffic remains and every request retired exactly once.
     */
    void auditDrained() const;

    /** Queue/counter summary for failure reports. */
    std::string debugString() const;

    /** Overwrite partition @p partition's cached L2-park count. */
    void
    setL2ParkedForTest(std::uint32_t partition, std::uint32_t l2_parked)
    {
        queues_.at(partition).l2Parked = l2_parked;
    }

  private:
    /** Why a queued request last bounced off its partition. */
    enum class RetryBlock : std::uint8_t
    {
        None, ///< Not parked (never attempted, or retry-skip disabled).
        Dram, ///< Bounced off a full DRAM queue (zero side effects).
        L2,   ///< Read stalled on L2 MSHRs (charged an access + id).
    };

    struct InFlightRequest
    {
        std::uint64_t seq; ///< Global send order.
        Cycle arrival;
        MemRequest req;
        RetryBlock block = RetryBlock::None;
    };
    struct InFlightResponse
    {
        Cycle arrival;
        MemResponse resp;
    };
    /** An L2-hit response sent during the request sweep (see tick()). */
    struct SweepResponse
    {
        std::uint64_t seq; ///< Send order of the request it answers.
        MemResponse resp;
        Cycle now;
    };

    /**
     * Undelivered requests for one memory partition, in send order.
     * The hop latency is constant, so send order is arrival order, and
     * after a sweep the queue is a prefix of parked retries followed by
     * entries still crossing. Parked entries are retry-skip cache
     * entries: the L2 epoch seen at the last sweep is shared by all of
     * them, because it moves only inside MemoryPartition::tick, never
     * during a sweep. Never populated with an armed fault injector (it
     * must observe every real delivery attempt), so then parked stays 0.
     */
    struct PartitionQueue
    {
        std::vector<InFlightRequest> entries;
        std::uint32_t parked = 0;   ///< Length of the parked prefix.
        std::uint32_t l2Parked = 0; ///< Parked reads stalled on L2.
        std::uint64_t l2Epoch = 0;  ///< Partition L2 epoch at last sweep.
    };

    /** Requests queued across every partition. */
    std::size_t queuedRequests() const;

    /** Attempt partition @p p's arrived requests (see tick()). */
    void sweepPartition(std::uint32_t p, Cycle now);

    /** Enqueue @p resp toward its SM, applying the response faults. */
    void pushResponse(const MemResponse &resp, Cycle now);

    const GpuConfig &cfg_;
    SimStats *stats_;
    FaultInjector *fi_;
    std::vector<MemoryPartition *> partitions_;
    std::vector<ResponseSinkIf *> sinks_;
    std::vector<PartitionQueue> queues_;
    std::uint64_t nextSeq_ = 0;
    /**
     * True inside tick()'s request sweep, which visits partitions one
     * at a time: L2-hit responses are buffered in sweepResponses_ with
     * the seq of the request being delivered (deliverSeq_) and pushed
     * in send order once the sweep ends, because hits from different
     * partitions share responses_.
     */
    bool sweeping_ = false;
    std::uint64_t deliverSeq_ = 0;
    std::vector<SweepResponse> sweepResponses_;
    std::deque<InFlightResponse> responses_;
    std::uint32_t maxInFlightPerSm_;
    std::vector<std::uint32_t> inFlightPerSm_;
    /** False when an armed fault injector is attached (see
     *  PartitionQueue): fault hooks must see every real attempt. */
    bool retrySkip_;
    RequestLedger ledger_;
};

} // namespace lbsim
