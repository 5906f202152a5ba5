#include "mem/interconnect.hpp"

#include <cstdio>

#include "common/check.hpp"
#include "common/log.hpp"
#include "mem/memory_partition.hpp"
#include "resilience/faultinject.hpp"

namespace lbsim
{

Interconnect::Interconnect(const GpuConfig &cfg, SimStats *stats,
                           FaultInjector *fi)
    : cfg_(cfg), stats_(stats), fi_(fi),
      partitions_(cfg.numMemPartitions, nullptr),
      sinks_(cfg.numSms, nullptr),
      maxInFlightPerSm_(cfg.l1MshrEntries + cfg.dramQueueDepth),
      inFlightPerSm_(cfg.numSms, 0),
      retrySkip_(fi == nullptr || !fi->armed()),
      parks_(cfg.numMemPartitions), ledger_(cfg.numSms)
{
}

void
Interconnect::attachPartition(std::uint32_t index,
                              MemoryPartition *partition)
{
    if (index >= partitions_.size())
        panic("partition index %u out of range", index);
    partitions_[index] = partition;
}

void
Interconnect::attachSm(std::uint32_t sm_id, ResponseSinkIf *sink)
{
    if (sm_id >= sinks_.size())
        panic("SM id %u out of range", sm_id);
    sinks_[sm_id] = sink;
}

bool
Interconnect::canAcceptRequest(std::uint32_t sm_id) const
{
    return inFlightPerSm_[sm_id] < maxInFlightPerSm_;
}

void
Interconnect::sendRequest(const MemRequest &req, Cycle now)
{
    LB_ASSERT(req.smId < inFlightPerSm_.size(),
              "request from out-of-range SM %u", req.smId);
    LB_ASSERT(req.lineAddr != kNoAddr,
              "request with sentinel address from SM %u", req.smId);
    ledger_.onIssue(req, now);
    ++inFlightPerSm_[req.smId];
    const Cycle arrival = now + cfg_.icntLatency;
    requests_.push_back({arrival, req});
    if (arrival < reqNextArrival_)
        reqNextArrival_ = arrival;
    if (arrival <= now)
        reqAttention_ = true; // Zero-latency hop: due this very tick.
}

void
Interconnect::sendResponse(const MemResponse &resp, Cycle now)
{
    LB_ASSERT(resp.smId < sinks_.size(),
              "response for out-of-range SM %u", resp.smId);
    const Cycle extra = fi_ ? fi_->icntResponseDelay(now) : 0;
    if (fi_ && fi_->icntReorderActive(now))
        responses_.push_front({now + cfg_.icntLatency + extra, resp});
    else
        responses_.push_back({now + cfg_.icntLatency + extra, resp});
}

void
Interconnect::tick(Cycle now)
{
    // Deliver requests whose hop latency elapsed; a full partition queue
    // stalls that request (and, FIFO, those behind it). The loop
    // compacts retained entries in place, preserving FIFO order — the
    // same order the old pop-front/push-back rotation produced.
    //
    // The retry-skip cache makes the stalled-retry storm cheap: once a
    // request bounced, re-presenting it to the partition is pure
    // overhead until the partition's state actually moved (DRAM queue
    // drained a slot, or an L2 fill freed MSHR space). The partition
    // epochs tell us exactly that, and the charge hook replays the
    // counters a real bounce would have touched, so the skip is
    // invisible in every statistic and in the read-id sequence.
    // Fast path: the sweep runs only when an arrival is due, when an
    // unparked arrived entry exists (armed injector), or when a park
    // summary shows a partition's epoch moved (see parks_). Otherwise
    // the sweep would re-park every entry unchanged, and its only
    // per-cycle effect — the L2-blocked retry charge — is replayed per
    // partition straight from the park counts, in the same aggregate
    // the entry-by-entry walk would have produced (per-partition
    // counter increments commute across entries).
    bool sweep = reqAttention_ || now >= reqNextArrival_;
    if (!sweep && parkedTotal_ != 0) {
        for (std::size_t p = 0; p < parks_.size(); ++p) {
            const PartitionPark &park = parks_[p];
            if (park.dram != 0 &&
                partitions_[p]->dramFreeEpoch() != park.dramEpoch) {
                sweep = true;
                break;
            }
            if (park.l2 != 0 &&
                (partitions_[p]->l2Epoch() != park.l2Epoch ||
                 !partitions_[p]->dramCanAccept())) {
                sweep = true;
                break;
            }
        }
    }
    if (sweep) {
    bool attention = false;
    Cycle next_arrival = kNoCycle;
    for (PartitionPark &park : parks_)
        park = PartitionPark{};
    parkedTotal_ = 0;
    std::size_t kept = 0;
    const std::size_t n = requests_.size();
    for (std::size_t i = 0; i < n; ++i) {
        InFlightRequest entry = requests_[i];
        if (entry.arrival > now) {
            if (entry.arrival < next_arrival)
                next_arrival = entry.arrival;
            requests_[kept++] = entry;
            continue;
        }
        const std::uint32_t pidx = partitionOf(entry.req.lineAddr);
        MemoryPartition *partition = partitions_[pidx];
        if (entry.block == RetryBlock::Dram) {
            if (partition->dramFreeEpoch() == entry.blockEpoch) {
                // Queue only ever shrinks on issue; unchanged epoch
                // means still full. A real retry would have no effect.
                ++parks_[pidx].dram;
                parks_[pidx].dramEpoch = entry.blockEpoch;
                ++parkedTotal_;
                requests_[kept++] = entry;
                continue;
            }
        } else if (entry.block == RetryBlock::L2) {
            if (!partition->dramCanAccept()) {
                // The DRAM queue filled up since the L2 stall; a real
                // retry would now bounce at the front door with zero
                // effects. Reclassify without charging anything.
                entry.block = RetryBlock::Dram;
                entry.blockEpoch = partition->dramFreeEpoch();
                ++parks_[pidx].dram;
                parks_[pidx].dramEpoch = entry.blockEpoch;
                ++parkedTotal_;
                requests_[kept++] = entry;
                continue;
            }
            if (partition->l2Epoch() == entry.blockEpoch) {
                // No fill since the stall: the L2 MSHRs are still
                // exhausted for this read, and a real retry would
                // charge one access and consume one id before
                // bouncing. Replay exactly that.
                partition->chargeSkippedReadRetry();
                ++parks_[pidx].l2;
                parks_[pidx].l2Epoch = entry.blockEpoch;
                ++parkedTotal_;
                requests_[kept++] = entry;
                continue;
            }
        }
        switch (partition->deliver(entry.req, now)) {
          case DeliverResult::Accepted:
            --inFlightPerSm_[entry.req.smId];
            // Writes have no response; hand-off to the partition is
            // their terminal event in the request-lifetime ledger.
            if (!needsResponse(entry.req.kind))
                ledger_.onRetire(entry.req.smId, entry.req.kind, now);
            break;
          case DeliverResult::BlockedDram:
            if (retrySkip_) {
                entry.block = RetryBlock::Dram;
                entry.blockEpoch = partition->dramFreeEpoch();
                ++parks_[pidx].dram;
                parks_[pidx].dramEpoch = entry.blockEpoch;
                ++parkedTotal_;
            } else {
                attention = true;
            }
            requests_[kept++] = entry;
            break;
          case DeliverResult::BlockedL2:
            if (retrySkip_) {
                entry.block = RetryBlock::L2;
                entry.blockEpoch = partition->l2Epoch();
                ++parks_[pidx].l2;
                parks_[pidx].l2Epoch = entry.blockEpoch;
                ++parkedTotal_;
            } else {
                attention = true;
            }
            requests_[kept++] = entry;
            break;
        }
    }
    requests_.resize(kept);
    reqAttention_ = attention;
    reqNextArrival_ = next_arrival;
    } else if (parkedTotal_ != 0) {
        // No partition moved: replay this cycle's L2 retry charges in
        // bulk (the pre-check established dramCanAccept() for every
        // partition with L2 parks).
        for (std::size_t p = 0; p < parks_.size(); ++p) {
            if (parks_[p].l2 != 0)
                partitions_[p]->chargeSkippedReadRetries(parks_[p].l2);
        }
    }

    while (!responses_.empty() && responses_.front().arrival <= now) {
        const MemResponse resp = responses_.front().resp;
        responses_.pop_front();
        ledger_.onRetire(resp.smId, resp.kind, now);
        if (ResponseSinkIf *sink = sinks_[resp.smId])
            sink->onResponse(resp, now);
    }
}

Cycle
Interconnect::nextEventCycle(Cycle now) const
{
    if (!retrySkip_)
        return now; // Armed injector: every attempt must really happen.
    // reqNextArrival_ bounds every entry that has not been attempted
    // yet: the last sweep parked everything arrived (retry-skip is on)
    // and recorded the min future arrival, and enqueues since only
    // lower it. Parked retries impose no bound of their own — they
    // only move when their partition does, which the partition's own
    // nextEventCycle() covers. The per-cycle L2 retry charge is
    // replayed by applySkippedCycles.
    Cycle bound = reqNextArrival_;
    if (!responses_.empty() && responses_.front().arrival < bound)
        bound = responses_.front().arrival;
    return bound <= now ? now : bound;
}

void
Interconnect::applySkippedCycles(std::uint64_t cycles)
{
    for (InFlightRequest &entry : requests_) {
        if (entry.block != RetryBlock::L2)
            continue;
        MemoryPartition *partition =
            partitions_[partitionOf(entry.req.lineAddr)];
        // Mirror of tick()'s L2-blocked path: while the DRAM queue has
        // room a real retry charges one id + one L2 access per cycle.
        // When it is full the real engine would flip the entry to
        // BlockedDram (zero charge) on the next attempt; leaving it as
        // BlockedL2 here is equivalent because both states converge at
        // the partition's wake cycle, which ends the skip anyway.
        if (partition->dramCanAccept())
            partition->chargeSkippedReadRetries(cycles);
    }
}

void
Interconnect::audit(Cycle now) const
{
    StateDumpScope dump([this] { return debugString(); });

    // The per-SM in-flight counter tracks exactly the requests still
    // queued in the crossbar (delivery to a partition decrements it).
    std::vector<std::uint32_t> queued(inFlightPerSm_.size(), 0);
    for (const InFlightRequest &entry : requests_) {
        LB_AUDIT(entry.req.smId < queued.size(),
                 "queued request from out-of-range SM %u", entry.req.smId);
        ++queued[entry.req.smId];
        LB_AUDIT(entry.arrival <= now + cfg_.icntLatency,
                 "queued request arrival %llu too far in the future "
                 "(now %llu, hop %u)",
                 static_cast<unsigned long long>(entry.arrival),
                 static_cast<unsigned long long>(now), cfg_.icntLatency);
        LB_AUDIT(partitions_[partitionOf(entry.req.lineAddr)] != nullptr,
                 "queued request for line %llx targets an unattached "
                 "partition",
                 static_cast<unsigned long long>(entry.req.lineAddr));
    }
    for (std::size_t sm = 0; sm < inFlightPerSm_.size(); ++sm) {
        LB_AUDIT(inFlightPerSm_[sm] == queued[sm],
                 "SM %zu in-flight counter %u != %u queued requests",
                 sm, inFlightPerSm_[sm], queued[sm]);
        LB_AUDIT(inFlightPerSm_[sm] <= maxInFlightPerSm_,
                 "SM %zu in-flight counter %u exceeds cap %u", sm,
                 inFlightPerSm_[sm], maxInFlightPerSm_);
    }
    // Park summaries must mirror the queue's retry-skip cache exactly:
    // tick()'s fast path trusts them to decide whether a sweep (and
    // the per-cycle L2 retry charge) can be elided.
    std::uint32_t parked = 0;
    std::vector<PartitionPark> expect(parks_.size());
    for (const InFlightRequest &entry : requests_) {
        if (entry.block == RetryBlock::None)
            continue;
        ++parked;
        PartitionPark &park = expect[partitionOf(entry.req.lineAddr)];
        if (entry.block == RetryBlock::Dram) {
            ++park.dram;
            park.dramEpoch = entry.blockEpoch;
        } else {
            ++park.l2;
            park.l2Epoch = entry.blockEpoch;
        }
    }
    LB_AUDIT(parked == parkedTotal_,
             "parked-entry total %u disagrees with %u cached entries",
             parkedTotal_, parked);
    for (std::size_t p = 0; p < parks_.size(); ++p) {
        LB_AUDIT(parks_[p].dram == expect[p].dram &&
                     parks_[p].l2 == expect[p].l2,
                 "partition %zu park summary (%u dram, %u l2) disagrees "
                 "with queue (%u dram, %u l2)",
                 p, parks_[p].dram, parks_[p].l2, expect[p].dram,
                 expect[p].l2);
        LB_AUDIT(parks_[p].dram == 0 ||
                     parks_[p].dramEpoch == expect[p].dramEpoch,
                 "partition %zu dram park epoch %llu disagrees with "
                 "queue epoch %llu",
                 p, static_cast<unsigned long long>(parks_[p].dramEpoch),
                 static_cast<unsigned long long>(expect[p].dramEpoch));
        LB_AUDIT(parks_[p].l2 == 0 ||
                     parks_[p].l2Epoch == expect[p].l2Epoch,
                 "partition %zu l2 park epoch %llu disagrees with "
                 "queue epoch %llu",
                 p, static_cast<unsigned long long>(parks_[p].l2Epoch),
                 static_cast<unsigned long long>(expect[p].l2Epoch));
    }
    for (const InFlightResponse &entry : responses_) {
        LB_AUDIT(entry.resp.smId < sinks_.size() &&
                     sinks_[entry.resp.smId] != nullptr,
                 "queued response for SM %u with no attached sink",
                 entry.resp.smId);
        LB_AUDIT(needsResponse(entry.resp.kind),
                 "queued response of a kind that never responds (%d)",
                 static_cast<int>(entry.resp.kind));
    }
    ledger_.audit(now);
}

void
Interconnect::auditDrained() const
{
    StateDumpScope dump([this] { return debugString(); });
    LB_AUDIT(requests_.empty(),
             "%zu requests still queued after the grid drained",
             requests_.size());
    LB_AUDIT(responses_.empty(),
             "%zu responses still queued after the grid drained",
             responses_.size());
    ledger_.auditDrained();
}

std::string
Interconnect::debugString() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "Interconnect: %zu queued requests, %zu queued "
                  "responses, cap %u/SM\n",
                  requests_.size(), responses_.size(), maxInFlightPerSm_);
    std::string out = buf;
    for (std::size_t sm = 0; sm < inFlightPerSm_.size(); ++sm) {
        if (inFlightPerSm_[sm] == 0)
            continue;
        std::snprintf(buf, sizeof(buf), "sm=%zu inFlight=%u\n", sm,
                      inFlightPerSm_[sm]);
        out += buf;
    }
    out += ledger_.debugString();
    return out;
}

} // namespace lbsim
