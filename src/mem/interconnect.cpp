#include "mem/interconnect.hpp"

#include <algorithm>
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
      sinks_(cfg.numSms, nullptr), queues_(cfg.numMemPartitions),
      maxInFlightPerSm_(cfg.l1MshrEntries + cfg.dramQueueDepth),
      inFlightPerSm_(cfg.numSms, 0),
      retrySkip_(fi == nullptr || !fi->armed()), ledger_(cfg.numSms)
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
    std::vector<InFlightRequest> &entries =
        queues_[partitionOf(req.lineAddr)].entries;
    const Cycle arrival = now + cfg_.icntLatency;
    LB_ASSERT(entries.empty() || entries.back().arrival <= arrival,
              "request sent at cycle %llu arrives before one already "
              "queued for its partition",
              static_cast<unsigned long long>(now));
    ledger_.onIssue(req, now);
    ++inFlightPerSm_[req.smId];
    entries.push_back({nextSeq_++, arrival, req});
}

void
Interconnect::sendResponse(const MemResponse &resp, Cycle now)
{
    LB_ASSERT(resp.smId < sinks_.size(),
              "response for out-of-range SM %u", resp.smId);
    if (sweeping_)
        sweepResponses_.push_back({deliverSeq_, resp, now});
    else
        pushResponse(resp, now);
}

void
Interconnect::pushResponse(const MemResponse &resp, Cycle now)
{
    const Cycle extra = fi_ ? fi_->icntResponseDelay(now) : 0;
    if (fi_ && fi_->icntReorderActive(now))
        responses_.push_front({now + cfg_.icntLatency + extra, resp});
    else
        responses_.push_back({now + cfg_.icntLatency + extra, resp});
}

void
Interconnect::tick(Cycle now)
{
    // Deliver requests whose hop latency elapsed, one partition queue at
    // a time (sweepPartition). Requests for different partitions touch
    // disjoint partition state, and their shared effects (counters, the
    // ledger's per-SM retire counts) commute — except L2-hit responses,
    // which all enter responses_. Those are buffered with the seq of the
    // request that produced them and pushed in send order afterwards,
    // which is the order a single send-ordered walk would have produced.
    sweeping_ = true;
    for (std::uint32_t p = 0; p < queues_.size(); ++p)
        sweepPartition(p, now);
    sweeping_ = false;
    if (!sweepResponses_.empty()) {
        // Seqs are unique, so a plain sort is already stable (and,
        // unlike std::stable_sort, allocates nothing).
        std::sort(sweepResponses_.begin(), sweepResponses_.end(),
                  [](const SweepResponse &a, const SweepResponse &b) {
                      return a.seq < b.seq;
                  });
        for (const SweepResponse &sent : sweepResponses_)
            pushResponse(sent.resp, sent.now);
        sweepResponses_.clear();
    }

    while (!responses_.empty() && responses_.front().arrival <= now) {
        const MemResponse resp = responses_.front().resp;
        responses_.pop_front();
        ledger_.onRetire(resp.smId, resp.kind, now);
        if (ResponseSinkIf *sink = sinks_[resp.smId])
            sink->onResponse(resp, now);
    }
}

void
Interconnect::sweepPartition(std::uint32_t p, Cycle now)
{
    // The retry-skip cache makes the stalled-retry storm cheap: once a
    // request bounced, re-presenting it to the partition is pure
    // overhead until the partition's state actually moved (DRAM queue
    // drained a slot, or an L2 fill freed MSHR space). The DRAM door
    // and the L2 fill epoch tell us exactly that, and the charge hook
    // replays the counters a real bounce would have touched, so the
    // skip is invisible in every statistic and in the read-id sequence.
    PartitionQueue &queue = queues_[p];
    std::vector<InFlightRequest> &entries = queue.entries;
    const std::size_t n = entries.size();
    const bool arrivals =
        queue.parked < n && entries[queue.parked].arrival <= now;
    if (queue.parked == 0 && !arrivals)
        return;
    MemoryPartition *partition = partitions_[p];
    const std::uint64_t l2_epoch = partition->l2Epoch();

    if (!partition->dramCanAccept()) {
        // Door shut: deliver() would bounce every request at its first
        // check, before any counter or fault hook, so nothing is
        // attempted. L2 parks become DRAM parks, exactly what a real
        // retry would do, and arrivals park (or, with an armed
        // injector, stay unparked and retry next tick).
        for (std::uint32_t i = 0; i < queue.parked; ++i)
            entries[i].block = RetryBlock::Dram;
        queue.l2Parked = 0;
        if (retrySkip_) {
            for (std::size_t i = queue.parked;
                 i < n && entries[i].arrival <= now; ++i) {
                entries[i].block = RetryBlock::Dram;
                ++queue.parked;
            }
        }
        queue.l2Epoch = l2_epoch;
        return;
    }

    // The door is open. DRAM parks bounced off a full queue, which only
    // a DRAM issue shrinks, so every DRAM park has a free slot to try.
    const bool dram_parks = queue.parked != queue.l2Parked;
    const bool l2_moved = queue.l2Parked != 0 && l2_epoch != queue.l2Epoch;
    queue.l2Epoch = l2_epoch;
    std::size_t from = queue.parked;
    if (!dram_parks && !l2_moved) {
        // No parked entry can act: each L2 park would stall again and
        // charge one access + one read id. Replay those charges in
        // bulk — the parked prefix precedes every arrival, so the read
        // ids still go out in send order — then attempt only the new
        // arrivals.
        if (queue.l2Parked != 0)
            partition->chargeSkippedReadRetries(queue.l2Parked);
        if (!arrivals)
            return;
    } else {
        from = 0;
        queue.parked = 0;
        queue.l2Parked = 0;
    }

    // Retries the wake rule stalled, charged in one batch before the
    // next delivery so read ids still go out in send order.
    std::uint64_t charges = 0;
    std::size_t kept = from;
    std::size_t i = from;
    for (; i < n; ++i) {
        InFlightRequest &entry = entries[i];
        if (entry.arrival > now)
            break;
        if (!partition->dramCanAccept()) {
            // A miss earlier in this walk filled the DRAM queue; the
            // attempt would bounce with zero side effects.
            if (retrySkip_) {
                entry.block = RetryBlock::Dram;
                ++queue.parked;
            }
        } else if (entry.block == RetryBlock::L2 &&
                   partition->readStallCertain(entry.req.lineAddr)) {
            // The L2 wake rule says the retry would stall again:
            // replay its charge without presenting it.
            ++charges;
            ++queue.parked;
            ++queue.l2Parked;
        } else {
            if (charges != 0) {
                partition->chargeSkippedReadRetries(charges);
                charges = 0;
            }
            deliverSeq_ = entry.seq;
            const DeliverResult result =
                partition->deliver(entry.req, now);
            if (result == DeliverResult::Accepted) {
                --inFlightPerSm_[entry.req.smId];
                // Writes have no response; hand-off to the partition is
                // their terminal event in the request-lifetime ledger.
                if (!needsResponse(entry.req.kind))
                    ledger_.onRetire(entry.req.smId, entry.req.kind, now);
                continue;
            }
            if (retrySkip_) {
                const bool l2 = result == DeliverResult::BlockedL2;
                entry.block = l2 ? RetryBlock::L2 : RetryBlock::Dram;
                ++queue.parked;
                queue.l2Parked += l2 ? 1 : 0;
            }
        }
        if (kept != i)
            entries[kept] = entry;
        ++kept;
    }
    if (charges != 0)
        partition->chargeSkippedReadRetries(charges);
    if (kept != i) {
        std::move(entries.begin() + static_cast<std::ptrdiff_t>(i),
                  entries.end(),
                  entries.begin() + static_cast<std::ptrdiff_t>(kept));
        entries.resize(kept + (n - i));
    }
}

Cycle
Interconnect::nextEventCycle(Cycle now) const
{
    if (!retrySkip_)
        return now; // Armed injector: every attempt must really happen.
    // Every sweep leaves each queue as a parked prefix followed by
    // entries still crossing, in arrival order, and enqueues only
    // append later arrivals. So the first unparked entry of each queue
    // bounds everything not yet attempted. Parked retries impose no
    // bound of their own; the per-cycle L2 retry charge is replayed by
    // applySkippedCycles.
    Cycle bound = kNoCycle;
    for (const PartitionQueue &queue : queues_) {
        if (queue.parked < queue.entries.size() &&
            queue.entries[queue.parked].arrival < bound)
            bound = queue.entries[queue.parked].arrival;
    }
    if (!responses_.empty() && responses_.front().arrival < bound)
        bound = responses_.front().arrival;
    return bound <= now ? now : bound;
}

std::size_t
Interconnect::queuedRequests() const
{
    std::size_t total = 0;
    for (const PartitionQueue &queue : queues_)
        total += queue.entries.size();
    return total;
}

void
Interconnect::applySkippedCycles(std::uint64_t cycles)
{
    for (std::size_t p = 0; p < queues_.size(); ++p) {
        // Mirror of the sweep's bulk path: while the DRAM queue has room
        // each L2 park charges one id + one L2 access per cycle. When it
        // is full the next sweep relabels them as DRAM parks (zero
        // charge); leaving them L2 parks here is equivalent because
        // both states converge at the partition's wake cycle, which
        // ends the skip anyway.
        if (queues_[p].l2Parked != 0 && partitions_[p]->dramCanAccept())
            partitions_[p]->chargeSkippedReadRetries(cycles *
                                                     queues_[p].l2Parked);
    }
}

void
Interconnect::audit(Cycle now) const
{
    StateDumpScope dump([this] { return debugString(); });

    // The per-SM in-flight counter tracks exactly the requests still
    // queued in the crossbar (delivery to a partition decrements it).
    std::vector<std::uint32_t> queued(inFlightPerSm_.size(), 0);
    for (std::size_t p = 0; p < queues_.size(); ++p) {
        const PartitionQueue &queue = queues_[p];
        LB_AUDIT(partitions_[p] != nullptr || queue.entries.empty(),
                 "%zu requests queued for unattached partition %zu",
                 queue.entries.size(), p);
        // sweepPartition trusts the cached counts to find the parked
        // prefix and to bulk-charge the L2 parks without a walk.
        std::uint32_t parked = 0;
        std::uint32_t l2_parked = 0;
        for (std::size_t i = 0; i < queue.entries.size(); ++i) {
            const InFlightRequest &entry = queue.entries[i];
            LB_AUDIT(entry.req.smId < queued.size(),
                     "queued request from out-of-range SM %u",
                     entry.req.smId);
            ++queued[entry.req.smId];
            LB_AUDIT(partitionOf(entry.req.lineAddr) == p,
                     "line %llx queued for partition %zu (owner is %u)",
                     static_cast<unsigned long long>(entry.req.lineAddr),
                     p, partitionOf(entry.req.lineAddr));
            LB_AUDIT(i == 0 || queue.entries[i - 1].seq < entry.seq,
                     "partition %zu queue out of send order at entry %zu "
                     "(seq %llu after %llu)",
                     p, i, static_cast<unsigned long long>(entry.seq),
                     static_cast<unsigned long long>(
                         queue.entries[i - 1].seq));
            LB_AUDIT(entry.arrival <= now + cfg_.icntLatency,
                     "queued request arrival %llu too far in the future "
                     "(now %llu, hop %u)",
                     static_cast<unsigned long long>(entry.arrival),
                     static_cast<unsigned long long>(now),
                     cfg_.icntLatency);
            if (entry.block == RetryBlock::None)
                continue;
            LB_AUDIT(entry.arrival <= now,
                     "partition %zu parked entry %zu has not arrived "
                     "(arrival %llu, now %llu)",
                     p, i, static_cast<unsigned long long>(entry.arrival),
                     static_cast<unsigned long long>(now));
            LB_AUDIT(i == parked,
                     "partition %zu parked entry %zu follows an unparked "
                     "one",
                     p, i);
            ++parked;
            if (entry.block == RetryBlock::L2)
                ++l2_parked;
        }
        LB_AUDIT(parked == queue.parked && l2_parked == queue.l2Parked,
                 "partition %zu park counts (%u parked, %u l2) disagree "
                 "with its queue (%u parked, %u l2)",
                 p, queue.parked, queue.l2Parked, parked, l2_parked);
    }
    for (std::size_t sm = 0; sm < inFlightPerSm_.size(); ++sm) {
        LB_AUDIT(inFlightPerSm_[sm] == queued[sm],
                 "SM %zu in-flight counter %u != %u queued requests",
                 sm, inFlightPerSm_[sm], queued[sm]);
        LB_AUDIT(inFlightPerSm_[sm] <= maxInFlightPerSm_,
                 "SM %zu in-flight counter %u exceeds cap %u", sm,
                 inFlightPerSm_[sm], maxInFlightPerSm_);
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
    LB_AUDIT(queuedRequests() == 0,
             "%zu requests still queued after the grid drained",
             queuedRequests());
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
                  queuedRequests(), responses_.size(), maxInFlightPerSm_);
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
