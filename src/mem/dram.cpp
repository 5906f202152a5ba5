#include "mem/dram.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace lbsim
{

DramChannel::DramChannel(const GpuConfig &cfg, std::uint32_t channel_id,
                         SimStats *stats)
    : cfg_(cfg), stats_(stats), openRow_(kBanks, 0),
      rowValid_(kBanks, false), bankBusy_(kBanks, 0),
      bankActivate_(kBanks, 0)
{
    (void)channel_id;
    const double per_channel_bytes_per_cycle =
        cfg.dramBytesPerCycle() / cfg.numMemPartitions;
    busCyclesPerLine_ = kLineBytes / per_channel_bytes_per_cycle;
}

std::uint32_t
DramChannel::bankOf(Addr line_addr) const
{
    // XOR-hashed bank index: consecutive rows spread pseudo-randomly
    // across banks (real controllers fold upper address bits into the
    // bank bits to avoid hot banks under strided streams).
    return static_cast<std::uint32_t>(
        hashMix(lineIndex(line_addr) / kRowLines) % kBanks);
}

std::uint64_t
DramChannel::rowOf(Addr line_addr) const
{
    // One 2 KB row chunk per row id; the bank's open row tracks it.
    return lineIndex(line_addr) / kRowLines;
}

void
DramChannel::enqueue(const DramCommand &cmd, Cycle now, Cycle available)
{
    DramCommand queued = cmd;
    queued.enqueued = now;
    queued.available = std::max(now, available);
    queue_.push_back(queued);
    // A new command may beat the cached idle bound (even conservatively
    // when it lands beyond the lookahead window — that only costs a
    // scan).
    if (queued.available < issueReadyAt_)
        issueReadyAt_ = queued.available;
}

void
DramChannel::tick(Cycle now)
{
    // Issue a burst of commands per core cycle so bank activations
    // overlap: while one bank precharges/activates, other banks' commands
    // can be scheduled. The last burst slot prefers a row miss so the
    // next row's activation overlaps the current row's data bursts
    // (bank-level parallelism across row boundaries). Scheduling depth is
    // bounded so FR-FCFS picks see reasonably current row state.
    if (now < issueReadyAt_)
        return; // Nothing in the window is serviceable yet.
    for (std::uint32_t burst = 0; burst < kIssuesPerCycle; ++burst) {
        if (queue_.empty() || scheduled_ >= kMaxScheduled)
            return;
        if (!issueOne(now, burst + 1 == kIssuesPerCycle))
            return; // Availability is time-driven: later bursts see
                    // the same window and would scan for nothing.
    }
}

bool
DramChannel::issueOne(Cycle now, bool prefer_miss)
{
    // FR-FCFS-lite among available commands: prefer a row-hit within the
    // lookahead window (or, in the activation slot, the oldest row
    // miss), else the oldest available command.
    std::size_t pick = queue_.size();
    const std::size_t window = std::min<std::size_t>(kLookahead,
                                                     queue_.size());
    Cycle window_ready = kNoCycle;
    for (std::size_t i = 0; i < window; ++i) {
        if (queue_[i].available > now) {
            if (queue_[i].available < window_ready)
                window_ready = queue_[i].available;
            continue;
        }
        if (pick == queue_.size())
            pick = i; // Oldest available fallback.
        const std::uint32_t bank = bankOf(queue_[i].lineAddr);
        const bool hit = rowValid_[bank] &&
            openRow_[bank] == rowOf(queue_[i].lineAddr);
        if (hit != prefer_miss) {
            pick = i;
            break;
        }
    }
    if (pick == queue_.size()) {
        // Nothing available yet; the window can only change through a
        // future availability (its exact min, computed above) or an
        // enqueue (which lowers the bound again).
        issueReadyAt_ = window_ready;
        return false;
    }

    const DramCommand cmd = queue_[pick];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
    ++freeEpoch_;
    issueReadyAt_ = 0; // The erase shifted the lookahead window.

    const std::uint32_t bank = bankOf(cmd.lineAddr);
    const bool row_hit = rowValid_[bank] && openRow_[bank] ==
        rowOf(cmd.lineAddr);

    const DramTiming &t = cfg_.dramTiming;
    // Row miss pays precharge + activate in its bank; banks overlap
    // activations, so only the data transfer occupies the channel bus.
    const Cycle array_latency = row_hit
        ? t.cl
        : t.rp + t.rcd + t.cl + (cmd.isWrite ? t.wr : 0);

    // Bank timing: a row hit waits only for the bank's column pipeline;
    // a row miss additionally waits for the activate-to-activate window
    // (tRC) of the previous activation in this bank.
    const double now_d = static_cast<double>(now);
    const double bank_start = row_hit
        ? std::max(now_d, bankBusy_[bank])
        : std::max({now_d, bankBusy_[bank],
                    static_cast<double>(bankActivate_[bank])});
    // Fractional bus accounting: occupancy per line can be well under a
    // cycle on fast channels, and rounding it up would silently shave
    // bandwidth.
    const double data_ready = bank_start + array_latency;
    const double bus_start = std::max(data_ready, busFree_);
    busFree_ = bus_start + busCyclesPerLine_;
    const Cycle done =
        static_cast<Cycle>(std::ceil(bus_start + busCyclesPerLine_));
    // Column accesses to an open row pipeline at the data-bus rate (the
    // CAS latency is pipeline depth, not occupancy). After an
    // activation the bank serves reads once the row is open (tRP+tRCD),
    // and the next activation waits out tRC.
    if (row_hit) {
        bankBusy_[bank] = bank_start + busCyclesPerLine_;
    } else {
        bankBusy_[bank] = bank_start + t.rp + t.rcd;
        bankActivate_[bank] =
            static_cast<Cycle>(bank_start) + t.rc;
    }

    rowValid_[bank] = true;
    openRow_[bank] = rowOf(cmd.lineAddr);

    if (row_hit)
        ++stats_->dramRowHits;
    else
        ++stats_->dramRowMisses;

    switch (cmd.kind) {
      case RequestKind::DataRead:
        ++stats_->dramReads;
        break;
      case RequestKind::DataWrite:
        ++stats_->dramWrites;
        break;
      case RequestKind::RegBackup:
        ++stats_->dramBackupWrites;
        break;
      case RequestKind::RegRestore:
        ++stats_->dramRestoreReads;
        break;
    }

    completed_.push_back({cmd, done});
    if (done < minDone_)
        minDone_ = done;
    ++scheduled_;
    return true;
}

void
DramChannel::drainCompleted(Cycle now, std::vector<DramCompletion> &out)
{
    if (now < minDone_)
        return; // Exact min: nothing can have finished yet.
    // Completions were issued in service order but may finish out of
    // order only when latencies differ; the skew is small, so a stable
    // scan keeps things simple. The scan doubles as the minDone_
    // recomputation over the retained entries.
    Cycle min_done = kNoCycle;
    auto it = completed_.begin();
    while (it != completed_.end()) {
        if (it->done <= now) {
            out.push_back(*it);
            it = completed_.erase(it);
            --scheduled_;
        } else {
            if (it->done < min_done)
                min_done = it->done;
            ++it;
        }
    }
    minDone_ = min_done;
}

Cycle
DramChannel::nextEventCycle(Cycle now) const
{
    Cycle bound = kNoCycle;
    // A queued command acts at max(issueReadyAt_, now) — provided a
    // scheduled_ slot is free. issueReadyAt_ is a conservative lower
    // bound on window availability (stale-low at worst), so the result
    // never overshoots the real event. When every slot is taken the
    // queue can only move after a completion drains, which the
    // completion bound below covers (the freed slot is visible to the
    // next tick).
    if (scheduled_ < kMaxScheduled && !queue_.empty())
        bound = issueReadyAt_ > now ? issueReadyAt_ : now;
    if (minDone_ < bound)
        bound = minDone_;
    return bound;
}

} // namespace lbsim
