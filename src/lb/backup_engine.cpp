#include "lb/backup_engine.hpp"

#include <cstdio>
#include <map>

#include "common/det.hpp"

#include "common/check.hpp"
#include "common/log.hpp"
#include "core/sm.hpp"
#include "resilience/faultinject.hpp"

namespace lbsim
{

BackupEngine::BackupEngine(const GpuConfig &gpu, const LbConfig &lb,
                           Sm *sm, SimStats *stats)
    : gpu_(gpu), lb_(lb), sm_(sm), stats_(stats)
{
}

bool
BackupEngine::busy() const
{
    if (!pendingLines_.empty() || !buffer_.empty() ||
        !pendingRestores_.empty()) {
        return true;
    }
    // Order-insensitive any-of; no state, stats, or output derive from
    // the walk, so unordered iteration is deterministic here.
    for (const auto &[cta, job] : jobs_) {
        if (!job.done())
            return true;
    }
    return false;
}

void
BackupEngine::startBackup(std::uint32_t cta_hw_id, RegNum first_reg,
                          std::uint32_t num_regs, Addr backup_addr,
                          Cycle now)
{
    (void)now;
    Job job;
    job.linesTotal = num_regs;
    job.isBackup = true;
    jobs_[cta_hw_id] = job;
    for (std::uint32_t i = 0; i < num_regs; ++i) {
        pendingLines_.push_back({cta_hw_id, first_reg + i,
                                 backup_addr + static_cast<Addr>(i) *
                                     kLineBytes,
                                 true});
    }
}

void
BackupEngine::startRestore(std::uint32_t cta_hw_id, RegNum first_reg,
                           std::uint32_t num_regs, Addr backup_addr,
                           Cycle now)
{
    (void)now;
    Job job;
    job.linesTotal = num_regs;
    job.isBackup = false;
    jobs_[cta_hw_id] = job;
    for (std::uint32_t i = 0; i < num_regs; ++i) {
        pendingLines_.push_back({cta_hw_id, first_reg + i,
                                 backup_addr + static_cast<Addr>(i) *
                                     kLineBytes,
                                 false});
    }
}

bool
BackupEngine::backupComplete(std::uint32_t cta_hw_id) const
{
    const auto it = jobs_.find(cta_hw_id);
    return it != jobs_.end() && it->second.isBackup && it->second.done();
}

bool
BackupEngine::restoreComplete(std::uint32_t cta_hw_id) const
{
    const auto it = jobs_.find(cta_hw_id);
    return it != jobs_.end() && !it->second.isBackup && it->second.done();
}

void
BackupEngine::clearJob(std::uint32_t cta_hw_id)
{
    jobs_.erase(cta_hw_id);
}

void
BackupEngine::tick(Cycle now)
{
    // An injected staging-buffer stall freezes both the fill and drain
    // stages for the cycle; in-flight state is untouched, so the
    // transfer resumes exactly where it stopped once the window closes.
    if (FaultInjector *fi = sm_->faultInjector();
        fi && fi->backupStallActive(now)) {
        return;
    }

    // Fill staging-buffer slots: one register per cycle moves between the
    // register file and the buffer (charging the RF bank).
    if (!pendingLines_.empty() &&
        buffer_.size() < lb_.backupBufferEntries) {
        Transfer transfer = pendingLines_.front();
        pendingLines_.pop_front();
        sm_->regFile().accessRegister(transfer.reg, !transfer.isBackup,
                                      now);
        buffer_.push_back(transfer);
    }

    // Drain one buffer entry per cycle toward the interconnect.
    if (!buffer_.empty() &&
        sm_->interconnect().canAcceptRequest(sm_->id())) {
        const Transfer transfer = buffer_.front();
        buffer_.pop_front();

        MemRequest req;
        req.lineAddr = transfer.memAddr;
        req.kind = transfer.isBackup ? RequestKind::RegBackup
                                     : RequestKind::RegRestore;
        req.smId = sm_->id();
        req.bypassL2 = true;
        req.issued = now;
        sm_->interconnect().sendRequest(req, now);

        if (transfer.isBackup) {
            // Writes complete silently; count the line as backed up when
            // it leaves the staging buffer.
            auto it = jobs_.find(transfer.ctaHwId);
            if (it != jobs_.end())
                ++it->second.linesDone;
        } else {
            pendingRestores_[transfer.memAddr] = transfer.ctaHwId;
        }
    }
}

void
BackupEngine::onResponse(const MemResponse &response, Cycle now)
{
    (void)now;
    auto it = pendingRestores_.find(response.lineAddr);
    if (it == pendingRestores_.end())
        panic("restore response for unknown address");
    auto job = jobs_.find(it->second);
    if (job == jobs_.end())
        panic("restore response for unknown job");
    ++job->second.linesDone;
    pendingRestores_.erase(it);
}

void
BackupEngine::audit(Cycle now) const
{
    (void)now;
    StateDumpScope dump([this] { return debugString(); });

    LB_AUDIT(buffer_.size() <= lb_.backupBufferEntries,
             "staging buffer holds %zu entries, capacity is %u",
             buffer_.size(), lb_.backupBufferEntries);

    // Count where every job's lines currently sit. The accumulator is
    // an ordered map and the unordered tables are walked through
    // sortedKeys() so a failing audit always reports the same line.
    std::map<std::uint32_t, std::uint32_t> in_flight;
    for (const Transfer &transfer : pendingLines_)
        ++in_flight[transfer.ctaHwId];
    for (const Transfer &transfer : buffer_)
        ++in_flight[transfer.ctaHwId];
    for (const Addr addr : sortedKeys(pendingRestores_)) {
        const std::uint32_t cta = pendingRestores_.at(addr);
        ++in_flight[cta];
        const auto it = jobs_.find(cta);
        LB_AUDIT(it != jobs_.end() && !it->second.isBackup,
                 "outstanding restore for address %llx names CTA %u "
                 "which has no restore job",
                 static_cast<unsigned long long>(addr), cta);
    }

    for (const std::uint32_t cta : sortedKeys(jobs_)) {
        const Job &job = jobs_.at(cta);
        LB_AUDIT(job.linesDone <= job.linesTotal,
                 "CTA %u job finished %u of %u lines", cta, job.linesDone,
                 job.linesTotal);
        const std::uint32_t pending =
            in_flight.count(cta) ? in_flight.at(cta) : 0;
        LB_AUDIT(job.linesDone + pending == job.linesTotal,
                 "CTA %u %s job lost a register line: %u done + %u in "
                 "flight != %u total",
                 cta, job.isBackup ? "backup" : "restore", job.linesDone,
                 pending, job.linesTotal);
    }

    // Queued lines with no job would leak staging-buffer slots forever.
    for (const auto &[cta, count] : in_flight) {
        LB_AUDIT(jobs_.count(cta) != 0,
                 "%u in-flight register lines belong to CTA %u which has "
                 "no job",
                 count, cta);
    }
}

std::string
BackupEngine::debugString() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "BackupEngine: %zu queued, %zu/%u buffered, %zu "
                  "restores outstanding\n",
                  pendingLines_.size(), buffer_.size(),
                  lb_.backupBufferEntries, pendingRestores_.size());
    std::string out = buf;
    for (const std::uint32_t cta : sortedKeys(jobs_)) {
        const Job &job = jobs_.at(cta);
        std::snprintf(buf, sizeof(buf), "cta=%u %s %u/%u lines\n", cta,
                      job.isBackup ? "backup" : "restore", job.linesDone,
                      job.linesTotal);
        out += buf;
    }
    return out;
}

void
BackupEngine::tamperJobForTest(std::uint32_t cta_hw_id,
                               std::uint32_t delta)
{
    jobs_[cta_hw_id].linesTotal += delta;
}

} // namespace lbsim
