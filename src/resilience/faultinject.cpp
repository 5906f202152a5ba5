#include "resilience/faultinject.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace lbsim
{

const char *const kFaultPlanMagic = "lbsim-faultplan-v1";

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::IcntDelay:
        return "icnt-delay";
      case FaultKind::IcntReorder:
        return "icnt-reorder";
      case FaultKind::DramStorm:
        return "dram-storm";
      case FaultKind::BackupStall:
        return "backup-stall";
      case FaultKind::VttRevoke:
        return "vtt-revoke";
      case FaultKind::LoadMonitorLie:
        return "lm-lie";
    }
    return "?";
}

bool
parseFaultKind(const std::string &name, FaultKind &out)
{
    for (std::uint32_t k = 0; k < kFaultKindCount; ++k) {
        if (name == faultKindName(static_cast<FaultKind>(k))) {
            out = static_cast<FaultKind>(k);
            return true;
        }
    }
    return false;
}

std::string
FaultPlan::description() const
{
    std::ostringstream out;
    bool first = true;
    for (const FaultEvent &event : events) {
        if (!first)
            out << ';';
        first = false;
        out << faultKindName(event.kind) << '@' << event.start << '+'
            << event.duration << 'x' << event.magnitude;
    }
    return out.str();
}

std::string
serializeFaultEvent(const FaultEvent &event)
{
    std::ostringstream out;
    out << faultKindName(event.kind) << ',' << event.start << ','
        << event.duration << ',' << event.magnitude;
    return out.str();
}

bool
parseFaultEvent(const std::string &value, FaultEvent &out)
{
    std::istringstream fields(value);
    std::string field;
    std::vector<std::string> parts;
    while (std::getline(fields, field, ','))
        parts.push_back(field);
    if (parts.size() != 4)
        return false;

    FaultEvent parsed;
    if (!parseFaultKind(parts[0], parsed.kind))
        return false;
    const auto parseU64 = [](const std::string &text,
                             std::uint64_t &field_out) {
        char *end = nullptr;
        field_out = std::strtoull(text.c_str(), &end, 10);
        return end && *end == '\0' && !text.empty();
    };
    if (!parseU64(parts[1], parsed.start) ||
        !parseU64(parts[2], parsed.duration) ||
        !parseU64(parts[3], parsed.magnitude)) {
        return false;
    }
    out = parsed;
    return true;
}

std::string
serializeFaultPlan(const FaultPlan &plan)
{
    std::ostringstream out;
    out << kFaultPlanMagic << '\n';
    for (const FaultEvent &event : plan.events)
        out << "fault=" << serializeFaultEvent(event) << '\n';
    return out.str();
}

bool
parseFaultPlan(const std::string &text, FaultPlan &out,
               std::string &error_out)
{
    FaultPlan parsed;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        if (line == kFaultPlanMagic)
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos || line.substr(0, eq) != "fault") {
            error_out = "line " + std::to_string(line_no) +
                        ": expected fault=kind,start,duration,magnitude";
            return false;
        }
        FaultEvent event;
        if (!parseFaultEvent(line.substr(eq + 1), event)) {
            error_out = "line " + std::to_string(line_no) +
                        ": bad fault event '" + line.substr(eq + 1) + "'";
            return false;
        }
        parsed.events.push_back(event);
    }
    out = std::move(parsed);
    return true;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), consumed_(plan_.events.size(), 0)
{
}

bool
FaultInjector::windowActive(FaultKind kind, Cycle now,
                            std::uint64_t *magnitude_sum)
{
    bool active = false;
    for (const FaultEvent &event : plan_.events) {
        if (event.kind != kind)
            continue;
        if (now < event.start || now >= event.start + event.duration)
            continue;
        active = true;
        if (magnitude_sum)
            *magnitude_sum += event.magnitude;
    }
    if (active)
        ++fired_[static_cast<std::uint32_t>(kind)];
    return active;
}

Cycle
FaultInjector::icntResponseDelay(Cycle now)
{
    if (plan_.events.empty())
        return 0;
    std::uint64_t extra = 0;
    windowActive(FaultKind::IcntDelay, now, &extra);
    return extra;
}

bool
FaultInjector::icntReorderActive(Cycle now)
{
    if (plan_.events.empty())
        return false;
    return windowActive(FaultKind::IcntReorder, now, nullptr);
}

Cycle
FaultInjector::dramStormDelay(Cycle now)
{
    if (plan_.events.empty())
        return 0;
    std::uint64_t extra = 0;
    windowActive(FaultKind::DramStorm, now, &extra);
    return extra;
}

bool
FaultInjector::backupStallActive(Cycle now)
{
    if (plan_.events.empty())
        return false;
    return windowActive(FaultKind::BackupStall, now, nullptr);
}

bool
FaultInjector::takeVttRevoke(Cycle now, std::uint32_t sm_id)
{
    for (std::size_t i = 0; i < plan_.events.size(); ++i) {
        const FaultEvent &event = plan_.events[i];
        if (event.kind != FaultKind::VttRevoke ||
            event.magnitude != sm_id) {
            continue;
        }
        if (consumed_[i])
            continue;
        if (now < event.start || now >= event.start + event.duration)
            continue;
        consumed_[i] = 1;
        ++fired_[static_cast<std::uint32_t>(FaultKind::VttRevoke)];
        return true;
    }
    return false;
}

bool
FaultInjector::loadMonitorLieActive(Cycle now)
{
    if (plan_.events.empty())
        return false;
    return windowActive(FaultKind::LoadMonitorLie, now, nullptr);
}

std::uint64_t
FaultInjector::totalFired() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t count : fired_)
        total += count;
    return total;
}

std::string
FaultInjector::summary() const
{
    std::string out;
    char buf[96];
    for (std::uint32_t k = 0; k < kFaultKindCount; ++k) {
        const std::uint64_t count = fired_[k];
        if (count == 0)
            continue;
        std::snprintf(buf, sizeof(buf), "%s fired %llu times\n",
                      faultKindName(static_cast<FaultKind>(k)),
                      static_cast<unsigned long long>(count));
        out += buf;
    }
    return out;
}

} // namespace lbsim
