/**
 * @file
 * Unit tests for the interconnect: routing, latency, backpressure.
 */

#include <gtest/gtest.h>

#include <memory>

#include "mem/interconnect.hpp"
#include "mem/memory_partition.hpp"

namespace lbsim
{
namespace
{

class CountingSink : public ResponseSinkIf
{
  public:
    void
    onResponse(const MemResponse &response, Cycle now) override
    {
        responses.push_back({response, now});
    }
    std::vector<std::pair<MemResponse, Cycle>> responses;
};

struct IcntFixture : ::testing::Test
{
    IcntFixture()
    {
        cfg.numSms = 2;
        cfg.numMemPartitions = 2;
        icnt = std::make_unique<Interconnect>(cfg, &stats);
        for (std::uint32_t p = 0; p < cfg.numMemPartitions; ++p) {
            partitions.push_back(std::make_unique<MemoryPartition>(
                cfg, p, icnt.get(), &stats));
            icnt->attachPartition(p, partitions.back().get());
        }
        icnt->attachSm(0, &sink0);
        icnt->attachSm(1, &sink1);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            for (auto &p : partitions)
                p->tick(now);
            icnt->tick(now);
            ++now;
        }
    }

    GpuConfig cfg;
    SimStats stats;
    std::unique_ptr<Interconnect> icnt;
    std::vector<std::unique_ptr<MemoryPartition>> partitions;
    CountingSink sink0;
    CountingSink sink1;
    Cycle now = 0;
};

TEST_F(IcntFixture, PartitionRoutingByLineIndex)
{
    EXPECT_EQ(icnt->partitionOf(0), 0u);
    EXPECT_EQ(icnt->partitionOf(kLineBytes), 1u);
    EXPECT_EQ(icnt->partitionOf(2 * kLineBytes), 0u);
}

TEST_F(IcntFixture, ResponseReturnsToRequestingSm)
{
    MemRequest req;
    req.lineAddr = kLineBytes; // Partition 1.
    req.kind = RequestKind::DataRead;
    req.smId = 1;
    icnt->sendRequest(req, now);
    run(3000);
    EXPECT_TRUE(sink0.responses.empty());
    ASSERT_EQ(sink1.responses.size(), 1u);
    EXPECT_EQ(sink1.responses[0].first.lineAddr, kLineBytes);
}

TEST_F(IcntFixture, HopLatencyApplied)
{
    MemRequest req;
    req.lineAddr = 0;
    req.kind = RequestKind::DataRead;
    req.smId = 0;
    icnt->sendRequest(req, now);
    run(3000);
    ASSERT_EQ(sink0.responses.size(), 1u);
    // Round trip includes two interconnect hops plus memory service.
    EXPECT_GE(sink0.responses[0].second, 2 * cfg.icntLatency);
}

TEST_F(IcntFixture, SendIsQueuedAndCountedAtOnce)
{
    // Requests enter the crossbar queue the moment they are sent: the
    // same-cycle backpressure check, quiescence and the in-flight audit
    // all see them before any tick.
    ASSERT_TRUE(icnt->quiescent());
    MemRequest req;
    req.lineAddr = 0;
    req.kind = RequestKind::DataWrite;
    req.smId = 0;
    icnt->sendRequest(req, now);
    req.smId = 1;
    req.lineAddr = kLineBytes;
    icnt->sendRequest(req, now);
    EXPECT_FALSE(icnt->quiescent());
    icnt->audit(now);
    run(5000);
    EXPECT_TRUE(icnt->quiescent());
    icnt->audit(now);
}

TEST_F(IcntFixture, BackpressureReflectsInFlightCap)
{
    // Saturate SM 0's in-flight budget with writes to one partition.
    MemRequest req;
    req.lineAddr = 0;
    req.kind = RequestKind::DataWrite;
    req.smId = 0;
    std::uint32_t sent = 0;
    while (icnt->canAcceptRequest(0) && sent < 100000) {
        icnt->sendRequest(req, now);
        ++sent;
    }
    EXPECT_FALSE(icnt->canAcceptRequest(0));
    EXPECT_GT(sent, 0u);
    // The other SM has its own budget.
    EXPECT_TRUE(icnt->canAcceptRequest(1));
    // Draining restores acceptance.
    run(5000);
    EXPECT_TRUE(icnt->canAcceptRequest(0));
}

TEST_F(IcntFixture, ManyRequestsAllAnswered)
{
    for (std::uint32_t i = 0; i < 64; ++i) {
        MemRequest req;
        req.lineAddr = static_cast<Addr>(i) * kLineBytes;
        req.kind = RequestKind::DataRead;
        req.smId = i % 2;
        while (!icnt->canAcceptRequest(req.smId))
            run(10);
        icnt->sendRequest(req, now);
    }
    run(20000);
    EXPECT_EQ(sink0.responses.size() + sink1.responses.size(), 64u);
}

} // namespace
} // namespace lbsim
