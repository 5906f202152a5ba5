/**
 * @file
 * Unit tests for the L2 slice and memory partition.
 */

#include <gtest/gtest.h>

#include <memory>

#include "mem/interconnect.hpp"
#include "mem/l2_cache.hpp"
#include "mem/memory_partition.hpp"

namespace lbsim
{
namespace
{

TEST(L2Slice, MissThenFillThenHit)
{
    GpuConfig cfg;
    SimStats stats;
    L2Slice slice(cfg, 0, &stats);
    EXPECT_EQ(slice.accessRead(0, 1, 10), L2Outcome::Miss);
    std::vector<std::uint64_t> waiters;
    slice.fill(0, 20, waiters);
    ASSERT_EQ(waiters.size(), 1u);
    EXPECT_EQ(waiters[0], 1u);
    EXPECT_EQ(slice.accessRead(0, 2, 30), L2Outcome::Hit);
    EXPECT_EQ(stats.l2Hits, 1u);
}

TEST(L2Slice, ConcurrentMissesMerge)
{
    GpuConfig cfg;
    SimStats stats;
    L2Slice slice(cfg, 0, &stats);
    EXPECT_EQ(slice.accessRead(0, 1, 10), L2Outcome::Miss);
    EXPECT_EQ(slice.accessRead(0, 2, 11), L2Outcome::Merged);
    std::vector<std::uint64_t> waiters;
    slice.fill(0, 20, waiters);
    EXPECT_EQ(waiters.size(), 2u);
}

TEST(L2Slice, WriteNoAllocate)
{
    GpuConfig cfg;
    SimStats stats;
    L2Slice slice(cfg, 0, &stats);
    slice.accessWrite(0, 10);
    EXPECT_EQ(slice.accessRead(0, 1, 20), L2Outcome::Miss);
}

TEST(L2Slice, SliceCapacityIsTotalOverPartitions)
{
    GpuConfig cfg; // 2 MB over 8 partitions = 256 KB per slice.
    SimStats stats;
    L2Slice slice(cfg, 0, &stats);
    EXPECT_EQ(slice.tags().sets() * slice.tags().ways() * kLineBytes,
              cfg.l2.sizeBytes / cfg.numMemPartitions);
}

/** Collects responses for a fake SM. */
class CollectingSink : public ResponseSinkIf
{
  public:
    void
    onResponse(const MemResponse &response, Cycle now) override
    {
        (void)now;
        responses.push_back(response);
    }
    std::vector<MemResponse> responses;
};

struct PartitionFixture : ::testing::Test
{
    PartitionFixture()
    {
        cfg.numSms = 1;
        cfg.numMemPartitions = 1;
        icnt = std::make_unique<Interconnect>(cfg, &stats);
        partition =
            std::make_unique<MemoryPartition>(cfg, 0, icnt.get(), &stats);
        icnt->attachPartition(0, partition.get());
        icnt->attachSm(0, &sink);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            partition->tick(now);
            icnt->tick(now);
            ++now;
        }
    }

    GpuConfig cfg;
    SimStats stats;
    CollectingSink sink;
    std::unique_ptr<Interconnect> icnt;
    std::unique_ptr<MemoryPartition> partition;
    Cycle now = 0;
};

TEST_F(PartitionFixture, ReadMissRoundTripsThroughDram)
{
    MemRequest req;
    req.lineAddr = 4096;
    req.kind = RequestKind::DataRead;
    req.smId = 0;
    icnt->sendRequest(req, now);
    run(3000);
    ASSERT_EQ(sink.responses.size(), 1u);
    EXPECT_EQ(sink.responses[0].lineAddr, 4096u);
    EXPECT_EQ(stats.dramReads, 1u);
}

TEST_F(PartitionFixture, SecondReadHitsInL2)
{
    MemRequest req;
    req.lineAddr = 4096;
    req.kind = RequestKind::DataRead;
    req.smId = 0;
    icnt->sendRequest(req, now);
    run(3000);
    icnt->sendRequest(req, now);
    run(1000);
    EXPECT_EQ(sink.responses.size(), 2u);
    EXPECT_EQ(stats.dramReads, 1u); // Served from L2 the second time.
    EXPECT_GT(stats.l2Hits, 0u);
}

TEST_F(PartitionFixture, L2HitFasterThanDramMiss)
{
    MemRequest req;
    req.lineAddr = 4096;
    req.kind = RequestKind::DataRead;
    req.smId = 0;
    const Cycle t0 = now;
    icnt->sendRequest(req, now);
    run(3000);
    const Cycle miss_latency = sink.responses.at(0).ready - t0;
    const Cycle t1 = now;
    icnt->sendRequest(req, now);
    run(3000);
    const Cycle hit_latency = sink.responses.at(1).ready - t1;
    EXPECT_LT(hit_latency, miss_latency);
}

TEST_F(PartitionFixture, WritesProduceNoResponse)
{
    MemRequest req;
    req.lineAddr = 4096;
    req.kind = RequestKind::DataWrite;
    req.smId = 0;
    icnt->sendRequest(req, now);
    run(3000);
    EXPECT_TRUE(sink.responses.empty());
    EXPECT_EQ(stats.dramWrites, 1u);
}

TEST_F(PartitionFixture, RegBackupBypassesL2)
{
    MemRequest req;
    req.lineAddr = 1 << 20;
    req.kind = RequestKind::RegBackup;
    req.smId = 0;
    req.bypassL2 = true;
    icnt->sendRequest(req, now);
    run(3000);
    EXPECT_EQ(stats.dramBackupWrites, 1u);
    // A later read of the same address misses L2 (backup not cached).
    MemRequest read = req;
    read.kind = RequestKind::DataRead;
    icnt->sendRequest(read, now);
    run(3000);
    EXPECT_EQ(stats.dramReads, 1u);
}

TEST_F(PartitionFixture, RegRestoreProducesTypedResponse)
{
    MemRequest req;
    req.lineAddr = 1 << 20;
    req.kind = RequestKind::RegRestore;
    req.smId = 0;
    icnt->sendRequest(req, now);
    run(3000);
    ASSERT_EQ(sink.responses.size(), 1u);
    EXPECT_EQ(sink.responses[0].kind, RequestKind::RegRestore);
}

/**
 * One partition with a one-entry L2 MSHR file, for the crossbar's L2
 * wake rule (MemoryPartition::readStallCertain): a parked read is
 * re-presented only when the MSHR file has room or its line was filled
 * or allocated in this tick.
 */
struct TinyL2Fixture : ::testing::Test
{
    void
    build(std::uint32_t merges_per_entry)
    {
        cfg.numSms = 1;
        cfg.numMemPartitions = 1;
        cfg.l1MshrEntries = 1; // The L2 slice shares the L1 MSHR shape.
        cfg.l1MshrMergesPerEntry = merges_per_entry;
        icnt = std::make_unique<Interconnect>(cfg, &stats);
        partition =
            std::make_unique<MemoryPartition>(cfg, 0, icnt.get(), &stats);
        icnt->attachPartition(0, partition.get());
        icnt->attachSm(0, &sink);
    }

    void
    send(Addr line_addr)
    {
        MemRequest req;
        req.lineAddr = line_addr;
        req.kind = RequestKind::DataRead;
        req.smId = 0;
        icnt->sendRequest(req, now);
    }

    void
    step()
    {
        partition->tick(now);
        icnt->tick(now);
        ++now;
    }

    /** Step until the partition tick fills @p line_addr into the L2. */
    void
    stepThroughFillOf(Addr line_addr)
    {
        for (Cycle c = 0; c < 5000; ++c) {
            partition->tick(now);
            if (partition->l2().tags().probe(line_addr)) {
                icnt->tick(now);
                ++now;
                return;
            }
            icnt->tick(now);
            ++now;
        }
        FAIL() << "line " << line_addr << " was never filled";
    }

    GpuConfig cfg;
    SimStats stats;
    CollectingSink sink;
    std::unique_ptr<Interconnect> icnt;
    std::unique_ptr<MemoryPartition> partition;
    Cycle now = 0;
};

constexpr Addr kLineX = 0;
constexpr Addr kLineY = 64 * kLineBytes;

TEST_F(TinyL2Fixture, ReadOfAFilledLineHitsThoughItsRetryFindsTheFileFull)
{
    build(1);
    send(kLineX);
    send(kLineY); // Stalls: no free entry.
    send(kLineX); // Stalls: x's entry has no merge slot.
    stepThroughFillOf(kLineX);
    // y took the entry x's fill freed, so the file is full again when
    // the second x retries; x was filled this tick, so it is attempted
    // and hits instead of stalling.
    EXPECT_TRUE(partition->l2().mshrFull());
    EXPECT_EQ(stats.l2Hits, 1u);
    for (Cycle c = 0; c < 5000; ++c)
        step();
    EXPECT_EQ(sink.responses.size(), 3u);
    EXPECT_EQ(stats.dramReads, 2u);
}

TEST_F(TinyL2Fixture, ReadOfALineAllocatedThisSweepMerges)
{
    build(2);
    send(kLineX);
    send(kLineY); // Stalls: no free entry.
    send(kLineY); // Stalls: no free entry.
    stepThroughFillOf(kLineX);
    // The first y allocated the freed entry; the second y retries with
    // the file full again and must merge into that allocation.
    EXPECT_TRUE(partition->l2().mshrFull());
    for (Cycle c = 0; c < 5000; ++c)
        step();
    ASSERT_EQ(sink.responses.size(), 3u);
    EXPECT_EQ(stats.dramReads, 2u);
    EXPECT_EQ(stats.l2Hits, 0u);
    // Both y reads complete with the one fill of y.
    EXPECT_EQ(sink.responses[1].lineAddr, kLineY);
    EXPECT_EQ(sink.responses[2].lineAddr, kLineY);
    EXPECT_EQ(sink.responses[1].ready, sink.responses[2].ready);
}

TEST_F(TinyL2Fixture, ParkedReadsChargeOneAccessPerCycle)
{
    build(1);
    send(kLineX);
    send(kLineY);
    send(kLineX);
    // Let the three reads cross and take their first attempt.
    while (now <= cfg.icntLatency)
        step();
    ASSERT_EQ(stats.l2Accesses, 3u);
    // Until x's fill, each parked read charges exactly one L2 access
    // per cycle, as a real retry would.
    for (int c = 1; c <= 50; ++c) {
        step();
        ASSERT_EQ(stats.l2Accesses, 3u + 2u * static_cast<unsigned>(c))
            << "cycle " << now;
    }
}

} // namespace
} // namespace lbsim
