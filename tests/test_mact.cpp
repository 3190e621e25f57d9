/**
 * @file
 * Unit tests of the Memory Access Collection Table (Section 3.4).
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/mact.hpp"
#include "sim/simulator.hpp"

using namespace smarco;
using namespace smarco::mem;

namespace {

struct MactFixture : ::testing::Test {
    Simulator sim;
    MactParams params;
    std::vector<MactBatch> batches;

    Mact &
    make()
    {
        mact = std::make_unique<Mact>(sim, params, "mact");
        mact->setSink([this](MactBatch &&b) {
            batches.push_back(std::move(b));
        });
        return *mact;
    }

    /** A fresh request in the fixture's staging slot (collect()
     *  moves it into the table only when it absorbs it). */
    MemRequest &
    req(Addr addr, std::uint32_t bytes, bool write = false,
        bool priority = false)
    {
        staged = MemRequest{};
        staged.id = nextId++;
        staged.addr = addr;
        staged.bytes = bytes;
        staged.write = write;
        staged.priority = priority;
        return staged;
    }

    /** Run the simulator past the threshold: the deadline timer
     *  flushes every occupied line, and the run ends once the table
     *  is empty. */
    void
    runPastThreshold()
    {
        sim.run(params.threshold + 1);
    }

    /** Value of the table's registered stat "mact.<name>". */
    double
    stat(const std::string &name)
    {
        return sim.stats().get("mact." + name).value();
    }

    std::unique_ptr<Mact> mact;
    MemRequest staged;
    std::uint64_t nextId = 1;
};

} // namespace

TEST_F(MactFixture, CollectsSmallRequests)
{
    auto &m = make();
    EXPECT_TRUE(m.collect(req(0x1000, 4), 0));
    EXPECT_EQ(m.occupancy(), 1u);
    EXPECT_EQ(stat("collected"), 1.0);
}

TEST_F(MactFixture, PriorityRequestsBypass)
{
    auto &m = make();
    EXPECT_FALSE(m.collect(req(0x1000, 4, false, /*priority=*/true), 0));
    EXPECT_EQ(stat("bypassed"), 1.0);
    EXPECT_EQ(m.occupancy(), 0u);
}

TEST_F(MactFixture, OversizeRequestsBypass)
{
    auto &m = make();
    EXPECT_FALSE(m.collect(req(0x1000, 64), 0)); // line fill
    EXPECT_FALSE(m.collect(req(0x1000, 32), 0)); // > maxCollectBytes
    EXPECT_EQ(stat("bypassed"), 2.0);
}

TEST_F(MactFixture, LineStraddlingBypasses)
{
    auto &m = make();
    EXPECT_FALSE(m.collect(req(0x103E, 8), 0)); // crosses 0x1040
    EXPECT_EQ(stat("bypassed"), 1.0);
}

TEST_F(MactFixture, MergesSameLineSameType)
{
    auto &m = make();
    EXPECT_TRUE(m.collect(req(0x1000, 4), 0));
    EXPECT_TRUE(m.collect(req(0x1008, 4), 1));
    EXPECT_TRUE(m.collect(req(0x1010, 8), 2));
    EXPECT_EQ(m.occupancy(), 1u); // one line
    runPastThreshold();
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0].requests.size(), 3u);
    EXPECT_EQ(batches[0].coveredBytes(), 16u);
    EXPECT_EQ(batches[0].lineBase, 0x1000u);
}

TEST_F(MactFixture, ReadsAndWritesUseSeparateLines)
{
    auto &m = make();
    EXPECT_TRUE(m.collect(req(0x1000, 4, false), 0));
    EXPECT_TRUE(m.collect(req(0x1008, 4, true), 0));
    EXPECT_EQ(m.occupancy(), 2u);
}

TEST_F(MactFixture, FullVectorFlushesImmediately)
{
    auto &m = make();
    // Four 16-byte reads cover the whole 64-byte line.
    for (Addr off = 0; off < 64; off += 16)
        EXPECT_TRUE(m.collect(req(0x2000 + off, 16), 0));
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0].coveredBytes(), 64u);
    EXPECT_EQ(batches[0].vector, ~std::uint64_t{0});
    EXPECT_EQ(m.occupancy(), 0u);
}

TEST_F(MactFixture, DeadlineFlushAfterThreshold)
{
    params.threshold = 16;
    auto &m = make();
    EXPECT_TRUE(m.collect(req(0x3000, 4), 100));
    m.tick(110); // not yet
    EXPECT_TRUE(batches.empty());
    m.tick(116); // 16 cycles after first collect
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(m.occupancy(), 0u);
}

TEST_F(MactFixture, ThresholdTimerStartsAtFirstCollect)
{
    params.threshold = 16;
    auto &m = make();
    EXPECT_TRUE(m.collect(req(0x3000, 4), 100));
    EXPECT_TRUE(m.collect(req(0x3008, 4), 110)); // merge, timer NOT reset
    m.tick(116);
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0].requests.size(), 2u);
}

TEST_F(MactFixture, CapacityEvictionFlushesOldest)
{
    params.lines = 2;
    params.threshold = 1000;
    auto &m = make();
    EXPECT_TRUE(m.collect(req(0x1000, 4), 1)); // oldest
    EXPECT_TRUE(m.collect(req(0x2000, 4), 2));
    EXPECT_TRUE(m.collect(req(0x3000, 4), 3)); // evicts 0x1000 line
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0].lineBase, 0x1000u);
    EXPECT_EQ(m.occupancy(), 2u);
}

TEST_F(MactFixture, DisabledTableBypassesEverything)
{
    params.enabled = false;
    auto &m = make();
    EXPECT_FALSE(m.collect(req(0x1000, 2), 0));
    EXPECT_EQ(stat("bypassed"), 1.0);
}

TEST_F(MactFixture, BatchWireSizeSmallerThanIndividual)
{
    auto &m = make();
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(m.collect(req(0x4000 + i * 4, 4), 0));
    runPastThreshold();
    ASSERT_EQ(batches.size(), 1u);
    // 8 individual read requests cost 8 * 12 wire bytes; the batch
    // costs one header + vector.
    EXPECT_LT(batches[0].wireBytes(), 8 * kReadReqBytes);
}

TEST_F(MactFixture, WriteBatchCarriesPayload)
{
    auto &m = make();
    EXPECT_TRUE(m.collect(req(0x5000, 8, true), 0));
    EXPECT_TRUE(m.collect(req(0x5010, 8, true), 0));
    runPastThreshold();
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_TRUE(batches[0].write);
    EXPECT_EQ(batches[0].wireBytes(),
              kReqHeaderBytes + 8u + batches[0].coveredBytes());
}

TEST_F(MactFixture, VectorBitsMatchOffsets)
{
    auto &m = make();
    EXPECT_TRUE(m.collect(req(0x6004, 2), 0)); // bytes 4..5
    runPastThreshold();
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0].vector, std::uint64_t{0x3} << 4);
}

TEST_F(MactFixture, BusyWhileOccupied)
{
    auto &m = make();
    EXPECT_FALSE(m.busy());
    EXPECT_TRUE(m.collect(req(0x7000, 4), 0));
    EXPECT_TRUE(m.busy());
    runPastThreshold();
    EXPECT_FALSE(m.busy());
}
