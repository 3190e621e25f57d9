/**
 * @file
 * Unit tests of the DDR channel model.
 */
#include <gtest/gtest.h>

#include <variant>
#include <vector>

#include "mem/dram.hpp"
#include "sim/simulator.hpp"

using namespace smarco;
using namespace smarco::mem;

namespace {

struct DramFixture : ::testing::Test {
    Simulator sim;
    DramParams params;

    std::unique_ptr<DramController>
    make()
    {
        return std::make_unique<DramController>(sim, params, "dram");
    }
};

} // namespace

TEST_F(DramFixture, ChannelInterleavingByLine)
{
    params.channels = 4;
    auto dram = make();
    // Consecutive lines cover all four channels...
    EXPECT_EQ(dram->channelOf(0x0000), 0u);
    EXPECT_EQ(dram->channelOf(0x0040), 1u);
    EXPECT_EQ(dram->channelOf(0x0080), 2u);
    EXPECT_EQ(dram->channelOf(0x00C0), 3u);
    // ...and the XOR-folded hash also spreads 256-byte strides
    // (4-line DMA chunks), which plain modulo would serialise.
    int seen[4] = {0, 0, 0, 0};
    for (Addr a = 0; a < 64 * 256; a += 256)
        ++seen[dram->channelOf(a)];
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(seen[c], 4) << "channel " << c << " starved";
}

TEST_F(DramFixture, SingleAccessLatency)
{
    auto dram = make();
    Cycle done_at = kNoCycle;
    dram->setSink([&](DramJob &&) { done_at = sim.now(); });
    dram->serve(0x40, 64, 0, MemRequest{});
    sim.run(1000);
    // accessLatency (48) + ceil(64/22.75)=3 transfer cycles.
    EXPECT_EQ(done_at, 51u);
}

TEST_F(DramFixture, BandwidthLimitsBackToBackRequests)
{
    auto dram = make();
    std::vector<Cycle> done;
    dram->setSink([&](DramJob &&) { done.push_back(sim.now()); });
    // Ten 64-byte reads on the same channel.
    for (int i = 0; i < 10; ++i)
        dram->serve(0x40, 64, 0, MemRequest{});
    sim.run(10000);
    ASSERT_EQ(done.size(), 10u);
    // Each request occupies the channel overhead(2)+3 = 5 cycles, so
    // completions are spaced ~5 cycles apart.
    for (std::size_t i = 1; i < done.size(); ++i)
        EXPECT_GE(done[i], done[i - 1] + 5);
}

TEST_F(DramFixture, ChannelsServeInParallel)
{
    auto dram = make();
    std::vector<Cycle> done;
    dram->setSink([&](DramJob &&) { done.push_back(sim.now()); });
    for (int i = 0; i < 4; ++i)
        dram->serve(static_cast<Addr>(i) * 64, 64, 0, MemRequest{});
    sim.run(1000);
    ASSERT_EQ(done.size(), 4u);
    // All on different channels: same completion cycle.
    for (Cycle d : done)
        EXPECT_EQ(d, done[0]);
}

TEST_F(DramFixture, ReadsPrioritisedOverWrites)
{
    auto dram = make();
    Cycle read_done = 0, write_done = 0;
    dram->setSink([&](DramJob &&job) {
        (std::get<MemRequest>(job).write ? write_done : read_done) =
            sim.now();
    });
    // Queue several writes first, then a read on the same channel.
    for (int i = 0; i < 5; ++i)
        dram->serve(0x40, 64, 0, MemRequest{.write = true},
                    mem::DramClass::Write);
    dram->serve(0x40, 64, 0, MemRequest{});
    sim.run(10000);
    // The first write is already in service when the read arrives,
    // but the read overtakes the remaining queued writes.
    EXPECT_LT(read_done, write_done);
}

TEST_F(DramFixture, WriteDrainThresholdForcesWrites)
{
    params.writeDrainThreshold = 4;
    auto dram = make();
    int writes_done = 0;
    dram->setSink([&](DramJob &&) { ++writes_done; });
    for (int i = 0; i < 8; ++i)
        dram->serve(0x40, 64, 0, MemRequest{.write = true},
                    mem::DramClass::Write);
    // Keep a steady stream of reads coming; writes must still drain.
    for (int i = 0; i < 50; ++i)
        dram->serve(0x40, 8, 0, {});
    sim.run(10000);
    EXPECT_EQ(writes_done, 8);
}

TEST_F(DramFixture, SmallRequestsPayOverheadNotBandwidth)
{
    auto dram = make();
    // 32 4-byte requests: dominated by the per-request overhead, so
    // the channel serves them at ~1 per (overhead + 1) cycles.
    std::vector<Cycle> done;
    dram->setSink([&](DramJob &&) { done.push_back(sim.now()); });
    for (int i = 0; i < 32; ++i)
        dram->serve(0x40, 4, 0, MemRequest{});
    sim.run(10000);
    ASSERT_EQ(done.size(), 32u);
    const Cycle span = done.back() - done.front();
    EXPECT_NEAR(static_cast<double>(span), 31.0 * 3.0, 4.0);
}

TEST_F(DramFixture, StatsTrackRequestsAndBytes)
{
    auto dram = make();
    dram->serve(0x00, 64, 0, {});
    dram->serve(0x40, 16, 0, {}, mem::DramClass::Write);
    sim.run(1000);
    EXPECT_EQ(dram->requestsServed(), 2u);
    EXPECT_DOUBLE_EQ(dram->totalBytes(), 80.0);
}

TEST_F(DramFixture, BatchingReducesTotalServiceTime)
{
    // The MACT effect at the controller: one 16-byte batch versus
    // four 4-byte requests.
    auto dram = make();
    Cycle batched_done = 0;
    dram->setSink([&](DramJob &&) { batched_done = sim.now(); });
    dram->serve(0x40, 16, 0, MemRequest{});
    sim.run(1000);

    Simulator sim2;
    DramController dram2(sim2, params, "dram2");
    Cycle last_done = 0;
    dram2.setSink([&](DramJob &&) { last_done = sim2.now(); });
    for (int i = 0; i < 4; ++i)
        dram2.serve(0x40, 4, 0, MemRequest{});
    sim2.run(1000);
    EXPECT_LT(batched_done, last_done);
}

TEST_F(DramFixture, ZeroInterleaveIsRejected)
{
    // channelOf() divides by the interleave granularity.
    params.interleaveBytes = 0;
    EXPECT_DEATH(make(), "zero interleave");
}

namespace {

void
expectSameRequest(const MemRequest &a, const MemRequest &b)
{
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.write, b.write);
    EXPECT_EQ(a.access, b.access);
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.priority, b.priority);
    EXPECT_EQ(a.core, b.core);
    EXPECT_EQ(a.thread, b.thread);
    EXPECT_EQ(a.issued, b.issued);
}

} // namespace

TEST_F(DramFixture, JobsComeBackOnceUnchanged)
{
    auto dram = make();
    EXPECT_DEATH(dram->serve(0x40, 64, 0, MemRequest{}), "before setSink");

    std::vector<std::pair<Cycle, DramJob>> back;
    dram->setSink([&](DramJob &&job) {
        // Serving from inside the sink: the slot the returning job
        // held is already free, so the new job may take it.
        if (const auto *r = std::get_if<MemRequest>(&job); r && r->id == 7)
            dram->serve(0x40, 64, sim.now(), MemRequest{.id = 8});
        back.emplace_back(sim.now(), std::move(job));
    });
    const MemRequest req{.id = 7, .access = AccessClass::DmaChunk,
                         .addr = 0x40, .bytes = 64, .priority = true,
                         .core = 5, .thread = 3, .issued = 0};
    const MactBatch batch{
        .lineBase = 0x80, .vector = 0xFF,
        .requests = {MemRequest{.id = 11, .addr = 0x80, .bytes = 4,
                                .core = 1},
                     MemRequest{.id = 12, .addr = 0x84, .bytes = 4,
                                .core = 2, .thread = 1}}};
    // Channels 1, 2 and 3: nothing queues behind anything else.
    dram->serve(0x40, 64, 0, req);
    dram->serve(0x80, 64, 0, batch);
    dram->serve(0xC0, 64, 0, {});
    sim.run(1000);

    // The empty job never reached the sink; the other three came back
    // once each, at their finish cycles.
    EXPECT_EQ(dram->requestsServed(), 4u);
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[0].first, 51u);
    expectSameRequest(std::get<MemRequest>(back[0].second), req);

    EXPECT_EQ(back[1].first, 51u);
    const auto &got = std::get<MactBatch>(back[1].second);
    EXPECT_EQ(got.write, batch.write);
    EXPECT_EQ(got.lineBase, batch.lineBase);
    EXPECT_EQ(got.vector, batch.vector);
    ASSERT_EQ(got.requests.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        expectSameRequest(got.requests[i], batch.requests[i]);

    // The job served from the sink at 51 finished one access later.
    EXPECT_EQ(back[2].first, 102u);
    expectSameRequest(std::get<MemRequest>(back[2].second),
                      MemRequest{.id = 8});
}
