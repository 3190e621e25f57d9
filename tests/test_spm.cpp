/**
 * @file
 * Unit tests of the scratch-pad memory and its DMA engine.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "mem/spm.hpp"
#include "sim/stats.hpp"

using namespace smarco;
using namespace smarco::mem;

TEST(Spm, ControlWindowLeavesDataBytes)
{
    StatRegistry reg;
    SpmParams p;
    p.sizeBytes = 128 * 1024;
    p.controlBytes = 256;
    Spm spm(reg, p, "spm");

    // Top 256 bytes are DMA control registers (Section 3.5.1).
    EXPECT_EQ(spm.dataBytes(), 128 * 1024 - 256u);
}

TEST(Spm, AccessCounts)
{
    StatRegistry reg;
    Spm spm(reg, SpmParams{}, "spm");
    spm.access(false);
    spm.access(true);
    spm.access(true);
    EXPECT_EQ(reg.get("spm.reads").value(), 1.0);
    EXPECT_EQ(reg.get("spm.writes").value(), 2.0);
}

namespace {

/** Transport that records chunks; a test lands them on demand. */
struct ManualTransport {
    struct Chunk {
        Addr src;
        std::uint32_t bytes;
        std::uint64_t tag;
        bool landed = false;
    };
    std::vector<Chunk> chunks;

    DmaEngine::Transport
    fn()
    {
        return [this](Addr s, std::uint32_t b, std::uint64_t tag) {
            chunks.push_back(Chunk{s, b, tag});
        };
    }

    /** Report chunk i to dma as landed. */
    void
    land(DmaEngine &dma, std::size_t i)
    {
        ASSERT_FALSE(chunks[i].landed) << "chunk " << i;
        chunks[i].landed = true;
        dma.chunkDone(chunks[i].tag);
    }
};

} // namespace

TEST(Dma, SplitsIntoChunksWithWindow)
{
    StatRegistry reg;
    ManualTransport tr;
    DmaEngine dma(reg, 256, tr.fn(), "dma", /*max_outstanding=*/4);

    bool done = false;
    dma.start(0x1000, 1000, [&] { done = true; });
    // Only the window is in flight, not all 4 chunks... 1000B = 4 chunks.
    EXPECT_EQ(tr.chunks.size(), 4u);

    // Chunk addressing covers the transfer contiguously.
    EXPECT_EQ(tr.chunks[0].src, 0x1000u);
    EXPECT_EQ(tr.chunks[0].bytes, 256u);
    EXPECT_EQ(tr.chunks[3].src, 0x1000u + 768);
    EXPECT_EQ(tr.chunks[3].bytes, 232u); // 1000 - 768

    // done runs with the final chunk, not before.
    for (std::size_t i = 0; i + 1 < tr.chunks.size(); ++i)
        tr.land(dma, i);
    EXPECT_FALSE(done);
    tr.land(dma, tr.chunks.size() - 1);
    EXPECT_TRUE(done);
}

TEST(Dma, WindowLimitsOutstandingChunks)
{
    StatRegistry reg;
    ManualTransport tr;
    DmaEngine dma(reg, 64, tr.fn(), "dma", /*max_outstanding=*/2);

    bool done = false;
    dma.start(0, 64 * 10, [&] { done = true; });
    EXPECT_EQ(tr.chunks.size(), 2u); // window of 2
    tr.land(dma, 0);
    EXPECT_EQ(tr.chunks.size(), 3u); // next chunk issued
    tr.land(dma, 1);
    tr.land(dma, 2);
    EXPECT_EQ(tr.chunks.size(), 5u);
    while (tr.chunks.size() < 10 || !done) {
        bool progressed = false;
        // Index loop: landing a chunk appends new ones, which would
        // invalidate range-for iterators.
        for (std::size_t i = 0; i < tr.chunks.size(); ++i) {
            if (!tr.chunks[i].landed) {
                tr.land(dma, i);
                progressed = true;
            }
        }
        ASSERT_TRUE(progressed);
    }
    EXPECT_TRUE(done);
    EXPECT_EQ(reg.get("dma.transfers").value(), 1.0);
}

TEST(Dma, ZeroByteTransferCompletesImmediately)
{
    StatRegistry reg;
    ManualTransport tr;
    DmaEngine dma(reg, 256, tr.fn(), "dma");
    bool done = false;
    dma.start(0, 0, [&] { done = true; });
    EXPECT_TRUE(done);
    EXPECT_TRUE(tr.chunks.empty());
}

TEST(Dma, ConcurrentTransfersTracked)
{
    StatRegistry reg;
    ManualTransport tr;
    DmaEngine dma(reg, 128, tr.fn(), "dma", 8);
    int done_count = 0;
    dma.start(0, 128, [&] { ++done_count; });
    dma.start(0x2000, 128, [&] { ++done_count; });
    EXPECT_EQ(tr.chunks.size(), 2u);
    EXPECT_EQ(done_count, 0);
    tr.land(dma, 0);
    EXPECT_EQ(done_count, 1);
    tr.land(dma, 1);
    EXPECT_EQ(done_count, 2);
    EXPECT_EQ(reg.get("dma.transfers").value(), 2.0);
}

TEST(Dma, ChunksCompleteOutOfOrder)
{
    // Two overlapping transfers whose chunks land in reverse: each
    // done runs once, when its own last chunk lands.
    StatRegistry reg;
    ManualTransport tr;
    DmaEngine dma(reg, 64, tr.fn(), "dma", /*max_outstanding=*/8);
    int first = 0;
    int second = 0;
    dma.start(0x1000, 64 * 3, [&] { ++first; });
    dma.start(0x2000, 64 * 2, [&] { ++second; });
    ASSERT_EQ(tr.chunks.size(), 5u);
    EXPECT_NE(tr.chunks[0].tag, tr.chunks[3].tag);
    EXPECT_EQ(tr.chunks[3].src, 0x2000u);

    tr.land(dma, 4);
    EXPECT_EQ(second, 0);
    tr.land(dma, 3);
    EXPECT_EQ(second, 1);
    EXPECT_EQ(first, 0);
    tr.land(dma, 2);
    tr.land(dma, 1);
    EXPECT_EQ(first, 0);
    tr.land(dma, 0);
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 1);

    // The engine is empty again: a later transfer runs as the first.
    int third = 0;
    dma.start(0x3000, 64, [&] { ++third; });
    ASSERT_EQ(tr.chunks.size(), 6u);
    tr.land(dma, 5);
    EXPECT_EQ(third, 1);
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 1);
}

TEST(DmaDeathTest, ChunkWithNoneInFlightPanics)
{
    // A chunk that lands twice (or for a finished transfer) is a
    // model fault, not a second completion.
    const auto twice = [] {
        StatRegistry reg;
        ManualTransport tr;
        DmaEngine dma(reg, 64, tr.fn(), "dma");
        dma.start(0, 64, [] {});
        dma.chunkDone(tr.chunks[0].tag);
        dma.chunkDone(tr.chunks[0].tag);
    };
    EXPECT_DEATH(twice(), "no chunk of transfer 0 in flight");
}
