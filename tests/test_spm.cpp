/**
 * @file
 * Unit tests of the scratch-pad memory and its DMA engine.
 */
#include <gtest/gtest.h>

#include <algorithm>
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

/** Transport that records chunks; a test lands them on demand. The
 *  sink records the tickets of finished transfers. */
struct ManualTransport {
    struct Chunk {
        Addr src;
        std::uint32_t bytes;
        std::uint64_t tag;
        bool landed = false;
    };
    std::vector<Chunk> chunks;
    std::vector<std::uint32_t> finished;

    DmaEngine::Transport
    fn()
    {
        return [this](Addr s, std::uint32_t b, std::uint64_t tag) {
            chunks.push_back(Chunk{s, b, tag});
        };
    }

    DmaEngine::Sink
    sink()
    {
        return [this](std::uint32_t ticket) { finished.push_back(ticket); };
    }

    /** Times the transfer started with ticket has finished. */
    long
    done(std::uint32_t ticket) const
    {
        return std::count(finished.begin(), finished.end(), ticket);
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
    DmaEngine dma(reg, 256, tr.fn(), tr.sink(), "dma", /*max_outstanding=*/4);

    dma.start(0x1000, 1000, 7);
    // Only the window is in flight, not all 4 chunks... 1000B = 4 chunks.
    EXPECT_EQ(tr.chunks.size(), 4u);

    // Chunk addressing covers the transfer contiguously.
    EXPECT_EQ(tr.chunks[0].src, 0x1000u);
    EXPECT_EQ(tr.chunks[0].bytes, 256u);
    EXPECT_EQ(tr.chunks[3].src, 0x1000u + 768);
    EXPECT_EQ(tr.chunks[3].bytes, 232u); // 1000 - 768

    // The sink hears the ticket with the final chunk, not before.
    for (std::size_t i = 0; i + 1 < tr.chunks.size(); ++i)
        tr.land(dma, i);
    EXPECT_EQ(tr.done(7), 0);
    tr.land(dma, tr.chunks.size() - 1);
    EXPECT_EQ(tr.finished, std::vector<std::uint32_t>{7});
}

TEST(Dma, WindowLimitsOutstandingChunks)
{
    StatRegistry reg;
    ManualTransport tr;
    DmaEngine dma(reg, 64, tr.fn(), tr.sink(), "dma", /*max_outstanding=*/2);

    dma.start(0, 64 * 10, 3);
    EXPECT_EQ(tr.chunks.size(), 2u); // window of 2
    tr.land(dma, 0);
    EXPECT_EQ(tr.chunks.size(), 3u); // next chunk issued
    tr.land(dma, 1);
    tr.land(dma, 2);
    EXPECT_EQ(tr.chunks.size(), 5u);
    while (tr.chunks.size() < 10 || tr.done(3) == 0) {
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
    EXPECT_EQ(tr.finished, std::vector<std::uint32_t>{3});
    EXPECT_EQ(reg.get("dma.transfers").value(), 1.0);
}

TEST(DmaDeathTest, ZeroByteTransferPanics)
{
    // The chip stages only a task with input (one without attaches at
    // once), so an empty transfer is a model fault.
    const auto empty = [] {
        StatRegistry reg;
        ManualTransport tr;
        DmaEngine dma(reg, 256, tr.fn(), tr.sink(), "dma");
        dma.start(0, 0, 5);
    };
    EXPECT_DEATH(empty(), "DmaEngine: empty transfer 5");
}

TEST(Dma, ConcurrentTransfersTracked)
{
    StatRegistry reg;
    ManualTransport tr;
    DmaEngine dma(reg, 128, tr.fn(), tr.sink(), "dma", 8);
    dma.start(0, 128, 1);
    dma.start(0x2000, 128, 2);
    EXPECT_EQ(tr.chunks.size(), 2u);
    EXPECT_TRUE(tr.finished.empty());
    tr.land(dma, 0);
    EXPECT_EQ(tr.finished, std::vector<std::uint32_t>{1});
    tr.land(dma, 1);
    EXPECT_EQ(tr.finished, (std::vector<std::uint32_t>{1, 2}));
    EXPECT_EQ(reg.get("dma.transfers").value(), 2.0);
}

TEST(Dma, ChunksCompleteOutOfOrder)
{
    // Two overlapping transfers whose chunks land in reverse: the
    // sink hears each ticket once, when its own last chunk lands.
    StatRegistry reg;
    ManualTransport tr;
    DmaEngine dma(reg, 64, tr.fn(), tr.sink(), "dma", /*max_outstanding=*/8);
    dma.start(0x1000, 64 * 3, 1);
    dma.start(0x2000, 64 * 2, 2);
    ASSERT_EQ(tr.chunks.size(), 5u);
    EXPECT_NE(tr.chunks[0].tag, tr.chunks[3].tag);
    EXPECT_EQ(tr.chunks[3].src, 0x2000u);

    tr.land(dma, 4);
    EXPECT_EQ(tr.done(2), 0);
    tr.land(dma, 3);
    EXPECT_EQ(tr.done(2), 1);
    EXPECT_EQ(tr.done(1), 0);
    tr.land(dma, 2);
    tr.land(dma, 1);
    EXPECT_EQ(tr.done(1), 0);
    tr.land(dma, 0);
    EXPECT_EQ(tr.done(1), 1);
    EXPECT_EQ(tr.done(2), 1);

    // The engine is empty again: a later transfer runs as the first.
    dma.start(0x3000, 64, 3);
    ASSERT_EQ(tr.chunks.size(), 6u);
    tr.land(dma, 5);
    EXPECT_EQ(tr.finished, (std::vector<std::uint32_t>{2, 1, 3}));
}

TEST(DmaDeathTest, ChunkWithNoneInFlightPanics)
{
    // A chunk that lands twice (or for a finished transfer) is a
    // model fault, not a second completion.
    const auto twice = [] {
        StatRegistry reg;
        ManualTransport tr;
        DmaEngine dma(reg, 64, tr.fn(), tr.sink(), "dma");
        dma.start(0, 64, 0);
        dma.chunkDone(tr.chunks[0].tag);
        dma.chunkDone(tr.chunks[0].tag);
    };
    EXPECT_DEATH(twice(), "no chunk of transfer 0 in flight");
}
