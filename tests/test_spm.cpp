/**
 * @file
 * Unit tests of the scratch-pad memory and its DMA engine.
 */
#include <gtest/gtest.h>

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

/** Transport that records chunks and completes them on demand. */
struct ManualTransport {
    struct Chunk {
        Addr src;
        std::uint32_t bytes;
        std::function<void()> done;
    };
    std::vector<Chunk> chunks;

    DmaEngine::Transport
    fn()
    {
        return [this](Addr s, std::uint32_t b,
                      std::function<void()> done) {
            chunks.push_back(Chunk{s, b, std::move(done)});
        };
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
        tr.chunks[i].done();
    EXPECT_FALSE(done);
    tr.chunks.back().done();
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
    tr.chunks[0].done();
    EXPECT_EQ(tr.chunks.size(), 3u); // next chunk issued
    tr.chunks[1].done();
    tr.chunks[2].done();
    EXPECT_EQ(tr.chunks.size(), 5u);
    while (tr.chunks.size() < 10 || !done) {
        bool progressed = false;
        // Index loop: completing a chunk appends new ones, which
        // would invalidate range-for iterators.
        for (std::size_t i = 0; i < tr.chunks.size(); ++i) {
            if (tr.chunks[i].done) {
                auto d = std::move(tr.chunks[i].done);
                tr.chunks[i].done = nullptr;
                d();
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
    tr.chunks[0].done();
    EXPECT_EQ(done_count, 1);
    tr.chunks[1].done();
    EXPECT_EQ(done_count, 2);
    EXPECT_EQ(reg.get("dma.transfers").value(), 2.0);
}
