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

TEST(Spm, AddressRangeAndControlWindow)
{
    StatRegistry reg;
    SpmParams p;
    p.sizeBytes = 128 * 1024;
    p.controlBytes = 256;
    Spm spm(reg, p, 0x1000'0000, "spm");

    EXPECT_TRUE(spm.contains(0x1000'0000));
    EXPECT_TRUE(spm.contains(0x1000'0000 + spm.dataBytes() - 1));
    EXPECT_FALSE(spm.contains(0x1000'0000 + spm.dataBytes()));
    EXPECT_FALSE(spm.contains(0x0fff'ffff));

    // Top 256 bytes are DMA control registers (Section 3.5.1).
    EXPECT_TRUE(spm.isControl(0x1000'0000 + spm.dataBytes()));
    EXPECT_TRUE(spm.isControl(0x1000'0000 + p.sizeBytes - 1));
    EXPECT_FALSE(spm.isControl(0x1000'0000));
    EXPECT_EQ(spm.dataBytes(), 128 * 1024 - 256u);
}

TEST(Spm, AccessCounts)
{
    StatRegistry reg;
    Spm spm(reg, SpmParams{}, 0, "spm");
    spm.access(false);
    spm.access(true);
    spm.access(true);
    EXPECT_EQ(spm.reads(), 1u);
    EXPECT_EQ(spm.writes(), 2u);
}

namespace {

/** Transport that records chunks and completes them on demand. */
struct ManualTransport {
    struct Chunk {
        Addr src, dst;
        std::uint32_t bytes;
        std::function<void()> done;
    };
    std::vector<Chunk> chunks;

    DmaEngine::Transport
    fn()
    {
        return [this](Addr s, Addr d, std::uint32_t b,
                      std::function<void()> done) {
            chunks.push_back(Chunk{s, d, b, std::move(done)});
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
    dma.start(0x1000, 0x2000, 1000, [&] { done = true; });
    // Only the window is in flight, not all 4 chunks... 1000B = 4 chunks.
    EXPECT_EQ(tr.chunks.size(), 4u);
    EXPECT_TRUE(dma.busy());

    // Chunk addressing covers the transfer contiguously.
    EXPECT_EQ(tr.chunks[0].src, 0x1000u);
    EXPECT_EQ(tr.chunks[0].bytes, 256u);
    EXPECT_EQ(tr.chunks[3].src, 0x1000u + 768);
    EXPECT_EQ(tr.chunks[3].bytes, 232u); // 1000 - 768

    for (auto &c : tr.chunks)
        c.done();
    EXPECT_TRUE(done);
    EXPECT_FALSE(dma.busy());
}

TEST(Dma, WindowLimitsOutstandingChunks)
{
    StatRegistry reg;
    ManualTransport tr;
    DmaEngine dma(reg, 64, tr.fn(), "dma", /*max_outstanding=*/2);

    bool done = false;
    dma.start(0, 0x8000, 64 * 10, [&] { done = true; });
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
    EXPECT_EQ(dma.transfersStarted(), 1u);
}

TEST(Dma, ZeroByteTransferCompletesImmediately)
{
    StatRegistry reg;
    ManualTransport tr;
    DmaEngine dma(reg, 256, tr.fn(), "dma");
    bool done = false;
    dma.start(0, 0, 0, [&] { done = true; });
    EXPECT_TRUE(done);
    EXPECT_TRUE(tr.chunks.empty());
}

TEST(Dma, ConcurrentTransfersTracked)
{
    StatRegistry reg;
    ManualTransport tr;
    DmaEngine dma(reg, 128, tr.fn(), "dma", 8);
    int done_count = 0;
    dma.start(0, 0x1000, 128, [&] { ++done_count; });
    dma.start(0x2000, 0x3000, 128, [&] { ++done_count; });
    EXPECT_EQ(tr.chunks.size(), 2u);
    EXPECT_TRUE(dma.busy());
    tr.chunks[0].done();
    EXPECT_EQ(done_count, 1);
    EXPECT_TRUE(dma.busy());
    tr.chunks[1].done();
    EXPECT_EQ(done_count, 2);
    EXPECT_FALSE(dma.busy());
    EXPECT_EQ(dma.transfersStarted(), 2u);
}
