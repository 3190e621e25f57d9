/**
 * @file
 * Unit tests of the set-associative cache tag model.
 */
#include <gtest/gtest.h>

#include "mem/cache.hpp"
#include "sim/stats.hpp"

using namespace smarco;
using namespace smarco::mem;

namespace {

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = 1024; // 4 sets x 4 ways x 64B
    p.assoc = 4;
    p.lineBytes = 64;
    return p;
}

} // namespace

TEST(Cache, ColdMissThenHit)
{
    StatRegistry reg;
    Cache c(reg, smallCache(), "c");
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x103F, false).hit); // same line
    EXPECT_FALSE(c.access(0x1040, false).hit); // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictsOldest)
{
    StatRegistry reg;
    Cache c(reg, smallCache(), "c");
    // 4-way set: fill one set (set stride = 4 sets * 64B = 256B).
    const Addr stride = 256;
    for (Addr i = 0; i < 4; ++i)
        c.access(0x1000 + i * stride, false);
    // Touch line 0 so line 1 becomes LRU.
    c.access(0x1000, false);
    // A 5th line in the same set evicts line 1 (the LRU), not line 0.
    c.access(0x1000 + 4 * stride, false);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x1000 + 1 * stride));
    EXPECT_TRUE(c.probe(0x1000 + 2 * stride));
}

TEST(Cache, WritebackOnDirtyEviction)
{
    StatRegistry reg;
    Cache c(reg, smallCache(), "c");
    const Addr stride = 256;
    c.access(0x2000, true); // dirty line
    for (Addr i = 1; i <= 3; ++i)
        c.access(0x2000 + i * stride, false);
    const auto res = c.access(0x2000 + 4 * stride, false);
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.victimAddr, 0x2000u);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    StatRegistry reg;
    Cache c(reg, smallCache(), "c");
    const Addr stride = 256;
    for (Addr i = 0; i <= 4; ++i) {
        const auto res = c.access(0x2000 + i * stride, false);
        EXPECT_FALSE(res.writeback);
    }
}

TEST(Cache, WriteHitMarksDirty)
{
    StatRegistry reg;
    Cache c(reg, smallCache(), "c");
    const Addr stride = 256;
    c.access(0x3000, false);       // clean fill
    c.access(0x3000, true);        // write hit -> dirty
    for (Addr i = 1; i <= 3; ++i)
        c.access(0x3000 + i * stride, false);
    const auto res = c.access(0x3000 + 4 * stride, false);
    EXPECT_TRUE(res.writeback);
}

TEST(Cache, FlushInvalidatesEverything)
{
    StatRegistry reg;
    Cache c(reg, smallCache(), "c");
    c.access(0x4000, false);
    EXPECT_TRUE(c.probe(0x4000));
    c.flush();
    EXPECT_FALSE(c.probe(0x4000));
}

TEST(Cache, MissRatioTracksAccesses)
{
    StatRegistry reg;
    Cache c(reg, smallCache(), "c");
    c.access(0x5000, false); // miss
    c.access(0x5000, false); // hit
    c.access(0x5000, false); // hit
    c.access(0x5040, false); // miss
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.5);
}

TEST(Cache, NonPowerOfTwoSetCount)
{
    // A 60 MB 20-way LLC has 49152 sets; the model must accept it.
    StatRegistry reg;
    CacheParams p;
    p.name = "llc";
    p.sizeBytes = 60 * 1024 * 1024;
    p.assoc = 20;
    p.lineBytes = 64;
    Cache c(reg, p, "llc");
    EXPECT_FALSE(c.access(0x12345678, false).hit);
    EXPECT_TRUE(c.access(0x12345678, false).hit);
}

TEST(Cache, DistinctSetsDontConflict)
{
    StatRegistry reg;
    Cache c(reg, smallCache(), "c");
    // 16 lines mapping to 4 different sets: all fit (4 ways each).
    for (Addr i = 0; i < 16; ++i)
        c.access(i * 64, false);
    for (Addr i = 0; i < 16; ++i)
        EXPECT_TRUE(c.probe(i * 64)) << i;
}

TEST(Cache, WorkingSetLargerThanCacheThrashes)
{
    StatRegistry reg;
    Cache c(reg, smallCache(), "c"); // 1 KB cache
    // Cyclic scan of 4 KB: with LRU this always misses after warmup.
    for (int rep = 0; rep < 4; ++rep)
        for (Addr a = 0; a < 4096; a += 64)
            c.access(a, false);
    EXPECT_GT(c.missRatio(), 0.9);
}

TEST(Cache, DirtyEvictionInThreeSetCacheReturnsVictimLine)
{
    // 3 sets x 2 ways x 64 B: a set count that is not a power of two.
    StatRegistry reg;
    CacheParams p = smallCache();
    p.sizeBytes = 3 * 2 * 64;
    p.assoc = 2;
    Cache c(reg, p, "c");
    // Lines 5, 2 and 8 all map to set 2 (line % 3).
    EXPECT_FALSE(c.access(5 * 64 + 12, true).hit);
    EXPECT_FALSE(c.access(2 * 64, false).hit);
    const CacheResult res = c.access(8 * 64 + 4, false);
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.victimAddr, Addr{5 * 64});
    EXPECT_FALSE(c.probe(5 * 64));
    EXPECT_TRUE(c.probe(2 * 64));
    EXPECT_TRUE(c.probe(8 * 64));
    // A clean victim (line 2) needs no writeback.
    const CacheResult clean = c.access(11 * 64, false);
    EXPECT_FALSE(clean.writeback);
    EXPECT_EQ(clean.victimAddr, kNoAddr);
}
