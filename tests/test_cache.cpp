/**
 * @file
 * Unit tests of the set-associative cache tag model.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "mem/cache.hpp"
#include "sim/random.hpp"
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

TEST(Cache, StaleMemoryNeverHits)
{
    // The tag and state arrays are not initialised. Leave the tags the
    // accesses below look up, and dirty state bytes, in freed blocks
    // of the arrays' sizes, which the allocator is likely to hand the
    // cache: way w of set s holds tag kTag + w.
    CacheParams p = smallCache();
    p.sizeBytes = 64 * 4 * 64; // 64 sets x 4 ways
    const std::uint64_t sets = 64, ways = sets * p.assoc;
    const Addr kTag = 0x1234;
    {
        auto tags = std::make_unique<Addr[]>(ways);
        auto state = std::make_unique<std::uint8_t[]>(ways);
        for (std::uint64_t i = 0; i < ways; ++i) {
            tags[i] = kTag + i % p.assoc;
            state[i] = 0x80 | static_cast<std::uint8_t>(i % p.assoc);
        }
    }
    StatRegistry reg;
    Cache c(reg, p, "c");
    auto addr = [&](std::uint64_t set, std::uint32_t w) {
        return ((kTag + w) * sets + set) * p.lineBytes;
    };
    for (std::uint64_t s = 0; s < sets; ++s)
        for (std::uint32_t w = 0; w < p.assoc; ++w)
            ASSERT_FALSE(c.probe(addr(s, w))) << s << " " << w;
    for (std::uint64_t s = 0; s < sets; ++s) {
        for (std::uint32_t w = 0; w < p.assoc; ++w) {
            const CacheResult res = c.access(addr(s, w), false);
            ASSERT_FALSE(res.hit) << s << " " << w;
            ASSERT_FALSE(res.writeback) << s << " " << w;
        }
    }
    EXPECT_EQ(c.misses(), ways);
    EXPECT_EQ(reg.get("c.writebacks").value(), 0.0);
}

namespace {

/** Resident set size of this process in KiB, from /proc/self/status
 *  (-1 where that file is missing). */
long
residentKiB()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmRSS:") {
            long kib = -1;
            status >> kib;
            return kib;
        }
        status.ignore(1 << 12, '\n');
    }
    return -1;
}

} // namespace

TEST(Cache, BuildLeavesTagStoreUntouched)
{
    // Four 60 MB 20-way LLCs hold 4 x 8.8 MB of ways. Building them
    // must write only the per-set fill counts (48 KB each), so the
    // resident set grows by far less than one tag store. A build that
    // wrote every way would add about 35 MB. This test comes before
    // every other LLC-sized build in this file, so the tag stores
    // cannot land in memory that an earlier test already made
    // resident.
    const long before = residentKiB();
    if (before < 0)
        GTEST_SKIP() << "no /proc/self/status";
    CacheParams p;
    p.name = "llc";
    p.sizeBytes = 60 * 1024 * 1024;
    p.assoc = 20;
    p.lineBytes = 64;
    StatRegistry reg;
    std::vector<std::unique_ptr<Cache>> llcs;
    for (int i = 0; i < 4; ++i)
        llcs.push_back(
            std::make_unique<Cache>(reg, p, "llc" + std::to_string(i)));
    const long grown = residentKiB() - before;
    EXPECT_LT(grown, 4 * 1024) << "KiB";
    // The caches work: a cold miss, then a hit.
    EXPECT_FALSE(llcs[3]->access(0x12345678, false).hit);
    EXPECT_TRUE(llcs[3]->access(0x12345678, false).hit);
}

TEST(Cache, WaySizeAbove32BitsKeepsItsSets)
{
    // 64 ways of 64 MB lines: the way size is 2^32 bytes, which wraps
    // to zero in 32-bit arithmetic.
    CacheParams p = smallCache();
    p.assoc = 64;
    p.lineBytes = 1u << 26;
    p.sizeBytes = 2 * std::uint64_t{p.assoc} * p.lineBytes;
    StatRegistry reg;
    Cache c(reg, p, "c");
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_FALSE(c.probe(p.lineBytes)); // the second set is still empty
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

namespace {

/**
 * The array-of-Line tag model that Cache's tag and LRU-rank arrays
 * replaced, kept as a plain reference: valid bit, tag, dirty bit and
 * a last-use stamp per way; set and tag by % and /; a miss takes the
 * first invalid way, else the least recently used one.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheParams &p)
        : p_(p), sets_(p.sizeBytes / (p.assoc * p.lineBytes)),
          lines_(sets_ * p.assoc)
    {}

    CacheResult
    access(Addr addr, bool write)
    {
        const std::uint64_t set = (addr / p_.lineBytes) % sets_;
        const Addr tag = (addr / p_.lineBytes) / sets_;
        Line *const base = &lines_[set * p_.assoc];
        ++clock_;
        for (std::uint32_t w = 0; w < p_.assoc; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                base[w].lastUse = clock_;
                base[w].dirty = base[w].dirty || write;
                return CacheResult{true, false, kNoAddr};
            }
        }
        Line *victim = nullptr;
        for (std::uint32_t w = 0; w < p_.assoc; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (!victim || base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }
        CacheResult res;
        if (victim->valid && victim->dirty) {
            res.writeback = true;
            res.victimAddr = (victim->tag * sets_ + set) * p_.lineBytes;
        }
        *victim = Line{tag, true, write, clock_};
        return res;
    }

    bool
    probe(Addr addr) const
    {
        const std::uint64_t set = (addr / p_.lineBytes) % sets_;
        const Addr tag = (addr / p_.lineBytes) / sets_;
        for (std::uint32_t w = 0; w < p_.assoc; ++w) {
            const Line &line = lines_[set * p_.assoc + w];
            if (line.valid && line.tag == tag)
                return true;
        }
        return false;
    }

    void flush() { std::fill(lines_.begin(), lines_.end(), Line{}); }

    std::uint64_t sets() const { return sets_; }

  private:
    struct Line {
        Addr tag = kNoAddr;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    CacheParams p_;
    std::uint64_t sets_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

CacheParams
geometry(const char *name, std::uint64_t size, std::uint32_t assoc,
         std::uint32_t line_bytes)
{
    CacheParams p;
    p.name = name;
    p.sizeBytes = size;
    p.assoc = assoc;
    p.lineBytes = line_bytes;
    return p;
}

/**
 * Replay one seeded read/write stream through Cache and the
 * reference, flushing both halfway: every access must agree on hit,
 * writeback and victim, and afterwards every line the stream touched
 * must probe alike. The flush empties every set again, so the second
 * half checks the fills of empty ways a second time. Half the
 * accesses go to a hot set of lines that map to four sets, twice as
 * many lines as ways each, so those sets evict and write back all the
 * time; the rest are random lines below 1 TiB, as far apart as the
 * workloads' address ranges.
 */
void
replayAgainstReference(const CacheParams &p, std::uint64_t seed,
                       int accesses)
{
    StatRegistry reg;
    Cache cache(reg, p, "c");
    ReferenceCache ref(p);
    Rng rng(seed);

    std::vector<Addr> hot;
    for (std::uint64_t s = 0; s < 4; ++s) {
        const std::uint64_t set = rng.nextBelow(ref.sets());
        for (std::uint64_t k = 0; k < 2 * p.assoc; ++k)
            hot.push_back((rng.nextBelow(1 << 20) * ref.sets() + set) *
                              p.lineBytes +
                          rng.nextBelow(p.lineBytes));
    }

    std::vector<Addr> touched;
    std::uint64_t hits = 0, writebacks = 0;
    for (int i = 0; i < accesses; ++i) {
        if (i == accesses / 2) {
            cache.flush();
            ref.flush();
        }
        const Addr addr = rng.chance(0.5)
            ? hot[rng.nextBelow(hot.size())]
            : rng.nextBelow(Addr{1} << 40);
        const bool write = rng.chance(0.3);
        const CacheResult got = cache.access(addr, write);
        const CacheResult want = ref.access(addr, write);
        ASSERT_EQ(got.hit, want.hit) << p.name << " access " << i;
        ASSERT_EQ(got.writeback, want.writeback)
            << p.name << " access " << i;
        ASSERT_EQ(got.victimAddr, want.victimAddr)
            << p.name << " access " << i;
        hits += want.hit ? 1 : 0;
        writebacks += want.writeback ? 1 : 0;
        touched.push_back(addr);
    }
    for (const Addr addr : touched)
        ASSERT_EQ(cache.probe(addr), ref.probe(addr))
            << p.name << " probe " << addr;
    EXPECT_EQ(cache.hits(), hits);
    EXPECT_EQ(cache.misses(), static_cast<std::uint64_t>(accesses) - hits);
    EXPECT_EQ(reg.get("c.writebacks").value(),
              static_cast<double>(writebacks));
    // The stream must reach every path it checks.
    EXPECT_GT(hits, 0u);
    EXPECT_GT(writebacks, 0u);
}

} // namespace

TEST(Cache, MatchesReferenceModelOnEveryGeometryInUse)
{
    const CacheParams geometries[] = {
        geometry("tcg", 16 * 1024, 4, 64),
        geometry("l1", 32 * 1024, 8, 64),
        geometry("l2", 256 * 1024, 8, 64),
        geometry("dtlb", 256 * 4096, 8, 4096),
        geometry("llc", 60 * 1024 * 1024, 20, 64), // 49,152 sets
        geometry("three_sets", 3 * 2 * 64, 2, 64),
        geometry("odd", 5 * 3 * 64, 3, 64), // 3 ways, 5 sets
        geometry("direct_mapped", 64 * 64, 1, 64),
        geometry("max_assoc", 8 * Cache::kMaxAssoc * 64, Cache::kMaxAssoc,
                 64),
    };
    for (const CacheParams &p : geometries) {
        for (const std::uint64_t seed : {1, 1009}) {
            SCOPED_TRACE(p.name);
            replayAgainstReference(p, seed, 20000);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(CacheDeathTest, AssociativityAboveRankLimitIsFatal)
{
    CacheParams p = smallCache();
    p.assoc = Cache::kMaxAssoc + 1; // 127 ways
    p.sizeBytes = 2 * p.assoc * p.lineBytes;
    EXPECT_DEATH(
        {
            StatRegistry reg;
            Cache c(reg, p, "c");
        },
        "associativity 127");
}

TEST(CacheDeathTest, ZeroAssociativityIsFatal)
{
    CacheParams p = smallCache();
    p.assoc = 0;
    EXPECT_DEATH(
        {
            StatRegistry reg;
            Cache c(reg, p, "c");
        },
        "zero-sized parameter");
}

TEST(CacheDeathTest, ZeroLineSizeIsFatal)
{
    CacheParams p = smallCache();
    p.lineBytes = 0;
    EXPECT_DEATH(
        {
            StatRegistry reg;
            Cache c(reg, p, "c");
        },
        "zero-sized parameter");
}
