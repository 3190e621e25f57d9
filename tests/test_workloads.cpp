/**
 * @file
 * Tests of benchmark profiles and the profile-driven generator,
 * including the distribution properties Fig. 8 depends on.
 */
#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "workloads/cdn.hpp"
#include "workloads/profile.hpp"
#include "workloads/profile_stream.hpp"
#include "workloads/task.hpp"

using namespace smarco;
using namespace smarco::workloads;

namespace {

AddressLayout
testLayout()
{
    AddressLayout l;
    l.spmLocalBase = 0x1000'0000;
    l.spmLocalSize = 96 * 1024;
    l.spmRemoteBase = 0x1002'0000;
    l.spmRemoteSize = 96 * 1024;
    l.heapBase = 0x8000'0000;
    l.heapSize = 64 * 1024;
    l.streamBase = 0x9000'0000;
    l.streamSize = 1024 * 1024;
    return l;
}

} // namespace

TEST(Profiles, SixHtcBenchmarksInPaperOrder)
{
    const auto &profs = htcProfiles();
    ASSERT_EQ(profs.size(), 6u);
    EXPECT_EQ(profs[0].name, "wordcount");
    EXPECT_EQ(profs[1].name, "terasort");
    EXPECT_EQ(profs[2].name, "search");
    EXPECT_EQ(profs[3].name, "kmeans");
    EXPECT_EQ(profs[4].name, "kmp");
    EXPECT_EQ(profs[5].name, "rnc");
}

TEST(Profiles, ElevenConventionalApplications)
{
    EXPECT_EQ(conventionalProfiles().size(), 11u);
}

TEST(Profiles, LookupByNameAndValidate)
{
    const auto &p = htcProfile("kmp");
    EXPECT_EQ(p.name, "kmp");
    p.validate();
    for (const auto &prof : conventionalProfiles())
        prof.validate();
}

TEST(ProfilesDeath, ValidateRejectsBadHeapZipf)
{
    BenchProfile p = htcProfile("wordcount");
    p.heapZipf = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(p.validate(), "heap Zipf exponent");
    p.heapZipf = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(p.validate(), "heap Zipf exponent");
    p.heapZipf = -1.0;
    EXPECT_DEATH(p.validate(), "heap Zipf exponent");
}

TEST(Profiles, SearchHasLowestMemoryFraction)
{
    // Section 4.2.1: "search benchmark is characterized by lower
    // memory instruction".
    const auto &profs = htcProfiles();
    for (const auto &p : profs) {
        if (p.name != "search") {
            EXPECT_LT(htcProfile("search").fracMem, p.fracMem);
        }
    }
}

TEST(Profiles, HtcGranularitySmallerThanConventional)
{
    // The Fig. 8 characterisation: HTC mean access granularity is
    // much smaller than SPLASH2-class applications.
    double htc_max = 0.0;
    for (const auto &p : htcProfiles())
        htc_max = std::max(htc_max, meanGranularity(p));
    double conv_min = 1e9;
    for (const auto &p : conventionalProfiles())
        conv_min = std::min(conv_min, meanGranularity(p));
    EXPECT_LT(htc_max, conv_min);
}

TEST(Profiles, KmpIsByteDominated)
{
    const auto &kmp = htcProfile("kmp");
    DiscreteDist d(kmp.granularityWeights);
    EXPECT_GT(d.probability(0) + d.probability(1), 0.7);
}

TEST(Profiles, KmeansAvoidsTinyAccesses)
{
    // Section 4.2.2: K-means contains few 1-2 byte packets.
    const auto &km = htcProfile("kmeans");
    DiscreteDist d(km.granularityWeights);
    EXPECT_LT(d.probability(0) + d.probability(1), 0.1);
}

TEST(Profiles, OnlyRncIsRealtimeHeavy)
{
    for (const auto &p : htcProfiles()) {
        if (p.name == "rnc")
            EXPECT_GT(p.fracPriority, 0.2);
        else
            EXPECT_DOUBLE_EQ(p.fracPriority, 0.0);
    }
}

TEST(ProfileStream, EmitsExactOpCountThenHalt)
{
    const auto &p = htcProfile("wordcount");
    ProfileStream s(p, testLayout(), 500, 42);
    isa::MicroOp op;
    std::uint64_t n = 0;
    while (s.next(op) && op.kind != isa::OpKind::Halt)
        ++n;
    EXPECT_EQ(n, 500u);
    EXPECT_EQ(op.kind, isa::OpKind::Halt);
    EXPECT_FALSE(s.next(op));
}

TEST(ProfileStream, DeterministicForSameSeed)
{
    const auto &p = htcProfile("terasort");
    ProfileStream a(p, testLayout(), 300, 7);
    ProfileStream b(p, testLayout(), 300, 7);
    isa::MicroOp oa, ob;
    while (a.next(oa)) {
        ASSERT_TRUE(b.next(ob));
        EXPECT_EQ(oa.kind, ob.kind);
        EXPECT_EQ(oa.addr, ob.addr);
        EXPECT_EQ(oa.size, ob.size);
    }
    EXPECT_FALSE(b.next(ob));
}

TEST(ProfileStream, CdnChunkStreamsWithSameSeedMatch)
{
    // Two live CDN chunks at the Fig. 2 load draw heap addresses
    // from the same large Zipf table; each must still see the whole
    // sequence its seed dictates.
    CdnWorkload cdn;
    const auto p = cdn.chunkProfile(300);
    AddressLayout l = testLayout();
    l.heapSize = p.heapWorkingSet;
    ProfileStream a(p, l, 2000, 11);
    ProfileStream b(p, l, 2000, 11);
    isa::MicroOp oa, ob;
    std::uint64_t heapOps = 0;
    while (a.next(oa)) {
        ASSERT_TRUE(b.next(ob));
        EXPECT_EQ(oa.kind, ob.kind);
        EXPECT_EQ(oa.addr, ob.addr);
        EXPECT_EQ(oa.size, ob.size);
        if (oa.addr >= l.heapBase && oa.addr < l.heapBase + l.heapSize)
            ++heapOps;
    }
    EXPECT_FALSE(b.next(ob));
    EXPECT_GT(heapOps, 0u);
}

TEST(ProfileStream, MixMatchesProfileFractions)
{
    const auto &p = htcProfile("wordcount");
    ProfileStream s(p, testLayout(), 60000, 9);
    isa::MicroOp op;
    std::map<isa::OpKind, std::uint64_t> kinds;
    std::map<isa::MemClass, std::uint64_t> classes;
    std::uint64_t mem = 0, total = 0;
    while (s.next(op) && op.kind != isa::OpKind::Halt) {
        ++kinds[op.kind];
        ++total;
        if (op.isMem()) {
            ++mem;
            ++classes[op.memClass];
        }
    }
    const double frac_mem = static_cast<double>(mem) / total;
    EXPECT_NEAR(frac_mem, p.fracMem, 0.02);
    const double frac_branch =
        static_cast<double>(kinds[isa::OpKind::Branch]) / total;
    EXPECT_NEAR(frac_branch, p.fracBranch, 0.02);
    // Class split within memory ops (bursts must preserve it).
    EXPECT_NEAR(classes[isa::MemClass::SpmLocal] / double(mem),
                p.fracSpmLocal, 0.04);
    EXPECT_NEAR(classes[isa::MemClass::Stream] / double(mem),
                p.fracStream(), 0.04);
}

TEST(ProfileStream, AddressesStayInRegions)
{
    const auto &p = htcProfile("rnc");
    const auto layout = testLayout();
    ProfileStream s(p, layout, 20000, 4);
    isa::MicroOp op;
    while (s.next(op) && op.kind != isa::OpKind::Halt) {
        if (!op.isMem())
            continue;
        switch (op.memClass) {
          case isa::MemClass::SpmLocal:
            EXPECT_GE(op.addr, layout.spmLocalBase);
            EXPECT_LT(op.addr + op.size,
                      layout.spmLocalBase + layout.spmLocalSize + 64);
            break;
          case isa::MemClass::SpmRemote:
            EXPECT_GE(op.addr, layout.spmRemoteBase);
            break;
          case isa::MemClass::Heap:
            EXPECT_GE(op.addr, layout.heapBase);
            EXPECT_LT(op.addr, layout.heapBase + layout.heapSize);
            break;
          case isa::MemClass::Stream:
            EXPECT_GE(op.addr, layout.streamBase);
            EXPECT_LT(op.addr,
                      layout.streamBase + layout.streamSize + 64);
            break;
          case isa::MemClass::None:
            FAIL() << "memory op without a class";
        }
    }
}

TEST(ProfileStream, StreamAccessesAreBursty)
{
    // Consecutive stream accesses should frequently fall into the
    // same 64-byte line (what the MACT exploits).
    const auto &p = htcProfile("kmp");
    ProfileStream s(p, testLayout(), 40000, 21);
    isa::MicroOp op;
    Addr last_line = kNoAddr;
    std::uint64_t stream_ops = 0, same_line = 0;
    while (s.next(op) && op.kind != isa::OpKind::Halt) {
        if (op.memClass != isa::MemClass::Stream)
            continue;
        const Addr line = op.addr & ~Addr{63};
        if (line == last_line)
            ++same_line;
        last_line = line;
        ++stream_ops;
    }
    ASSERT_GT(stream_ops, 100u);
    EXPECT_GT(static_cast<double>(same_line) / stream_ops, 0.5);
}

TEST(ProfileStream, RealtimeFractionForRnc)
{
    const auto &p = htcProfile("rnc");
    ProfileStream s(p, testLayout(), 30000, 5);
    isa::MicroOp op;
    std::uint64_t pri = 0, total = 0;
    while (s.next(op) && op.kind != isa::OpKind::Halt) {
        ++total;
        pri += op.priority ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(pri) / total, p.fracPriority, 0.02);
}

TEST(TaskSet, GeneratesRequestedCountWithJitter)
{
    const auto &p = htcProfile("kmeans");
    TaskSetParams tp;
    tp.count = 100;
    tp.opsJitter = 0.2;
    tp.seed = 3;
    const auto tasks = makeTaskSet(p, tp);
    ASSERT_EQ(tasks.size(), 100u);
    bool varied = false;
    for (const auto &t : tasks) {
        EXPECT_GE(t.numOps, static_cast<std::uint64_t>(
                                p.opsPerTask * 0.79));
        EXPECT_LE(t.numOps, static_cast<std::uint64_t>(
                                p.opsPerTask * 1.21));
        varied |= t.numOps != p.opsPerTask;
        EXPECT_EQ(t.profile, &p);
    }
    EXPECT_TRUE(varied);
}

TEST(TaskSet, DeadlineAndReleaseApplied)
{
    const auto &p = htcProfile("rnc");
    TaskSetParams tp;
    tp.count = 50;
    tp.deadline = 340000;
    tp.realtime = true;
    tp.releaseSpan = 1000;
    const auto tasks = makeTaskSet(p, tp);
    for (const auto &t : tasks) {
        EXPECT_EQ(t.deadline, 340000u);
        EXPECT_TRUE(t.realtime);
        EXPECT_LE(t.release, 1000u);
        EXPECT_TRUE(t.hasDeadline());
    }
}

TEST(Cdn, NicSaturationPoint)
{
    CdnWorkload cdn;
    // 10 Gbps / 25 Mbps = 400 clients.
    EXPECT_EQ(cdn.saturationClients(), 400u);
}

TEST(Cdn, ChunkRateCapsAtNic)
{
    CdnWorkload cdn;
    const double below = cdn.chunkRate(200);
    const double at = cdn.chunkRate(400);
    const double above = cdn.chunkRate(800);
    EXPECT_LT(below, at);
    EXPECT_DOUBLE_EQ(at, above);
}

TEST(Cdn, WorkingSetGrowsWithClients)
{
    CdnWorkload cdn;
    const auto p100 = cdn.chunkProfile(100);
    const auto p400 = cdn.chunkProfile(400);
    EXPECT_LT(p100.heapWorkingSet, p400.heapWorkingSet);
    EXPECT_LT(p100.branchMissRate, p400.branchMissRate);
    p100.validate();
    p400.validate();
}
