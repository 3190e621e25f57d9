/**
 * @file
 * Property-based and parameterised sweeps across modules: invariants
 * that must hold for every benchmark profile, slice width, MACT
 * threshold, and DRAM service class.
 */
#include <gtest/gtest.h>

#include <map>

#include "chip/chip_config.hpp"
#include "chip/smarco_chip.hpp"
#include "mem/dram.hpp"
#include "mem/mact.hpp"
#include "mem/mem_types.hpp"
#include "noc/ring.hpp"
#include "power/power_model.hpp"
#include "workloads/profile.hpp"
#include "workloads/profile_stream.hpp"

using namespace smarco;

// ---------------------------------------------------------------------
// Memory map invariants.

TEST(MemoryMap, SpmWindowsPartitionTheSpmRange)
{
    const auto map = chip::ChipConfig::simulated256().map();
    for (CoreId c : {0u, 1u, 17u, 255u}) {
        const Addr base = map.spmBaseOf(c);
        EXPECT_TRUE(map.isSpm(base));
        EXPECT_TRUE(map.isSpm(base + map.spmPerCore - 1));
        EXPECT_EQ(map.spmOwner(base), c);
        EXPECT_EQ(map.spmOwner(base + map.spmPerCore - 1), c);
    }
    EXPECT_FALSE(map.isSpm(map.spmBase - 1));
    EXPECT_FALSE(map.isSpm(map.spmBase + 256ull * map.spmPerCore));
}

TEST(MemoryMap, SpmAndDramDisjoint)
{
    const auto map = chip::ChipConfig::simulated256().map();
    // The last scratch-pad window ends at or below the DRAM base.
    EXPECT_LE(map.spmBaseOf(map.numCores - 1) + map.spmPerCore,
              map.dramBase);
    for (Addr a = map.dramBase; a < map.dramBase + 4096; a += 64)
        EXPECT_FALSE(map.isSpm(a));
}

// ---------------------------------------------------------------------
// Generator conservation properties over every HTC profile.

class EveryProfile : public ::testing::TestWithParam<const char *>
{
  protected:
    workloads::AddressLayout
    layout() const
    {
        workloads::AddressLayout l;
        l.spmLocalBase = 0x1000'0000;
        l.heapBase = 0x8000'0000;
        l.heapSize = 64 * 1024;
        l.streamBase = 0x9000'0000;
        l.streamSize = 8 * 1024 * 1024;
        return l;
    }
};

INSTANTIATE_TEST_SUITE_P(AllHtc, EveryProfile,
                         ::testing::Values("wordcount", "terasort",
                                           "search", "kmeans", "kmp",
                                           "rnc"));

TEST_P(EveryProfile, StreamFractionSurvivesBursting)
{
    // The burst-entry maths must keep the overall class mix at the
    // profile's fractions regardless of the burst length.
    const auto &prof = workloads::htcProfile(GetParam());
    workloads::ProfileStream s(prof, layout(), 80000, 5);
    isa::MicroOp op;
    std::uint64_t mem = 0, stream = 0;
    while (s.next(op) && op.kind != isa::OpKind::Halt) {
        if (!op.isMem())
            continue;
        ++mem;
        stream += op.memClass == isa::MemClass::Stream;
    }
    ASSERT_GT(mem, 1000u);
    EXPECT_NEAR(static_cast<double>(stream) / mem, prof.fracStream(),
                0.05);
}

TEST_P(EveryProfile, GranularityMatchesConfiguredWeights)
{
    const auto &prof = workloads::htcProfile(GetParam());
    DiscreteDist dist(prof.granularityWeights);
    workloads::ProfileStream s(prof, layout(), 80000, 9);
    isa::MicroOp op;
    std::map<std::uint8_t, std::uint64_t> sizes;
    std::uint64_t mem = 0;
    while (s.next(op) && op.kind != isa::OpKind::Halt) {
        if (op.isMem()) {
            ++sizes[op.size];
            ++mem;
        }
    }
    for (std::size_t g = 0; g < workloads::kNumGranularities; ++g) {
        const double expect = dist.probability(g);
        const double got =
            static_cast<double>(sizes[workloads::kGranularitySizes[g]]) /
            static_cast<double>(mem);
        EXPECT_NEAR(got, expect, 0.03) << "granularity index " << g;
    }
}

TEST_P(EveryProfile, SeedsProduceDistinctStreams)
{
    const auto &prof = workloads::htcProfile(GetParam());
    workloads::ProfileStream a(prof, layout(), 2000, 1);
    workloads::ProfileStream b(prof, layout(), 2000, 2);
    isa::MicroOp oa, ob;
    int diffs = 0;
    for (int i = 0; i < 2000; ++i) {
        a.next(oa);
        b.next(ob);
        diffs += oa.kind != ob.kind || oa.addr != ob.addr;
    }
    EXPECT_GT(diffs, 100);
}

// ---------------------------------------------------------------------
// Ring invariants over every slice width.

class EverySlice : public ::testing::TestWithParam<std::uint32_t>
{
};

INSTANTIATE_TEST_SUITE_P(Slices, EverySlice,
                         ::testing::Values(0u, 2u, 4u, 8u, 16u));

TEST_P(EverySlice, PacketConservationUnderLoad)
{
    Simulator sim;
    noc::RingParams rp;
    rp.numStops = 9;
    rp.sliceBytes = GetParam();
    noc::Ring ring(sim, rp, "ring");
    std::uint64_t delivered = 0;
    for (std::uint32_t s = 0; s < rp.numStops; ++s)
        ring.setHandler(s, [&](noc::Packet &&) { ++delivered; });
    Rng rng(3, GetParam());
    std::uint64_t injected = 0;
    for (int round = 0; round < 300; ++round) {
        for (std::uint32_t s = 0; s < rp.numStops; ++s) {
            noc::Packet p;
            p.payloadBytes =
                static_cast<std::uint32_t>(1 + rng.nextBelow(64));
            const auto dst = static_cast<std::uint32_t>(
                (s + 1 + rng.nextBelow(rp.numStops - 1)) % rp.numStops);
            if (dst != s && ring.inject(s, dst, std::move(p)))
                ++injected;
        }
        sim.run(1);
    }
    sim.run(20000);
    EXPECT_EQ(delivered, injected);
    EXPECT_EQ(ring.inFlight(), 0u);
}

TEST(RingFlex, BidirectionalPoolFollowsTheLoadedDirection)
{
    // All-one-way traffic must beat the fixed per-direction width
    // alone (the two flexible datapaths join the loaded direction).
    Simulator sim;
    noc::RingParams rp;
    rp.numStops = 8;
    rp.fixedBytesPerDir = 8;
    rp.flexBytes = 16;
    rp.sliceBytes = 2;
    noc::Ring ring(sim, rp, "ring");
    std::uint64_t bytes = 0;
    ring.setHandler(1, [&](noc::Packet &&p) {
        bytes += p.payloadBytes;
    });
    for (int i = 0; i < 60; ++i) {
        noc::Packet p;
        p.payloadBytes = 16;
        ring.inject(0, 1, std::move(p));
    }
    sim.run(50);
    // 50 cycles x 8 fixed bytes = 400 B; the pool must push past it.
    EXPECT_GT(bytes, 500u);
}

// ---------------------------------------------------------------------
// MACT conservation over every threshold.

class EveryThreshold : public ::testing::TestWithParam<Cycle>
{
};

INSTANTIATE_TEST_SUITE_P(Thresholds, EveryThreshold,
                         ::testing::Values(4u, 8u, 16u, 32u, 64u));

TEST_P(EveryThreshold, NoRequestLostOrDuplicated)
{
    Simulator sim;
    mem::MactParams mp;
    mp.threshold = GetParam();
    mp.lines = 8;
    mem::Mact mact(sim, mp, "mact");
    std::uint64_t batched_reqs = 0;
    mact.setSink([&](mem::MactBatch &&b) {
        batched_reqs += b.requests.size();
        // The bitmap must cover at least one byte per merged request
        // line (same-offset merges may overlap).
        EXPECT_GE(b.coveredBytes(), 1u);
        EXPECT_LE(b.coveredBytes(), 64u);
    });
    Rng rng(7, GetParam());
    std::uint64_t accepted = 0;
    for (Cycle now = 0; now < 3000; ++now) {
        mact.tick(now);
        if (rng.chance(0.4)) {
            mem::MemRequest req;
            req.id = now;
            req.addr = 0x9000'0000 + rng.nextBelow(1024);
            req.bytes = static_cast<std::uint32_t>(
                1 + rng.nextBelow(8));
            req.write = rng.chance(0.4);
            accepted += mact.collect(req, now) ? 1 : 0;
        }
    }
    // Tick past the threshold: every line still open meets its
    // deadline.
    for (Cycle now = 3000; now < 3000 + GetParam(); ++now)
        mact.tick(now);
    EXPECT_EQ(batched_reqs, accepted);
    EXPECT_EQ(mact.occupancy(), 0u);
}

// ---------------------------------------------------------------------
// DRAM service classes.

TEST(DramClasses, DemandOvertakesBulk)
{
    Simulator sim;
    mem::DramParams params;
    mem::DramController dram(sim, params, "dram");
    Cycle bulk_done = 0, demand_done = 0;
    // The job's id says which class it was served in.
    enum : std::uint64_t { kBulk = 1, kDemand = 2 };
    dram.setSink([&](mem::DramJob &&job) {
        (std::get<mem::MemRequest>(job).id == kBulk ? bulk_done
                                                    : demand_done) =
            sim.now();
    });
    for (int i = 0; i < 10; ++i)
        dram.serve(0x40, 256, 0, mem::MemRequest{.id = kBulk},
                   mem::DramClass::Bulk);
    dram.serve(0x40, 8, 0, mem::MemRequest{.id = kDemand},
               mem::DramClass::DemandRead);
    sim.run(10000);
    EXPECT_LT(demand_done, bulk_done);
}

TEST(DramClasses, BulkNotStarvedByDemandStream)
{
    Simulator sim;
    mem::DramParams params;
    params.demandStreakLimit = 3;
    mem::DramController dram(sim, params, "dram");
    int bulk_served = 0;
    dram.setSink([&](mem::DramJob &&) { ++bulk_served; });
    for (int i = 0; i < 8; ++i)
        dram.serve(0x40, 64, 0, mem::MemRequest{},
                   mem::DramClass::Bulk);
    // A long steady stream of demand reads on the same channel.
    for (int i = 0; i < 200; ++i)
        dram.serve(0x40, 8, 0, {}, mem::DramClass::DemandRead);
    sim.run(1200);
    // The anti-starvation share must have served all bulk requests
    // even though demand never went empty.
    EXPECT_EQ(bulk_served, 8);
}

TEST(DramClasses, ChannelHashCoversAllChannelsForStrides)
{
    Simulator sim;
    mem::DramParams params;
    mem::DramController dram(sim, params, "dram");
    for (std::uint32_t stride : {64u, 128u, 256u, 512u, 4096u}) {
        int seen[4] = {0, 0, 0, 0};
        for (Addr a = 0; a < 256ull * stride; a += stride)
            ++seen[dram.channelOf(a)];
        for (int c = 0; c < 4; ++c)
            EXPECT_GT(seen[c], 16)
                << "stride " << stride << " starves channel " << c;
    }
}

// ---------------------------------------------------------------------
// Power-model monotonicity properties.

TEST(PowerProperties, MoreCoresMoreAreaAndPower)
{
    const auto node = power::TechNode::nm32();
    const auto small =
        power::smarcoPower(chip::ChipConfig::scaled(4, 16), node);
    const auto big =
        power::smarcoPower(chip::ChipConfig::scaled(16, 16), node);
    EXPECT_LT(small.totalAreaMm2(), big.totalAreaMm2());
    EXPECT_LT(small.totalPowerW(), big.totalPowerW());
}

TEST(PowerProperties, FrequencyScalesDynamicOnly)
{
    auto slow = chip::ChipConfig::simulated256();
    slow.freqGHz = 1.0;
    auto fast = slow;
    fast.freqGHz = 2.0;
    const auto r_slow =
        power::smarcoPower(slow, power::TechNode::nm32());
    const auto r_fast =
        power::smarcoPower(fast, power::TechNode::nm32());
    EXPECT_LT(r_slow.totalPowerW(), r_fast.totalPowerW());
    EXPECT_DOUBLE_EQ(r_slow.totalAreaMm2(), r_fast.totalAreaMm2());
}

// ---------------------------------------------------------------------
// Chip-level conservation across configurations.

class EveryChipScale
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

INSTANTIATE_TEST_SUITE_P(
    Scales, EveryChipScale,
    ::testing::Values(std::make_pair(1, 4), std::make_pair(2, 4),
                      std::make_pair(2, 16), std::make_pair(4, 8)));

TEST_P(EveryChipScale, TasksNeverLostAcrossTopologies)
{
    const auto [rings, cores] = GetParam();
    Simulator sim;
    chip::SmarcoChip chip(
        sim, chip::ChipConfig::scaled(rings, cores));
    workloads::TaskSetParams tp;
    tp.count = static_cast<std::uint64_t>(rings) * cores * 3;
    tp.seed = 19;
    auto tasks = workloads::makeTaskSet(
        workloads::htcProfile("terasort"), tp);
    for (auto &t : tasks)
        t.numOps = 3000;
    chip.submit(tasks);
    chip.runUntilDone(100'000'000);
    EXPECT_EQ(chip.metrics().tasksCompleted, tp.count);
    EXPECT_TRUE(sim.finishedIdle());
}
