/**
 * @file
 * Unit tests of the bidirectional high-density ring (Sections 3.2-3.3).
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "noc/ring.hpp"
#include "sim/simulator.hpp"

using namespace smarco;
using namespace smarco::noc;

namespace {

/** Value of the registered stat "<prefix>.<name>" of a ring. */
double
ringStat(Simulator &s, const std::string &prefix, const char *name)
{
    return s.stats().get(prefix + "." + name).value();
}

struct RingFixture : ::testing::Test {
    Simulator sim;
    RingParams params;

    RingFixture()
    {
        params.name = "testRing";
        params.numStops = 8;
        params.fixedBytesPerDir = 8;
        params.flexBytes = 16;
        params.sliceBytes = 2;
    }

    std::unique_ptr<Ring>
    make()
    {
        return std::make_unique<Ring>(sim, params, "ring");
    }

    Packet
    pkt(std::uint32_t bytes, bool priority = false)
    {
        Packet p;
        p.payloadBytes = bytes;
        p.priority = priority;
        p.created = sim.now();
        return p;
    }
};

} // namespace

TEST_F(RingFixture, DistanceBothDirections)
{
    auto ring = make();
    EXPECT_EQ(ring->distance(0, 3, 0), 3u);
    EXPECT_EQ(ring->distance(0, 3, 1), 5u);
    EXPECT_EQ(ring->distance(7, 0, 0), 1u);
    EXPECT_EQ(ring->distance(2, 2, 0), 0u);
}

TEST_F(RingFixture, DeliversToHandler)
{
    auto ring = make();
    int delivered = 0;
    ring->setHandler(3, [&](Packet &&) { ++delivered; });
    ASSERT_TRUE(ring->inject(0, 3, pkt(8)));
    sim.run(100);
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(ringStat(sim, "ring", "delivered"), 1.0);
    EXPECT_EQ(ring->inFlight(), 0u);
}

TEST_F(RingFixture, StopWithoutHandlerDiscardsPacket)
{
    // The stop handler takes every packet ejected at its stop; a stop
    // without a handler discards the packet.
    auto ring = make();
    int handled = 0;
    ring->setHandler(3, [&](Packet &&) { ++handled; });
    ASSERT_TRUE(ring->inject(0, 3, pkt(8)));
    sim.run(100);
    EXPECT_EQ(handled, 1);

    ASSERT_TRUE(ring->inject(0, 5, pkt(8)));
    sim.run(100);
    EXPECT_EQ(handled, 1);
    EXPECT_EQ(ring->inFlight(), 0u);
}

TEST_F(RingFixture, LatencyScalesWithHops)
{
    auto ring = make();
    Cycle t1 = 0, t3 = 0;
    ring->setHandler(1, [&](Packet &&) { t1 = sim.now(); });
    ring->setHandler(3, [&](Packet &&) { t3 = sim.now(); });
    ring->inject(0, 1, pkt(8));
    ring->inject(0, 3, pkt(8));
    sim.run(100);
    EXPECT_GT(t3, t1);
}

TEST_F(RingFixture, ShortestDirectionChosen)
{
    // A packet from 0 to 7 should go counter-clockwise (1 hop), so it
    // arrives quickly even though clockwise would take 7 hops.
    auto ring = make();
    Cycle arrive = 0;
    ring->setHandler(7, [&](Packet &&) { arrive = sim.now(); });
    ring->inject(0, 7, pkt(8));
    sim.run(100);
    EXPECT_LE(arrive, 5u);
}

TEST_F(RingFixture, HighDensityPacksSmallPacketsPerCycle)
{
    // With 2-byte slices, several small packets share one cycle's
    // link bytes; with conventional wide links (slice = 0) each
    // packet burns a full cycle.
    std::uint64_t hd_cycles = 0, conv_cycles = 0;
    for (int mode = 0; mode < 2; ++mode) {
        Simulator s;
        RingParams p = params;
        p.sliceBytes = mode == 0 ? 2 : 0;
        Ring ring(s, p, mode == 0 ? "hd" : "conv");
        int remaining = 32;
        ring.setHandler(1, [&](Packet &&) { --remaining; });
        for (int i = 0; i < 32; ++i) {
            Packet q;
            q.payloadBytes = 2;
            ASSERT_TRUE(ring.inject(0, 1, std::move(q)));
        }
        s.run(1000);
        EXPECT_EQ(remaining, 0);
        (mode == 0 ? hd_cycles : conv_cycles) = s.now();
    }
    EXPECT_LT(hd_cycles * 2, conv_cycles);
}

TEST_F(RingFixture, LargePacketSerialisesOverMultipleCycles)
{
    auto ring = make();
    Cycle arrive = 0;
    ring->setHandler(1, [&](Packet &&) { arrive = sim.now(); });
    ring->inject(0, 1, pkt(256)); // 256B over a <=24B/cycle link
    sim.run(1000);
    // At least ceil(256/24) = 11 cycles of serialisation.
    EXPECT_GE(arrive, 11u);
}

TEST_F(RingFixture, PriorityPacketsJumpTheInjectionQueue)
{
    auto ring = make();
    std::vector<bool> order;
    ring->setHandler(4, [&](Packet &&p) { order.push_back(p.priority); });
    // Fill with big normal packets, then add one priority packet.
    for (int i = 0; i < 6; ++i)
        ring->inject(0, 4, pkt(64));
    ring->inject(0, 4, pkt(8, /*priority=*/true));
    sim.run(1000);
    ASSERT_EQ(order.size(), 7u);
    EXPECT_TRUE(order.front());
}

TEST_F(RingFixture, FlexDatapathsFollowLoad)
{
    // With all traffic flowing one way, throughput should exceed the
    // fixed per-direction bytes thanks to the bidirectional pool.
    auto ring = make();
    int remaining = 40;
    ring->setHandler(1, [&](Packet &&) { --remaining; });
    for (int i = 0; i < 40; ++i)
        ring->inject(0, 1, pkt(16));
    sim.run(1000);
    EXPECT_EQ(remaining, 0);
    // 40 x 16B = 640 B at 8 fixed B/cycle would need 80+ cycles; with
    // the flex pool (up to 24 B/cycle one-way) it finishes far sooner.
    EXPECT_LT(sim.now(), 60u);
}

TEST_F(RingFixture, BackpressureDoesNotDropPackets)
{
    params.stopQueueCap = 2;
    params.injectQueueCap = 4;
    auto ring = make();
    int delivered = 0;
    ring->setHandler(4, [&](Packet &&) { ++delivered; });
    int injected = 0;
    // Saturate: inject as many as the queue accepts over time.
    for (int round = 0; round < 50; ++round) {
        if (ring->inject(0, 4, pkt(24)))
            ++injected;
        sim.run(1);
    }
    sim.run(2000);
    EXPECT_GT(injected, 10);
    EXPECT_EQ(delivered, injected);
    EXPECT_EQ(ring->inFlight(), 0u);
}

TEST_F(RingFixture, SelfInjectionPanics)
{
    auto ring = make();
    EXPECT_DEATH(ring->inject(2, 2, pkt(8)), "self-injection");
}

TEST_F(RingFixture, UtilisationBetweenZeroAndOne)
{
    auto ring = make();
    ring->setHandler(2, [](Packet &&) {});
    for (int i = 0; i < 10; ++i)
        ring->inject(0, 2, pkt(16));
    sim.run(100);
    const double u = ring->utilisation(sim.now());
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
}

TEST_F(RingFixture, ManyToManyTrafficAllDelivered)
{
    auto ring = make();
    int delivered = 0;
    for (std::uint32_t s = 0; s < params.numStops; ++s)
        ring->setHandler(s, [&](Packet &&) { ++delivered; });
    int injected = 0;
    for (std::uint32_t s = 0; s < params.numStops; ++s) {
        for (std::uint32_t d = 0; d < params.numStops; ++d) {
            if (s == d)
                continue;
            if (ring->inject(s, d, pkt(6)))
                ++injected;
        }
    }
    sim.run(5000);
    EXPECT_EQ(delivered, injected);
    EXPECT_EQ(injected, int(params.numStops * (params.numStops - 1)));
}

// ---------------------------------------------------------------------
// Link fault model: drop -> NACK -> retransmit (see src/fault/).

TEST_F(RingFixture, DropNackRetransmitDeliversExactlyOnce)
{
    // Run the same single-packet route clean and with one armed drop;
    // the faulted delivery must arrive at least nackDelay later and
    // exactly once.
    Cycle clean_arrive = 0, fault_arrive = 0;
    for (int mode = 0; mode < 2; ++mode) {
        Simulator s;
        const std::string prefix = mode == 0 ? "clean" : "faulted";
        Ring ring(s, params, prefix);
        if (mode == 1) {
            RingFaultParams rf;
            rf.nackDelay = 12;
            ring.setFaults(rf);
            ring.armDrop(1);
        }
        int delivered = 0;
        Cycle arrive = 0;
        ring.setHandler(3, [&](Packet &&) {
            ++delivered;
            arrive = s.now();
        });
        Packet q;
        q.payloadBytes = 8;
        q.id = 7;
        ASSERT_TRUE(ring.inject(0, 3, std::move(q)));
        s.run(500);
        EXPECT_EQ(delivered, 1);
        if (mode == 0) {
            clean_arrive = arrive;
            EXPECT_EQ(ringStat(s, prefix, "faultDrops"), 0.0);
        } else {
            fault_arrive = arrive;
            EXPECT_EQ(ringStat(s, prefix, "faultDrops"), 1.0);
            EXPECT_EQ(ringStat(s, prefix, "retransmits"), 1.0);
            EXPECT_EQ(ring.inFlight(), 0u);
        }
    }
    EXPECT_GE(fault_arrive, clean_arrive + 12);
}

TEST_F(RingFixture, DuplicateDeliveredOnceAndSuppressed)
{
    auto ring = make();
    ring->armDuplicate(1);
    int delivered = 0;
    ring->setHandler(5, [&](Packet &&) { ++delivered; });
    Packet q = pkt(8);
    q.id = 42;
    ASSERT_TRUE(ring->inject(0, 5, std::move(q)));
    sim.run(500);
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(ringStat(sim, "ring", "dupsSuppressed"), 1.0);
    EXPECT_EQ(ring->inFlight(), 0u);
}

TEST_F(RingFixture, RetransmitPaysSlicedLinkBandwidth)
{
    // Drops happen at the end of a crossing (CRC fail at the
    // receiver), so the dropped crossing's wire bytes are spent. On a
    // one-hop route the faulted run must burn exactly twice the
    // clean run's wire bytes: one wasted crossing + the retransmit.
    double clean_bytes = 0.0, fault_bytes = 0.0;
    for (int mode = 0; mode < 2; ++mode) {
        Simulator s;
        Ring ring(s, params, "r");
        if (mode == 1)
            ring.armDrop(1);
        int delivered = 0;
        ring.setHandler(1, [&](Packet &&) { ++delivered; });
        Packet q;
        q.payloadBytes = 8;
        q.id = 9;
        ASSERT_TRUE(ring.inject(0, 1, std::move(q)));
        s.run(500);
        EXPECT_EQ(delivered, 1);
        (mode == 0 ? clean_bytes : fault_bytes) =
            s.stats().get("r.wireBytesUsed").value();
    }
    EXPECT_GT(clean_bytes, 0.0);
    EXPECT_EQ(fault_bytes, 2.0 * clean_bytes);
}

TEST_F(RingFixture, MaxRetransmitsProtectsDelivery)
{
    // A packet that has been retransmitted maxRetransmits times is
    // protected from further drops, so even an absurd standing drop
    // arm cannot livelock it.
    auto ring = make();
    RingFaultParams rf;
    rf.nackDelay = 4;
    rf.maxRetransmits = 3;
    ring->setFaults(rf);
    ring->armDrop(1000);
    int delivered = 0;
    ring->setHandler(2, [&](Packet &&) { ++delivered; });
    Packet q = pkt(8);
    q.id = 11;
    ASSERT_TRUE(ring->inject(0, 2, std::move(q)));
    sim.run(5000);
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(ring->inFlight(), 0u);
    EXPECT_LE(ringStat(sim, "ring", "faultDrops"),
              3.0 * 2.0); // <= retries x hops
}

TEST_F(RingFixture, DegradedLinkSlowsThenRecovers)
{
    // Degrading the (0, dir 0) link to a tiny fraction during the
    // window slows a transfer; after the window the same transfer
    // runs at full speed again.
    auto ring = make();
    ring->degradeLink(0, 0, 0.05, 200);
    Cycle first = 0, second = 0;
    int phase = 0;
    ring->setHandler(1, [&](Packet &&) {
        (phase == 0 ? first : second) = sim.now();
    });
    ring->inject(0, 1, pkt(64));
    // The second inject is scheduled past the degrade window (the run
    // would otherwise go idle and stop before cycle 200).
    const Cycle start2 = 300;
    Ring *r = ring.get();
    Simulator *s = &sim;
    sim.events().schedule(start2, [r, s, &phase] {
        phase = 1;
        Packet q;
        q.payloadBytes = 64;
        q.priority = false;
        q.created = s->now();
        r->inject(0, 1, std::move(q));
    });
    sim.run(1000);
    ASSERT_GT(first, 0u);
    ASSERT_GT(second, start2);
    EXPECT_LT(second - start2, first);
}

TEST_F(RingFixture, SlicedDegradedLinksKeepTheirTimeline)
{
    // With a 3-byte slice, which is not a power of two, and degraded
    // budgets (7, 12 and the one-byte floor) that are not multiples
    // of it, every quantisation takes the general path; a 2-byte
    // slice takes the power-of-two path with odd payloads. The
    // delivery cycles and wire bytes of both are pinned.
    using Timeline = std::vector<std::pair<std::uint64_t, Cycle>>;
    const auto timeline = [this](std::uint32_t slice, double &wire) {
        Simulator s;
        RingParams p = params;
        p.sliceBytes = slice;
        Ring ring(s, p, "r");
        ring.degradeLink(1, 0, 0.3, 120);
        ring.degradeLink(5, 1, 0.5, 200);
        ring.degradeLink(2, 0, 0.02, 60);
        Timeline got;
        for (std::uint32_t k = 0; k < p.numStops; ++k)
            ring.setHandler(k, [&](Packet &&q) {
                got.emplace_back(q.id, s.now());
            });
        const struct {
            std::uint32_t src, dst, bytes;
        } sends[] = {{0, 3, 5},  {0, 3, 16}, {0, 3, 1}, {0, 3, 33},
                     {6, 2, 7},  {6, 2, 64}, {7, 4, 9}, {7, 4, 2},
                     {5, 1, 40}, {1, 2, 11}};
        std::uint64_t id = 1;
        for (const auto &snd : sends) {
            Packet q;
            q.payloadBytes = snd.bytes;
            q.id = id++;
            EXPECT_TRUE(ring.inject(snd.src, snd.dst, std::move(q)));
        }
        s.run(2000);
        EXPECT_EQ(ring.inFlight(), 0u);
        wire = s.stats().get("r.wireBytesUsed").value();
        return got;
    };
    double wire = 0.0;
    EXPECT_EQ(timeline(3, wire),
              (Timeline{{7, 3},  {8, 3},  {1, 7},  {9, 13}, {2, 23},
                        {5, 24}, {3, 24}, {6, 57}, {4, 57}, {10, 58}}));
    EXPECT_EQ(wire, 691.0);
    EXPECT_EQ(timeline(2, wire),
              (Timeline{{7, 3},  {8, 3},  {1, 7},  {9, 12}, {2, 23},
                        {5, 24}, {3, 24}, {6, 57}, {4, 57}, {10, 58}}));
    EXPECT_EQ(wire, 667.0);
}

TEST_F(RingFixture, OverfullThroughQueuesDeliverOnceInBothKernelModes)
{
    // With a two-packet through-queue, a NACKed packet re-entering at
    // the head and a duplicate staged beside its original both push a
    // queue past its cap. Every packet still arrives exactly once,
    // and the delivery sequence does not depend on the kernel mode.
    params.stopQueueCap = 2;
    struct Delivery {
        Cycle when;
        std::uint32_t stop;
        std::uint64_t id;
        bool operator==(const Delivery &) const = default;
    };
    const auto deliveries = [this](bool fast_forward) {
        Simulator s;
        s.setFastForward(fast_forward);
        Ring ring(s, params, "r");
        ring.armDrop(12);
        ring.armDuplicate(40);
        std::vector<Delivery> out;
        for (std::uint32_t k = 0; k < params.numStops; ++k)
            ring.setHandler(k, [&out, &s, k](Packet &&p) {
                out.push_back({s.now(), k, p.id});
            });
        std::uint64_t id = 1;
        const auto burst = [&] {
            for (std::uint32_t a = 0; a < params.numStops; ++a)
                for (std::uint32_t b = 0; b < params.numStops; ++b) {
                    if (a == b)
                        continue;
                    Packet q;
                    q.payloadBytes = 2 + (a * 5 + b * 3) % 19;
                    q.id = id++;
                    q.created = s.now();
                    EXPECT_TRUE(ring.inject(a, b, std::move(q)));
                }
        };
        burst();
        s.events().schedule(7, burst);
        s.run(50'000);
        EXPECT_TRUE(s.finishedIdle());
        EXPECT_EQ(ring.inFlight(), 0u);
        EXPECT_EQ(ringStat(s, "r", "faultDrops"), 12.0);
        EXPECT_EQ(ringStat(s, "r", "dupsSuppressed"), 40.0);
        std::vector<int> seen(id, 0);
        for (const Delivery &d : out)
            ++seen[d.id];
        for (std::uint64_t k = 1; k < id; ++k)
            EXPECT_EQ(seen[k], 1) << "packet " << k;
        return out;
    };
    const auto ff = deliveries(true);
    EXPECT_EQ(ff.size(), 2u * 8u * 7u);
    EXPECT_TRUE(ff == deliveries(false));
}
