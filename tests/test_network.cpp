/**
 * @file
 * Tests of the hierarchical ring network and the direct datapath.
 */
#include <gtest/gtest.h>

#include <vector>

#include "noc/direct_path.hpp"
#include "noc/network.hpp"
#include "sim/simulator.hpp"

using namespace smarco;
using namespace smarco::noc;

namespace {

struct NetFixture : ::testing::Test {
    /** One packet the endpoint handler took. */
    struct Delivery {
        NodeId dst;
        Cycle at = 0;
    };

    Simulator sim;
    NetworkParams params;
    /** Deliveries in arrival order, recorded by make()'s handler. */
    std::vector<Delivery> deliveries;

    NetFixture()
    {
        params.numSubRings = 4;
        params.coresPerSubRing = 4;
    }

    std::unique_ptr<Network>
    make()
    {
        auto net = std::make_unique<Network>(sim, params,
                                             /*num_mem_ctrls=*/4, "noc");
        net->setEndpointHandler([this](Packet &&p) {
            deliveries.push_back(Delivery{p.dst, sim.now()});
        });
        return net;
    }

    /** Arrival cycle of the first packet delivered to dst, or 0. */
    Cycle
    arrival(NodeId dst) const
    {
        for (const Delivery &d : deliveries)
            if (d.dst == dst)
                return d.at;
        return 0;
    }

    Packet
    pkt(NodeId src, NodeId dst, std::uint32_t bytes,
        PacketKind kind = PacketKind::Control)
    {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.payloadBytes = bytes;
        p.kind = kind;
        return p;
    }
};

} // namespace

TEST_F(NetFixture, TopologyHelpers)
{
    auto net = make();
    EXPECT_EQ(net->numCores(), 16u);
    EXPECT_EQ(net->subRingOf(0), 0u);
    EXPECT_EQ(net->subRingOf(5), 1u);
    EXPECT_EQ(net->subStopOf(5), 1u);
    EXPECT_EQ(net->subRingOf(15), 3u);
}

TEST_F(NetFixture, CoreToCoreSameSubRing)
{
    auto net = make();
    net->send(pkt(NodeId{NodeKind::Core, 0}, NodeId{NodeKind::Core, 2},
                  8));
    sim.run(100);
    EXPECT_GT(arrival(NodeId{NodeKind::Core, 2}), 0u);
    // Same sub-ring: no gateway crossing.
    EXPECT_EQ(net->packetsDelivered(), 1u);
}

TEST_F(NetFixture, CoreToCoreAcrossSubRings)
{
    auto net = make();
    net->send(pkt(NodeId{NodeKind::Core, 0}, NodeId{NodeKind::Core, 13},
                  8));
    sim.run(500);
    EXPECT_GT(arrival(NodeId{NodeKind::Core, 13}), 0u);
}

TEST_F(NetFixture, CrossRingSlowerThanLocal)
{
    auto net = make();
    net->send(pkt(NodeId{NodeKind::Core, 0}, NodeId{NodeKind::Core, 1},
                  8));
    net->send(pkt(NodeId{NodeKind::Core, 0}, NodeId{NodeKind::Core, 9},
                  8));
    sim.run(500);
    EXPECT_GT(arrival(NodeId{NodeKind::Core, 9}),
              arrival(NodeId{NodeKind::Core, 1}));
}

TEST_F(NetFixture, CoreToMemCtrlAndBack)
{
    auto net = make();
    bool req_at_mc = false, resp_at_core = false;
    net->setEndpointHandler([&](Packet &&p) {
        if (p.dst == NodeId{NodeKind::Core, 6}) {
            resp_at_core = p.kind == PacketKind::MemReadResp;
            return;
        }
        req_at_mc = p.dst == NodeId{NodeKind::MemCtrl, 1};
        // Bounce a response.
        Packet resp;
        resp.src = NodeId{NodeKind::MemCtrl, 1};
        resp.dst = p.src;
        resp.payloadBytes = 72;
        resp.kind = PacketKind::MemReadResp;
        net->send(std::move(resp));
    });
    net->send(pkt(NodeId{NodeKind::Core, 6},
                  NodeId{NodeKind::MemCtrl, 1}, 12,
                  PacketKind::MemReadReq));
    sim.run(1000);
    EXPECT_TRUE(req_at_mc);
    EXPECT_TRUE(resp_at_core);
}

TEST_F(NetFixture, GatewayInterceptorConsumesOutbound)
{
    auto net = make();
    int intercepted = 0;
    bool reached_mc = false;
    net->setGatewayInterceptor([&](std::uint32_t sub_ring, Packet &pkt) {
        if (sub_ring == 0 && pkt.kind == PacketKind::MemReadReq) {
            ++intercepted;
            return true; // consumed (MACT collected it)
        }
        return false;
    });
    net->setEndpointHandler([&](Packet &&) { reached_mc = true; });
    net->send(pkt(NodeId{NodeKind::Core, 0},
                  NodeId{NodeKind::MemCtrl, 0}, 12,
                  PacketKind::MemReadReq));
    sim.run(500);
    EXPECT_EQ(intercepted, 1);
    EXPECT_FALSE(reached_mc);
}

TEST_F(NetFixture, InterceptorPassThroughContinues)
{
    auto net = make();
    bool reached_mc = false;
    net->setGatewayInterceptor(
        [](std::uint32_t, Packet &) { return false; });
    net->setEndpointHandler([&](Packet &&p) {
        reached_mc = p.dst == NodeId{NodeKind::MemCtrl, 0};
    });
    net->send(pkt(NodeId{NodeKind::Core, 0},
                  NodeId{NodeKind::MemCtrl, 0}, 12,
                  PacketKind::MemReadReq));
    sim.run(500);
    EXPECT_TRUE(reached_mc);
}

TEST_F(NetFixture, GatewayEndpointReceivesControl)
{
    auto net = make();
    bool got = false;
    net->setEndpointHandler([&](Packet &&p) {
        got = p.dst == NodeId{NodeKind::Gateway, 2} &&
              p.kind == PacketKind::Control;
    });
    net->send(pkt(NodeId{NodeKind::Io, 0},
                  NodeId{NodeKind::Gateway, 2}, 32));
    sim.run(500);
    EXPECT_TRUE(got);
}

TEST_F(NetFixture, EndpointHandlerTakesEveryDelivery)
{
    // The delivery rule: every packet goes to the endpoint handler at
    // its final destination, whatever kind of node that is.
    auto net = make();
    const NodeId dsts[] = {NodeId{NodeKind::Core, 9},
                           NodeId{NodeKind::Gateway, 1},
                           NodeId{NodeKind::MemCtrl, 2}};
    for (const NodeId &dst : dsts)
        net->send(pkt(NodeId{NodeKind::Core, 0}, dst, 8));
    sim.run(500);
    for (const NodeId &dst : dsts) {
        int seen = 0;
        for (const Delivery &d : deliveries)
            seen += d.dst == dst ? 1 : 0;
        EXPECT_EQ(seen, 1) << toString(dst);
    }
    EXPECT_EQ(deliveries.size(), 3u);
    EXPECT_EQ(net->packetsDelivered(), 3u);
}

TEST_F(NetFixture, ManyPacketsAllDelivered)
{
    auto net = make();
    const std::size_t per_core = 20;
    for (std::uint32_t c = 0; c < 16; ++c) {
        for (std::size_t i = 0; i < per_core; ++i) {
            net->send(pkt(NodeId{NodeKind::Core, c},
                          NodeId{NodeKind::Core, (c + 5) % 16}, 8));
        }
    }
    sim.run(20000);
    EXPECT_EQ(deliveries.size(), 16 * per_core);
}

TEST_F(NetFixture, FullInjectQueueRetriesUntilDelivered)
{
    // A single-slot inject queue bounces a same-cycle burst; the
    // endpoint-side buffer model must retry every bounced packet
    // until it lands — congestion shows up as noc.injectRejected counts
    // and latency, never as loss.
    params.injectQueueCap = 1;
    auto net = make();
    const std::size_t burst = 32;
    for (std::size_t i = 0; i < burst; ++i)
        net->send(pkt(NodeId{NodeKind::Core, 0},
                      NodeId{NodeKind::Core, 3}, 32));
    sim.run(20000);
    EXPECT_EQ(deliveries.size(), burst);
    EXPECT_GT(sim.stats().get("noc.injectRejected").value(), 0.0);
}

TEST_F(NetFixture, UtilisationGrowsWithTraffic)
{
    auto net = make();
    for (int i = 0; i < 50; ++i)
        net->send(pkt(NodeId{NodeKind::Core, 0},
                      NodeId{NodeKind::Core, 9}, 32));
    sim.run(200);
    EXPECT_GT(net->utilisation(sim.now()), 0.0);
}

TEST(DirectPath, FixedLatencyTransfer)
{
    StatRegistry reg;
    DirectPathParams p;
    p.linkLatency = 6;
    p.bytesPerCycle = 8.0;
    DirectPath path(reg, p, 4, "direct");
    EXPECT_EQ(path.transfer(0, 16, 0), 8u); // 6 + ceil(16/8)
    EXPECT_EQ(reg.get("direct.transfers").value(), 1.0);
    EXPECT_EQ(reg.get("direct.bytes").value(), 16.0);
    EXPECT_EQ(reg.get("direct.latency").value(), 8.0);
}

TEST(DirectPath, PerSubRingChannelsIndependent)
{
    StatRegistry reg;
    DirectPath path(reg, DirectPathParams{}, 2, "direct");
    const Cycle a = path.transfer(0, 64, 0);
    const Cycle b = path.transfer(1, 64, 0);
    EXPECT_EQ(a, b); // no interference between star links
}

TEST(DirectPath, SerialisationQueuesOnOneLink)
{
    StatRegistry reg;
    DirectPath path(reg, DirectPathParams{}, 1, "direct");
    const Cycle first = path.transfer(0, 64, 0);
    const Cycle second = path.transfer(0, 64, 0);
    EXPECT_GT(second, first);
}
