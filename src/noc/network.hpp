/**
 * @file
 * Hierarchical ring network (Section 3.2, Fig. 4).
 *
 * 256 cores sit on 16 sub-rings of 16 cores each; every sub-ring
 * connects to the main ring through a gateway router. Four memory
 * controllers are spaced equally around the main ring, plus I/O
 * (PCIe/host) stops. This class owns all the rings, installs the
 * routing handlers, and exposes a single send() interface between
 * NodeIds. The chip installs one endpoint handler for every node and
 * one gateway interceptor for the MACT.
 *
 * Every ring stop's handler is a routing hook of this class: it takes
 * each ejected packet, also at an intermediate gateway stop, and
 * delivers it only at the final destination.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "noc/packet.hpp"
#include "noc/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace smarco::noc {

/** Configuration of the whole on-chip network. */
struct NetworkParams {
    std::uint32_t numSubRings = 16;
    std::uint32_t coresPerSubRing = 16;
    std::uint32_t numIo = 2;
    /**
     * Main ring: 512-bit total = 64 B/cycle; per direction three
     * fixed 64-bit datapaths (24 B) plus two bidirectional (16 B).
     */
    std::uint32_t mainFixedBytesPerDir = 24;
    std::uint32_t mainFlexBytes = 16;
    /**
     * Sub-ring: 256-bit total = 32 B/cycle; one fixed datapath per
     * direction (8 B) plus two bidirectional (16 B).
     */
    std::uint32_t subFixedBytesPerDir = 8;
    std::uint32_t subFlexBytes = 16;
    /** High-density slice width; 0 = conventional wide links. */
    std::uint32_t sliceBytes = 2;
    std::uint32_t stopQueueCap = 16;
    std::uint32_t injectQueueCap = 64;
};

/**
 * The hierarchical ring NoC. One delivery rule: every packet goes to
 * the endpoint handler at its final destination (core, gateway,
 * memory controller or I/O stop), which reads the node from pkt.dst.
 */
class Network
{
  public:
    using Handler = std::function<void(Packet &&)>;
    /** Gateway hook for packets leaving sub_ring for the main ring;
     *  return true to consume the packet (MACT collection). */
    using Interceptor =
        std::function<bool(std::uint32_t sub_ring, Packet &)>;

    /** num_mem_ctrls memory-controller stops are spaced equally
     *  among the gateways; it must divide params.numSubRings. */
    Network(Simulator &sim, NetworkParams params,
            std::uint32_t num_mem_ctrls, const std::string &stat_prefix);

    /** Register the consumer of every delivered packet. */
    void setEndpointHandler(Handler handler);

    /** Hook outbound packets at every sub-ring's gateway. */
    void setGatewayInterceptor(Interceptor interceptor);

    /**
     * Send a packet from pkt.src to pkt.dst. Delivery is guaranteed;
     * congestion shows up as latency, not loss.
     */
    void send(Packet &&pkt);

    std::uint32_t numCores() const
    { return params_.numSubRings * params_.coresPerSubRing; }
    std::uint32_t subRingOf(CoreId core) const
    { return core / params_.coresPerSubRing; }
    std::uint32_t subStopOf(CoreId core) const
    { return core % params_.coresPerSubRing; }

    Ring &mainRing() { return *main_; }
    Ring &subRing(std::uint32_t i) { return *subs_[i]; }
    const NetworkParams &params() const { return params_; }

    std::uint64_t packetsDelivered() const
    { return static_cast<std::uint64_t>(delivered_.value()); }
    /** Packets currently queued or traversing any ring. */
    std::uint64_t totalInFlight() const
    {
        std::uint64_t n = main_->inFlight();
        for (const auto &s : subs_)
            n += s->inFlight();
        return n;
    }
    /** Aggregate link utilisation across all rings. */
    double utilisation(Cycle elapsed) const;

  private:
    /** Main-ring stop index of a gateway / MC / IO node. */
    std::uint32_t mainStopOf(NodeId node) const;
    /** Main-ring stop a packet must reach for its final dst. */
    std::uint32_t mainStopFor(NodeId dst) const;
    void injectWithRetry(Ring &ring, std::uint32_t src,
                         std::uint32_t dst, Packet &&pkt);
    void deliver(Packet &&pkt);
    void onSubRingEject(std::uint32_t sub_ring, Packet &&pkt);
    void onMainRingEject(std::uint32_t stop, Packet &&pkt);

    Simulator &sim_;
    NetworkParams params_;
    std::unique_ptr<Ring> main_;
    std::vector<std::unique_ptr<Ring>> subs_;
    /** main-ring stop index -> node at that stop. */
    std::vector<NodeId> mainLayout_;
    /** gateway index -> main-ring stop. */
    std::vector<std::uint32_t> gatewayStop_;
    /** mem-ctrl index -> main-ring stop. */
    std::vector<std::uint32_t> mcStop_;
    /** io index -> main-ring stop. */
    std::vector<std::uint32_t> ioStop_;

    Handler endpointHandler_;
    Interceptor interceptor_;

    std::uint64_t nextPacketId_ = 1;

    Scalar delivered_;
    Average endToEnd_;
    Scalar gatewayCrossings_;
    Scalar injectRejected_;
};

} // namespace smarco::noc
