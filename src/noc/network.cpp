#include "noc/network.hpp"

#include <utility>

#include "sim/logging.hpp"

namespace smarco::noc {

Network::Network(Simulator &sim, NetworkParams params,
                 std::uint32_t num_mem_ctrls,
                 const std::string &stat_prefix)
    : sim_(sim),
      params_(params),
      delivered_(sim.stats(), stat_prefix + ".delivered",
                 "packets delivered end to end"),
      endToEnd_(sim.stats(), stat_prefix + ".endToEnd",
                "mean end-to-end packet latency (cycles)"),
      gatewayCrossings_(sim.stats(), stat_prefix + ".gatewayCrossings",
                        "packets crossing a sub/main gateway"),
      injectRejected_(sim.stats(), stat_prefix + ".injectRejected",
                      "injections bounced by a full inject queue "
                      "(retried next cycle)")
{
    if (params_.numSubRings == 0 || params_.coresPerSubRing == 0)
        fatal("network: empty topology");
    if (num_mem_ctrls == 0)
        fatal("network: need at least one memory controller");
    if (params_.numSubRings % num_mem_ctrls != 0)
        fatal("network: %u MCs cannot be equally spaced among %u "
              "gateways", num_mem_ctrls, params_.numSubRings);

    // Main-ring layout: MCs equally spaced between gateway groups,
    // I/O stops at the end (Fig. 4).
    const std::uint32_t group = params_.numSubRings / num_mem_ctrls;
    std::uint32_t g = 0;
    for (std::uint32_t m = 0; m < num_mem_ctrls; ++m) {
        for (std::uint32_t k = 0; k < group; ++k, ++g) {
            gatewayStop_.push_back(
                static_cast<std::uint32_t>(mainLayout_.size()));
            mainLayout_.push_back(NodeId{NodeKind::Gateway, g});
        }
        mcStop_.push_back(static_cast<std::uint32_t>(mainLayout_.size()));
        mainLayout_.push_back(NodeId{NodeKind::MemCtrl, m});
    }
    for (std::uint32_t i = 0; i < params_.numIo; ++i) {
        ioStop_.push_back(static_cast<std::uint32_t>(mainLayout_.size()));
        mainLayout_.push_back(NodeId{NodeKind::Io, i});
    }

    RingParams mp;
    mp.name = "mainRing";
    mp.numStops = static_cast<std::uint32_t>(mainLayout_.size());
    mp.fixedBytesPerDir = params_.mainFixedBytesPerDir;
    mp.flexBytes = params_.mainFlexBytes;
    mp.sliceBytes = params_.sliceBytes;
    mp.stopQueueCap = params_.stopQueueCap;
    mp.injectQueueCap = params_.injectQueueCap;
    main_ = std::make_unique<Ring>(sim, mp, stat_prefix + ".main");
    for (std::uint32_t s = 0; s < mp.numStops; ++s) {
        main_->setHandler(s, [this, s](Packet &&pkt) {
            onMainRingEject(s, std::move(pkt));
        });
    }

    for (std::uint32_t r = 0; r < params_.numSubRings; ++r) {
        RingParams sp;
        sp.name = strprintf("subRing%u", r);
        sp.numStops = params_.coresPerSubRing + 1; // + gateway stop
        sp.fixedBytesPerDir = params_.subFixedBytesPerDir;
        sp.flexBytes = params_.subFlexBytes;
        sp.sliceBytes = params_.sliceBytes;
        sp.stopQueueCap = params_.stopQueueCap;
        sp.injectQueueCap = params_.injectQueueCap;
        subs_.push_back(std::make_unique<Ring>(
            sim, sp, strprintf("%s.sub%u", stat_prefix.c_str(), r)));
        for (std::uint32_t s = 0; s < sp.numStops; ++s) {
            subs_[r]->setHandler(s, [this, r](Packet &&pkt) {
                onSubRingEject(r, std::move(pkt));
            });
        }
    }
}

void
Network::setEndpointHandler(Handler handler)
{
    endpointHandler_ = std::move(handler);
}

void
Network::setGatewayInterceptor(Interceptor interceptor)
{
    interceptor_ = std::move(interceptor);
}

std::uint32_t
Network::mainStopOf(NodeId node) const
{
    switch (node.kind) {
      case NodeKind::Gateway:
        return gatewayStop_[node.index];
      case NodeKind::MemCtrl:
        return mcStop_[node.index];
      case NodeKind::Io:
        return ioStop_[node.index];
      case NodeKind::Core:
        break;
    }
    panic("network: node %s has no main-ring stop",
          toString(node).c_str());
}

std::uint32_t
Network::mainStopFor(NodeId dst) const
{
    if (dst.kind == NodeKind::Core)
        return gatewayStop_[subRingOf(dst.index)];
    return mainStopOf(dst);
}

void
Network::injectWithRetry(Ring &ring, std::uint32_t src,
                         std::uint32_t dst, Packet &&pkt)
{
    if (ring.inject(src, dst, std::move(pkt)))
        return;
    // Injection queue full: model an endpoint-side buffer by
    // retrying next cycle. Congestion thus shows up as latency.
    ++injectRejected_;
    sim_.events().schedule(
        sim_.now() + 1,
        [this, &ring, src, dst, p = std::move(pkt)]() mutable {
            injectWithRetry(ring, src, dst, std::move(p));
        });
}

void
Network::send(Packet &&pkt)
{
    if (pkt.id == 0)
        pkt.id = nextPacketId_++;
    if (pkt.created == 0)
        pkt.created = sim_.now();
    if (pkt.src == pkt.dst) {
        deliver(std::move(pkt));
        return;
    }

    switch (pkt.src.kind) {
      case NodeKind::Core: {
        const std::uint32_t r = subRingOf(pkt.src.index);
        const std::uint32_t src_stop = subStopOf(pkt.src.index);
        // A core on this sub-ring, else the local gateway stop.
        const std::uint32_t dst_stop =
            pkt.dst.kind == NodeKind::Core &&
                    subRingOf(pkt.dst.index) == r
                ? subStopOf(pkt.dst.index)
                : params_.coresPerSubRing;
        injectWithRetry(*subs_[r], src_stop, dst_stop, std::move(pkt));
        return;
      }
      case NodeKind::Gateway: {
        const std::uint32_t r = pkt.src.index;
        if (pkt.dst.kind == NodeKind::Core &&
            subRingOf(pkt.dst.index) == r) {
            injectWithRetry(*subs_[r], params_.coresPerSubRing,
                            subStopOf(pkt.dst.index), std::move(pkt));
        } else {
            injectWithRetry(*main_, gatewayStop_[r],
                            mainStopFor(pkt.dst), std::move(pkt));
        }
        return;
      }
      case NodeKind::MemCtrl:
      case NodeKind::Io: {
        injectWithRetry(*main_, mainStopOf(pkt.src),
                        mainStopFor(pkt.dst), std::move(pkt));
        return;
      }
    }
    panic("network: bad source kind");
}

void
Network::deliver(Packet &&pkt)
{
    ++delivered_;
    endToEnd_.sample(static_cast<double>(sim_.now() - pkt.created));

    if (endpointHandler_) {
        endpointHandler_(std::move(pkt));
        return;
    }
    warn("network: packet %llu (%s) delivered to %s with no handler",
         static_cast<unsigned long long>(pkt.id),
         toString(pkt.kind).c_str(), toString(pkt.dst).c_str());
}

void
Network::onSubRingEject(std::uint32_t sub_ring, Packet &&pkt)
{
    // A packet ejected inside a sub-ring either reached its final
    // core, or reached the gateway stop on its way out.
    if (pkt.dst.kind == NodeKind::Core &&
        subRingOf(pkt.dst.index) == sub_ring) {
        deliver(std::move(pkt));
        return;
    }
    if (pkt.dst.kind == NodeKind::Gateway &&
        pkt.dst.index == sub_ring) {
        deliver(std::move(pkt));
        return;
    }
    // Outbound: offer to the gateway interceptor (MACT), then cross
    // onto the main ring.
    ++gatewayCrossings_;
    if (interceptor_ && interceptor_(sub_ring, pkt))
        return;
    injectWithRetry(*main_, gatewayStop_[sub_ring],
                    mainStopFor(pkt.dst), std::move(pkt));
}

void
Network::onMainRingEject(std::uint32_t stop, Packet &&pkt)
{
    const NodeId here = mainLayout_[stop];
    if (pkt.dst == here) {
        deliver(std::move(pkt));
        return;
    }
    if (here.kind == NodeKind::Gateway) {
        // Descend into the sub-ring towards the destination core.
        ++gatewayCrossings_;
        const std::uint32_t r = here.index;
        if (pkt.dst.kind != NodeKind::Core || subRingOf(pkt.dst.index) != r)
            panic("network: packet %llu for %s ejected at %s",
                  static_cast<unsigned long long>(pkt.id),
                  toString(pkt.dst).c_str(), toString(here).c_str());
        injectWithRetry(*subs_[r], params_.coresPerSubRing,
                        subStopOf(pkt.dst.index), std::move(pkt));
        return;
    }
    panic("network: stray packet %llu for %s at main stop %u",
          static_cast<unsigned long long>(pkt.id),
          toString(pkt.dst).c_str(), stop);
}

double
Network::utilisation(Cycle elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    // Capacity-weighted mean of per-ring utilisation.
    double used = 0.0;
    double cap = 0.0;
    const auto ringCap = [](const Ring &r) {
        return static_cast<double>(r.params().numStops) *
               (2.0 * r.params().fixedBytesPerDir +
                r.params().flexBytes);
    };
    used += main_->utilisation(elapsed) * ringCap(*main_);
    cap += ringCap(*main_);
    for (const auto &s : subs_) {
        used += s->utilisation(elapsed) * ringCap(*s);
        cap += ringCap(*s);
    }
    return cap > 0.0 ? used / cap : 0.0;
}

} // namespace smarco::noc
