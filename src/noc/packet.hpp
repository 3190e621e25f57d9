/**
 * @file
 * NoC packet and endpoint naming.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>

#include "mem/mem_types.hpp"
#include "sim/types.hpp"

namespace smarco::noc {

/** Classes of NoC endpoints on the SmarCo chip. */
enum class NodeKind : std::uint8_t {
    Core,    ///< one of the 256 TCG cores
    MemCtrl, ///< one of the 4 DDR controllers on the main ring
    Gateway, ///< sub-ring <-> main-ring router (MACT lives here)
    Io       ///< PCIe / host interface stop on the main ring
};

/** Address of a NoC endpoint. */
struct NodeId {
    NodeKind kind = NodeKind::Core;
    std::uint32_t index = 0;

    bool
    operator==(const NodeId &o) const
    {
        return kind == o.kind && index == o.index;
    }
};

/** Human-readable endpoint name, e.g. "core42" or "mc1". */
std::string toString(NodeId node);

/** Payload classes, for statistics and interception decisions. */
enum class PacketKind : std::uint8_t {
    MemReadReq,
    MemWriteReq,
    MemReadResp,
    MactBatchReq,
    MactBatchResp,
    DmaChunk,
    SpmRemoteReq,
    SpmRemoteResp,
    Control
};

std::string toString(PacketKind kind);

/** A memory request or MACT batch carried by a packet. */
using RequestPtr = std::shared_ptr<mem::MemRequest>;
using BatchPtr = std::shared_ptr<mem::MactBatch>;

/**
 * One NoC packet. The network only moves bytes; what a packet carries
 * depends on its kind. A core's request to a memory controller
 * (MemReadReq, MemWriteReq, DmaChunk) carries its mem::MemRequest,
 * completion included, and a MactBatchReq/Resp carries its
 * mem::MactBatch, both in payload, where the gateway interceptor and
 * the endpoint handlers read them. Every other packet (responses,
 * remote-SPM traffic, task hand-off) carries its effect in onDeliver,
 * which Network runs at the final destination instead of an endpoint
 * handler. A Ring never runs it: a stop's handler takes the packet.
 *
 * The carried request or batch is held by pointer so a packet stays
 * small on every ring hop. Packets are copyable: a ring's duplicate
 * fault copies one, sharing the carried object, and ring dedup (on
 * whenever duplication is armed) drops the copy before any endpoint
 * reads it, so a carried completion still runs exactly once.
 */
struct Packet {
    std::uint64_t id = 0;
    NodeId src;
    NodeId dst;
    PacketKind kind = PacketKind::Control;
    bool priority = false;
    std::uint32_t payloadBytes = 8;
    Cycle created = 0;
    std::variant<std::monostate, RequestPtr, BatchPtr> payload;
    std::function<void()> onDeliver;
};

} // namespace smarco::noc
