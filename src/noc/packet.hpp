/**
 * @file
 * NoC packet and endpoint naming.
 */
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "mem/mem_types.hpp"
#include "sim/types.hpp"
#include "workloads/task.hpp"

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

/**
 * One NoC packet: data only. The network moves bytes and hands every
 * packet to the endpoint handler at its final destination, which
 * reads what the packet carries by its kind. A core's request
 * (MemReadReq, MemWriteReq, DmaChunk, SpmRemoteReq) carries its
 * mem::MemRequest, and the response (MemReadResp, DmaChunk,
 * SpmRemoteResp) carries a copy of it back to the core, where the
 * chip completes it by its access class. A MactBatchReq/Resp carries
 * its mem::MactBatch, and a Control packet a copy of the task it
 * hands off to a sub-ring.
 *
 * The payload is held by value: a ring keeps its in-flight packets
 * in a slot pool and a hop moves a slot index, so the packet itself
 * moves only at inject and eject. A ring's duplicate fault copies a
 * packet, payload included, and ring dedup (on whenever duplication
 * is armed) drops the copy before any endpoint reads it, so the chip
 * still completes each request exactly once.
 */
struct Packet {
    std::uint64_t id = 0;
    NodeId src;
    NodeId dst;
    PacketKind kind = PacketKind::Control;
    bool priority = false;
    std::uint32_t payloadBytes = 8;
    Cycle created = 0;
    std::variant<std::monostate, mem::MemRequest, mem::MactBatch,
                 workloads::TaskSpec>
        payload;
};

} // namespace smarco::noc
