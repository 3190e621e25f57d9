#include "noc/packet.hpp"

#include "sim/logging.hpp"

namespace smarco::noc {

std::string
toString(NodeId node)
{
    const char *prefix = nullptr;
    switch (node.kind) {
      case NodeKind::Core: prefix = "core"; break;
      case NodeKind::MemCtrl: prefix = "mc"; break;
      case NodeKind::Gateway: prefix = "gw"; break;
      case NodeKind::Io: prefix = "io"; break;
    }
    if (!prefix)
        panic("toString: bad NodeKind");
    return strprintf("%s%u", prefix, node.index);
}

std::string
toString(PacketKind kind)
{
    switch (kind) {
      case PacketKind::MemReadReq: return "mem-read-req";
      case PacketKind::MemWriteReq: return "mem-write-req";
      case PacketKind::MemReadResp: return "mem-read-resp";
      case PacketKind::MactBatchReq: return "mact-batch-req";
      case PacketKind::MactBatchResp: return "mact-batch-resp";
      case PacketKind::DmaChunk: return "dma-chunk";
      case PacketKind::SpmRemoteReq: return "spm-remote-req";
      case PacketKind::SpmRemoteResp: return "spm-remote-resp";
      case PacketKind::Control: return "control";
    }
    panic("toString: bad PacketKind %d", static_cast<int>(kind));
}

} // namespace smarco::noc
