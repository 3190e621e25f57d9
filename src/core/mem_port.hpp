/**
 * @file
 * Interface a TCG core uses to reach the memory system beyond its
 * local SPM and D-cache. Implemented by the chip, which routes
 * requests through the NoC, MACT, direct datapath and DRAM.
 */
#pragma once

#include <cstdint>

#include "isa/micro_op.hpp"
#include "mem/mem_types.hpp"
#include "sim/types.hpp"

namespace smarco::core {

/**
 * Off-core memory port. All methods are fire-and-forget: the port
 * completes a request by its access class, possibly many cycles
 * later, through the issuing core's TcgCore::loadDone (a load) or
 * TcgCore::storeDone (a store); a writeback completes silently.
 */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /**
     * A demand access that missed the local structures: heap D-cache
     * line fill, remote-SPM access, or uncached stream access. The
     * micro-op carries address, size and priority; access is Load for
     * a blocking load and Store for a posted store.
     */
    virtual void request(CoreId core, ThreadId thread,
                         const isa::MicroOp &op,
                         mem::AccessClass access) = 0;

    /** Write back a dirty 64-byte victim line to memory. */
    virtual void writeback(CoreId core, Addr line_addr) = 0;
};

} // namespace smarco::core
