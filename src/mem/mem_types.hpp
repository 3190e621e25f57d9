/**
 * @file
 * Shared memory-system request/response types and the chip memory map.
 */
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/types.hpp"

namespace smarco::mem {

/**
 * Unified address map of the SmarCo chip. SPMs are initialised with
 * unified addressing with main memory (Section 3.5.1): every core's
 * scratch-pad occupies a fixed window, and DRAM sits above. The chip
 * builds it from its core count and SPM size (ChipConfig::map).
 */
struct MemoryMap {
    static constexpr Addr spmBase = 0x1000'0000;
    static constexpr Addr dramBase = 0x8000'0000;

    MemoryMap(std::uint32_t num_cores, std::uint64_t spm_per_core)
        : numCores(num_cores), spmPerCore(spm_per_core) {}

    std::uint32_t numCores;
    std::uint64_t spmPerCore;

    /** Base address of core's scratch-pad window. */
    Addr
    spmBaseOf(CoreId core) const
    {
        return spmBase + static_cast<Addr>(core) * spmPerCore;
    }

    /** True when addr falls in any scratch-pad window. */
    bool
    isSpm(Addr addr) const
    {
        return addr >= spmBase &&
               addr < spmBase + static_cast<Addr>(numCores) * spmPerCore;
    }

    /** Core owning a scratch-pad address; addr must satisfy isSpm. */
    CoreId
    spmOwner(Addr addr) const
    {
        return static_cast<CoreId>((addr - spmBase) / spmPerCore);
    }
};

/** What a memory request is, and so how the chip completes it. */
enum class AccessClass : std::uint8_t {
    Load,      ///< a core's blocking load: timed, wakes its context
    Store,     ///< a core's posted store: frees a store-buffer slot
    Writeback, ///< a dirty victim line nobody waits on
    DmaChunk   ///< one chunk of a DMA transfer into the core's SPM
};

/**
 * A single in-flight memory request: plain data. It rides the NoC and
 * the MACT from its core to whatever serves it and back, and the chip
 * completes it by its access class (SmarcoChip::complete).
 */
struct MemRequest {
    /** A DMA chunk's transfer tag (DmaEngine::chunkDone); else 0. */
    std::uint64_t id = 0;
    bool write = false;
    AccessClass access = AccessClass::Load;
    Addr addr = kNoAddr;
    std::uint32_t bytes = 0;
    /** Superior real-time priority: bypasses MACT, may use the
     *  direct datapath (Sections 3.4, 3.5.2). */
    bool priority = false;
    CoreId core = 0;
    ThreadId thread = 0;
    Cycle issued = 0;
};

// A request is data, so no completion closure can ride it.
static_assert(std::is_trivially_copyable_v<MemRequest>);

/** One flushed MACT batch: a merged per-line memory access. */
struct MactBatch {
    bool write = false;
    Addr lineBase = kNoAddr;
    std::uint64_t vector = 0;
    /** The original requests merged into this batch. */
    std::vector<MemRequest> requests;

    /** Number of distinct bytes covered by the bitmap. */
    std::uint32_t coveredBytes() const;

    /** Wire size of the batch request packet. */
    std::uint32_t wireBytes() const;
};

/** Approximate wire overhead of a request header, in bytes. */
inline constexpr std::uint32_t kReqHeaderBytes = 8;
/** Wire size of a read request packet (header + address/meta). */
inline constexpr std::uint32_t kReadReqBytes = 12;

} // namespace smarco::mem
