/**
 * @file
 * Top-level SmarCo chip configuration and presets.
 */
#pragma once

#include <cstdint>
#include <string>

#include "core/tcg_core.hpp"
#include "mem/dram.hpp"
#include "mem/mact.hpp"
#include "mem/mem_types.hpp"
#include "noc/direct_path.hpp"
#include "noc/network.hpp"
#include "sched/main_scheduler.hpp"
#include "sched/sub_scheduler.hpp"

namespace smarco::chip {

/** Everything needed to instantiate a SmarcoChip. */
struct ChipConfig {
    std::string name = "smarco-256";
    double freqGHz = 1.5;

    core::CoreParams core{};
    noc::NetworkParams noc{};
    noc::DirectPathParams directPath{};
    mem::MactParams mact{};
    mem::DramParams dram{};
    sched::SubSchedulerParams subSched{};
    sched::MainSchedulerParams mainSched{};

    /** Per-core DRAM heap region stride (keeps regions disjoint). */
    std::uint64_t heapStride = 16ull * 1024 * 1024;
    /** Per-core DRAM stream region stride. */
    std::uint64_t streamStride = 16ull * 1024 * 1024;

    std::uint32_t numCores() const
    { return noc.numSubRings * noc.coresPerSubRing; }
    std::uint32_t numThreadsTotal() const
    { return numCores() * core.numThreads; }
    /** Address map: one core.spm-sized window per core. */
    mem::MemoryMap map() const
    { return {numCores(), core.spm.sizeBytes}; }

    /** Consistency checks; calls fatal() on bad combinations. */
    void validate() const;

    /** The paper's full 256-core, 2048-thread simulated chip. */
    static ChipConfig simulated256();

    /**
     * The taped-out TSMC 40 nm prototype: supports 256 threads at
     * most (32 TCG cores), lower frequency.
     */
    static ChipConfig prototype40nm();

    /**
     * A reduced chip for component experiments: sub_rings sub-rings
     * of cores_per cores with one memory controller per 4 sub-rings
     * (minimum 1).
     */
    static ChipConfig scaled(std::uint32_t sub_rings,
                             std::uint32_t cores_per);
};

} // namespace smarco::chip
