/**
 * @file
 * Micro-operation model.
 *
 * SmarCo cores are modelled at the micro-op level: workload generators
 * emit typed micro-ops with realistic mixes, access granularities and
 * address streams, and the pipeline model executes them. This is the
 * level at which the paper's evaluation operates (IPC, memory traffic,
 * NoC packets), without requiring a full ISA + compiler toolchain.
 */
#pragma once

#include <cstdint>
#include <string>

#include "sim/types.hpp"

namespace smarco::isa {

/** Functional class of a micro-op. */
enum class OpKind : std::uint8_t {
    Alu,      ///< integer/logic op, 1-cycle class
    Mul,      ///< multiply/divide class, multi-cycle
    Fp,       ///< floating point class (K-means distance math)
    Branch,   ///< control transfer; may flush on mispredict
    Load,     ///< memory read
    Store,    ///< memory write
    Halt      ///< end of the thread's task
};

/**
 * Which part of the memory system a load/store targets. The LSQ in a
 * real SmarCo core steers by address range; generators pre-classify so
 * both the SmarCo and the baseline models can interpret the same
 * streams (the baseline treats every access as cacheable).
 */
enum class MemClass : std::uint8_t {
    None,       ///< not a memory op
    SpmLocal,   ///< core-local scratch-pad hit
    SpmRemote,  ///< scratch-pad of another core in the sub-ring
    Heap,       ///< cacheable heap/stack data (D-cache)
    Stream      ///< uncached streaming data, word-granularity to DRAM
};

/** A single decoded micro-operation. */
struct MicroOp {
    OpKind kind = OpKind::Alu;
    MemClass memClass = MemClass::None;
    /** Access size in bytes for loads/stores (1..64). */
    std::uint8_t size = 0;
    /** Execution latency class for Alu/Mul/Fp ops, in cycles. */
    std::uint8_t execLatency = 1;
    /** True when the branch is mispredicted (resolved by generator). */
    bool mispredict = false;
    /** High real-time priority: bypasses MACT, may use direct path. */
    bool priority = false;
    /** Effective address for loads/stores. */
    Addr addr = kNoAddr;

    bool isMem() const { return kind == OpKind::Load || kind == OpKind::Store; }
    bool isStore() const { return kind == OpKind::Store; }
};

/** Human-readable name of an op kind (for traces and tests). */
std::string toString(OpKind kind);

/** Human-readable name of a memory class. */
std::string toString(MemClass mem_class);

} // namespace smarco::isa
