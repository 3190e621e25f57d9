/**
 * @file
 * Profile-driven micro-op stream generator.
 */
#pragma once

#include <cstdint>

#include "isa/instr_stream.hpp"
#include "sim/random.hpp"
#include "workloads/profile.hpp"

namespace smarco::workloads {

/**
 * Where a thread's data lives in the unified address space. Filled in
 * by whoever places the task on a core (MapReduce runtime / chip
 * harness); the generator only needs region bases and sizes.
 */
struct AddressLayout {
    Addr spmLocalBase = 0;
    std::uint64_t spmLocalSize = 96 * 1024;
    Addr spmRemoteBase = 0;
    std::uint64_t spmRemoteSize = 96 * 1024;
    Addr heapBase = 0;
    std::uint64_t heapSize = 256 * 1024;
    Addr streamBase = 0;
    std::uint64_t streamSize = 4 * 1024 * 1024;
};

/**
 * Generates a bounded stream of micro-ops matching a BenchProfile:
 * instruction mix by Bernoulli mixing, access sizes from the
 * granularity distribution, heap addresses from a Zipf reuse pattern,
 * stream addresses sequential (scan-like), scratch-pad addresses
 * uniform within the region. The stream ends with a Halt op after
 * num_ops micro-ops.
 */
class ProfileStream : public isa::InstrStream
{
  public:
    ProfileStream(const BenchProfile &profile, AddressLayout layout,
                  std::uint64_t num_ops, std::uint64_t seed);

    bool next(isa::MicroOp &op) override;

    const BenchProfile &profile() const { return profile_; }

  private:
    Addr heapAddr(std::uint8_t size);
    Addr streamAddr(std::uint8_t size);

    const BenchProfile &profile_;
    AddressLayout layout_;
    std::uint64_t numOps_;
    Rng rng_;
    DiscreteDist granularity_;
    ZipfDist heapReuse_;
    std::uint64_t produced_ = 0;
    bool haltEmitted_ = false;
    std::uint64_t streamCursor_ = 0;
    /** Remaining memory ops of the current stream burst. */
    std::uint32_t burstLeft_ = 0;
    bool burstIsStore_ = false;
    /** Burst-entry probability (see ctor). */
    double streamEntry_ = 0.0;
};

} // namespace smarco::workloads
