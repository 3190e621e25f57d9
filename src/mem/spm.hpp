/**
 * @file
 * Scratch-Pad Memory (SPM) and its DMA engine (Section 3.5.1).
 *
 * Each TCG core owns a 128 KB programmer-managed SPM mapped into the
 * unified address space. The top 256 bytes act as control registers
 * (DMA source/destination/size). DMA stages a task's input from DRAM
 * into the core's own SPM without blocking the pipeline.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smarco::mem {

/** Configuration of one scratch-pad. */
struct SpmParams {
    std::uint64_t sizeBytes = 128 * 1024;
    /** Bytes reserved at the top for DMA control registers. */
    std::uint64_t controlBytes = 256;
    /** Bytes one DMA transfer moves per chunk packet. */
    std::uint32_t dmaChunkBytes = 256;
};

/**
 * One core's scratch-pad. The SPM itself is a latency/occupancy
 * model; actual payload bytes live in the functional layer (the
 * MapReduce runtime keeps real data host-side).
 */
class Spm
{
  public:
    Spm(StatRegistry &stats, SpmParams params,
        const std::string &stat_prefix);

    /** Account one pipeline access. */
    void access(bool write);

    const SpmParams &params() const { return params_; }
    std::uint64_t dataBytes() const
    { return params_.sizeBytes - params_.controlBytes; }

  private:
    SpmParams params_;
    Scalar reads_;
    Scalar writes_;
};

/**
 * DMA engine attached to an SPM. The engine hands chunk-granularity
 * reads to the transport it is built with (on the chip, one that
 * sends each to DRAM and answers the owning core) and invokes the
 * completion callback when every chunk has been acknowledged.
 */
class DmaEngine
{
  public:
    /** Transport: move one chunk from src into the SPM; call done()
     *  when it completes. */
    using Transport = std::function<void(
        Addr src, std::uint32_t bytes, std::function<void()> done)>;

    DmaEngine(StatRegistry &stats, std::uint32_t chunk_bytes,
              Transport transport, const std::string &stat_prefix,
              std::uint32_t max_outstanding = 4);

    /**
     * Start a transfer of bytes from src into the SPM; done runs once
     * the final chunk completes. Multiple transfers may be in flight.
     */
    void start(Addr src, std::uint64_t bytes, std::function<void()> done);

  private:
    struct Chunk {
        Addr src;
        std::uint32_t bytes;
        std::function<void()> onChunk;
    };

    void issueNext();

    std::uint32_t chunkBytes_;
    std::uint32_t maxOutstanding_;
    Transport transport_;
    std::uint32_t outstanding_ = 0;
    std::vector<Chunk> queue_;   ///< pending chunks, FIFO by index
    std::size_t queueHead_ = 0;
    Scalar transfers_;
    Scalar chunkCount_;
    Scalar bytesMoved_;
};

} // namespace smarco::mem
